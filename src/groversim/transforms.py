"""The Walsh-Hadamard transform and the two phase-inversion steps.

The transform's matrix entry at (q, r) is +-1/sqrt(N) where the sign is
positive exactly when q AND r has an even number of 1 bits. Two
implementations are kept deliberately independent: a naive O(4**n)
matrix-vector product used as a reference, and the O(n * 2**n) butterfly
used everywhere else. The naive transform builds its N x N matrix on each
call, one block of 32 rows at a time at about 9 bytes per entry, so its
peak stays near 288 * N bytes, and keeps nothing between calls. The
butterfly repeats one pass form between two buffers of 2**n amplitudes,
over cache-sized blocks for the low 16 bits, then over column strips 2**14
wide of the vector viewed as rows of one block, each strip through all the
high-bit passes before the next; the search engine owns such a pair for a
whole run and hands it in, and other callers get the transform of a copy.

From n=16, when the process may run on two CPUs or more, one daemon thread,
made on first use, runs half of the blocks and then half of the strips
while the caller runs the rest; on one CPU no thread is started. Every part
does the same operations in the same order, so the bytes are the same at
any worker count. Per transform in the engine's two buffers, interleaved
with the single-block code in one process (2 vCPUs, 300 MiB L3, numpy
2.4), float64: n=15 0.42 ms either way, n=16 0.87 -> 0.70, n=18
4.1 -> 2.5, n=20 19.8 -> 12.7, n=22 103 -> 53 ms; complex128: n=16
1.5 -> 1.0, n=18 7.5 -> 4.0, n=20 33 -> 23 ms. On one CPU the strips
alone were at most 2% slower than the single-block code at n=17..20 there.

Both phase inversions negate at basis indices (the oracle's cached marked
indices, or index 0) through one kernel in state.py, with no 2**n mask;
they negate a copy unless told to work in place, as the engine does.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from .state import MAX_INDEX_QUBITS, AmplitudeVector, ResourceLimitError, _as_int, _negate_at

# The naive transform does N * N multiply-adds: 16.7 million at n=12, some
# tens of milliseconds. Past that the quadratic work outgrows a cross-check,
# so it refuses and points at the butterfly.
MAX_NAIVE_QUBITS = 12

# Rows of the naive transform's matrix built and applied at a time: 9 bytes
# an entry (float64 and a byte of parity), so 288 * N bytes at peak. Fewer
# rows pay more per-block calls at small n; more rows gain no time and cost
# memory (measured at n = 6..12, one BLAS thread).
_NAIVE_ROWS = 32


def _wh_sign(q: int, r: int) -> int:
    """wh_sign without the argument checks, for callers that made them."""
    return -1 if (q & r).bit_count() & 1 else 1


def wh_sign(q: int, r: int) -> int:
    """+1 if q AND r has even popcount, -1 if odd."""
    return _wh_sign(_as_int(q, "q", 0), _as_int(r, "r", 0))


def wh_matrix_entry(n: int, q: int, r: int) -> float:
    """Transform matrix entry: wh_sign(q, r) / sqrt(2**n)."""
    size = 1 << _as_int(n, "n", 1, MAX_INDEX_QUBITS)
    return _wh_sign(_as_int(q, "q", 0, size - 1), _as_int(r, "r", 0, size - 1)) / math.sqrt(size)


def walsh_hadamard_naive(state: AmplitudeVector) -> AmplitudeVector:
    """Reference transform: full matrix-vector product.

    out[q] = sum over r of entry(q, r) * in[r]. The matrix is built on
    each call in blocks of 32 rows, at about 9 bytes per entry (its
    float64 entries and a byte of parity each), and each block is applied
    and dropped before the next is built, so the peak is about 288 * 2**n
    bytes and nothing is kept. Each row is the same product as in the
    whole matrix, so the result does not depend on the blocking.
    Quadratic work, so only small n; the butterfly version is the
    production path.
    """
    if state.n > MAX_NAIVE_QUBITS:
        raise ResourceLimitError(
            f"naive transform at n={state.n} needs a {1 << state.n}x{1 << state.n} matrix; "
            f"use walsh_hadamard_fast above n={MAX_NAIVE_QUBITS}"
        )
    idx = np.arange(state.size, dtype=np.uint32)
    re, im = state.amps.real, state.amps.imag
    out = np.empty(state.size, dtype=np.complex128)
    for q in range(0, state.size, _NAIVE_ROWS):
        out[q:q + _NAIVE_ROWS] = _naive_rows(idx[q:q + _NAIVE_ROWS], idx, re, im)
    return AmplitudeVector(state.n, out)


def _naive_rows(rows: np.ndarray, cols: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The naive transform's outputs at the indices rows: its matrix rows
    over all indices cols, applied to re + 1j * im. The rows are freed on
    return, before the caller builds the next block."""
    scale = 1.0 / math.sqrt(cols.size)
    matrix = np.where(np.bitwise_count(rows[:, None] & cols[None, :]) & 1, -scale, scale)
    return matrix @ re + 1j * (matrix @ im)


# The butterfly's low-bit passes run one block of 2**_BLOCK_BITS amplitudes
# at a time: 1 MiB of complex128 per buffer, small enough to stay in cache.
_BLOCK_BITS = 16

# The high-bit passes run on column strips 2**_STRIP_BITS amplitudes wide of
# the vector viewed as rows of one block, each strip through all of them
# before the next, so that the strip stays in cache between passes.
_STRIP_BITS = 14

# From 2**_POOL_BITS amplitudes on, the worker thread runs half of the
# blocks and half of the strips of each transform. Below, the hand-offs
# around the small ufuncs cost more than the work they share.
_POOL_BITS = 16

# Threads that run a transform's parts, the caller among them: the CPUs this
# process may run on, at most two. With one, no thread is started.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

_SCALE = 1.0 / math.sqrt(2.0)


def _ping_pong(a: np.ndarray, b: np.ndarray, passes: int) -> None:
    """Run passes over the lowest bits of the row index of a, from a into b
    and back; the result is in a if passes is even, else in b."""
    half = len(a) >> 1
    for _ in range(passes):
        lo, hi = a[0::2], a[1::2]
        np.add(lo, hi, out=b[:half])
        np.subtract(lo, hi, out=b[half:])
        b *= _SCALE
        a, b = b, a


def _blocks(a: np.ndarray, b: np.ndarray, passes: int, first: int, stop: int) -> None:
    """Run the low-bit passes on the blocks first..stop-1 of 2**passes
    amplitudes of a and b."""
    block = 1 << passes
    for start in range(first * block, stop * block, block):
        _ping_pong(a[start:start + block], b[start:start + block], passes)


def _strips(x: np.ndarray, y: np.ndarray, passes: int, first: int, stop: int) -> None:
    """Run the passes over the row bits of the 2-d views x and y on their
    column strips first..stop-1, each strip through all of them in turn."""
    width = min(x.shape[1], 1 << _STRIP_BITS)
    for start in range(first * width, stop * width, width):
        _ping_pong(x[:, start:start + width], y[:, start:start + width], passes)


class _Worker:
    """A daemon thread that runs the second half of a transform's parts while
    the caller runs the first. A caller takes it by acquiring busy without
    blocking, and share releases busy when both halves are done."""

    def __init__(self) -> None:
        self.busy = threading.Lock()
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job: tuple | None = None
        self._error: BaseException | None = None
        threading.Thread(target=self._loop, name="groversim-butterfly", daemon=True).start()

    def _loop(self) -> None:
        while True:
            self._go.acquire()
            try:
                self._job[0](*self._job[1:])
            except BaseException as error:  # share raises it in the caller
                self._error = error
            # Holding no view past its part lets the buffers go with their owner.
            self._job = None
            self._done.release()

    def share(self, part, x: np.ndarray, y: np.ndarray, passes: int, count: int) -> None:
        """Run part(x, y, passes, first, stop) over the parts 0..count-1, the
        first half here. Waits for the thread's half before it returns or
        raises, and raises the thread's exception if this half raised none.
        A wait cut short by a signal leaves busy taken, so that later
        transforms run all of their parts themselves."""
        half = count // 2
        self._job = (part, x, y, passes, half, count)
        self._go.release()
        try:
            part(x, y, passes, 0, half)
        finally:
            self._done.acquire()
            error, self._error = self._error, None
            self.busy.release()
        if error is not None:
            try:
                raise error
            finally:
                del error  # its traceback holds this frame


_worker: _Worker | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child: the worker's thread is not there, so make a new one
    on first use."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _run(part, x: np.ndarray, y: np.ndarray, passes: int, count: int, pooled: bool) -> None:
    """Run part(x, y, passes, first, stop) over the parts 0..count-1: half of
    them on the worker thread if pooled and it is free, else all here."""
    global _worker
    if pooled:
        with _worker_lock:
            if _worker is None:
                _worker = _Worker()
            worker = _worker if _worker.busy.acquire(blocking=False) else None
        if worker is not None:
            worker.share(part, x, y, passes, count)
            return
    part(x, y, passes, 0, count)


def walsh_hadamard_fast(
    state: AmplitudeVector, *, spare: AmplitudeVector | None = None
) -> AmplitudeVector:
    """Butterfly transform in n passes, ping-ponging between two buffers.

    Pass k pairs every two indices differing in bit k and maps (x, y) to
    ((x + y)/sqrt(2), (x - y)/sqrt(2)), so the overall 1/sqrt(N) scale
    arrives one factor per pass. Matches walsh_hadamard_naive to roundoff.

    Every pass has one form: it reads the even and odd rows of one buffer,
    which differ in the lowest bit of the row index, and writes the sums to
    the low half and the differences to the high half of the other; that
    moves the bit to the top, so after as many passes as there are bits
    every bit is back in place. Bits 0..m-1 take such passes over one
    cache-sized block of 2**m amplitudes at a time, with m = min(n, 16), or
    min(n - 1, 16) when the worker thread runs, so that n=16 has two blocks.
    Bits m..n-1 then take them over the rows of the vector viewed as
    (2**(n-m), 2**m), one column strip of 2**14 at a time. From n=16, with
    two CPUs, the worker thread runs half of the blocks and then half of
    the strips. Each part adds the same operands in the same bit order at
    any blocking, strip width or worker count, so the bytes do not depend
    on them; the views need no temporaries.

    Without spare, the input is left untouched and the result is new. With
    spare, a separate vector of the same size and dtype whose amplitudes
    are free, the passes run in the two buffers and allocate nothing: both
    are overwritten, and the result is in spare if n is odd, else in state.
    A float64 state is transformed in float64; the result equals, bit for
    bit, the real part of the transform of the same vector in complex128.
    """
    if spare is None:
        state, spare = state.copy(), AmplitudeVector(state.n, np.empty_like(state.amps))
    elif (spare.n != state.n or spare.amps.dtype != state.amps.dtype
          or np.may_share_memory(spare.amps, state.amps)):
        raise ValueError("spare must be a separate vector of the same size and dtype as the state")
    a, b, n = state.amps, spare.amps, state.n
    pooled = n >= _POOL_BITS and _WORKERS > 1
    m = min(n - pooled, _BLOCK_BITS)
    _run(_blocks, a, b, m, 1 << (n - m), pooled)
    if n > m:
        x, y = (b, a) if m & 1 else (a, b)
        x, y = x.reshape(-1, 1 << m), y.reshape(-1, 1 << m)
        _run(_strips, x, y, n - m, 1 << max(0, m - _STRIP_BITS), pooled)
    return spare if n & 1 else state


def _check_width(oracle, state: AmplitudeVector) -> None:
    if oracle.n != state.n:
        raise ValueError(f"oracle covers n={oracle.n} qubits, the state n={state.n}")


def invert_phase_marked(
    state: AmplitudeVector, oracle, *, in_place: bool = False
) -> AmplitudeVector:
    """Negate every marked amplitude; counts as one oracle evaluation.

    The oracle is queried once in superposition over the whole register,
    so oracle.eval_count goes up by exactly 1 per call. The input is left
    untouched and a negated copy returned, unless in_place is set: then
    state itself is negated and returned. An oracle of another width than
    the state raises ValueError.
    """
    _check_width(oracle, state)
    out = state if in_place else state.copy()
    oracle.eval_count += 1
    _negate_at(out.amps, oracle.marked_indices())
    return out


def invert_phase_zero(state: AmplitudeVector, *, in_place: bool = False) -> AmplitudeVector:
    """Negate the amplitude of basis state 0, leaving the rest alone; on a
    copy, or on state itself if in_place is set."""
    out = state if in_place else state.copy()
    _negate_at(out.amps, 0)
    return out
