"""The Walsh-Hadamard transform and the two phase-inversion steps.

The transform's matrix entry at (q, r) is +-1/sqrt(N) where the sign is
positive exactly when q AND r has an even number of 1 bits. Two
implementations are kept deliberately independent: a naive O(4**n)
matrix-vector product used as a reference, and the O(n * 2**n) butterfly
used everywhere else. The naive transform builds its N x N matrix on each
call, about 9 bytes per entry at peak, and keeps nothing between calls. The
butterfly repeats one pass form between two buffers of 2**n amplitudes,
over cache-sized blocks for the low 16 bits, then over rows of the whole
vector; the search engine owns such a pair for a whole run and hands it
in, and other callers get the transform of a copy.

Both phase inversions negate at basis indices (the oracle's cached marked
indices, or index 0) through one kernel in state.py, with no 2**n mask;
they negate a copy unless told to work in place, as the engine does.
"""
from __future__ import annotations

import math

import numpy as np

from .state import MAX_INDEX_QUBITS, AmplitudeVector, ResourceLimitError, _as_int, _negate_at

# The naive transform materializes the full N x N matrix; past n=12 that is
# at least 512 MiB of float64, so it refuses rather than thrash.
MAX_NAIVE_QUBITS = 12


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
    each call, at about 9 bytes per entry at peak (its float64 entries and
    a byte of parity each), and nothing is kept. Quadratic memory, so only
    small n; the butterfly version is the production path.
    """
    if state.n > MAX_NAIVE_QUBITS:
        raise ResourceLimitError(
            f"naive transform at n={state.n} needs a {1 << state.n}x{1 << state.n} matrix; "
            f"use walsh_hadamard_fast above n={MAX_NAIVE_QUBITS}"
        )
    idx = np.arange(state.size, dtype=np.uint32)
    odd = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    scale = 1.0 / math.sqrt(state.size)
    matrix = np.where(odd, -scale, scale)
    out = matrix @ state.amps.real + 1j * (matrix @ state.amps.imag)
    return AmplitudeVector(state.n, out)


# The butterfly's low-bit passes run one block of 2**_BLOCK_BITS amplitudes
# at a time: 1 MiB of complex128 per buffer, small enough to stay in cache.
_BLOCK_BITS = 16


def _ping_pong(a: np.ndarray, b: np.ndarray, passes: int, scale: float) -> None:
    """Run passes over the lowest bits of the row index of a, from a into b
    and back; the result is in a if passes is even, else in b."""
    half = len(a) >> 1
    for _ in range(passes):
        lo, hi = a[0::2], a[1::2]
        np.add(lo, hi, out=b[:half])
        np.subtract(lo, hi, out=b[half:])
        b *= scale
        a, b = b, a


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
    every bit is back in place. Bits 0..m-1, with m = min(n, 16), take such
    passes over one cache-sized block of 2**m amplitudes at a time, and bits
    m..n-1 over the rows of the vector viewed as (2**(n-m), 2**m). Each pass
    adds the same operands in the same bit order at any blocking, so the
    bytes do not depend on it; the views need no temporaries.

    Without spare, the input is left untouched and the result is new. With
    spare, a separate vector of the same size whose amplitudes are free, the
    passes run in the two buffers and allocate nothing: both are
    overwritten, and the result is in spare if n is odd, else in state.
    """
    if spare is None:
        state, spare = state.copy(), AmplitudeVector(state.n, np.empty_like(state.amps))
    elif spare.n != state.n or np.may_share_memory(spare.amps, state.amps):
        raise ValueError("spare must be a separate vector of the same size as the state")
    a, b = state.amps, spare.amps
    scale = 1.0 / math.sqrt(2.0)
    m = min(state.n, _BLOCK_BITS)
    block = 1 << m
    for start in range(0, a.size, block):
        _ping_pong(a[start:start + block], b[start:start + block], m, scale)
    if state.n > m:
        x, y = (b, a) if m & 1 else (a, b)
        _ping_pong(x.reshape(-1, block), y.reshape(-1, block), state.n - m, scale)
    return spare if state.n & 1 else state


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
