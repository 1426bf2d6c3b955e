"""The Walsh-Hadamard transform and the two phase-inversion steps.

The transform's matrix entry at (q, r) is +-1/sqrt(N) where the sign is
positive exactly when q AND r has an even number of 1 bits. Two
implementations are kept deliberately independent: a naive O(4**n)
matrix-vector product used as a reference, and the O(n * 2**n) butterfly,
which works on a copy of the amplitudes, used everywhere else.

Both phase inversions negate a copy at basis indices (the oracle's cached
marked indices, or index 0) through one kernel in state.py, with no 2**n mask.
"""
from __future__ import annotations

import math
from functools import lru_cache
import numpy as np

from .state import AmplitudeVector, ResourceLimitError, _negate_at

# The naive transform materializes the full N x N matrix; past n=12 that is
# more than a gigabyte of float64, so it refuses rather than thrash.
MAX_NAIVE_QUBITS = 12


def wh_sign(q: int, r: int) -> int:
    """+1 if q AND r has even popcount, -1 if odd."""
    if q < 0 or r < 0:
        raise ValueError(f"basis indices must be nonnegative, got q={q}, r={r}")
    return -1 if (q & r).bit_count() & 1 else 1


def wh_matrix_entry(n: int, q: int, r: int) -> float:
    """Transform matrix entry: wh_sign(q, r) / sqrt(2**n)."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    size = 1 << n
    if not (0 <= q < size and 0 <= r < size):
        raise ValueError(f"indices (q={q}, r={r}) out of range for n={n}")
    return wh_sign(q, r) / math.sqrt(size)


@lru_cache(maxsize=3)
def _scaled_matrix(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint32)
    odd = (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.float64)
    return (1.0 - 2.0 * odd) / math.sqrt(1 << n)


def walsh_hadamard_naive(state: AmplitudeVector) -> AmplitudeVector:
    """Reference transform: full matrix-vector product.

    out[q] = sum over r of entry(q, r) * in[r]. Quadratic memory, so only
    small n; the butterfly version is the production path.
    """
    if state.n > MAX_NAIVE_QUBITS:
        raise ResourceLimitError(
            f"naive transform at n={state.n} needs a {1 << state.n}x{1 << state.n} matrix; "
            f"use walsh_hadamard_fast above n={MAX_NAIVE_QUBITS}"
        )
    matrix = _scaled_matrix(state.n)
    out = matrix @ state.amps.real + 1j * (matrix @ state.amps.imag)
    return AmplitudeVector(state.n, out)


def walsh_hadamard_fast(state: AmplitudeVector) -> AmplitudeVector:
    """Butterfly transform: n passes over a copy of the amplitudes.

    Pass k pairs every two indices differing in bit k and maps (x, y) to
    ((x + y)/sqrt(2), (x - y)/sqrt(2)), so the overall 1/sqrt(N) scale
    arrives one factor per pass. Matches walsh_hadamard_naive to roundoff.
    """
    a = state.amps.copy()
    scale = 1.0 / math.sqrt(2.0)
    for k in range(state.n):
        a = a.reshape(-1, 2, 1 << k)
        lo = a[:, 0, :].copy()
        hi = a[:, 1, :]
        a[:, 0, :] = (lo + hi) * scale
        a[:, 1, :] = (lo - hi) * scale
        a = a.reshape(-1)
    return AmplitudeVector(state.n, a)


def invert_phase_marked(state: AmplitudeVector, oracle) -> AmplitudeVector:
    """Negate every marked amplitude; counts as one oracle evaluation.

    The oracle is queried once in superposition over the whole register,
    so oracle.eval_count goes up by exactly 1 per call.
    """
    oracle.eval_count += 1
    return _negate_at(state, oracle.marked_indices())


def invert_phase_zero(state: AmplitudeVector) -> AmplitudeVector:
    """Negate the amplitude of basis state 0, leaving the rest alone."""
    return _negate_at(state, 0)
