"""Dense state-vector container and its primitive operations.

Basis indices are little-endian: qubit 0 is bit 0 (the least significant
bit) of the index. All operations return new vectors; nothing mutates the
input in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

# Hard ceiling on qubit count unless explicitly overridden; 2**24 complex
# amplitudes is 256 MB, the largest size a desk machine handles gracefully.
DEFAULT_MAX_QUBITS = 24

# Algorithm identifier recorded in trace documents. Integer seeds are fed
# to numpy's default generator, which is PCG64.
RNG_ALGORITHM = "pcg64"

# measure() refuses vectors whose norm has drifted further than this.
NORM_TOLERANCE = 1e-6


class ResourceLimitError(RuntimeError):
    """A request would exceed a configured memory or enumeration cap."""


RandomSource = Union[int, np.random.Generator]
Selector = Union[Callable[[int], bool], Iterable[int], np.ndarray]


def _require_qubits(n: int, max_qubits: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if n > max_qubits:
        raise ResourceLimitError(f"n={n} exceeds the {max_qubits}-qubit cap")


@dataclass
class AmplitudeVector:
    """Amplitudes for all 2**n basis states, stored as complex128."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected ({1 << self.n},)"
            )
        self.amps = amps

    @property
    def size(self) -> int:
        return 1 << self.n

    def copy(self) -> "AmplitudeVector":
        return AmplitudeVector(self.n, self.amps.copy())


def basis_state(n: int, r: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> AmplitudeVector:
    """Unit vector with amplitude 1 on basis index r and 0 elsewhere."""
    _require_qubits(n, max_qubits)
    size = 1 << n
    if not 0 <= r < size:
        raise ValueError(f"basis index {r} out of range for n={n}")
    amps = np.zeros(size, dtype=np.complex128)
    amps[r] = 1.0
    return AmplitudeVector(n, amps)


def uniform_state(n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> AmplitudeVector:
    """Equal superposition: every amplitude is 1/sqrt(2**n)."""
    _require_qubits(n, max_qubits)
    size = 1 << n
    amps = np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128)
    return AmplitudeVector(n, amps)


def probability(state: AmplitudeVector, r: int) -> float:
    """Observation probability of basis index r: |amps[r]|**2."""
    if not 0 <= r < state.size:
        raise ValueError(f"basis index {r} out of range for n={state.n}")
    a = state.amps[r]
    return float(a.real * a.real + a.imag * a.imag)


def norm(state: AmplitudeVector) -> float:
    """Euclidean norm of the amplitude vector (1 for any physical state)."""
    return float(np.linalg.norm(state.amps))


def measure(state: AmplitudeVector, rng: RandomSource) -> tuple[int, AmplitudeVector]:
    """Sample one basis index from |amps|**2 and collapse onto it.

    Parameters
    ----------
    state : AmplitudeVector
        Vector to measure; its amplitudes must be finite and its norm 1
        within 1e-6.
    rng : int or numpy.random.Generator
        Integer seeds create a fresh PCG64 generator, so the same seed on
        the same state always reproduces the same outcome.

    Returns
    -------
    (outcome, collapsed)
        The sampled index and the post-measurement vector, which carries
        the measured amplitude's phase on the single surviving entry.
    """
    if not np.isfinite(state.amps).all():
        raise ValueError("cannot measure: the amplitudes include NaN or infinity")
    total = norm(state)
    if abs(total - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"cannot measure: norm {total} differs from 1 by more than {NORM_TOLERANCE}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    probs = state.amps.real**2 + state.amps.imag**2
    edges = np.cumsum(probs)
    # Scaling the draw by the total mass keeps the sample well defined under
    # the small norm drift the precondition allows.
    u = gen.random() * edges[-1]
    outcome = int(np.searchsorted(edges, u, side="right"))
    outcome = min(outcome, state.size - 1)
    amp = state.amps[outcome]
    collapsed = np.zeros(state.size, dtype=np.complex128)
    collapsed[outcome] = amp / abs(amp)
    return outcome, AmplitudeVector(state.n, collapsed)


def _selector_mask(size: int, selector: Selector) -> np.ndarray:
    if isinstance(selector, np.ndarray) and selector.dtype == bool:
        if selector.shape != (size,):
            raise ValueError(f"boolean selector has shape {selector.shape}, expected ({size},)")
        return selector
    if callable(selector):
        return np.fromiter((bool(selector(r)) for r in range(size)), dtype=bool, count=size)
    items = sorted(selector) if isinstance(selector, (set, frozenset)) else list(selector)
    idx = np.asarray(items, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("index selector must be one-dimensional")
    mask = np.zeros(size, dtype=bool)
    if idx.size:
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError(f"selector index out of range for {size} basis states")
        mask[idx] = True
    return mask


def apply_phase_flip(state: AmplitudeVector, selector: Selector) -> AmplitudeVector:
    """Negate the amplitudes of the selected basis states.

    The selector is a predicate over basis indices, an iterable of indices,
    or a boolean mask of length 2**n. Probabilities are untouched; only
    signs change, and the negation itself is exact.
    """
    mask = _selector_mask(state.size, selector)
    out = state.amps.copy()
    out[mask] = -out[mask]
    return AmplitudeVector(state.n, out)


def apply_permutation(state: AmplitudeVector, perm) -> AmplitudeVector:
    """Relabel basis states: out[p(r)] = in[r].

    p is a callable over indices or an integer array of length 2**n; it
    must be a bijection (duplicate targets are rejected).
    """
    size = state.size
    if callable(perm):
        targets = np.fromiter((perm(r) for r in range(size)), dtype=np.int64, count=size)
    else:
        targets = np.asarray(perm, dtype=np.int64)
        if targets.shape != (size,):
            raise ValueError(f"permutation array has shape {targets.shape}, expected ({size},)")
    if targets.min() < 0 or targets.max() >= size:
        raise ValueError(f"permutation target out of range for {size} basis states")
    counts = np.bincount(targets, minlength=size)
    if counts.max() > 1:
        dup = int(np.argmax(counts))
        raise ValueError(f"permutation sends two inputs to {dup}; not a bijection")
    out = np.empty_like(state.amps)
    out[targets] = state.amps
    return AmplitudeVector(state.n, out)
