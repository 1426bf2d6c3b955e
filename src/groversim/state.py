"""Dense state-vector container and its primitive operations.

Basis indices are little-endian: qubit 0 is bit 0 (the least significant
bit) of the index. The public functions return new vectors and never mutate
their input; the private kernels (_negate_at) work in place, on buffers the
caller owns.

Every count, width, seed and basis index of the library passes one gate,
_as_int (an int, not a bool, within its bounds; n before any 1 << n). Index
sets also take numpy integers, and a boolean array as a mask.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Union

import numpy as np

# Hard ceiling on qubit count unless explicitly overridden; 2**24 complex
# amplitudes is 256 MB, the largest size a desk machine handles gracefully.
DEFAULT_MAX_QUBITS = 24

# Basis indices are int64, so no register is wider than 62 qubits, whatever
# the memory cap.
MAX_INDEX_QUBITS = 62

# Algorithm identifier recorded in trace documents. Integer seeds are fed
# to numpy's default generator, which is PCG64.
RNG_ALGORITHM = "pcg64"

# measure() refuses vectors whose norm has drifted further than this.
NORM_TOLERANCE = 1e-6


class ResourceLimitError(RuntimeError):
    """A request would exceed a configured memory or enumeration cap."""


RandomSource = Union[int, np.random.Generator]
Selector = Union[Callable[[int], bool], Iterable[int], np.ndarray]


def _as_int(value: Any, where: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """value itself if it is an int and not a bool (which is no count and
    not a JSON number), within the bounds that are given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    if (minimum is not None and value < minimum) or (maximum is not None and value > maximum):
        bounds = [f"{op} {b}" for op, b in ((">=", minimum), ("<=", maximum)) if b is not None]
        raise ValueError(f"{where}: must be {' and '.join(bounds)}, got {value}")
    return value


def _require_qubits(n: int, max_qubits: int) -> None:
    """n >= 1 and the cap an integer >= 1; above the cap, however large, a
    ResourceLimitError."""
    if _as_int(n, "n", 1) > _as_int(max_qubits, "max_qubits", 1):
        raise ResourceLimitError(f"n={n} exceeds the {max_qubits}-qubit cap")


@dataclass
class AmplitudeVector:
    """Amplitudes for all 2**n basis states, stored as complex128."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        size = 1 << _as_int(self.n, "n", 1, MAX_INDEX_QUBITS)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (size,):
            raise ValueError(f"amplitude array has shape {amps.shape}, expected ({size},)")
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
    _as_int(r, "r", 0, size - 1)
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
    a = state.amps[_as_int(r, "r", 0, state.size - 1)]
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
        Integer seeds (>= 0) create a fresh PCG64 generator, so the same
        seed on the same state always reproduces the same outcome.

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
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(_as_int(rng, "rng", 0))
    # One float64 array holds |amps|**2 and then, in place, its running sums.
    edges = np.square(state.amps.real)
    edges += np.square(state.amps.imag)
    np.cumsum(edges, out=edges)
    # Scaling the draw by the total mass keeps the sample well defined under
    # the small norm drift the precondition allows.
    u = gen.random() * edges[-1]
    outcome = min(int(np.searchsorted(edges, u, side="right")), state.size - 1)
    del edges  # freed before the collapsed vector is allocated
    amp = state.amps[outcome]
    collapsed = np.zeros(state.size, dtype=np.complex128)
    collapsed[outcome] = amp / abs(amp)
    return outcome, AmplitudeVector(state.n, collapsed)


def _int_list(values: Iterable[int] | np.ndarray, where: str) -> list[int]:
    """The elements of an iterable or a one-dimensional integer array as
    Python ints; numpy integers are taken, bools and floats refused."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"{where}: expected a one-dimensional array, got shape {values.shape}")
        if not np.issubdtype(values.dtype, np.integer):
            raise ValueError(f"{where}: expected integers, got an array of {values.dtype}")
        return values.tolist()
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    return [int(r) if isinstance(r, np.integer) else _as_int(r, where) for r in values]


def _index_set(size: int, selector: Selector, label: str = "selector index") -> np.ndarray:
    """Sorted, de-duplicated int64 indices picked by a predicate over 0..size-1,
    integers (see _int_list) or a boolean mask of length size. An index out
    of range raises ValueError naming the smallest one after `label`."""
    if isinstance(selector, np.ndarray) and selector.dtype == bool:
        if selector.shape != (size,):
            raise ValueError(f"boolean selector has shape {selector.shape}, expected ({size},)")
        return np.flatnonzero(selector)
    if callable(selector):
        return np.fromiter((r for r in range(size) if selector(r)), dtype=np.int64)
    # sorted(set) rather than np.unique, whose first call imports numpy.ma (about 1 MB).
    idx = np.array(sorted(set(_int_list(selector, label))), dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= size)]
    if bad.size:
        raise ValueError(f"{label} {bad[0]} out of range for {size} basis states")
    return idx


def _negate_at(amps: np.ndarray, idx) -> None:
    """Negate amps in place at the checked indices idx; exact negation,
    since multiplying by -1 would turn a -0.0 part into +0.0."""
    amps[idx] = -amps[idx]


def _is_permutation(values: np.ndarray) -> bool:
    """True iff values holds each index 0..len(values)-1 exactly once."""
    return bool((np.bincount(values, minlength=len(values)) == 1).all())


def apply_phase_flip(state: AmplitudeVector, selector: Selector) -> AmplitudeVector:
    """Negate the amplitudes of the selected basis states.

    The selector is a predicate over basis indices, an iterable of indices,
    or a boolean mask of length 2**n; only the selected entries are touched,
    with no 2**n mask built. Only signs change, and the negation is exact.
    """
    idx = _index_set(state.size, selector)
    out = state.copy()
    _negate_at(out.amps, idx)
    return out


def apply_permutation(state: AmplitudeVector, perm) -> AmplitudeVector:
    """Relabel basis states: out[p(r)] = in[r].

    p is a callable over indices or an integer array of length 2**n; a
    callable's targets pass the same checks as an array. It must be a
    bijection (duplicate targets are rejected).
    """
    size = state.size
    targets = np.asarray([perm(r) for r in range(size)] if callable(perm) else perm)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(f"permutation array has dtype {targets.dtype}, expected integers")
    if targets.shape != (size,):
        raise ValueError(f"permutation array has shape {targets.shape}, expected ({size},)")
    targets = targets.astype(np.int64, copy=False)
    if targets.min() < 0 or targets.max() >= size:
        raise ValueError(f"permutation target out of range for {size} basis states")
    if not _is_permutation(targets):
        raise ValueError("permutation sends two inputs to one target; not a bijection")
    out = np.empty_like(state.amps)
    out[targets] = state.amps
    return AmplitudeVector(state.n, out)
