"""Quantum search driver: oracle bookkeeping, the four-step iteration,
traced runs, oscillation scans, and the classical random-guess baseline.
A traced run hands each snapshot, as the step loop yields it, to the trace
writer of groversim.documents, which checks it by the TraceDocument rule
and keeps only the previous snapshot's bit patterns and texts, O(2**n), so
that it formats only the amplitudes each step changed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, TextIO, Union

import numpy as np

from .documents import _TraceWriter
from .state import (
    DEFAULT_MAX_QUBITS,
    MAX_INDEX_QUBITS,
    AmplitudeVector,
    ResourceLimitError,
    _as_int,
    _index_set,
    _require_qubits,
    measure,
)
from .transforms import (
    _check_width,
    _uniform_amplitude,
    invert_phase_marked,
    invert_phase_zero,
    walsh_hadamard_fast,
)
# Unused here, but bench/spans.py patches it under this name.
from .state import basis_state  # noqa: F401

IterationSpec = Union[int, str]


@dataclass
class Oracle:
    """Membership test for the searched-for states.

    Give exactly one of `marked` (explicit index set) or `predicate`
    (opaque 0/1 function of the basis index). eval_count records how many
    times the oracle was queried: once per phase flip of the marked states.
    """

    n: int
    marked: frozenset[int] | None = None
    predicate: Callable[[int], bool] | None = None
    eval_count: int = 0
    _indices: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _as_int(self.n, "n", 1, MAX_INDEX_QUBITS)
        if (self.marked is None) == (self.predicate is None):
            raise ValueError("give exactly one of marked or predicate")
        if self.marked is not None:
            self._indices = _index_set(1 << self.n, self.marked, "marked index")
            self.marked = frozenset(self._indices.tolist())

    def marked_indices(self) -> np.ndarray:
        """Sorted array of marked indices; a predicate is tabulated on first use."""
        if self._indices is None:
            self._indices = _index_set(1 << self.n, self.predicate)
        return self._indices

    @property
    def marked_count(self) -> int:
        return int(self.marked_indices().size)


@dataclass
class GroverConfig:
    """Inputs for one simulation run."""

    n: int
    oracle: Oracle
    iterations: IterationSpec = "auto"
    seed: int = 0
    max_qubits: int = DEFAULT_MAX_QUBITS

    def __post_init__(self) -> None:
        _require_qubits(self.n, self.max_qubits)
        if self.oracle.n != self.n:
            raise ValueError(f"oracle covers n={self.oracle.n} qubits, config says n={self.n}")
        if isinstance(self.iterations, str):
            if self.iterations != "auto":
                raise ValueError(f"iterations must be a count or 'auto', got {self.iterations!r}")
        else:
            _as_int(self.iterations, "iterations", minimum=0)
        _as_int(self.seed, "seed", 0)


@dataclass
class SimulationTrace:
    """Everything one run produced; final_state is the pre-measurement
    vector."""

    n: int
    iterations: int
    seed: int
    final_state: AmplitudeVector
    outcome: int
    oracle_evals: int
    degenerate: bool = False


_ROMAN = (
    (1000, "m"), (900, "cm"), (500, "d"), (400, "cd"), (100, "c"),
    (90, "xc"), (50, "l"), (40, "xl"), (10, "x"), (9, "ix"),
    (5, "v"), (4, "iv"), (1, "i"),
)


def roman_numeral(value: int) -> str:
    """Lowercase roman numeral used for trace step labels."""
    _as_int(value, "value", 1)
    parts = []
    for base, digits in _ROMAN:
        while value >= base:
            parts.append(digits)
            value -= base
    return "".join(parts)


def _step_states(n: int, oracle: Oracle, iterations: int, real: int) -> Iterator[AmplitudeVector]:
    """Run the search's literal steps (flip marked, transform, flip zero,
    transform) in two vectors of 2**n amplitudes, and yield the vector that
    holds the state: first the start state, then the state after each step.
    The start state is the transform of basis state 0, written into the
    first vector as the one value that transform gives every amplitude,
    bit for bit, so no transform runs for it. A yielded vector is
    overwritten by the steps after it; copy it to keep it.

    With real > 0, the start state and the first `real` iterations run on
    float64 buffers, which hold the real parts of the complex run's
    vectors bit for bit: from |0> the steps never leave the reals. The
    state is then widened to complex128 for the remaining iterations. The
    second vector is allocated by the first transform, the real one is
    dropped before the widening, and the complex one is allocated only
    after the first complex step is yielded, when the caller has let go
    of the last real vector; so the peak stays at two complex vectors.

    Every step is a call of a public function by its name in this module,
    where a profiler can wrap it and see each step."""
    dtype = np.float64 if real else np.complex128
    state, spare = AmplitudeVector(n, np.full(1 << n, _uniform_amplitude(n), dtype)), None
    yield state
    for i in range(iterations):
        if real and i == real:
            spare = None
            state = AmplitudeVector(n, state.amps.astype(np.complex128))
        yield invert_phase_marked(state, oracle, in_place=True)
        state, spare = _transform_in_pair(state, spare)
        yield state
        yield invert_phase_zero(state, in_place=True)
        state, spare = _transform_in_pair(state, spare)
        yield state


def _transform_in_pair(
    state: AmplitudeVector, spare: AmplitudeVector | None = None
) -> tuple[AmplitudeVector, AmplitudeVector]:
    """Transform state in the buffers of state and spare, a new one if none
    is given; returns the vector that holds the result and the one left
    free."""
    if spare is None:
        spare = AmplitudeVector(state.n, np.empty_like(state.amps))
    out = walsh_hadamard_fast(state, spare=spare)
    return (out, spare) if out is state else (out, state)


def grover_iteration(state: AmplitudeVector, oracle: Oracle) -> AmplitudeVector:
    """One search iteration as its four public steps on copies: flip marked,
    transform, flip zero, transform. The input is left untouched."""
    flipped = walsh_hadamard_fast(invert_phase_marked(state, oracle))
    return walsh_hadamard_fast(invert_phase_zero(flipped, in_place=True))


def resolve_iterations(config: GroverConfig) -> tuple[int, bool]:
    """Concrete iteration count for a config, plus a degenerate flag.

    "auto" picks optimal_iterations. The flag is True when at least half
    the space is marked; the optimum then sits below one full iteration
    and amplification cannot help, but the count returned is still the
    best available: 0 when every state is marked.
    """
    if config.iterations == "auto":
        k = config.oracle.marked_count
        size = 1 << config.n
        if k == 0:
            raise ValueError("cannot auto-select iterations: oracle marks no states")
        return (optimal_iterations(size, k) if k < size else 0), 2 * k >= size
    return config.iterations, False


def _above_power_of_two(x: int, k: int) -> bool:
    """x > 2**k, for x >= 0 and k >= 1, without building 2**k: a cap k comes
    from outside the program, and at k = 10**11 that int alone is 12.5 GB."""
    return (x - 1).bit_length() > k


def run_grover(config: GroverConfig, trace: TextIO | None = None) -> SimulationTrace:
    """Run the full search and measure once at the end.

    The state starts as the transform of basis state 0, written in closed
    form, runs the four-step iteration the resolved number of times, then
    measures with a fresh generator seeded from config.seed. Given a text
    file, trace receives the run's trace document as the run goes: the
    initialized state and every step of every iteration, each checked by
    the writer as TraceDocument checks it.
    A trace of more than 2**max_qubits amplitudes and label characters in
    all raises ResourceLimitError before anything is written or allocated.

    An untraced run does all but the last iteration on float64 buffers and
    the last one on complex128, so final_state is complex128 and the same
    bytes as the traced run's last snapshot, down to the signs of its zero
    imaginary parts. A traced run is complex128 throughout.
    """
    iterations, degenerate = resolve_iterations(config)
    if trace is not None:
        # Each label, roman_numeral(i), carries one "m" per thousand snapshots.
        snapshots = 4 * iterations + 1
        if _above_power_of_two(snapshots * ((1 << config.n) + snapshots // 1000), config.max_qubits):
            raise ResourceLimitError(
                f"a trace of {snapshots} snapshots at n={config.n} exceeds 2**{config.max_qubits} "
                f"amplitudes and label characters, the {config.max_qubits}-qubit cap"
            )
        writer = _TraceWriter(trace, config.n, config.seed)
    evals_before = config.oracle.eval_count
    real = iterations - 1 if trace is None and iterations else 0
    for i, state in enumerate(_step_states(config.n, config.oracle, iterations, real)):
        if trace is not None:
            writer.step(roman_numeral(i + 1), state.amps)
    outcome, _ = measure(state, np.random.default_rng(config.seed))
    oracle_evals = config.oracle.eval_count - evals_before
    if trace is not None:
        writer.close(outcome, oracle_evals)
    return SimulationTrace(
        n=config.n,
        iterations=iterations,
        seed=config.seed,
        final_state=state,
        outcome=outcome,
        oracle_evals=oracle_evals,
        degenerate=degenerate,
    )


def success_probability(state: AmplitudeVector, oracle: Oracle) -> float:
    """Total probability mass on the oracle's marked set; an oracle of
    another width than the state raises ValueError."""
    _check_width(oracle, state)
    idx = oracle.marked_indices()
    if idx.size == 0:
        return 0.0
    amps = state.amps[idx]
    return float(np.sum(amps.real**2 + amps.imag**2))


def optimal_iterations(size: int, marked_count: int = 1) -> int:
    """Iteration count maximizing success probability (ties pick fewer).

    The success curve is sin((2t + 1) * theta)**2 with
    theta = arcsin(sqrt(marked_count / size)), so the best integer t sits
    next to pi / (4 * theta) - 1/2; both neighbors are compared.
    """
    _as_int(size, "size", 2)
    _as_int(marked_count, "marked_count", 1, size - 1)
    theta = math.asin(math.sqrt(marked_count / size))
    center = math.pi / (4.0 * theta) - 0.5
    lo = max(0, math.floor(center))
    hi = max(lo, math.ceil(center))

    def curve(t: int) -> float:
        return math.sin((2 * t + 1) * theta) ** 2

    return hi if curve(hi) > curve(lo) else lo


def scan_probabilities(config: GroverConfig, t_max: int) -> list[tuple[int, float]]:
    """Success probability after t iterations for every t in 0..t_max.

    Runs incrementally, so the whole series costs one length-t_max run:
    every fourth vector of the step loop ends an iteration. Every
    iteration runs on float64 buffers: only probabilities leave a scan,
    and re**2 + 0.0 gives the bits that the complex run's
    re**2 + (+-0.0)**2 gives.
    """
    _as_int(t_max, "t_max", minimum=1)
    ends = islice(_step_states(config.n, config.oracle, t_max, t_max), None, None, 4)
    return [(t, success_probability(state, config.oracle)) for t, state in enumerate(ends)]


@dataclass(frozen=True)
class ClassicalResult:
    """Monte Carlo estimate next to the exact closed form."""

    empirical: float
    analytic: float


# Draws classical_baseline takes from the generator at a time: 2**16 int64
# draws are 512 KiB, which stays in L2 between drawing and looking up.
_DRAW_PIECE = 1 << 16


def classical_baseline(
    size: int,
    marked: Iterable[int],
    iterations: int,
    trials: int,
    seed: int = 0,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> ClassicalResult:
    """Success rate of classical random guessing against the same oracle.

    One trial draws `iterations` indices uniformly at random (with
    replacement) and succeeds if any of them is marked. The analytic value
    is 1 - (1 - |marked|/size)**iterations. A size-entry lookup table finds
    the hits, so a size above 2**max_qubits raises ResourceLimitError
    before anything is allocated, and one under it above 2**62 ValueError;
    more than 2**(max_qubits + 4) draws in all (iterations * trials) raise
    ResourceLimitError before any is drawn.
    """
    _as_int(size, "size", 1)
    _as_int(iterations, "iterations", 0)
    _as_int(trials, "trials", 1)
    _as_int(seed, "seed", 0)
    _as_int(max_qubits, "max_qubits", 1)
    if _above_power_of_two(size, max_qubits):
        raise ResourceLimitError(f"size {size} exceeds 2**{max_qubits}, the {max_qubits}-qubit cap")
    _as_int(size, "size", 1, 1 << MAX_INDEX_QUBITS)
    if _above_power_of_two(iterations * trials, max_qubits + 4):
        raise ResourceLimitError(
            f"{iterations} * {trials} draws exceed 2**{max_qubits + 4}, "
            f"the draw cap of the {max_qubits}-qubit cap"
        )
    idx = _index_set(size, marked, "marked index")
    analytic = 1.0 - (1.0 - idx.size / size) ** iterations
    if iterations == 0 or not idx.size:
        return ClassicalResult(0.0, analytic)
    rng = np.random.default_rng(seed)
    lookup = np.zeros(size, dtype=bool)
    lookup[idx] = True
    # At most _DRAW_PIECE draws at a time: whole trials in rows, or one trial
    # in pieces. The generator's bounded-integer stream does not depend on
    # how the draws are split, so neither do the results.
    rows, cols = max(1, _DRAW_PIECE // iterations), min(iterations, _DRAW_PIECE)
    hits = 0
    for start in range(0, trials, rows):
        hit = np.zeros(min(rows, trials - start), dtype=bool)
        for done in range(0, iterations, cols):
            shape = (hit.size, min(cols, iterations - done))
            hit |= lookup[rng.integers(0, size, size=shape)].any(axis=1)
        hits += int(hit.sum())
    return ClassicalResult(hits / trials, analytic)
