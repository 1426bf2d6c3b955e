"""Quantum search driver: oracle bookkeeping, the four-step iteration,
traced runs, oscillation scans, and the classical random-guess baseline.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .state import (
    DEFAULT_MAX_QUBITS,
    AmplitudeVector,
    ResourceLimitError,
    _index_set,
    _require_qubits,
    basis_state,
    measure,
)
from .transforms import invert_phase_marked, invert_phase_zero, walsh_hadamard_fast

IterationSpec = Union[int, str]


@dataclass
class Oracle:
    """Membership test for the searched-for states.

    Give exactly one of `marked` (explicit index set) or `predicate`
    (opaque 0/1 function of the basis index). eval_count records how many
    times the oracle was queried through invert_phase_marked; direct
    is_marked calls are bookkeeping, not queries.
    """

    n: int
    marked: frozenset[int] | None = None
    predicate: Callable[[int], bool] | None = None
    eval_count: int = 0
    _indices: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
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

    def is_marked(self, r: int) -> bool:
        if self.marked is not None:
            return r in self.marked
        return bool(self.predicate(r))

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
    trace_every_step: bool = False
    max_qubits: int = DEFAULT_MAX_QUBITS

    def __post_init__(self) -> None:
        _require_qubits(self.n, self.max_qubits)
        if self.oracle.n != self.n:
            raise ValueError(f"oracle covers n={self.oracle.n} qubits, config says n={self.n}")
        if isinstance(self.iterations, str):
            if self.iterations != "auto":
                raise ValueError(f"iterations must be a count or 'auto', got {self.iterations!r}")
        elif self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


@dataclass
class SimulationTrace:
    """Everything one run produced.

    steps holds (label, snapshot) pairs, labeled with lowercase roman
    numerals in execution order starting at "i" for the post-init state;
    it is empty unless the run traced every step. The snapshots are the
    engine's own vectors, not copies, so in a traced run final_state (the
    pre-measurement vector) is the last snapshot.
    """

    n: int
    iterations: int
    seed: int
    steps: list[tuple[str, AmplitudeVector]]
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
    if value < 1:
        raise ValueError(f"roman numerals start at 1, got {value}")
    parts = []
    for base, digits in _ROMAN:
        while value >= base:
            parts.append(digits)
            value -= base
    return "".join(parts)


def _step_states(
    state: AmplitudeVector, oracle: Oracle, iterations: int
) -> Iterator[AmplitudeVector]:
    """Yield state, then the fresh vector made by each literal step of each
    iteration: flip marked, transform, flip zero, transform."""
    yield state
    for _ in range(iterations):
        state = invert_phase_marked(state, oracle)
        yield state
        state = walsh_hadamard_fast(state)
        yield state
        state = invert_phase_zero(state)
        yield state
        state = walsh_hadamard_fast(state)
        yield state


def grover_iteration(state: AmplitudeVector, oracle: Oracle) -> AmplitudeVector:
    """One search iteration: flip marked, transform, flip zero, transform."""
    return deque(_step_states(state, oracle, 1), maxlen=1).pop()


def resolve_iterations(config: GroverConfig) -> tuple[int, bool]:
    """Concrete iteration count for a config, plus a degenerate flag.

    "auto" picks optimal_iterations. The flag is True when at least half
    the space is marked; the optimum then sits below one full iteration
    and amplification cannot help, but the count returned is still the
    best available.
    """
    if config.iterations == "auto":
        k = config.oracle.marked_count
        size = 1 << config.n
        if k == 0:
            raise ValueError("cannot auto-select iterations: oracle marks no states")
        return optimal_iterations(size, k), 2 * k >= size
    return int(config.iterations), False


def run_grover(config: GroverConfig) -> SimulationTrace:
    """Run the full search and measure once at the end.

    The state starts as the transform of basis state 0, runs the four-step
    iteration the resolved number of times, then measures with a fresh
    generator seeded from config.seed. With trace_every_step on, snapshots
    cover the initialized state and every step of every iteration; a trace
    of more than 2**max_qubits amplitudes in all raises ResourceLimitError
    before anything is allocated.
    """
    iterations, degenerate = resolve_iterations(config)
    traced = config.trace_every_step
    if traced and (4 * iterations + 1) << config.n > 1 << config.max_qubits:
        raise ResourceLimitError(
            f"a trace of {4 * iterations + 1} snapshots at n={config.n} exceeds "
            f"2**{config.max_qubits} amplitudes, the {config.max_qubits}-qubit cap"
        )
    evals_before = config.oracle.eval_count
    state = walsh_hadamard_fast(basis_state(config.n, 0, config.max_qubits))
    steps: list[tuple[str, AmplitudeVector]] = []
    # Rebinding state lets an untraced run drop each vector once it is stepped past.
    for i, state in enumerate(_step_states(state, config.oracle, iterations), start=1):
        if traced:
            steps.append((roman_numeral(i), state))
    outcome, _ = measure(state, np.random.default_rng(config.seed))
    return SimulationTrace(
        n=config.n,
        iterations=iterations,
        seed=config.seed,
        steps=steps,
        final_state=state,
        outcome=outcome,
        oracle_evals=config.oracle.eval_count - evals_before,
        degenerate=degenerate,
    )


def success_probability(state: AmplitudeVector, oracle: Oracle) -> float:
    """Total probability mass on the oracle's marked set."""
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
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    if not 1 <= marked_count < size:
        raise ValueError(f"marked_count must be in [1, {size - 1}], got {marked_count}")
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
    every fourth vector of the step loop ends an iteration.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    states = _step_states(
        walsh_hadamard_fast(basis_state(config.n, 0, config.max_qubits)), config.oracle, t_max
    )
    probs = map(success_probability, islice(states, None, None, 4), repeat(config.oracle))
    return list(enumerate(probs))


@dataclass(frozen=True)
class ClassicalResult:
    """Monte Carlo estimate next to the exact closed form."""

    empirical: float
    analytic: float


def classical_baseline(
    size: int,
    marked: Iterable[int],
    iterations: int,
    trials: int,
    seed: int = 0,
) -> ClassicalResult:
    """Success rate of classical random guessing against the same oracle.

    One trial draws `iterations` indices uniformly at random (with
    replacement) and succeeds if any of them is marked. The analytic value
    is 1 - (1 - |marked|/size)**iterations.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    idx = _index_set(size, marked, "marked index")
    analytic = 1.0 - (1.0 - idx.size / size) ** iterations
    if iterations == 0 or not idx.size:
        return ClassicalResult(0.0, analytic)
    rng = np.random.default_rng(seed)
    lookup = np.zeros(size, dtype=bool)
    lookup[idx] = True
    hits = 0
    remaining = trials
    block = max(1, (1 << 22) // iterations)
    while remaining:
        rows = min(block, remaining)
        draws = rng.integers(0, size, size=(rows, iterations))
        hits += int(lookup[draws].any(axis=1).sum())
        remaining -= rows
    return ClassicalResult(hits / trials, analytic)
