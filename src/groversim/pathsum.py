"""Transition amplitudes by explicit path enumeration.

A program is a list of steps; a path assigns a basis state to every point
between steps, and its amplitude is the product of per-step transition
entries. Summing over all paths from a fixed start reproduces the dense
engine's amplitudes, but this module never calls that engine, so the two
can check each other.

Enumeration is depth-first with a running product, no memoization: this is
a reference oracle for small systems, not a simulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .state import MAX_INDEX_QUBITS, ResourceLimitError, _as_int, _index_set, _int_list
from .state import apply_phase_flip, basis_state
from .transforms import invert_phase_zero, walsh_hadamard_fast, wh_sign

# A mixing step branches 2**n ways; refuse programs whose branch product
# exceeds this.
MAX_PATHS = 1 << 26

STEP_KINDS = ("wh", "flip_marked", "flip_zero")


@dataclass(frozen=True)
class StepOp:
    """One program step: "wh" mixes all states, the flips are diagonal."""

    kind: str
    marked: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}; expected one of {STEP_KINDS}")
        object.__setattr__(self, "marked", frozenset(_int_list(self.marked, "marked index")))
        if self.kind != "flip_marked" and self.marked:
            raise ValueError(f"{self.kind} carries no marked set")

    @staticmethod
    def wh() -> "StepOp":
        return StepOp("wh")

    @staticmethod
    def flip_marked(marked) -> "StepOp":
        """marked is an iterable of indices or an oracle-like object."""
        if hasattr(marked, "marked_indices"):
            marked = marked.marked_indices()
        return StepOp("flip_marked", marked)

    @staticmethod
    def flip_zero() -> "StepOp":
        return StepOp("flip_zero")


@dataclass(frozen=True)
class Path:
    """States visited (start first, then one per step) and the product of
    transition amplitudes along the way."""

    states: tuple[int, ...]
    amplitude: float


def grover_steps(marked, iterations: int) -> list[StepOp]:
    """Step list of the full search program: the initializing transform
    plus the four-step block repeated `iterations` times."""
    _as_int(iterations, "iterations", 0)
    steps = [StepOp.wh()]
    flip = StepOp.flip_marked(marked)
    for _ in range(iterations):
        steps.extend((flip, StepOp.wh(), StepOp.flip_zero(), StepOp.wh()))
    return steps


def _check_enumeration(
    n: int, steps: Sequence[StepOp], start: int, end: int | None
) -> None:
    size = 1 << _as_int(n, "n", 1, MAX_INDEX_QUBITS)
    _as_int(start, "start", 0, size - 1)
    if end is not None:
        _as_int(end, "end", 0, size - 1)
    branches = 1
    for i, op in enumerate(steps):
        if op.kind == "flip_marked":
            _index_set(size, op.marked, f"steps[{i}] marked index")
        elif op.kind == "wh":
            branches *= size
            if branches > MAX_PATHS:
                raise ResourceLimitError(
                    f"path enumeration would exceed {MAX_PATHS} branches at steps[{i}]"
                )


def _walk(
    n: int, steps: Sequence[StepOp], start: int, end: int | None, chain: list[int] | None = None
) -> Iterator[float]:
    """Depth-first over every path from start, yielding each amplitude.

    The stack holds (step, state, amp), amp being the product of the
    entries so far; transforms push their children in reverse, so they pop
    in ascending order, and flips are taken in place. A transform as the
    last step goes straight into `end` (every state if end is None) instead
    of pushing. When `chain` is a list, it holds the yielded path's states.
    """
    size = 1 << n
    inv_root = 1.0 / math.sqrt(size)
    last = len(steps) - 1
    # The states each flip negates; None stands for a transform or the end.
    negated = [
        None if op.kind == "wh" else {0} if op.kind == "flip_zero" else op.marked for op in steps
    ] + [None]
    stack = [(0, start, 1.0)]
    while stack:
        i, state, amp = stack.pop()
        if chain is not None:
            del chain[i:]
            chain.append(state)
        while negated[i] is not None:
            if state in negated[i]:
                amp = -amp
            i += 1
            if chain is not None:
                chain.append(state)
        if i < last:
            stack.extend(
                [(i + 1, nxt, amp * wh_sign(nxt, state) * inv_root)
                 for nxt in range(size - 1, -1, -1)]
            )
        elif i > last:
            if end is None or state == end:
                yield amp
        elif end is not None:
            if chain is not None:
                chain.append(end)
            yield amp * wh_sign(end, state) * inv_root
        else:
            for nxt in range(size):
                if chain is not None:
                    chain[i + 1:] = [nxt]
                yield amp * wh_sign(nxt, state) * inv_root


def path_amplitude(n: int, steps: Sequence[StepOp], start: int, end: int) -> float:
    """Sum of all path amplitudes from start to end, correctly rounded
    (math.fsum), so it depends on neither path order nor Python version.

    The last step never branches: its contribution is the single entry
    into `end`. An empty program is the identity.
    """
    _check_enumeration(n, steps, start, end)
    return math.fsum(_walk(n, steps, start, end))


def enumerate_paths(
    n: int, steps: Sequence[StepOp], start: int, end: int | None = None
) -> Iterator[Path]:
    """Yield every path from start through the program, one Path at a time.

    With `end` given, only paths finishing there are yielded; with end
    None, all of them. path_amplitude(n, steps, start, end) equals the sum
    of the amplitudes yielded here. Arguments are checked at call time.
    """
    _check_enumeration(n, steps, start, end)
    chain: list[int] = []
    return (Path(tuple(chain), amp) for amp in _walk(n, steps, start, end, chain))


def verify_against_matrix(n: int, steps: Sequence[StepOp]) -> float:
    """Max absolute deviation between path sums and the dense engine.

    Runs the same program through both routes starting from basis state 0
    and compares the amplitude at every end state. Limited to n <= 4 and
    10 steps to keep the enumeration tractable.
    """
    if n > 4:
        raise ValueError(f"matrix cross-check is limited to n <= 4, got n={n}")
    if len(steps) > 10:
        raise ValueError(f"matrix cross-check is limited to 10 steps, got {len(steps)}")
    state = basis_state(n, 0)
    for op in steps:
        if op.kind == "wh":
            state = walsh_hadamard_fast(state)
        elif op.kind == "flip_zero":
            state = invert_phase_zero(state)
        else:
            state = apply_phase_flip(state, op.marked)
    worst = 0.0
    for end in range(state.size):
        worst = max(worst, abs(state.amps[end] - path_amplitude(n, steps, 0, end)))
    return float(worst)
