"""Transition amplitudes by explicit path enumeration.

A program is a list of steps; a path assigns a basis state to every point
between steps, and its amplitude is the product of per-step transition
entries. Summing over all paths from a fixed start reproduces the dense
engine's amplitudes, but this module never calls that engine, so the two
can check each other.

Every entry is +-1/sqrt(2**n) or +-1, so a path's amplitude is its sign
times a magnitude that depends only on the number of transforms.
Enumeration is depth-first and carries each path's sign as a parity bit,
with no memoization: every path's sign is formed and counted, in integers.
This is a reference oracle for small systems, not a simulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .state import MAX_INDEX_QUBITS, ResourceLimitError, _as_int, _index_set, _int_list
from .state import apply_phase_flip, basis_state
from .transforms import invert_phase_zero, walsh_hadamard_fast

# A mixing step branches 2**n ways; refuse calls whose branch product, the
# number of paths they walk, exceeds this. With an end given, the last
# transform goes straight into it and does not branch.
MAX_PATHS = 1 << 26

STEP_KINDS = ("wh", "flip_marked", "flip_zero")

# Shared, so that a walk makes no new set for a run of no flip or of one.
_NO_STATES: frozenset[int] = frozenset()
_ZERO_STATE = frozenset({0})


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
    # With end given, the last transform goes straight into end and does not
    # branch, so it is not counted.
    pinned = -1
    if end is not None:
        _as_int(end, "end", 0, size - 1)
        pinned = max((i for i, op in enumerate(steps) if op.kind == "wh"), default=-1)
    branches = 1
    for i, op in enumerate(steps):
        if op.kind == "flip_marked":
            _index_set(size, op.marked, f"steps[{i}] marked index")
        elif op.kind == "wh" and i != pinned:
            branches *= size
            if branches > MAX_PATHS:
                raise ResourceLimitError(
                    f"path enumeration would exceed {MAX_PATHS} branches at steps[{i}]"
                )


class _Walk:
    """The paths from start through a program, walked depth first.

    A path holds one state per transform besides the start: x_0 = start,
    and x_j after the j-th of the program's b transforms. Its sign is the
    product of (-1)**popcount(x_j & x_(j-1)) over the transforms and of -1
    for each flip that negates the state it is in, and its magnitude is the
    b-fold product of 1/sqrt(2**n) from 1.0: negation is exact and rounding
    is symmetric in sign, so every path has the same one.

    With `end` given, x_b is end, so the last transform does not branch:
    its parity folds into the one before as (-1)**popcount(x & (s ^ end)),
    and the flips after it into the sign at the root. The last free state
    is a leaf, and a node is the state s before it; each node's leaves are
    range(2**n). With no free state, the one node is a stand-in 0 whose one
    leaf is the start.
    """

    __slots__ = ("steps", "size", "start", "end", "odd", "free", "fold", "leaves", "negated",
                 "root", "magnitude")

    def __init__(self, n: int, steps: Sequence[StepOp], start: int, end: int | None) -> None:
        # The states that each run of flips negates an odd number of times:
        # the run before the first transform, then the run after each. A run
        # of one flip is that flip's own set.
        odd = [_NO_STATES]
        for op in steps:
            if op.kind == "wh":
                odd.append(_NO_STATES)
            else:
                flipped = _ZERO_STATE if op.kind == "flip_zero" else op.marked
                odd[-1] = odd[-1] ^ flipped if odd[-1] else flipped
        transforms = len(odd) - 1
        pinned = end is not None and transforms > 0
        self.free = free = transforms - pinned
        self.steps, self.start, self.end = steps, start, end
        self.size, self.odd = 1 << n, odd
        self.fold = end if pinned else 0  # a node's leaves take parity with s ^ fold
        # The flips before the first transform negate the start, and with
        # `end` given, those after the last negate end.
        self.root = (start in odd[0]) ^ (pinned and end in odd[-1])
        if free:
            self.leaves, self.negated = range(self.size), odd[free]
        else:
            # The start is the one leaf, if a path can end there.
            reaches = end is None or pinned or end == start
            self.leaves, self.negated = range(start, start + reaches), _NO_STATES
        inv_root = 1.0 / math.sqrt(self.size)
        self.magnitude = 1.0
        for _ in range(transforms):
            self.magnitude *= inv_root

    def nodes(self, xs: list[int] | None = None) -> Iterable[tuple[int, int]]:
        """Each node as (s, bit), the sign of its path so far being
        (-1)**bit; transforms take their states in ascending order, so the
        paths come in order too. When `xs` is a list, it holds the yielded
        node's path, x_0 up to s."""
        return self._descend(xs) if self.free else ((0, self.root),)

    def _descend(self, xs: list[int] | None) -> Iterator[tuple[int, int]]:
        free, size, odd = self.free, self.size, self.odd
        stack = [(0, self.start, self.root)]
        while stack:
            j, s, bit = stack.pop()
            if xs is not None:
                del xs[j:]
                xs.append(s)
            if j == free - 1:
                yield s, bit
            else:
                # Pushed in reverse, so that they pop in ascending order.
                negated = odd[j + 1]
                stack.extend([(j + 1, x, bit ^ (x & s).bit_count() & 1 ^ (x in negated))
                              for x in range(size - 1, -1, -1)])

    def signed_count(self) -> int:
        """P - M, for P positive and M negative paths.

        A node's leaves are counted in C-level iteration: those whose parity
        (x & u).bit_count() is odd are negative, u being s ^ end (or s), and
        each leaf that a flip negates is then moved across one by one."""
        leaves, fold, negated = self.leaves, self.fold, self.negated
        is_odd = (1).__and__
        total = 0
        for s, bit in self.nodes():
            u = s ^ fold
            count = len(leaves) - 2 * sum(map(is_odd, map(int.bit_count, map(u.__and__, leaves))))
            for x in negated:
                count -= 2 - 4 * ((x & u).bit_count() & 1)
            total += -count if bit else count
        return total

    def paths(self) -> Iterator[Path]:
        """Each node's leaves as Paths, in order."""
        xs: list[int] = []
        leaves, fold, negated, free = self.leaves, self.fold, self.negated, self.free
        m = self.magnitude
        # How many points of a path each of its states holds.
        bounds = [-1, *(i for i, op in enumerate(self.steps) if op.kind == "wh"), len(self.steps)]
        repeats = [b - a for a, b in zip(bounds, bounds[1:])]
        # With `end` given, the last state repeats to the end of the program.
        tail = (self.end,) * repeats[-1] if free < len(repeats) - 1 else ()
        for s, bit in self.nodes(xs):
            head = tuple(chain.from_iterable(map(repeat, xs, repeats)))
            u = s ^ fold
            for x in leaves:
                sign = bit ^ (x & u).bit_count() & 1 ^ (x in negated)
                yield Path(head + (x,) * repeats[free] + tail, -m if sign else m)


def path_amplitude(n: int, steps: Sequence[StepOp], start: int, end: int) -> float:
    """Sum of all path amplitudes from start to end, correctly rounded, so
    it depends on neither path order nor Python version.

    Negation is exact and rounding is symmetric in sign, so every path
    through b transforms has the magnitude m of b roundings from 1.0, and
    the exact sum is (P - M) * m for P positive and M negative paths. P - M
    is an exact float (|P - M| <= MAX_PATHS < 2**53), so float(P - M) * m
    rounds that sum once, as math.fsum of the amplitudes would, down to the
    sign of zero. The last step never branches: its contribution is the
    single entry into `end`. An empty program is the identity.
    """
    _check_enumeration(n, steps, start, end)
    walk = _Walk(n, steps, start, end)
    return float(walk.signed_count()) * walk.magnitude


def enumerate_paths(
    n: int, steps: Sequence[StepOp], start: int, end: int | None = None
) -> Iterator[Path]:
    """Yield every path from start through the program, one Path at a time.

    With `end` given, only paths finishing there are yielded; with end
    None, all of them. path_amplitude(n, steps, start, end) equals the sum
    of the amplitudes yielded here. Arguments are checked at call time.
    """
    _check_enumeration(n, steps, start, end)
    return _Walk(n, steps, start, end).paths()


def verify_against_matrix(n: int, steps: Sequence[StepOp]) -> float:
    """Max absolute deviation between path sums and the dense engine.

    Runs the same program through both routes starting from basis state 0
    and compares the amplitude at every end state. Limited to n <= 4 and
    10 steps to keep the enumeration tractable.
    """
    if _as_int(n, "n", 1) > 4:
        raise ValueError(f"matrix cross-check is limited to n <= 4, got n={n}")
    if len(steps) > 10:
        raise ValueError(f"matrix cross-check is limited to 10 steps, got {len(steps)}")
    _check_enumeration(n, steps, 0, None)
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
