"""The path sum's float walker, kept as the reference that
groversim.pathsum must match byte for byte.

It carries each path's amplitude as a running float product and sums the
amplitudes with math.fsum; groversim.pathsum counts signed paths in
integers instead.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

from groversim.pathsum import Path, StepOp, _check_enumeration
from groversim.transforms import _wh_sign


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
                [(i + 1, nxt, amp * _wh_sign(nxt, state) * inv_root)
                 for nxt in range(size - 1, -1, -1)]
            )
        elif i > last:
            if end is None or state == end:
                yield amp
        elif end is not None:
            if chain is not None:
                chain.append(end)
            yield amp * _wh_sign(end, state) * inv_root
        else:
            for nxt in range(size):
                if chain is not None:
                    chain[i + 1:] = [nxt]
                yield amp * _wh_sign(nxt, state) * inv_root


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
