import math
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    Oracle,
    ResourceLimitError,
    StepOp,
    enumerate_paths,
    grover_steps,
    path_amplitude,
    verify_against_matrix,
    wh_matrix_entry,
)
import pathsum_reference as reference
from helpers import MemoryProbe, run_command


def test_step_op_validation():
    with pytest.raises(ValueError, match="unknown step kind"):
        StepOp("hadamard")
    with pytest.raises(ValueError, match="carries no marked set"):
        StepOp("wh", frozenset({1}))
    flip = StepOp.flip_marked({3, 1})
    assert flip.marked == frozenset({1, 3})


def test_step_op_accepts_oracle_objects():
    oracle = Oracle(3, marked={2, 6})
    assert StepOp.flip_marked(oracle).marked == frozenset({2, 6})


def test_grover_steps_shape():
    steps = grover_steps({2}, 2)
    kinds = [op.kind for op in steps]
    assert kinds == ["wh", "flip_marked", "wh", "flip_zero", "wh",
                     "flip_marked", "wh", "flip_zero", "wh"]
    with pytest.raises(ValueError):
        grover_steps({2}, -1)


def test_empty_program_is_identity():
    assert path_amplitude(2, [], 3, 3) == 1.0
    assert path_amplitude(2, [], 3, 0) == 0.0


def test_single_mixing_step_equals_matrix_entry():
    steps = [StepOp.wh()]
    for start in range(4):
        for end in range(4):
            got = path_amplitude(2, steps, start, end)
            assert got == wh_matrix_entry(2, end, start)


def test_single_flip_steps_are_diagonal():
    flip = [StepOp.flip_marked({2})]
    assert path_amplitude(2, flip, 2, 2) == -1.0
    assert path_amplitude(2, flip, 1, 1) == 1.0
    assert path_amplitude(2, flip, 1, 2) == 0.0
    zero = [StepOp.flip_zero()]
    assert path_amplitude(2, zero, 0, 0) == -1.0
    assert path_amplitude(2, zero, 3, 3) == 1.0


def test_four_path_decomposition():
    # Mixing, marked flip on {2}, mixing again: exactly one path per
    # intermediate state, and only the one through state 2 is negative.
    steps = [StepOp.wh(), StepOp.flip_marked({2}), StepOp.wh()]
    paths = list(enumerate_paths(2, steps, 0, 0))
    assert len(paths) == 4
    by_mid = {p.states[1] for p in paths}
    assert by_mid == {0, 1, 2, 3}
    for p in paths:
        assert p.states[0] == 0 and p.states[-1] == 0
        assert p.states[1] == p.states[2]
        want = -0.25 if p.states[1] == 2 else 0.25
        assert abs(p.amplitude - want) < 1e-12
    total = sum(p.amplitude for p in paths)
    assert abs(total - 0.5) < 1e-12
    assert abs(path_amplitude(2, steps, 0, 0) - total) < 1e-15


def test_enumerate_paths_counts():
    # one mixing step from a fixed start reaches all N states, one path each
    assert len(list(enumerate_paths(2, [StepOp.wh()], 0))) == 4
    assert len(list(enumerate_paths(3, [StepOp.wh()], 5))) == 8
    # fixing the end keeps a single path
    assert len(list(enumerate_paths(2, [StepOp.wh()], 0, 0))) == 1


def test_enumerate_paths_sum_matches_path_amplitude():
    for n in (1, 2, 3):
        for iterations in (0, 1, 2):
            steps = grover_steps({(1 << n) - 1}, iterations)
            every = list(enumerate_paths(n, steps, 0))
            for end in range(1 << n):
                paths = list(enumerate_paths(n, steps, 0, end))
                assert paths == [p for p in every if p.states[-1] == end]
                amplitudes = [p.amplitude for p in paths]
                assert abs(sum(amplitudes) - path_amplitude(n, steps, 0, end)) < 1e-12
                # Correctly rounded, so equal on every Python version.
                assert path_amplitude(n, steps, 0, end) == math.fsum(amplitudes)


def test_first_verify_call_allocates_little():
    # A fresh interpreter: a first call that lazily imports a numpy submodule
    # (np.unique pulls in numpy.ma, about 1 MB) would show here.
    code = (
        "import tracemalloc\n"
        "from groversim import grover_steps, verify_against_matrix\n"
        "tracemalloc.start()\n"
        "verify_against_matrix(2, grover_steps({1}, 1))\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    done = run_command(sys.executable, "-c", code)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 64 * 1024


def test_enumerate_paths_is_lazy():
    # 16**6 paths in all; the first arrives without walking the rest.
    first = next(enumerate_paths(4, [StepOp.wh()] * 6, 3))
    assert first.states == (3, 0, 0, 0, 0, 0, 0)
    assert first.amplitude == 0.25**6


def test_path_amplitude_full_program_reaches_certainty():
    steps = grover_steps({2}, 1)
    assert abs(path_amplitude(2, steps, 0, 2) - (-1.0)) < 1e-12
    for end in (0, 1, 3):
        assert abs(path_amplitude(2, steps, 0, end)) < 1e-12


def test_path_amplitude_validation():
    with pytest.raises(ValueError, match="start: must be >= 0 and <= 3, got 4"):
        path_amplitude(2, [], 4, 0)
    with pytest.raises(ValueError, match="end: must be >= 0 and <= 3, got 4"):
        path_amplitude(2, [], 0, 4)
    with pytest.raises(ValueError, match="marked index"):
        path_amplitude(2, [StepOp.flip_marked({9})], 0, 0)
    with pytest.raises(ValueError):
        path_amplitude(0, [], 0, 0)


def test_enumeration_guard_trips():
    # The cap counts the paths a call walks. With an end, the last of 8
    # transforms goes straight into it, so 7 branch: 16**7 = 2**28 paths.
    steps = [StepOp.wh()] * 8
    message = re.escape("path enumeration would exceed 67108864 branches at steps[6]")
    with pytest.raises(ResourceLimitError, match=message):
        path_amplitude(4, steps, 0, 0)
    with pytest.raises(ResourceLimitError, match=message):
        enumerate_paths(4, steps, 0, 0)
    # With end None, all 7 of 7 transforms branch.
    with pytest.raises(ResourceLimitError, match=message):
        enumerate_paths(4, steps[:7], 0)


def test_verify_against_matrix_small_sweep():
    for n in (1, 2, 3):
        for iterations in (1, 2):
            marked = {(1 << n) - 1}
            dev = verify_against_matrix(n, grover_steps(marked, iterations))
            assert dev < 1e-10


def test_verify_against_matrix_empty_program():
    assert verify_against_matrix(2, []) == 0.0


def test_verify_against_matrix_limits():
    with pytest.raises(ValueError, match="n <= 4"):
        verify_against_matrix(5, [])
    with pytest.raises(ValueError, match="10 steps"):
        verify_against_matrix(2, [StepOp.flip_zero()] * 11)


@pytest.mark.parametrize("n", ["3", None], ids=repr)
def test_verify_against_matrix_checks_the_type_of_n_first(n):
    # Compared with 4 before any type check, these raised TypeError.
    with pytest.raises(ValueError, match=f"^n: expected an integer, got {n!r}$"):
        verify_against_matrix(n, [])


def test_verify_against_matrix_names_a_bad_marked_index_by_its_step():
    # The dense route used to see it first and name it "selector index 9".
    steps = [StepOp.wh(), StepOp.flip_marked({1, 9})]
    with pytest.raises(ValueError, match=r"^steps\[1\] marked index 9 out of range for 4 basis states$"):
        verify_against_matrix(2, steps)


def test_path_amplitude_norm_identity():
    # summing |amplitude|^2 over all ends of a mixing program gives 1
    steps = [StepOp.wh(), StepOp.flip_marked({1}), StepOp.wh()]
    total = sum(path_amplitude(2, steps, 0, end) ** 2 for end in range(4))
    assert abs(total - 1.0) < 1e-12


def test_path_amplitude_against_entry_product():
    # two mixing steps compose to the identity, path-sum style
    steps = [StepOp.wh(), StepOp.wh()]
    for start in range(4):
        for end in range(4):
            want = 1.0 if start == end else 0.0
            assert abs(path_amplitude(2, steps, start, end) - want) < 1e-12


def test_path_count_grows_with_free_mixing_steps():
    steps = grover_steps({0}, 1)  # mixing steps at positions 0, 2, 4
    paths = list(enumerate_paths(1, steps, 0, 0))
    # two free mixing steps (the last one is pinned by the end state)
    assert len(paths) == 4
    assert math.isclose(
        sum(p.amplitude for p in paths), path_amplitude(1, steps, 0, 0), rel_tol=0.0, abs_tol=1e-12
    )


def pack(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def programs(draw):
    """n <= 3, up to 7 steps with at most 2**12 paths in all, a start, and
    an end or None."""
    n = draw(st.integers(1, 3))
    size = 1 << n
    step = st.one_of(st.just(StepOp.wh()), st.just(StepOp.flip_zero()),
                     st.frozensets(st.integers(0, size - 1)).map(StepOp.flip_marked))
    steps = draw(st.lists(step, max_size=7).filter(
        lambda steps: size ** sum(op.kind == "wh" for op in steps) <= 1 << 12))
    return n, steps, draw(st.integers(0, size - 1)), draw(st.none() | st.integers(0, size - 1))


@settings(deadline=None, max_examples=300)
@given(programs())
def test_path_sums_match_the_float_walker_byte_for_byte(program):
    # The reference carries each amplitude as a float product and sums with
    # math.fsum; the integer count must give the same bytes, the sign of
    # zero included. With end None, path_amplitude is checked at every end.
    n, steps, start, end = program
    for stop in range(1 << n) if end is None else [end]:
        got = path_amplitude(n, steps, start, stop)
        assert pack(got) == pack(reference.path_amplitude(n, steps, start, stop)), stop
    got = [(p.states, pack(p.amplitude)) for p in enumerate_paths(n, steps, start, end)]
    assert got == [(p.states, pack(p.amplitude))
                   for p in reference.enumerate_paths(n, steps, start, end)]


def test_path_amplitude_walks_the_leaves_without_a_list():
    # One node with 2**20 leaves: the last transform goes into end, so the
    # call walks 2**20 paths. A list of the leaves would take 8 MiB for its
    # pointers alone.
    steps = [StepOp.wh(), StepOp.flip_marked({3}), StepOp.wh()]
    path_amplitude(20, steps, 0, 0)
    with MemoryProbe() as probe:
        got = path_amplitude(20, steps, 0, 5)
    assert probe.peak < 64 * 1024
    assert got == 2 / (1 << 20)


def test_a_transform_into_the_end_does_not_count_against_the_cap():
    # 2**14 paths, but 2**28 if the last transform branched, as it was once counted.
    steps = [StepOp.wh(), StepOp.flip_marked({3}), StepOp.wh()]
    got = path_amplitude(14, steps, 0, 5)
    assert pack(got) == pack(reference.path_amplitude(14, steps, 0, 5))
