import gc
import math
import os
import sys
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groversim.transforms
from groversim import (
    AmplitudeVector,
    Oracle,
    ResourceLimitError,
    basis_state,
    grover_iteration,
    invert_phase_marked,
    invert_phase_zero,
    norm,
    uniform_state,
    walsh_hadamard_fast,
    walsh_hadamard_naive,
    wh_matrix_entry,
    wh_sign,
)
from helpers import MemoryProbe, random_unit_vector, run_command

# Sign table for n=2, recomputed by hand from the popcount parity of q AND r.
SIGN_TABLE = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
]


def test_wh_sign_worked_example():
    # q AND r = 00110101 has four 1 bits, so the entry is positive
    assert wh_sign(0b01110101, 0b10110111) == 1


def test_wh_sign_small_table():
    for q in range(4):
        for r in range(4):
            assert wh_sign(q, r) == SIGN_TABLE[q][r]


def test_wh_sign_is_symmetric():
    for q in range(32):
        for r in range(32):
            assert wh_sign(q, r) == wh_sign(r, q)


def test_wh_sign_rejects_negative_indices():
    with pytest.raises(ValueError):
        wh_sign(-1, 0)


def test_wh_matrix_entry_two_qubits_exact():
    # 1/sqrt(4) is exactly 0.5, so every entry must be exactly +-0.5
    for q in range(4):
        for r in range(4):
            assert wh_matrix_entry(2, q, r) == SIGN_TABLE[q][r] * 0.5


def test_wh_matrix_entry_magnitude():
    for n in (1, 3, 5):
        want = 1.0 / math.sqrt(1 << n)
        assert wh_matrix_entry(n, 0, 0) == want
        assert abs(wh_matrix_entry(n, 1, 1)) == want


def test_wh_matrix_entry_rejects_bad_indices():
    with pytest.raises(ValueError, match="q: must be >= 0 and <= 3, got 4"):
        wh_matrix_entry(2, 4, 0)
    with pytest.raises(ValueError):
        wh_matrix_entry(0, 0, 0)


def test_naive_transform_of_basis_zero_is_uniform():
    got = walsh_hadamard_naive(basis_state(3, 0))
    assert np.allclose(got.amps, uniform_state(3).amps, rtol=0.0, atol=1e-15)


def test_naive_transform_matches_explicit_matrix():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        size = 1 << n
        matrix = np.array(
            [[wh_matrix_entry(n, q, r) for r in range(size)] for q in range(size)]
        )
        v = random_unit_vector(rng, n)
        got = walsh_hadamard_naive(v)
        assert np.allclose(got.amps, matrix @ v.amps, rtol=0.0, atol=1e-14)
    # On a basis state the product picks one column, entry for entry.
    for n in range(1, 6):
        size = 1 << n
        matrix = np.array(
            [[wh_matrix_entry(n, q, r) for r in range(size)] for q in range(size)]
        )
        for r in range(size):
            assert (walsh_hadamard_naive(basis_state(n, r)).amps == matrix[:, r]).all()


def test_naive_transform_equals_the_whole_matrix_product():
    # The rows are built and applied a block at a time; each output entry is
    # the same row product as with the whole matrix, so the bytes are too.
    rng = np.random.default_rng(24)
    for n in range(1, 11):
        size = 1 << n
        idx = np.arange(size, dtype=np.uint32)
        scale = 1.0 / math.sqrt(size)
        matrix = np.where(np.bitwise_count(idx[:, None] & idx[None, :]) & 1, -scale, scale)
        for amps in [rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(3)] + [
            rng.normal(size=size) for _ in range(3)
        ]:
            want = matrix @ amps.real + 1j * (matrix @ amps.imag)
            got = walsh_hadamard_naive(AmplitudeVector(n, amps)).amps
            assert got.dtype == np.complex128
            assert got.tobytes() == want.tobytes()


def test_naive_transform_peaks_at_a_block_of_rows():
    # The whole matrix would peak near 9 * 4**n bytes: 580 states at n=10
    # and 2308 at n=12.
    for n in (10, 12):
        state = basis_state(n, 1)
        with MemoryProbe() as probe:
            walsh_hadamard_naive(state)
        assert probe.peak < 40 * state.amps.nbytes


def test_naive_transform_retains_nothing():
    # Each call builds its matrix a block of rows at a time (1.1 MiB at n=12)
    # and drops the last block on return.
    with MemoryProbe() as probe:
        for n in (10, 11, 12):
            walsh_hadamard_naive(basis_state(n, 1))
    assert probe.end - probe.start < 1 << 20


def test_naive_transform_refuses_large_registers():
    with pytest.raises(ResourceLimitError):
        walsh_hadamard_naive(basis_state(13, 0))


def test_fast_matches_naive_across_sizes():
    rng = np.random.default_rng(22)
    for n in range(1, 11):
        for _ in range(3):
            v = random_unit_vector(rng, n)
            fast = walsh_hadamard_fast(v).amps
            naive = walsh_hadamard_naive(v).amps
            assert np.allclose(fast, naive, rtol=0.0, atol=1e-12)


def test_fast_transform_is_self_inverse():
    rng = np.random.default_rng(23)
    for n in (1, 4, 9):
        v = random_unit_vector(rng, n)
        back = walsh_hadamard_fast(walsh_hadamard_fast(v))
        assert np.allclose(back.amps, v.amps, rtol=0.0, atol=1e-10)


def test_fast_transform_preserves_norm():
    rng = np.random.default_rng(24)
    for n in (1, 5, 11):
        v = random_unit_vector(rng, n)
        assert abs(norm(walsh_hadamard_fast(v)) - 1.0) < 1e-10


def test_fast_transform_keeps_real_states_real():
    rng = np.random.default_rng(25)
    v = AmplitudeVector(5, rng.normal(size=32))
    got = walsh_hadamard_fast(v)
    assert not got.amps.imag.any()


def reshape_butterfly(amps: np.ndarray) -> np.ndarray:
    """The butterfly as first written: per pass, reshape so that bit k is the
    middle axis and assign (lo + hi) * scale and (lo - hi) * scale."""
    a = amps.copy()
    scale = 1.0 / math.sqrt(2.0)
    for k in range(a.size.bit_length() - 1):
        a = a.reshape(-1, 2, 1 << k)
        lo = a[:, 0, :].copy()
        hi = a[:, 1, :]
        a[:, 0, :] = (lo + hi) * scale
        a[:, 1, :] = (lo - hi) * scale
        a = a.reshape(-1)
    return a


@st.composite
def signed_zero_states(draw, min_n=1):
    """Unnormalized states for n <= 7 whose parts are often +0.0 or -0.0."""
    n = draw(st.integers(min_n, 7))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    parts = draw(st.lists(part, min_size=2 << n, max_size=2 << n))
    return AmplitudeVector(n, np.array(parts).view(np.complex128))


def check_against_the_reshape_butterfly(state, data):
    before = state.amps.tobytes()
    assert walsh_hadamard_fast(state).amps.tobytes() == reshape_butterfly(state.amps).tobytes()
    marked = data.draw(st.frozensets(st.integers(0, state.size - 1)))
    idx = np.array(sorted(marked), dtype=np.int64)
    want = state.amps.copy()
    want[idx] = -want[idx]
    want = reshape_butterfly(want)
    want[0] = -want[0]
    want = reshape_butterfly(want)
    assert grover_iteration(state, Oracle(state.n, marked=marked)).amps.tobytes() == want.tobytes()
    assert state.amps.tobytes() == before


@settings(deadline=None, max_examples=200)
@given(signed_zero_states(), st.data())
def test_fast_transform_and_iteration_match_the_reshape_butterfly_bit_for_bit(state, data):
    check_against_the_reshape_butterfly(state, data)


@settings(deadline=None, max_examples=100)
@given(signed_zero_states(min_n=4), st.data())
def test_blocked_passes_match_the_reshape_butterfly_bit_for_bit(state, data):
    # Blocks of 4 and 8 amplitudes: every draw crosses blocks, with an even
    # and an odd count of in-block passes.
    for bits in (2, 3):
        with mock.patch.object(groversim.transforms, "_BLOCK_BITS", bits):
            check_against_the_reshape_butterfly(state, data)


@settings(deadline=None, max_examples=100)
@given(signed_zero_states(min_n=3), st.data())
def test_shared_parts_match_the_reshape_butterfly_bit_for_bit(state, data):
    # From n=3, blocks of 4 or 8 amplitudes and strips 2 wide: every draw
    # crosses blocks and strips, and at two workers the thread runs half of
    # each phase's parts.
    real = AmplitudeVector(state.n, state.amps.real.copy())
    for bits, workers in ((2, 1), (2, 2), (3, 2)):
        with mock.patch.multiple(groversim.transforms, _BLOCK_BITS=bits, _STRIP_BITS=1,
                                 _POOL_BITS=3, _WORKERS=workers):
            check_against_the_reshape_butterfly(state, data)
            assert walsh_hadamard_fast(real).amps.tobytes() == reshape_butterfly(real.amps).tobytes()


def signed_zero_parts(n, seed):
    """2 << n normal floats drawn from seed, a quarter set to +0.0 and a
    quarter to -0.0: the complex128 parts of an n-qubit state."""
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=2 << n)
    parts[rng.integers(0, parts.size, size=parts.size // 4)] = 0.0
    parts[rng.integers(0, parts.size, size=parts.size // 4)] = -0.0
    return parts


def test_fast_transform_past_one_block_matches_the_reshape_butterfly():
    # At the real block, strip and pool sizes: n=17 has two blocks and four
    # strips, n=20 sixteen blocks and four-pass strips.
    assert 17 > groversim.transforms._BLOCK_BITS
    for n in (17, 20):
        parts = signed_zero_parts(n, n)
        for amps in (parts.view(np.complex128), parts[:1 << n]):
            state = AmplitudeVector(n, amps)
            want = reshape_butterfly(state.amps).tobytes()
            for workers in (1, 2):
                with mock.patch.object(groversim.transforms, "_WORKERS", workers):
                    assert walsh_hadamard_fast(state).amps.tobytes() == want
                    pair = state.copy(), AmplitudeVector(n, np.empty_like(state.amps))
                    got = walsh_hadamard_fast(pair[0], spare=pair[1])
                assert got is pair[n % 2]
                assert got.amps.tobytes() == want


def pooled_state():
    """A float64 state at the size from which the worker thread runs."""
    n = groversim.transforms._POOL_BITS
    return AmplitudeVector(n, signed_zero_parts(n, n)[:1 << n])


def threads_running_passes(monkeypatch, fail_on=None):
    """Records the name of each thread that runs a pass of the butterfly;
    the passes on fail_on raise RuntimeError, and the others on the worker
    first sleep 50 ms, so that a caller that did not wait for the worker
    would return before it."""
    names, real_ping_pong = [], groversim.transforms._ping_pong

    def ping_pong(a, b, passes):
        name = threading.current_thread().name
        if name == fail_on:
            raise RuntimeError(f"a part failed on {name}")
        if name != "MainThread":
            time.sleep(0.05)
        real_ping_pong(a, b, passes)
        names.append(name)

    monkeypatch.setattr(groversim.transforms, "_ping_pong", ping_pong)
    return names


def test_the_worker_runs_half_of_the_parts_from_the_pool_size(monkeypatch):
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    names = threads_running_passes(monkeypatch)
    walsh_hadamard_fast(pooled_state())
    # Two blocks, then two strips.
    assert sorted(names) == ["MainThread"] * 2 + ["groversim-butterfly"] * 2
    names.clear()
    walsh_hadamard_fast(random_unit_vector(np.random.default_rng(5), 15))
    assert set(names) == {"MainThread"}


def test_the_worker_keeps_no_buffer_alive(monkeypatch):
    # A job kept past its part would hold views of both buffers, so the
    # engine's float64 pair would outlive the widening to complex128.
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    state = pooled_state()
    spare = AmplitudeVector(state.n, np.empty_like(state.amps))
    buffers = [weakref.ref(state.amps), weakref.ref(spare.amps)]
    walsh_hadamard_fast(state, spare=spare)
    del state, spare
    assert [buffer() for buffer in buffers] == [None, None]


def test_a_part_that_fails_here_waits_for_the_worker(monkeypatch):
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    state = pooled_state()
    want = reshape_butterfly(state.amps).tobytes()
    real_ping_pong = groversim.transforms._ping_pong
    names = threads_running_passes(monkeypatch, fail_on="MainThread")
    with pytest.raises(RuntimeError, match="a part failed on MainThread"):
        walsh_hadamard_fast(state)
    # The worker's block was done before the caller's exception came out.
    assert names == ["groversim-butterfly"]
    monkeypatch.setattr(groversim.transforms, "_ping_pong", real_ping_pong)
    assert walsh_hadamard_fast(state).amps.tobytes() == want


def test_a_part_that_fails_on_the_worker_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    state = pooled_state()
    want = reshape_butterfly(state.amps).tobytes()
    real_ping_pong = groversim.transforms._ping_pong
    names = threads_running_passes(monkeypatch, fail_on="groversim-butterfly")
    pair = state.copy(), AmplitudeVector(state.n, np.empty_like(state.amps))
    buffers = [weakref.ref(vector.amps) for vector in pair]
    # The exception's traceback holds views of both buffers: they go with
    # it, and no reference cycle keeps them for the collector.
    gc.disable()
    try:
        with pytest.raises(RuntimeError, match="a part failed on groversim-butterfly"):
            walsh_hadamard_fast(pair[0], spare=pair[1])
        del pair
        alive = [buffer() is not None for buffer in buffers]
    finally:
        gc.enable()
    assert alive == [False, False]
    assert names == ["MainThread"]
    monkeypatch.setattr(groversim.transforms, "_ping_pong", real_ping_pong)
    assert walsh_hadamard_fast(state).amps.tobytes() == want


def test_a_transform_that_finds_the_worker_busy_runs_all_its_parts(monkeypatch):
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    state = pooled_state()
    walsh_hadamard_fast(state)
    worker = groversim.transforms._worker
    names = threads_running_passes(monkeypatch)
    assert worker.busy.acquire(blocking=False)
    try:
        got = walsh_hadamard_fast(state)
    finally:
        worker.busy.release()
    assert names == ["MainThread"] * 4
    assert got.amps.tobytes() == reshape_butterfly(state.amps).tobytes()


def test_threads_transforming_at_once_all_get_the_right_bytes():
    rng = np.random.default_rng(26)
    states = [random_unit_vector(rng, 8) for _ in range(3)]
    wants = [reshape_butterfly(state.amps).tobytes() for state in states]
    results = [[] for _ in states]
    start = threading.Barrier(len(states))

    def transform(i):
        start.wait()
        for _ in range(200):
            results[i].append(walsh_hadamard_fast(states[i]).amps.tobytes())

    # Blocks of 8 amplitudes and strips 2 wide: each transform hands the
    # worker two jobs, and with more threads than CPUs and a short switch
    # interval the threads often find it taken.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.multiple(groversim.transforms, _BLOCK_BITS=3, _STRIP_BITS=1,
                                 _POOL_BITS=4, _WORKERS=2):
            threads = [threading.Thread(target=transform, args=(i,)) for i in range(len(states))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[want] * 200 for want in wants]


FORKED_TRANSFORM = """
import os, sys
import numpy as np
from groversim import AmplitudeVector, transforms, walsh_hadamard_fast
transforms._WORKERS = 2
state = AmplitudeVector(16, np.random.default_rng(16).normal(size=1 << 16))
want = walsh_hadamard_fast(state).amps.tobytes()
pid = os.fork()
if pid == 0:
    os._exit(0 if walsh_hadamard_fast(state).amps.tobytes() == want else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_does_not_wait_for_the_parents_worker():
    # The child has no copy of the worker's thread: handing it a part would
    # wait forever.
    done = run_command(sys.executable, "-c", FORKED_TRANSFORM, timeout=60)
    assert done.returncode == 0, done.stderr


POOLED_TRANSFORMS = """
import sys, threading
import numpy as np
from groversim import AmplitudeVector, transforms, walsh_hadamard_fast
state = AmplitudeVector(17, np.ones(1 << 17))
modules, threads = set(sys.modules), threading.active_count()
transforms._WORKERS = 1
walsh_hadamard_fast(state)
print(threading.active_count() - threads)
transforms._WORKERS = 2
walsh_hadamard_fast(state)
print(sorted(set(sys.modules) - modules), threading.active_count() - threads)
"""


def test_the_worker_imports_nothing_and_one_worker_starts_no_thread():
    # A module imported on first use would be timed in the first transform
    # (concurrent.futures takes about 5 ms); threading comes with numpy.
    done = run_command(sys.executable, "-c", POOLED_TRANSFORMS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["0", "[] 1", ""]


@settings(deadline=None, max_examples=100)
@given(signed_zero_states())
def test_fast_transform_with_a_spare_runs_in_the_two_buffers(state):
    want = walsh_hadamard_fast(state).amps.tobytes()
    spare = AmplitudeVector(state.n, np.empty_like(state.amps))
    buffers = (state.amps, spare.amps)
    got = walsh_hadamard_fast(state, spare=spare)
    # The result sits in state's buffer after an even number of passes.
    assert got is (state if state.n % 2 == 0 else spare)
    assert (state.amps, spare.amps) == buffers
    assert got.amps.tobytes() == want


def test_fast_transform_rejects_a_spare_that_is_not_a_separate_buffer():
    v = uniform_state(3)
    for spare in (v, AmplitudeVector(3, v.amps), uniform_state(2)):
        with pytest.raises(ValueError, match="spare must be a separate vector"):
            walsh_hadamard_fast(v, spare=spare)


def test_fast_transform_rejects_a_spare_of_another_dtype():
    real = AmplitudeVector(3, np.full(8, 8 ** -0.5))
    for state, spare in ((real, uniform_state(3)), (uniform_state(3), AmplitudeVector(3, np.empty(8)))):
        with pytest.raises(ValueError, match="spare must be a separate vector"):
            walsh_hadamard_fast(state, spare=spare)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_fast_transform_of_a_real_vector_is_the_real_part_bit_for_bit(n, seed):
    amps = np.random.default_rng(seed).normal(size=1 << n)
    amps[::3] = 0.0
    amps[1::5] = -0.0
    real = walsh_hadamard_fast(AmplitudeVector(n, amps))
    full = walsh_hadamard_fast(AmplitudeVector(n, amps.astype(np.complex128)))
    assert real.amps.dtype == np.float64
    assert real.amps.tobytes() == full.amps.real.tobytes()


def test_phase_flips_in_place_negate_the_state_itself():
    amps = np.array([1.0, -0.0, 0.0, 2.0]) + 1j * np.array([0.0, 1.0, -0.0, 0.0])
    oracle = Oracle(2, marked={1, 2})
    v = AmplitudeVector(2, amps.copy())
    assert invert_phase_marked(v, oracle, in_place=True) is v
    assert oracle.eval_count == 1
    assert v.amps.tobytes() == invert_phase_marked(AmplitudeVector(2, amps), oracle).amps.tobytes()
    w = AmplitudeVector(2, amps.copy())
    assert invert_phase_zero(w, in_place=True) is w
    assert w.amps.tobytes() == invert_phase_zero(AmplitudeVector(2, amps)).amps.tobytes()


def test_fast_transform_does_not_mutate_input():
    v = uniform_state(3)
    before = v.amps.copy()
    walsh_hadamard_fast(v)
    assert np.array_equal(v.amps, before)


def test_invert_phase_marked_counts_one_evaluation():
    oracle = Oracle(2, marked={2})
    v = uniform_state(2)
    assert oracle.eval_count == 0
    w = invert_phase_marked(v, oracle)
    assert oracle.eval_count == 1
    invert_phase_marked(w, oracle)
    assert oracle.eval_count == 2


def test_invert_phase_marked_flips_only_marked():
    oracle = Oracle(2, marked={2})
    got = invert_phase_marked(uniform_state(2), oracle)
    assert np.array_equal(got.amps.real, [0.5, 0.5, -0.5, 0.5])


def test_invert_phase_marked_empty_set_counts_but_changes_nothing():
    oracle = Oracle(2, marked=frozenset())
    v = uniform_state(2)
    got = invert_phase_marked(v, oracle)
    assert oracle.eval_count == 1
    assert np.array_equal(got.amps, v.amps)


def test_invert_phase_zero_flips_only_index_zero():
    got = invert_phase_zero(uniform_state(2))
    assert np.array_equal(got.amps.real, [-0.5, 0.5, 0.5, 0.5])
    again = invert_phase_zero(got)
    assert np.array_equal(again.amps, uniform_state(2).amps)
