import contextlib
import gc
import hashlib
import math
import os
import sys
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
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
from helpers import SIGN_TABLE, MemoryProbe, random_unit_vector, run_command


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
    for n in range(1, 6):
        size = 1 << n
        matrix = np.array(
            [[wh_matrix_entry(n, q, r) for r in range(size)] for q in range(size)]
        )
        if n <= 4:
            v = random_unit_vector(rng, n)
            got = walsh_hadamard_naive(v)
            assert np.allclose(got.amps, matrix @ v.amps, rtol=0.0, atol=1e-14)
        # On a basis state the product picks one column, entry for entry.
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
def signed_zero_states(draw):
    """Unnormalized states for n <= 7 whose parts are often +0.0 or -0.0;
    about half of the sizes are drawn from n >= 4, where every layout
    below runs more than one block or strip."""
    n = draw(st.integers(1, 7) | st.integers(4, 7))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    parts = draw(st.lists(part, min_size=2 << n, max_size=2 << n))
    return AmplitudeVector(n, np.array(parts).view(np.complex128))


# The butterfly's constants in each layout, named by what it runs in more
# than one window at n=7: blocks, strips 2 wide, and (from n=3 at two
# workers) half of each phase's windows on the worker thread.
LAYOUTS = {
    "as shipped": {},
    "blocks of 4": {"_BLOCK_BITS": 2},
    "blocks of 8": {"_BLOCK_BITS": 3},
    "strips of 2, one worker": {"_BLOCK_BITS": 2, "_STRIP_BITS": 1, "_POOL_BITS": 3, "_WORKERS": 1},
    "strips of 2, two workers": {"_BLOCK_BITS": 2, "_STRIP_BITS": 1, "_POOL_BITS": 3, "_WORKERS": 2},
    "blocks of 8, strips of 2, two workers":
        {"_BLOCK_BITS": 3, "_STRIP_BITS": 1, "_POOL_BITS": 3, "_WORKERS": 2},
}


@contextlib.contextmanager
def recording_windows(layout, fail_on=None, delay=0.0):
    """Patches the butterfly's constants to layout and yields a list of the
    windows _ping_pong has run, each as (thread name, ndim, size). A window
    on the thread fail_on raises RuntimeError instead, and one on the worker
    first sleeps delay seconds, so that a caller that did not wait for the
    worker would return before it."""
    windows, real_ping_pong = [], groversim.transforms._ping_pong

    def ping_pong(a, b, passes):
        name = threading.current_thread().name
        if name == fail_on:
            raise RuntimeError(f"a part failed on {name}")
        if delay and name != "MainThread":
            time.sleep(delay)
        real_ping_pong(a, b, passes)
        windows.append((name, a.ndim, a.size))

    with mock.patch.multiple(groversim.transforms, _ping_pong=ping_pong, **layout):
        yield windows


def threads(windows):
    """The names of the threads that ran windows, in order."""
    return [name for name, _, _ in windows]


def check_every_route(state, marked, layouts):
    """In each of layouts, every route through the butterfly against
    reshape_butterfly, bit for bit: a copy and a spare's two buffers, for
    state and for its float64 real part, which is also the real part of its
    complex transform; grover_iteration on state with marked. Leaves state
    untouched; returns the windows each layout ran."""
    before = state.amps.tobytes()
    real = AmplitudeVector(state.n, state.amps.real.copy())
    widened = AmplitudeVector(state.n, real.amps.astype(np.complex128))
    transformed = reshape_butterfly(state.amps)
    wants = [(state, transformed.tobytes()), (real, reshape_butterfly(real.amps).tobytes())]
    iterated, idx = state.amps.copy(), list(marked)
    iterated[idx] = -iterated[idx]
    # With nothing marked, the first transform is the state's own.
    iterated = reshape_butterfly(iterated) if marked else transformed
    iterated[0] = -iterated[0]
    iterated = reshape_butterfly(iterated).tobytes()
    ran = []
    for layout in layouts:
        with recording_windows(layout) as windows:
            for vector, want in wants:
                assert walsh_hadamard_fast(vector).amps.tobytes() == want
                pair = vector.copy(), AmplitudeVector(vector.n, np.empty_like(vector.amps))
                buffers = [v.amps for v in pair]
                got = walsh_hadamard_fast(pair[0], spare=pair[1])
                # The result sits in the state's buffer after an even number of passes.
                assert got is pair[vector.n % 2]
                assert all(v.amps is buffer for v, buffer in zip(pair, buffers))
                assert got.amps.tobytes() == want
            assert walsh_hadamard_fast(widened).amps.real.tobytes() == wants[1][1]
            assert grover_iteration(state, Oracle(state.n, marked=marked)).amps.tobytes() == iterated
        ran.append(windows)
    assert state.amps.tobytes() == before
    return ran


@settings(deadline=None, max_examples=200)
@given(signed_zero_states(), st.data())
def test_fast_transform_and_iteration_match_the_reshape_butterfly_bit_for_bit(state, data):
    marked = data.draw(st.frozensets(st.integers(0, state.size - 1)))
    for name, windows in zip(LAYOUTS, check_every_route(state, marked, LAYOUTS.values())):
        # --hypothesis-show-statistics counts the draws past one window.
        several = min(size for _, _, size in windows) < state.size
        event(f"{name}: {'several windows' if several else 'one window'}")


def test_every_layout_is_reached():
    # At n=7 a layout runs more than one of the blocks or strips it names,
    # and with two workers runs windows on the worker thread.
    state = random_unit_vector(np.random.default_rng(7), 7)
    for name, layout in LAYOUTS.items():
        with recording_windows(layout) as windows:
            walsh_hadamard_fast(state)
        if "blocks" in name:
            assert sum(ndim == 1 for _, ndim, _ in windows) > 1, name
        if "strips" in name:
            assert sum(ndim == 2 for _, ndim, _ in windows) > 1, name
        if "two workers" in name:
            assert "groversim-butterfly" in threads(windows), name


def signed_zero_parts(n, seed):
    """2 << n normal floats drawn from seed, a quarter set to +0.0 and a
    quarter to -0.0: the complex128 parts of an n-qubit state."""
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=2 << n)
    parts[rng.integers(0, parts.size, size=parts.size // 4)] = 0.0
    parts[rng.integers(0, parts.size, size=parts.size // 4)] = -0.0
    return parts


def test_fast_transform_past_one_block_matches_the_reshape_butterfly():
    # At the real block, strip and pool sizes, at one worker and two: n=17
    # has two blocks and four strips, n=20 sixteen blocks and four-pass strips.
    assert 17 > groversim.transforms._BLOCK_BITS
    for n in (17, 20):
        state = AmplitudeVector(n, signed_zero_parts(n, n).view(np.complex128))
        check_every_route(state, frozenset(), [{"_WORKERS": 1}, {"_WORKERS": 2}])


# One sha256 over every result of test_the_butterfly_keeps_its_bytes at
# 9b0a32d, whose butterfly sliced each pass's four views anew.
BUTTERFLY_GOLDEN = "91bc56e782977c3e4e0ae219aa501d7a3489e07faec77d2d911c0e2226bffc0f"


def test_the_butterfly_keeps_its_bytes(monkeypatch):
    # The layout property covers n <= 7 and the reshape test n = 17 and 20;
    # this pins every size from 1 to 20, each over one block, then strips,
    # then (from n=16 at two workers) the worker thread.
    digest = hashlib.sha256()
    for n in range(1, 21):
        parts = signed_zero_parts(n, n)
        for amps in (parts[:1 << n], parts.view(np.complex128)):
            for workers in (1, 2):
                monkeypatch.setattr(groversim.transforms, "_WORKERS", workers)
                digest.update(walsh_hadamard_fast(AmplitudeVector(n, amps)).amps.tobytes())
                pair = AmplitudeVector(n, amps.copy()), AmplitudeVector(n, np.empty_like(amps))
                digest.update(walsh_hadamard_fast(pair[0], spare=pair[1]).amps.tobytes())
    assert digest.hexdigest() == BUTTERFLY_GOLDEN


def pooled_state():
    """A float64 state at the size from which the worker thread runs."""
    n = groversim.transforms._POOL_BITS
    return AmplitudeVector(n, signed_zero_parts(n, n)[:1 << n])


def test_the_worker_runs_half_of_the_parts_from_the_pool_size():
    with recording_windows({"_WORKERS": 2}, delay=0.05) as windows:
        walsh_hadamard_fast(pooled_state())
        # Two blocks, then two strips.
        assert sorted(threads(windows)) == ["MainThread"] * 2 + ["groversim-butterfly"] * 2
        windows.clear()
        walsh_hadamard_fast(random_unit_vector(np.random.default_rng(5), 15))
    assert set(threads(windows)) == {"MainThread"}


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


def test_a_transform_keeps_no_view_of_its_buffers():
    # Each window builds its two sets of pass views and drops them: 14
    # passes that each kept four views of about 100 bytes would pass 4 KiB,
    # and a view kept past the call would keep its buffer alive.
    n = 14
    state = random_unit_vector(np.random.default_rng(14), n)
    spare = AmplitudeVector(n, np.empty_like(state.amps))
    walsh_hadamard_fast(state, spare=spare)
    buffers = [weakref.ref(state.amps), weakref.ref(spare.amps)]
    gc.disable()
    try:
        with MemoryProbe() as probe:
            walsh_hadamard_fast(state, spare=spare)
        del state, spare
        alive = [buffer() is not None for buffer in buffers]
    finally:
        gc.enable()
    assert alive == [False, False]
    assert probe.peak - probe.start < 4 << 10


def test_a_part_that_fails_here_waits_for_the_worker(monkeypatch):
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    state = pooled_state()
    with recording_windows({}, "MainThread", 0.05) as windows:
        with pytest.raises(RuntimeError, match="a part failed on MainThread"):
            walsh_hadamard_fast(state)
    # The worker's block was done before the caller's exception came out.
    assert threads(windows) == ["groversim-butterfly"]
    assert walsh_hadamard_fast(state).amps.tobytes() == reshape_butterfly(state.amps).tobytes()


def test_a_part_that_fails_on_the_worker_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    state = pooled_state()
    pair = state.copy(), AmplitudeVector(state.n, np.empty_like(state.amps))
    buffers = [weakref.ref(vector.amps) for vector in pair]
    # The exception's traceback holds views of both buffers: they go with
    # it, and no reference cycle keeps them for the collector.
    gc.disable()
    try:
        with recording_windows({}, "groversim-butterfly", 0.05) as windows:
            with pytest.raises(RuntimeError, match="a part failed on groversim-butterfly"):
                walsh_hadamard_fast(pair[0], spare=pair[1])
        del pair
        alive = [buffer() is not None for buffer in buffers]
    finally:
        gc.enable()
    assert alive == [False, False]
    assert threads(windows) == ["MainThread"]
    assert walsh_hadamard_fast(state).amps.tobytes() == reshape_butterfly(state.amps).tobytes()


def test_a_transform_that_finds_the_worker_busy_runs_all_its_parts(monkeypatch):
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    state = pooled_state()
    walsh_hadamard_fast(state)
    worker = groversim.transforms._worker
    assert worker.busy.acquire(blocking=False)
    try:
        with recording_windows({}) as windows:
            got = walsh_hadamard_fast(state)
    finally:
        worker.busy.release()
    assert threads(windows) == ["MainThread"] * 4
    assert got.amps.tobytes() == reshape_butterfly(state.amps).tobytes()


def test_a_transform_whose_thread_is_refused_runs_all_its_parts(monkeypatch):
    # Where the system has no thread to give, Thread.start raises.
    monkeypatch.setattr(threading.Thread, "start",
                        mock.Mock(side_effect=RuntimeError("can't start new thread")))
    monkeypatch.setattr(groversim.transforms, "_WORKERS", 2)
    monkeypatch.setattr(groversim.transforms, "_worker", None)
    state = pooled_state()
    with recording_windows({}) as windows:
        assert walsh_hadamard_fast(state).amps.tobytes() == reshape_butterfly(state.amps).tobytes()
    assert threads(windows) == ["MainThread"] * 4


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
