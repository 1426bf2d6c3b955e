import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groversim.transforms
from groversim import (
    GroverConfig,
    Oracle,
    ResourceLimitError,
    basis_state,
    classical_baseline,
    grover_iteration,
    invert_phase_marked,
    invert_phase_zero,
    optimal_iterations,
    resolve_iterations,
    roman_numeral,
    run_grover,
    scan_probabilities,
    success_probability,
    uniform_state,
    walsh_hadamard_fast,
)
from helpers import FOUR_STATE_TRACE, MemoryProbe, closed_form, search_angle, traced


def test_oracle_requires_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        Oracle(2)
    with pytest.raises(ValueError, match="exactly one"):
        Oracle(2, marked={1}, predicate=lambda r: r == 1)


def test_oracle_rejects_out_of_range_marked():
    with pytest.raises(ValueError, match="marked index 4 out of range"):
        Oracle(2, marked={1, 4})
    with pytest.raises(ValueError, match="marked index -3 out of range"):
        Oracle(2, marked={7, -3, 5, 1})


def test_oracle_rejects_a_huge_n_before_computing_the_size():
    with MemoryProbe() as probe:
        with pytest.raises(ValueError, match="n: must be >= 1 and <= 62, got 100000000"):
            Oracle(10**8, marked={1})
    assert probe.peak < 1 << 20
    with pytest.raises(ValueError, match="n: must be >= 1 and <= 62, got 0"):
        Oracle(0, predicate=bool)
    assert Oracle(62, marked={(1 << 62) - 1}).marked_count == 1


@pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: Oracle(n, marked={1}),
        lambda n: Oracle(n, predicate=bool),
        lambda n: GroverConfig(n, Oracle(1, marked={1})),
        lambda n: basis_state(n, 0),
        lambda n: uniform_state(n),
    ],
    ids=["oracle-marked", "oracle-predicate", "config", "basis_state", "uniform_state"],
)
def test_qubit_counts_must_be_integers(build, n):
    # A bool would run a 1-qubit search whose trace document is refused;
    # a float would reach 1 << n.
    with pytest.raises(ValueError, match=f"^n: expected an integer, got {n!r}$"):
        build(n)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_set_and_predicate_oracles_agree(data):
    n = data.draw(st.integers(1, 6))
    marked = data.draw(st.frozensets(st.integers(0, (1 << n) - 1)))
    iterations = data.draw(st.integers(0, 4))
    by_set = Oracle(n, marked=marked)
    by_pred = Oracle(n, predicate=marked.__contains__)
    assert by_set.marked_indices().tolist() == by_pred.marked_indices().tolist()
    assert by_set.marked_indices().tolist() == sorted(marked)
    runs = [run_grover(GroverConfig(n, oracle, iterations)) for oracle in (by_set, by_pred)]
    assert runs[0].final_state.amps.tobytes() == runs[1].final_state.amps.tobytes()
    assert runs[0].outcome == runs[1].outcome


def test_oracle_marked_indices_sorted():
    oracle = Oracle(3, marked={6, 1, 4})
    assert oracle.marked_indices().tolist() == [1, 4, 6]
    assert oracle.marked_count == 3


def test_oracle_predicate_tabulates_once():
    calls = []

    def pred(r):
        calls.append(r)
        return r in (2, 5)

    oracle = Oracle(3, predicate=pred)
    assert oracle.marked_indices().tolist() == [2, 5]
    assert oracle.marked_indices().tolist() == [2, 5]
    assert len(calls) == 8  # one pass over all basis states


def test_config_validation():
    oracle = Oracle(2, marked={2})
    with pytest.raises(ValueError, match="config says"):
        GroverConfig(3, oracle)
    with pytest.raises(ValueError, match="'auto'"):
        GroverConfig(2, oracle, iterations="lots")
    with pytest.raises(ValueError, match=">= 0"):
        GroverConfig(2, oracle, iterations=-1)


def test_roman_numeral_sequence():
    labels = [roman_numeral(i) for i in range(1, 13)]
    assert labels == ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii"]
    assert roman_numeral(25) == "xxv"
    assert roman_numeral(1024) == "mxxiv"
    with pytest.raises(ValueError):
        roman_numeral(0)


def test_grover_iteration_four_states():
    oracle = Oracle(2, marked={2})
    got = grover_iteration(uniform_state(2), oracle)
    assert np.allclose(got.amps.real, FOUR_STATE_TRACE[4], rtol=0.0, atol=1e-12)
    assert not got.amps.imag.any()


def test_run_grover_trace_labels_and_values():
    oracle = Oracle(2, marked={2})
    trace, doc = traced(GroverConfig(2, oracle, iterations=1))
    assert [label for label, _ in doc.steps] == ["i", "ii", "iii", "iv", "v"]
    for (_, amps), want in zip(doc.steps, FOUR_STATE_TRACE):
        assert np.allclose(amps.real, want, rtol=0.0, atol=1e-12)
        assert not amps.imag.any()
    assert trace.outcome == 2
    assert trace.oracle_evals == 1
    assert trace.iterations == 1
    assert not trace.degenerate


def test_traced_snapshots_match_the_public_step_functions():
    oracle = Oracle(4, marked={5, 9})
    _, doc = traced(GroverConfig(4, oracle, iterations=2))
    steps = [lambda v: invert_phase_marked(v, oracle), walsh_hadamard_fast,
             invert_phase_zero, walsh_hadamard_fast]
    state = walsh_hadamard_fast(basis_state(4, 0))
    for i, (_, amps) in enumerate(doc.steps):
        if i > 0:
            state = steps[(i - 1) % 4](state)
        assert amps.tobytes() == state.amps.tobytes()


def test_every_step_goes_through_the_public_step_functions(monkeypatch):
    """Profilers see the engine's steps by wrapping these names in the
    grover module, so the engine must call them there. The start state is
    written into the engine's first buffer, not built by basis_state, so
    the first call is the transform that spreads it."""
    import groversim.grover as grover

    calls = []
    for name in ("basis_state", "walsh_hadamard_fast", "invert_phase_marked", "invert_phase_zero"):
        original = getattr(grover, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(grover, name, spy)
    oracle = Oracle(4, marked={5})
    run_grover(GroverConfig(4, oracle, iterations=3))
    steps = ["invert_phase_marked", "walsh_hadamard_fast", "invert_phase_zero",
             "walsh_hadamard_fast"]
    assert calls == ["walsh_hadamard_fast", *steps * 3]
    calls.clear()
    scan_probabilities(GroverConfig(4, oracle), 2)
    assert calls == ["walsh_hadamard_fast", *steps * 2]


def test_run_grover_two_iterations_has_nine_snapshots():
    oracle = Oracle(3, marked={5})
    _, doc = traced(GroverConfig(3, oracle, iterations=2))
    labels = [label for label, _ in doc.steps]
    assert labels == ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"]


def test_run_grover_without_tracing_keeps_no_snapshots():
    oracle = Oracle(2, marked={2})
    trace = run_grover(GroverConfig(2, oracle, iterations=1))
    assert np.allclose(trace.final_state.amps.real, FOUR_STATE_TRACE[4], rtol=0.0, atol=1e-12)


def test_run_grover_zero_iterations():
    oracle = Oracle(2, marked={2})
    trace, doc = traced(GroverConfig(2, oracle, iterations=0))
    assert [label for label, _ in doc.steps] == ["i"]
    assert trace.oracle_evals == 0
    assert np.allclose(trace.final_state.amps.real, FOUR_STATE_TRACE[0], rtol=0.0, atol=1e-12)


def test_run_grover_oracle_evals_equal_iterations():
    for t in (0, 1, 2, 5):
        oracle = Oracle(3, marked={4})
        trace = run_grover(GroverConfig(3, oracle, iterations=t))
        assert trace.oracle_evals == t


def test_run_grover_is_deterministic_per_seed():
    oracle = Oracle(3, marked={4})
    outcomes = {run_grover(GroverConfig(3, oracle, iterations=0, seed=7)).outcome for _ in range(5)}
    assert len(outcomes) == 1


def test_run_grover_predicate_and_set_oracles_agree():
    by_set = run_grover(GroverConfig(3, Oracle(3, marked={5}), iterations=2))
    by_pred = run_grover(GroverConfig(3, Oracle(3, predicate=lambda r: r == 5), iterations=2))
    assert np.array_equal(by_set.final_state.amps, by_pred.final_state.amps)


def test_run_grover_auto_picks_optimum():
    oracle = Oracle(10, marked={137})
    trace = run_grover(GroverConfig(10, oracle, iterations="auto"))
    assert trace.iterations == 25
    assert trace.oracle_evals == 25


def test_resolve_iterations_degenerate_flag():
    half = Oracle(2, marked={0, 1})
    count, degenerate = resolve_iterations(GroverConfig(2, half, iterations="auto"))
    assert degenerate
    assert count == 0
    single = Oracle(2, marked={2})
    count, degenerate = resolve_iterations(GroverConfig(2, single, iterations="auto"))
    assert (count, degenerate) == (1, False)


def test_resolve_iterations_with_every_state_marked():
    # optimal_iterations takes 1..size-1 marked; with all marked, no iteration helps.
    everything = Oracle(2, marked={0, 1, 2, 3})
    assert resolve_iterations(GroverConfig(2, everything, iterations="auto")) == (0, True)


def test_resolve_iterations_auto_needs_marked_states():
    empty = Oracle(2, marked=frozenset())
    with pytest.raises(ValueError, match="marks no states"):
        resolve_iterations(GroverConfig(2, empty, iterations="auto"))


def test_success_probability_uniform_and_final():
    oracle = Oracle(2, marked={2})
    assert success_probability(uniform_state(2), oracle) == 0.25
    final = grover_iteration(uniform_state(2), oracle)
    assert abs(success_probability(final, oracle) - 1.0) < 1e-12
    empty = Oracle(2, marked=frozenset())
    assert success_probability(uniform_state(2), empty) == 0.0


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("step", [invert_phase_marked, success_probability, grover_iteration])
def test_an_oracle_of_another_width_is_refused(width, step):
    # A narrower oracle would flip or sum the wrong amplitudes of the state.
    oracle = Oracle(width, marked={1})
    state = uniform_state(3)
    before = state.amps.tobytes()
    with pytest.raises(ValueError, match=f"oracle covers n={width} qubits, the state n=3"):
        step(state, oracle)
    assert oracle.eval_count == 0
    assert state.amps.tobytes() == before


def test_optimal_iterations_known_counts():
    assert optimal_iterations(4) == 1
    assert optimal_iterations(1024) == 25
    # fully symmetric two-state case: zero and one iteration tie at 1/2,
    # and ties resolve to the smaller count
    assert optimal_iterations(2) == 0


def test_optimal_iterations_validation():
    with pytest.raises(ValueError):
        optimal_iterations(1)
    with pytest.raises(ValueError):
        optimal_iterations(8, 0)
    with pytest.raises(ValueError):
        optimal_iterations(8, 8)


def first_hump_horizon(size, marked_count):
    # Last integer t with (2t + 1) * theta <= pi, i.e. still on the first
    # rise-and-fall of the success curve. Later humps can drift closer to
    # 1 and are outside what optimal_iterations promises.
    return math.floor((math.pi / search_angle(size, marked_count) - 1.0) / 2.0)


def test_optimal_iterations_matches_simulated_argmax():
    for n in range(2, 11):
        size = 1 << n
        oracle = Oracle(n, marked={size - 1})
        hump = first_hump_horizon(size, 1)
        series = scan_probabilities(GroverConfig(n, oracle), hump)
        probs = [p for _, p in series]
        best = optimal_iterations(size)
        assert best <= hump
        assert probs[best] >= max(probs) - 1e-9


def test_optimal_iterations_multiple_marked_matches_scan():
    size = 64
    for k in (2, 3, 5):
        oracle = Oracle(6, marked=set(range(k)))
        hump = first_hump_horizon(size, k)
        series = scan_probabilities(GroverConfig(6, oracle), hump)
        probs = [p for _, p in series]
        best = optimal_iterations(size, k)
        assert probs[best] >= max(probs) - 1e-9


# (n, k, horizon): dense scans with k marked states, over the whole curve up
# to the optimum when horizon is None.
CLOSED_FORM_CURVES = [(n, k, None) for n in range(2, 15) for k in (1, 2, 3)] + [
    (16, 1, None), (18, 1, 3), (20, 1, 3),
]


def test_dense_scan_follows_the_closed_form_curve():
    # Roundoff accumulates over iterations (worst measured 5.65e-15 * (t + 1),
    # at n=16), so the bound grows with t; a flat 1e-12 fails at n=16.
    for n, k, horizon in CLOSED_FORM_CURVES:
        size = 1 << n
        t_max = horizon or max(1, optimal_iterations(size, k))
        config = GroverConfig(n, Oracle(n, marked=set(range(1, k + 1))))
        for t, p in scan_probabilities(config, t_max):
            assert abs(p - closed_form(size, k, t)) <= 2e-14 * (t + 1), (n, k, t)


def test_scan_probabilities_four_state_series():
    oracle = Oracle(2, marked={2})
    series = scan_probabilities(GroverConfig(2, oracle), 6)
    want = [0.25, 1.0, 0.25, 0.25, 1.0, 0.25, 0.25]
    assert [t for t, _ in series] == list(range(7))
    for (_, got), expected in zip(series, want):
        assert abs(got - expected) < 1e-12


def test_scan_probabilities_matches_individual_runs():
    oracle = Oracle(3, marked={6})
    series = scan_probabilities(GroverConfig(3, oracle), 4)
    state = walsh_hadamard_fast(basis_state(3, 0))
    fresh = Oracle(3, marked={6})
    for t, p in series:
        if t > 0:
            state = grover_iteration(state, fresh)
        assert p == success_probability(state, fresh)


def test_scan_runs_and_traces_share_one_step_loop():
    n, marked = 5, {3, 17}
    oracle = Oracle(n, marked=marked)
    series = scan_probabilities(GroverConfig(n, oracle), 8)
    assert [t for t, _ in series] == list(range(9))
    for t, p in series:
        run = run_grover(GroverConfig(n, Oracle(n, marked=marked), iterations=t))
        assert p == success_probability(run.final_state, oracle)
    _, doc = traced(GroverConfig(n, oracle, iterations=8))
    state = walsh_hadamard_fast(basis_state(n, 0))
    for t, (_, amps) in enumerate(doc.steps[::4]):
        if t > 0:
            state = grover_iteration(state, oracle)
        assert amps.tobytes() == state.amps.tobytes()


def _exactness_cases():
    """(n, marked, iteration counts): every nonempty marked set at n = 1..3
    with t = 0..8, then a seeded sweep at n = 4..12 with t in
    {0, 1, 2, 3, auto, auto + 1}."""
    for n in (1, 2, 3):
        for mask in range(1, 1 << (1 << n)):
            yield n, {r for r in range(1 << n) if mask >> r & 1}, range(9)
    rng = np.random.default_rng(19)
    for n in range(4, 13):
        size = 1 << n
        every = range(size)
        picked = rng.choice(size, size=int(rng.integers(1, size)), replace=False).tolist()
        for marked in ({size - 1}, {size - 2, size - 1}, {0}, {0, size - 1}, set(every[::2]),
                       set(every[1::2]), set(every[:size // 2]), set(every[1:]), set(picked)):
            auto, _ = resolve_iterations(GroverConfig(n, Oracle(n, marked=marked)))
            yield n, marked, sorted({0, 1, 2, 3, auto, auto + 1})


def test_real_buffers_give_the_complex_engines_bytes():
    """Untraced runs and scans run on float64 buffers (a run all but its last
    iteration); their results are the complex engine's bytes, down to the
    signs of the zero imaginary parts, which a run that widened only after
    its last iteration would lose."""
    for n, marked, counts in _exactness_cases():
        oracle = Oracle(n, marked=marked)
        series = scan_probabilities(GroverConfig(n, oracle), max(max(counts), 1))
        # A traced run's first 4t + 1 snapshots are those of a traced run of
        # t iterations, so one run of the most gives every last snapshot.
        snapshots = traced(GroverConfig(n, oracle, iterations=max(counts)))[1].steps if n <= 8 else []
        state, done = walsh_hadamard_fast(basis_state(n, 0)), 0
        for t in counts:
            for _ in range(t - done):
                state = grover_iteration(state, oracle)
            done = t
            final = run_grover(GroverConfig(n, oracle, iterations=t)).final_state.amps
            assert final.dtype == np.complex128
            assert final.tobytes() == state.amps.tobytes(), (n, marked, t)
            assert series[t] == (t, success_probability(state, oracle)), (n, marked, t)
            if snapshots:
                assert final.tobytes() == snapshots[4 * t][1].tobytes(), (n, marked, t)


@pytest.mark.parametrize("n", [16, 17])
def test_runs_and_scans_do_not_depend_on_the_worker_count(n, monkeypatch):
    # Three iterations: two on float64 buffers, then the widening to complex.
    oracle = Oracle(n, marked={3, 1 << (n - 1), (1 << n) - 5})
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(groversim.transforms, "_WORKERS", workers)
        run = run_grover(GroverConfig(n, oracle, iterations=3, seed=n))
        series = scan_probabilities(GroverConfig(n, oracle), 3)
        results.append((run.final_state.amps.tobytes(), run.outcome, series))
    assert results[0] == results[1]


def test_untraced_run_and_scan_keep_few_states_alive():
    n = 14
    state_bytes = 16 << n
    oracle = Oracle(n, marked={(1 << n) - 1})
    oracle.marked_indices()
    calls = (
        # Two complex vectors: the last iteration's pair. Allocating the
        # complex spare while the caller still held the last real vector
        # would peak at 2.5.
        (lambda: run_grover(GroverConfig(n, oracle, iterations=3)), 2.1),
        # The real pair: the start state is written into the first float64
        # buffer, so no complex vector is ever built (1.0).
        (lambda: scan_probabilities(GroverConfig(n, oracle), 3), 1.1),
    )
    for call, bound in calls:
        with MemoryProbe() as probe:
            call()
        assert probe.peak < bound * state_bytes


def test_traced_run_volume_is_capped_before_simulating():
    # (4t + 1) * 2**3 amplitudes against a cap of 2**5: t = 0 fits, t = 1 does not.
    oracle = Oracle(3, marked={5})
    assert len(traced(GroverConfig(3, oracle, iterations=0, max_qubits=5))[1].steps) == 1
    config = GroverConfig(3, oracle, iterations=1, max_qubits=5)
    out = io.StringIO()
    with pytest.raises(ResourceLimitError, match="5 snapshots at n=3 exceeds 2\\*\\*5"):
        run_grover(config, out)
    assert oracle.eval_count == 0
    assert out.getvalue() == ""
    assert run_grover(config).oracle_evals == 1
    # A trace of exactly 2**max_qubits amplitudes is allowed.
    oracle = Oracle(5, marked={5})
    assert len(traced(GroverConfig(5, oracle, iterations=0, max_qubits=5))[1].steps) == 1
    # A register over the cap is refused when the config is built, before
    # the auto iteration count is worked out.
    with pytest.raises(ResourceLimitError, match="n=40 exceeds the 24-qubit cap"):
        GroverConfig(40, Oracle(40, marked={1}))


@pytest.mark.parametrize(
    "run",
    [
        lambda cap: run_grover(GroverConfig(3, Oracle(3, marked={5}), max_qubits=cap), io.StringIO()),
        lambda cap: classical_baseline(16, {0}, 4, 1000, max_qubits=cap),
    ],
    ids=["traced run", "classical baseline"],
)
def test_a_huge_cap_is_checked_without_building_its_power_of_two(run):
    # 2**(10**8) alone would take 12.5 MB.
    run(24)
    with MemoryProbe() as probe:
        run(10**8)
    assert probe.peak < 2 << 20


@pytest.mark.parametrize("count", [2.5, 2.0, True, np.int64(2)])
def test_iteration_counts_must_be_int(count):
    oracle = Oracle(2, marked={2})
    with pytest.raises(ValueError, match=f"^iterations: expected an integer, got {re.escape(repr(count))}$"):
        GroverConfig(2, oracle, iterations=count)
    with pytest.raises(ValueError, match=f"^t_max: expected an integer, got {re.escape(repr(count))}$"):
        scan_probabilities(GroverConfig(2, oracle), count)


def test_scan_probabilities_rejects_bad_horizon():
    oracle = Oracle(2, marked={2})
    with pytest.raises(ValueError, match="t_max"):
        scan_probabilities(GroverConfig(2, oracle), 0)


def test_classical_baseline_analytic_forms():
    res = classical_baseline(4, {2}, 4, trials=10)
    assert res.analytic == 0.68359375  # 1 - (3/4)**4
    zero = classical_baseline(4, {2}, 0, trials=10)
    assert (zero.empirical, zero.analytic) == (0.0, 0.0)
    none_marked = classical_baseline(4, set(), 4, trials=10)
    assert none_marked.empirical == 0.0
    assert none_marked.analytic == 0.0


def test_classical_baseline_empirical_close_to_analytic():
    res = classical_baseline(4, {2}, 4, trials=100000, seed=0)
    assert abs(res.empirical - res.analytic) < 0.005


def test_classical_baseline_deterministic_per_seed():
    a = classical_baseline(16, {3}, 8, trials=5000, seed=42)
    b = classical_baseline(16, {3}, 8, trials=5000, seed=42)
    assert a == b


def test_classical_baseline_validation():
    with pytest.raises(ValueError):
        classical_baseline(0, set(), 1, 1)
    with pytest.raises(ValueError, match="marked index 5 out of range"):
        classical_baseline(4, [9, 5, 5, 0], 1, 1)
    with pytest.raises(ValueError):
        classical_baseline(4, {0}, -1, 1)
    with pytest.raises(ValueError):
        classical_baseline(4, {0}, 1, 0)


def test_classical_baseline_caps_size_before_allocating():
    # The lookup table for 2**26 states would take 64 MiB; the default cap
    # is 24 qubits.
    with MemoryProbe() as probe:
        with pytest.raises(ResourceLimitError, match=r"^size 67108864 exceeds 2\*\*24, the 24-qubit cap$"):
            classical_baseline(2**26, {0}, 1, 1)
    assert probe.peak < 1 << 20
    with pytest.raises(ResourceLimitError, match="the 3-qubit cap"):
        classical_baseline(9, {0}, 1, 1, max_qubits=3)
    assert classical_baseline(8, {0}, 1, 1, max_qubits=3).analytic == 0.125


def test_classical_baseline_rejects_a_missing_cap():
    with pytest.raises(ValueError, match="max_qubits: expected an integer, got None"):
        classical_baseline(4, {1}, 2, 10, max_qubits=None)


def test_classical_baseline_caps_draws():
    # iterations * trials above 2**(max_qubits + 4) is refused before any
    # draw; 2**(3 + 4) = 128 draws is the most at a 3-qubit cap.
    with pytest.raises(ResourceLimitError, match=r"^128 \* 2 draws exceed 2\*\*7, the draw cap of the 3-qubit cap$"):
        classical_baseline(8, {0}, 128, 2, max_qubits=3)
    assert classical_baseline(8, {0}, 128, 1, max_qubits=3).empirical == 1.0


def test_classical_baseline_draws_a_long_trial_in_pieces():
    # One row of 2**24 draws would take 144 MiB (8 bytes a draw, 1 for its hit).
    with MemoryProbe() as probe:
        assert classical_baseline(16, {0}, 2**24, 1).empirical == 1.0
    assert probe.peak < 4 << 20


def test_classical_baseline_draws_whole_trials_in_small_pieces():
    # 20000 trials of 64 draws in one block would peak at 176 times the
    # 64 KiB of a 4096-amplitude state.
    with MemoryProbe() as probe:
        classical_baseline(4096, {1, 2, 3}, 64, 20000)
    assert probe.peak < 16 * 16 * 4096


def test_classical_baseline_does_not_depend_on_the_piece(monkeypatch):
    # (size, marked, draws per trial, trials, seed): trials of 64 draws, of a
    # few draws that do not divide a piece, and of more draws than a piece.
    cases = [
        (4096, {1, 2, 3}, 64, 3000, 0),
        (1000, {7, 999}, 3, 50001, 5),
        (1 << 20, {5, 6}, 70001, 12, 11),
    ]
    results = []
    for piece in (1 << 4, 1 << 16, 1 << 22):
        monkeypatch.setattr("groversim.grover._DRAW_PIECE", piece)
        results.append([classical_baseline(*case) for case in cases])
    assert results[0] == results[1] == results[2]
    assert 0.0 < results[0][2].empirical < 1.0


def test_classical_baseline_multiple_marked():
    res = classical_baseline(8, {0, 1}, 3, trials=10)
    assert abs(res.analytic - (1.0 - 0.75**3)) < 1e-15
