"""Every integer argument of the library passes one gate: an int and not a
bool, within its bounds, refused before anything is allocated. Index sets
also take numpy integers and integer arrays, and a boolean array as a mask."""
import re
import tracemalloc

import numpy as np
import pytest

from groversim import (
    AmplitudeVector,
    Gate,
    GroverConfig,
    Oracle,
    ReversibleCircuit,
    StepOp,
    TraceDocument,
    adder_circuit,
    apply_gate,
    apply_permutation,
    apply_phase_flip,
    basis_state,
    bits_to_index,
    circuit_to_permutation,
    classical_baseline,
    enumerate_paths,
    grover_steps,
    index_to_bits,
    measure,
    optimal_iterations,
    path_amplitude,
    probability,
    roman_numeral,
    run_circuit,
    run_grover,
    scan_probabilities,
    uniform_state,
    verify_against_matrix,
    wh_matrix_entry,
    wh_sign,
)


def config(**kwargs):
    return GroverConfig(2, Oracle(2, marked={1}), **kwargs)


# (name in the message, call that passes the value as that argument)
ENTRY_POINTS = [
    ("n", lambda v: AmplitudeVector(v, np.zeros(2))),
    ("n", lambda v: basis_state(v, 0)),
    ("r", lambda v: basis_state(2, v)),
    ("n", lambda v: uniform_state(v)),
    ("r", lambda v: probability(uniform_state(2), v)),
    ("n", lambda v: wh_matrix_entry(v, 0, 0)),
    ("q", lambda v: wh_matrix_entry(2, v, 0)),
    ("r", lambda v: wh_matrix_entry(2, 0, v)),
    ("n", lambda v: Oracle(v, marked={1})),
    ("marked index", lambda v: Oracle(2, marked={v})),
    ("selector index", lambda v: apply_phase_flip(uniform_state(2), [v])),
    ("n", lambda v: GroverConfig(v, Oracle(1, marked={1}))),
    ("iterations", lambda v: config(iterations=v)),
    ("seed", lambda v: config(seed=v)),
    ("rng", lambda v: measure(uniform_state(1), v)),
    ("value", lambda v: roman_numeral(v)),
    ("size", lambda v: optimal_iterations(v, 1)),
    ("marked_count", lambda v: optimal_iterations(16, v)),
    ("t_max", lambda v: scan_probabilities(config(), v)),
    ("size", lambda v: classical_baseline(v, {0}, 1, 1)),
    ("marked index", lambda v: classical_baseline(4, {v}, 1, 1)),
    ("iterations", lambda v: classical_baseline(4, {0}, v, 1)),
    ("trials", lambda v: classical_baseline(4, {0}, 1, v)),
    ("seed", lambda v: classical_baseline(4, {0}, 1, 1, v)),
    ("iterations", lambda v: grover_steps({1}, v)),
    ("marked index", lambda v: grover_steps({v}, 1)),
    ("marked index", lambda v: StepOp("flip_marked", frozenset({v}))),
    ("n", lambda v: path_amplitude(v, [], 0, 0)),
    ("start", lambda v: path_amplitude(2, [], v, 0)),
    ("end", lambda v: path_amplitude(2, [], 0, v)),
    ("n", lambda v: enumerate_paths(v, [], 0)),
    ("target", lambda v: Gate("NOT", v)),
    ("controls[0]", lambda v: Gate("CNOT", 0, (v,))),
    ("controls[1]", lambda v: Gate("TOFFOLI", 0, (1, v))),
    ("wires", lambda v: ReversibleCircuit(v, ())),
    ("value", lambda v: index_to_bits(v, 3)),
    ("width", lambda v: index_to_bits(1, v)),
    ("n", lambda v: TraceDocument(v, 0, [], 0, 0)),
    ("outcome", lambda v: TraceDocument(1, 0, [], v, 0)),
    ("oracle_evals", lambda v: TraceDocument(1, 0, [], 0, v)),
]
# Named by function: a second bare "q" id would renumber the first one's.
NAMED_ENTRY_POINTS = {
    "wh_sign-q": ("q", lambda v: wh_sign(v, 0)),
    "wh_sign-r": ("r", lambda v: wh_sign(0, v)),
    "basis_state-max_qubits": ("max_qubits", lambda v: basis_state(2, 0, max_qubits=v)),
    "uniform_state-max_qubits": ("max_qubits", lambda v: uniform_state(2, max_qubits=v)),
    "GroverConfig-max_qubits": ("max_qubits", lambda v: config(max_qubits=v)),
    "classical_baseline-max_qubits": ("max_qubits", lambda v: classical_baseline(4, {0}, 1, 1, max_qubits=v)),
    "circuit_to_permutation-max_wires": ("max_wires", lambda v: circuit_to_permutation(adder_circuit(), v)),
    "verify_against_matrix-n": ("n", lambda v: verify_against_matrix(v, [])),
    # Keyed by its id among the bare "seed" rows, which its name no longer shares.
    "seed2": ("rng.seed", lambda v: TraceDocument(1, v, [], 0, 0)),
}
NOT_INTEGERS = [True, False, 1.0, 2.5, np.float64(1.0)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize(
    "name,call",
    ENTRY_POINTS + list(NAMED_ENTRY_POINTS.values()),
    ids=[name for name, _ in ENTRY_POINTS] + list(NAMED_ENTRY_POINTS),
)
def test_every_integer_argument_refuses_bools_and_floats(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name}: expected an integer, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: AmplitudeVector(63, np.zeros(2)), "n: must be >= 1 and <= 62, got 63"),
        (lambda: basis_state(0, 0), "n: must be >= 1, got 0"),
        (lambda: basis_state(2, -1), "r: must be >= 0 and <= 3, got -1"),
        (lambda: wh_matrix_entry(63, 0, 0), "n: must be >= 1 and <= 62, got 63"),
        (lambda: wh_matrix_entry(2, 0, 4), "r: must be >= 0 and <= 3, got 4"),
        (lambda: wh_sign(-1, 0), "q: must be >= 0, got -1"),
        (lambda: wh_sign(0, -1), "r: must be >= 0, got -1"),
        (lambda: config(seed=-1), "seed: must be >= 0, got -1"),
        (lambda: config(max_qubits=0), "max_qubits: must be >= 1, got 0"),
        (lambda: circuit_to_permutation(adder_circuit(), 0), "max_wires: must be >= 1, got 0"),
        (lambda: measure(uniform_state(1), -1), "rng: must be >= 0, got -1"),
        (lambda: roman_numeral(0), "value: must be >= 1, got 0"),
        (lambda: optimal_iterations(1, 1), "size: must be >= 2, got 1"),
        (lambda: optimal_iterations(16, 16), "marked_count: must be >= 1 and <= 15, got 16"),
        (lambda: classical_baseline(0, {0}, 1, 1), "size: must be >= 1, got 0"),
        (lambda: classical_baseline(4, {0}, -1, 1), "iterations: must be >= 0, got -1"),
        (lambda: classical_baseline(4, {0}, 1, 0), "trials: must be >= 1, got 0"),
        (lambda: classical_baseline(4, {0}, 1, 1, -1), "seed: must be >= 0, got -1"),
        (lambda: grover_steps({1}, -1), "iterations: must be >= 0, got -1"),
        (lambda: path_amplitude(63, [], 0, 0), "n: must be >= 1 and <= 62, got 63"),
        (lambda: Gate("CNOT", 0, (-2,)), "controls[0]: must be >= 0, got -2"),
        (lambda: index_to_bits(8, 3), "value: must be >= 0 and <= 7, got 8"),
        (lambda: index_to_bits(0, 0), "width: must be >= 1 and <= 62, got 0"),
        (lambda: TraceDocument(1, 0, [], 2, 0), "outcome: must be >= 0 and <= 1, got 2"),
        (lambda: TraceDocument(1, 0, [], 0, -1), "oracle_evals: must be >= 0, got -1"),
        (lambda: verify_against_matrix(-1, []), "n: must be >= 1, got -1"),
    ],
)
def test_integer_arguments_out_of_bounds_name_the_bound(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_truncating_and_bool_arguments_are_refused():
    # Each of these used to succeed with a truncated or bool value.
    with pytest.raises(ValueError, match="^r: expected an integer, got True$"):
        basis_state(2, True)  # an all-ones vector of norm 2
    with pytest.raises(ValueError, match="^target: expected an integer, got 2.5$"):
        Gate("NOT", 2.5)  # wire 2
    with pytest.raises(ValueError, match="^marked index: expected an integer, got 2.7$"):
        Oracle(2, marked={2.7})  # index 2
    with pytest.raises(ValueError, match="^marked index: expected an integer, got 1.5$"):
        StepOp.flip_marked([1.5])
    with pytest.raises(ValueError, match="^permutation array has dtype float64, expected integers$"):
        apply_permutation(uniform_state(1), [1.9, 0.2])  # [1, 0]
    with pytest.raises(ValueError, match="^permutation array has dtype bool, expected integers$"):
        apply_permutation(uniform_state(1), np.array([True, False]))
    with pytest.raises(ValueError, match="^marked index: expected integers, got an array of float64$"):
        StepOp.flip_marked(np.array([1.0]))
    # A bool next to an equal int is not lost to de-duplication.
    with pytest.raises(ValueError, match="^selector index: expected an integer, got True$"):
        apply_phase_flip(uniform_state(2), [1, True])


def test_bits_must_be_the_ints_0_and_1():
    # Each of these used to succeed: 0.9 -> 0, 1.7 -> 1, True -> 1.
    with pytest.raises(ValueError, match=r"^bits\[0\]: expected an integer, got 0.9$"):
        run_circuit(adder_circuit(), [0.9, True, 0])  # [0, 1, 0]
    with pytest.raises(ValueError, match=r"^bits\[0\]: expected an integer, got 1.7$"):
        bits_to_index([1.7, 0, True])  # 5
    with pytest.raises(ValueError, match=r"^bits\[0\]: expected an integer, got True$"):
        apply_gate([True, 0], Gate.not_(0))
    with pytest.raises(ValueError, match=r"^bits\[2\]: expected an integer, got True$"):
        bits_to_index([1, 0, True])


def test_a_callable_permutation_passes_the_array_checks():
    # Each of these used to be taken as the swap [1, 0].
    with pytest.raises(ValueError, match="^permutation array has dtype float64, expected integers$"):
        apply_permutation(uniform_state(1), lambda r: 1.9 - r)
    with pytest.raises(ValueError, match="^permutation array has dtype bool, expected integers$"):
        apply_permutation(uniform_state(1), lambda r: r == 0)
    v = uniform_state(2)
    out = apply_permutation(v, lambda r: np.int32(r ^ 1))
    assert np.array_equal(out.amps, v.amps)


def test_index_sets_take_numpy_integers_and_masks():
    want = [1, 5]
    assert Oracle(3, marked=np.array(want, dtype=np.uint8)).marked_indices().tolist() == want
    assert Oracle(3, marked=[np.int64(5), 1, np.int32(5)]).marked_indices().tolist() == want
    assert StepOp.flip_marked(np.array(want)).marked == frozenset(want)
    assert StepOp.flip_marked(Oracle(3, marked={1, 5})).marked == frozenset(want)
    v = uniform_state(2)
    mask = np.array([False, True, False, True])
    assert np.array_equal(apply_phase_flip(v, mask).amps, apply_phase_flip(v, {1, 3}).amps)
    out = apply_permutation(v, np.array([1, 0, 3, 2], dtype=np.int32))
    assert np.array_equal(out.amps, v.amps)


def test_a_bool_seed_is_refused_before_any_run():
    oracle = Oracle(2, marked={1})
    with pytest.raises(ValueError, match="^seed: expected an integer, got True$"):
        run_grover(GroverConfig(2, oracle, seed=True))
    assert oracle.eval_count == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: AmplitudeVector(10**9, np.zeros(2)),
        lambda: wh_matrix_entry(10**9, 0, 0),
        lambda: path_amplitude(10**9, [], 0, 0),
    ],
    ids=["AmplitudeVector", "wh_matrix_entry", "path_amplitude"],
)
def test_a_huge_n_is_refused_before_computing_the_size(call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^n: must be >= 1 and <= 62, got 1000000000$"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call",
    [lambda: basis_state(10**8, 0, max_qubits=10**9), lambda: uniform_state(10**8, max_qubits=10**9)],
    ids=["basis_state", "uniform_state"],
)
def test_a_state_under_a_huge_cap_is_refused_before_computing_the_size(call):
    # The cap check passes, so the 62-qubit index limit must refuse n before 1 << n.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^n: must be >= 1 and <= 62, got 100000000$"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_index_to_bits_width_stops_at_62():
    with pytest.raises(ValueError, match="^width: must be >= 1 and <= 62, got 63$"):
        index_to_bits(1, 63)
    assert index_to_bits((1 << 62) - 1, 62) == [1] * 62


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: circuit_to_permutation(ReversibleCircuit(63, ()), 100),
         "wires: must be >= 1 and <= 62, got 63"),
        (lambda: classical_baseline(1 << 70, {0}, 1, 1, max_qubits=100),
         f"size: must be >= 1 and <= {1 << 62}, got {1 << 70}"),
    ],
    ids=["circuit_to_permutation", "classical_baseline"],
)
def test_the_lift_and_the_baseline_under_a_huge_cap_stop_at_62_index_bits(call, message):
    # The cap check passes, so the 62-bit index limit must refuse the size
    # before a table of that many entries is asked for.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
