import io
import tempfile
from contextlib import redirect_stdout
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    Gate,
    ResourceLimitError,
    ReversibleCircuit,
    adder_circuit,
    apply_gate,
    apply_permutation,
    bits_to_index,
    check_bijection,
    circuit_to_permutation,
    index_to_bits,
    inverse_circuit,
    render_circuit_document,
    run_circuit,
)
from groversim.cli import main
from groversim.state import _is_permutation
from helpers import MemoryProbe, circuits, random_circuit, random_unit_vector

# Lift of the adder to index space, worked by hand over all eight inputs.
ADDER_PERMUTATION = [0, 3, 2, 5, 4, 7, 6, 1]


def test_gate_validation():
    for args, message in [
        (("SWAP", 0), "unknown gate kind"),
        (("CNOT", 0), "takes 1 controls"),
        (("CNOT", 1, (1,)), "distinct"),
        (("TOFFOLI", 2, (0, 0)), "distinct"),
        (("NOT", -1), "target: must be >= 0, got -1"),
        (("CNOT", 1, 0), "^controls: expected a sequence, got 0$"),
        (("NOT", 1, None), "^controls: expected a sequence, got None$"),
        ((["NOT"], 0), r"^kind: expected a string, got \['NOT'\]$"),
    ]:
        with pytest.raises(ValueError, match=message):
            Gate(*args)


def test_gate_factories():
    assert Gate.not_(2) == Gate("NOT", 2)
    assert Gate.cnot(0, 1) == Gate("CNOT", 1, (0,))
    assert Gate.toffoli(0, 1, 2) == Gate("TOFFOLI", 2, (0, 1)) == Gate("TOFFOLI", 2, range(2))


def test_circuit_validation():
    for wires, gates, message in [
        (0, (), "wires: must be >= 1, got 0"),
        (2, (Gate.toffoli(0, 1, 2),), r"gates\[0\]"),
        (2, None, "^gates: expected a sequence, got None$"),
        (2, ("NOT",), r"^gates\[0\]: expected a Gate, got 'NOT'$"),
    ]:
        with pytest.raises(ValueError, match=message):
            ReversibleCircuit(wires, gates)


def test_apply_gate_does_not_mutate_input():
    bits = [0, 0]
    apply_gate(bits, Gate.not_(0))
    assert bits == [0, 0]


def test_apply_gate_validation():
    with pytest.raises(ValueError, match="wire 2"):
        apply_gate([0, 1], Gate.not_(2))
    with pytest.raises(ValueError, match=r"bits\[1\]: must be >= 0 and <= 1, got 2"):
        apply_gate([0, 2], Gate.not_(0))


def test_run_circuit_width_mismatch():
    with pytest.raises(ValueError, match="3 wires"):
        run_circuit(adder_circuit(), [1, 1])


def test_inverse_circuit_reverses_gate_order():
    inv = inverse_circuit(adder_circuit())
    assert inv.gates == (Gate.cnot(0, 1), Gate.toffoli(0, 1, 2))


def test_check_bijection_rejects_collisions():
    table = [[0, 0], [0, 1], [1, 0], [0, 0]]
    assert not check_bijection(table)


def test_check_bijection_validation():
    with pytest.raises(ValueError, match="empty"):
        check_bijection([])
    with pytest.raises(ValueError, match="expected 4"):
        check_bijection([[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="width"):
        check_bijection([[0, 0], [1], [1, 0], [1, 1]])


def test_is_permutation_rejects_negative_out_of_range_and_repeated_values():
    assert _is_permutation(np.array([2, 0, 3, 1]))
    assert _is_permutation(np.array([], dtype=np.int64))
    # -1 would wrap to index 3 in a scatter, so these four would mark all four.
    assert not _is_permutation(np.array([0, 1, 2, -1]))
    assert not _is_permutation(np.array([-4, 1, 2, 3]))
    assert not _is_permutation(np.array([0, 1, 2, 4]))
    assert not _is_permutation(np.array([0, 1, 2, 1 << 40]))
    assert not _is_permutation(np.array([0, 1, 1, 3]))
    assert not _is_permutation(np.array([3, 3, 3, 3]))


def test_is_permutation_needs_a_byte_an_index():
    # An int64 count per index would take 8 MiB at 2**20 entries.
    values = np.random.default_rng(9).permutation(1 << 20)
    with MemoryProbe() as probe:
        assert _is_permutation(values)
    assert probe.peak < (1 << 20) + (64 << 10)


def test_bits_index_round_trip():
    for width in (1, 3, 6):
        for x in range(1 << width):
            assert bits_to_index(index_to_bits(x, width)) == x
    assert bits_to_index([1, 1, 0]) == 3  # wire 0 is the least significant bit
    with pytest.raises(ValueError):
        index_to_bits(8, 3)
    with pytest.raises(ValueError):
        bits_to_index([0, 2])


def test_circuit_to_permutation_respects_cap():
    big = ReversibleCircuit(25, (Gate.not_(0),))
    with pytest.raises(ResourceLimitError):
        circuit_to_permutation(big)
    small = ReversibleCircuit(4, (Gate.not_(0),))
    with pytest.raises(ResourceLimitError):
        circuit_to_permutation(small, max_wires=3)


def test_circuit_to_permutation_rejects_a_non_integer_cap():
    with pytest.raises(ValueError, match="max_wires: expected an integer, got '24'"):
        circuit_to_permutation(adder_circuit(), max_wires="24")


def test_one_not_flips_exactly_its_wire():
    # A wrong bit or byte order in the transpose would move the flipped bit.
    identity = np.arange(1 << 20, dtype=np.int64)
    for target in range(20):
        perm = circuit_to_permutation(ReversibleCircuit(20, (Gate.not_(target),)))
        assert np.array_equal(perm, identity ^ (1 << target))
    for wires in range(1, 9):
        for target in range(wires):
            perm = circuit_to_permutation(ReversibleCircuit(wires, (Gate.not_(target),)))
            assert np.array_equal(perm, identity[: 1 << wires] ^ (1 << target))


@pytest.mark.parametrize("wires", [1, 2, 3, 8, 9, 16, 17])
def test_empty_circuit_lifts_to_the_identity(wires):
    perm = circuit_to_permutation(ReversibleCircuit(wires, ()))
    assert perm.dtype == np.int64
    assert perm.shape == (1 << wires,)
    assert perm.flags.c_contiguous
    assert np.array_equal(perm, np.arange(1 << wires))


def test_lift_memory_stays_under_twelve_bytes_an_input():
    # The table is 8 bytes an input; at 18 wires the three groups of packed
    # planes, transposed once, add about 3 more.
    circuit = random_circuit(np.random.default_rng(36), 18, 36)
    with MemoryProbe() as probe:
        circuit_to_permutation(circuit)
    assert probe.peak <= 12 << 18


def by_run_circuit(circuit, inputs):
    return [bits_to_index(run_circuit(circuit, index_to_bits(int(x), circuit.wires))) for x in inputs]


def by_gate_chain(circuit, inputs):
    return [bits_to_index(reduce(apply_gate, circuit.gates, index_to_bits(int(x), circuit.wires)))
            for x in inputs]


def by_relabelled_state(circuit, inputs):
    """Where the lift, applied to a random state, moves each input's
    amplitude, found by its real part, which no other amplitude shares."""
    state = random_unit_vector(np.random.default_rng(circuit.wires), circuit.wires)
    moved = apply_permutation(state, circuit_to_permutation(circuit)).amps
    order = np.argsort(moved.real)
    spot = order[np.searchsorted(moved.real, state.amps[inputs].real, sorter=order)]
    assert np.array_equal(moved[spot], state.amps[inputs])
    return spot.tolist()


def by_command(circuit, inputs):
    """`groversim circuit run` through cli.main on the rendered document."""
    with tempfile.TemporaryDirectory() as where, redirect_stdout(io.StringIO()) as out:
        path = Path(where, "circuit.json")
        path.write_text(render_circuit_document(circuit), encoding="utf-8")
        for x in inputs:
            bits = "".join(map(str, index_to_bits(int(x), circuit.wires)))
            assert main(["circuit", "run", str(path), "--input", bits]) == 0
    return [bits_to_index([int(b) for b in line]) for line in out.getvalue().splitlines()]


# name: (domain, most, route). A route maps a circuit and an int64 array of
# inputs to their output indices, and runs where its domain, a condition on
# the wire count, holds, on at most `most` of the inputs (None for all),
# spread over the array.
CIRCUIT_ROUTES = {
    "run_circuit": (lambda wires: True, None, by_run_circuit),
    # apply_gate checks every bit of its input, gate by gate.
    "apply_gate chain": (lambda wires: True, 16, by_gate_chain),
    # Drawing and sorting a state of 2**20 amplitudes takes 0.25 s.
    "relabelled state": (lambda wires: wires <= 17, None, by_relabelled_state),
    "circuit run": (lambda wires: True, 4, by_command),
}


def assert_circuit_routes_agree(circuit, inputs=None, expected=None):
    """Checks the lift's outputs at inputs (by default every input) against
    expected, if given, and every route whose domain holds; that the lift of
    the inverse circuit sends each output back to its input, and that
    _is_permutation (and, up to 6 wires, check_bijection) accepts both tables."""
    table, back = (circuit_to_permutation(c) for c in (circuit, inverse_circuit(circuit)))
    inputs = np.arange(table.size) if inputs is None else inputs
    want = table[inputs]
    assert expected is None or np.array_equal(want, expected), circuit
    for name, (domain, most, route) in CIRCUIT_ROUTES.items():
        if domain(circuit.wires):
            spread = slice(None, None, -(-len(inputs) // most) if most else 1)
            assert route(circuit, inputs[spread]) == want[spread].tolist(), (name, circuit)
    assert np.array_equal(back[want], inputs), circuit
    for perm in (table, back):
        assert _is_permutation(perm)
        if circuit.wires <= 6:
            assert check_bijection([index_to_bits(int(y), circuit.wires) for y in perm])


# Index tables worked by hand: each gate kind's truth table, with the target
# above and below its controls, the adder's and the empty circuit's.
KNOWN_ANSWERS = {
    "NOT": (ReversibleCircuit(2, (Gate.not_(0),)), [1, 0, 3, 2]),
    "CNOT": (ReversibleCircuit(2, (Gate.cnot(0, 1),)), [0, 3, 2, 1]),
    "CNOT onto wire 0": (ReversibleCircuit(3, (Gate.cnot(2, 0),)), [0, 1, 2, 3, 5, 4, 7, 6]),
    "TOFFOLI": (ReversibleCircuit(3, (Gate.toffoli(0, 1, 2),)), [0, 1, 2, 7, 4, 5, 6, 3]),
    "TOFFOLI onto wire 0": (ReversibleCircuit(3, (Gate.toffoli(1, 2, 0),)), [0, 1, 2, 3, 4, 5, 7, 6]),
    "adder": (adder_circuit(), ADDER_PERMUTATION),
    "empty": (ReversibleCircuit(3, ()), list(range(8))),
}


@pytest.mark.parametrize("name", KNOWN_ANSWERS)
def test_every_route_gives_the_known_answer(name):
    circuit, table = KNOWN_ANSWERS[name]
    assert_circuit_routes_agree(circuit, expected=table)


@settings(deadline=None, max_examples=60)
@given(circuits(12), st.integers(0, 2**32 - 1))
def test_every_route_agrees_on_drawn_circuits(circuit, seed):
    # Every input up to 8 wires; past 8 (two byte groups from 9), 64 drawn.
    inputs = np.random.default_rng(seed).integers(0, 1 << circuit.wires, 64)
    assert_circuit_routes_agree(circuit, inputs if circuit.wires > 8 else None)


@pytest.mark.parametrize("wires", [9, 10, 11, 12, 16, 17, 20])
def test_wide_lifts_agree_with_every_route(wires):
    # Every input up to 12 wires, where the second byte group starts; 256 drawn past.
    rng = np.random.default_rng(wires)
    circuit = random_circuit(rng, wires, 2 * wires)
    assert_circuit_routes_agree(circuit, rng.integers(0, 1 << wires, size=256) if wires > 12 else None)


def test_every_circuit_route_is_reached(monkeypatch):
    # A domain that never holds would drop its row without a failure; a
    # case inside every domain must call each row's function and each check.
    called = set()

    def spy(name, original):
        return lambda *args: called.add(name) or original(*args)

    for name, (domain, most, route) in CIRCUIT_ROUTES.items():
        monkeypatch.setitem(CIRCUIT_ROUTES, name, (domain, most, spy(name, route)))
    checks = ("inverse_circuit", "check_bijection", "_is_permutation")
    for name in checks:
        monkeypatch.setitem(globals(), name, spy(name, globals()[name]))
    assert_circuit_routes_agree(adder_circuit())
    assert called == {*CIRCUIT_ROUTES, *checks}
