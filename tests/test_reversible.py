import numpy as np
import pytest

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
    run_circuit,
    uniform_state,
)
from groversim.state import _is_permutation
from helpers import MemoryProbe, random_circuit, random_unit_vector

# Lift of the adder to index space, worked by hand over all eight inputs.
ADDER_PERMUTATION = [0, 3, 2, 5, 4, 7, 6, 1]


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("SWAP", 0)
    with pytest.raises(ValueError, match="takes 1 controls"):
        Gate("CNOT", 0)
    with pytest.raises(ValueError, match="distinct"):
        Gate("CNOT", 1, (1,))
    with pytest.raises(ValueError, match="distinct"):
        Gate("TOFFOLI", 2, (0, 0))
    with pytest.raises(ValueError, match="target: must be >= 0, got -1"):
        Gate("NOT", -1)


def test_gate_factories():
    assert Gate.not_(2) == Gate("NOT", 2)
    assert Gate.cnot(0, 1) == Gate("CNOT", 1, (0,))
    assert Gate.toffoli(0, 1, 2) == Gate("TOFFOLI", 2, (0, 1))


def test_circuit_validation():
    with pytest.raises(ValueError, match="wires: must be >= 1, got 0"):
        ReversibleCircuit(0, ())
    with pytest.raises(ValueError, match="gates\\[0\\]"):
        ReversibleCircuit(2, (Gate.toffoli(0, 1, 2),))


def test_apply_gate_not():
    assert apply_gate([0, 1], Gate.not_(0)) == [1, 1]
    assert apply_gate([1, 1], Gate.not_(0)) == [0, 1]


def test_apply_gate_cnot_truth():
    for a in (0, 1):
        for b in (0, 1):
            got = apply_gate([a, b], Gate.cnot(0, 1))
            assert got == [a, b ^ a]


def test_apply_gate_toffoli_truth():
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                got = apply_gate([a, b, c], Gate.toffoli(0, 1, 2))
                assert got == [a, b, c ^ (a & b)]


def test_apply_gate_does_not_mutate_input():
    bits = [0, 0]
    apply_gate(bits, Gate.not_(0))
    assert bits == [0, 0]


def test_apply_gate_validation():
    with pytest.raises(ValueError, match="wire 2"):
        apply_gate([0, 1], Gate.not_(2))
    with pytest.raises(ValueError, match=r"bits\[1\]: must be >= 0 and <= 1, got 2"):
        apply_gate([0, 2], Gate.not_(0))


def test_gates_are_involutions():
    gates = [Gate.not_(1), Gate.cnot(0, 2), Gate.toffoli(1, 2, 0)]
    for gate in gates:
        for x in range(8):
            bits = index_to_bits(x, 3)
            assert apply_gate(apply_gate(bits, gate), gate) == bits


def test_run_circuit_width_mismatch():
    with pytest.raises(ValueError, match="3 wires"):
        run_circuit(adder_circuit(), [1, 1])


def test_adder_truth_table():
    circuit = adder_circuit()
    for a in (0, 1):
        for b in (0, 1):
            out = run_circuit(circuit, [a, b, 0])
            assert out == [a, a ^ b, a & b]  # (kept input, sum, carry)
    # 1 + 1 reads out as binary 10: sum 0, carry 1
    assert run_circuit(circuit, [1, 1, 0]) == [1, 0, 1]


def test_adder_full_eight_row_table():
    circuit = adder_circuit()
    table = [run_circuit(circuit, index_to_bits(x, 3)) for x in range(8)]
    assert [bits_to_index(row) for row in table] == ADDER_PERMUTATION


def test_inverse_circuit_reverses_gate_order():
    inv = inverse_circuit(adder_circuit())
    assert inv.gates == (Gate.cnot(0, 1), Gate.toffoli(0, 1, 2))


def test_inverse_circuit_composes_to_identity():
    rng = np.random.default_rng(31)
    for _ in range(30):
        wires = int(rng.integers(3, 7))
        circuit = random_circuit(rng, wires, int(rng.integers(1, 12)))
        inv = inverse_circuit(circuit)
        for x in range(1 << wires):
            bits = index_to_bits(x, wires)
            assert run_circuit(inv, run_circuit(circuit, bits)) == bits


def test_check_bijection_accepts_real_circuit_tables():
    circuit = adder_circuit()
    table = [run_circuit(circuit, index_to_bits(x, 3)) for x in range(8)]
    assert check_bijection(table)


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


def test_circuit_to_permutation_adder():
    perm = circuit_to_permutation(adder_circuit())
    assert perm.dtype == np.int64
    assert perm.tolist() == ADDER_PERMUTATION


def test_circuit_to_permutation_matches_bitwise_route():
    rng = np.random.default_rng(32)
    for _ in range(20):
        wires = int(rng.integers(2, 8))
        circuit = random_circuit(rng, wires, int(rng.integers(1, 10)))
        perm = circuit_to_permutation(circuit)
        by_bits = [bits_to_index(run_circuit(circuit, index_to_bits(x, wires))) for x in range(1 << wires)]
        assert perm.tolist() == by_bits


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


def by_run_circuit(circuit, inputs):
    """The lift's table at `inputs`, input by input through run_circuit."""
    return [bits_to_index(run_circuit(circuit, index_to_bits(int(x), circuit.wires))) for x in inputs]


def test_lift_equals_run_circuit_on_every_input_up_to_twelve_wires():
    # Below 3 wires the table is padded to 8 entries; 9..12 wires span two byte groups.
    rng = np.random.default_rng(35)
    for wires in range(1, 13):
        circuit = random_circuit(rng, wires, 2 * wires)
        assert circuit_to_permutation(circuit).tolist() == by_run_circuit(circuit, range(1 << wires))


@pytest.mark.parametrize("wires", [16, 17, 20])
def test_wide_lift_equals_run_circuit_on_sampled_inputs(wires):
    rng = np.random.default_rng(wires)
    circuit = random_circuit(rng, wires, 2 * wires)
    perm = circuit_to_permutation(circuit)
    inputs = rng.integers(0, 1 << wires, size=256)
    assert perm[inputs].tolist() == by_run_circuit(circuit, inputs)
    assert _is_permutation(perm)


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


def test_lifted_permutation_drives_state_vectors():
    # Applying the lifted adder to an amplitude vector relabels amplitudes
    # exactly as the classical table says.
    rng = np.random.default_rng(33)
    v = random_unit_vector(rng, 3)
    perm = circuit_to_permutation(adder_circuit())
    moved = apply_permutation(v, perm)
    for x in range(8):
        assert moved.amps[ADDER_PERMUTATION[x]] == v.amps[x]


def test_uniform_state_is_invariant_under_any_circuit_permutation():
    rng = np.random.default_rng(34)
    circuit = random_circuit(rng, 3, 6)
    perm = circuit_to_permutation(circuit)
    moved = apply_permutation(uniform_state(3), perm)
    assert np.array_equal(moved.amps, uniform_state(3).amps)
