import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    AmplitudeVector,
    ResourceLimitError,
    apply_permutation,
    apply_phase_flip,
    basis_state,
    measure,
    norm,
    probability,
    uniform_state,
)
from helpers import random_unit_vector


def test_basis_state_is_one_hot():
    v = basis_state(3, 5)
    assert v.n == 3
    assert v.amps[5] == 1.0
    assert np.count_nonzero(v.amps) == 1
    assert v.amps.dtype == np.complex128


def test_amplitude_vector_keeps_float64_and_widens_everything_else():
    real = np.array([0.6, -0.0, 0.8, 0.0])
    kept = AmplitudeVector(2, real)
    assert kept.amps is real
    assert kept.copy().amps.dtype == np.float64
    for amps in ([1, 0], [1.0, 0.0], np.array([1, 0]), np.array([1.0, 0.0], dtype=np.float32),
                 np.array([1.0, 0.0], dtype=np.complex64), np.array([1.0, 0.0], dtype=np.complex128)):
        assert AmplitudeVector(1, amps).amps.dtype == np.complex128
    assert uniform_state(3).amps.dtype == np.complex128


def test_measure_and_probability_read_a_real_vector_as_its_complex_twin():
    amps = np.array([0.5, -0.5, 0.0, -0.5 ** 0.5])
    real, twin = AmplitudeVector(2, amps), AmplitudeVector(2, amps.astype(np.complex128))
    assert [probability(real, r) for r in range(4)] == [probability(twin, r) for r in range(4)]
    for seed in range(20):
        (got, collapsed), (want, expected) = measure(real, seed), measure(twin, seed)
        assert got == want
        assert collapsed.amps.tobytes() == expected.amps.tobytes()


def test_basis_state_norm_is_exactly_one():
    assert norm(basis_state(4, 9)) == 1.0


def test_basis_state_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="r: must be >= 0 and <= 3, got 4"):
        basis_state(2, 4)
    with pytest.raises(ValueError, match="r: must be >= 0 and <= 3, got -1"):
        basis_state(2, -1)


def test_basis_state_rejects_bad_qubit_counts():
    with pytest.raises(ValueError):
        basis_state(0, 0)
    with pytest.raises(ResourceLimitError):
        basis_state(25, 0)
    with pytest.raises(ResourceLimitError):
        basis_state(5, 0, max_qubits=4)
    # raising the cap is allowed
    assert basis_state(5, 0, max_qubits=5).n == 5


def test_basis_state_rejects_a_non_integer_cap():
    with pytest.raises(ValueError, match="max_qubits: expected an integer, got 'x'"):
        basis_state(2, 0, max_qubits="x")


def test_uniform_state_two_qubits_is_exactly_half():
    v = uniform_state(2)
    assert np.all(v.amps == 0.5)


def test_uniform_state_norm_within_tolerance():
    for n in (1, 3, 7, 10):
        assert abs(norm(uniform_state(n)) - 1.0) < 1e-12


def test_probability_uniform():
    v = uniform_state(2)
    assert probability(v, 0) == 0.25
    with pytest.raises(ValueError, match="r: must be >= 0 and <= 3, got 4"):
        probability(v, 4)


def test_amplitude_vector_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        AmplitudeVector(2, np.zeros(3))
    with pytest.raises(ValueError):
        AmplitudeVector(0, np.zeros(1))


def test_measure_is_deterministic_for_equal_seeds():
    v = uniform_state(3)
    first = [measure(v, seed)[0] for seed in range(40)]
    second = [measure(v, seed)[0] for seed in range(40)]
    assert first == second


def test_measure_accepts_generator():
    gen = np.random.default_rng(7)
    out1, _ = measure(uniform_state(2), gen)
    # same seed through the int path gives the same first draw
    out2, _ = measure(uniform_state(2), 7)
    assert out1 == out2


def test_measure_certain_state_returns_it_and_keeps_phase():
    v = AmplitudeVector(2, [0.0, 0.0, -1.0, 0.0])
    for seed in range(100):
        outcome, collapsed = measure(v, seed)
        assert outcome == 2
        assert np.array_equal(collapsed.amps, v.amps)


def test_measure_collapse_is_one_hot():
    outcome, collapsed = measure(uniform_state(3), 11)
    assert np.count_nonzero(collapsed.amps) == 1
    assert abs(collapsed.amps[outcome]) == 1.0
    assert norm(collapsed) == 1.0


def test_measure_rejects_unnormalized_vector():
    half = AmplitudeVector(1, [0.5, 0.0])
    with pytest.raises(ValueError, match="norm"):
        measure(half, 0)
    zero = AmplitudeVector(1, [0.0, 0.0])
    with pytest.raises(ValueError, match="norm"):
        measure(zero, 0)


def test_measure_rejects_non_finite_amplitudes():
    # A NaN norm compares False against the tolerance, so it needs its own check.
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        v = AmplitudeVector(2, [bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="NaN or infinity"):
            measure(v, 0)


def test_measure_tolerates_tiny_norm_drift():
    v = AmplitudeVector(1, [1.0 + 1e-8, 0.0])
    outcome, _ = measure(v, 3)
    assert outcome == 0


def test_phase_flip_with_predicate_matches_expected_row():
    v = apply_phase_flip(uniform_state(2), lambda r: r == 2)
    assert np.array_equal(v.amps.real, [0.5, 0.5, -0.5, 0.5])
    assert not v.amps.imag.any()


def test_phase_flip_never_true_is_identity():
    v = uniform_state(3)
    w = apply_phase_flip(v, lambda r: False)
    assert np.array_equal(v.amps, w.amps)


def test_phase_flip_selector_forms_agree():
    rng = np.random.default_rng(5)
    v = random_unit_vector(rng, 3)
    by_pred = apply_phase_flip(v, lambda r: r in (1, 6))
    by_set = apply_phase_flip(v, {1, 6})
    by_list = apply_phase_flip(v, [6, 1])
    mask = np.zeros(8, dtype=bool)
    mask[[1, 6]] = True
    by_mask = apply_phase_flip(v, mask)
    assert np.array_equal(by_pred.amps, by_set.amps)
    assert np.array_equal(by_pred.amps, by_list.amps)
    assert np.array_equal(by_pred.amps, by_mask.amps)


def test_phase_flip_is_exact_negation():
    rng = np.random.default_rng(6)
    v = random_unit_vector(rng, 4)
    w = apply_phase_flip(v, {3, 9})
    assert w.amps[3] == -v.amps[3]
    assert w.amps[9] == -v.amps[9]
    keep = np.ones(16, dtype=bool)
    keep[[3, 9]] = False
    assert np.array_equal(w.amps[keep], v.amps[keep])


def test_phase_flip_preserves_probabilities_and_norm():
    rng = np.random.default_rng(7)
    v = random_unit_vector(rng, 4)
    w = apply_phase_flip(v, lambda r: r % 3 == 0)
    assert np.array_equal(np.abs(w.amps), np.abs(v.amps))
    assert abs(norm(w) - norm(v)) == 0.0


def test_phase_flip_rejects_bad_indices():
    v = uniform_state(2)
    with pytest.raises(ValueError, match="out of range"):
        apply_phase_flip(v, {4})
    with pytest.raises(ValueError, match="shape"):
        apply_phase_flip(v, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="one-dimensional"):
        apply_phase_flip(v, np.array([[1], [2]]))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def states_and_indices(draw, max_qubits=5):
    """A state with arbitrary finite parts (signed zeros included) and a list
    of in-range indices, duplicates allowed."""
    n = draw(st.integers(1, max_qubits))
    parts = draw(st.lists(finite, min_size=2 << n, max_size=2 << n))
    amps = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    picks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1 << (n + 1)))
    return AmplitudeVector(n, amps), picks


@settings(deadline=None)
@given(states_and_indices())
def test_phase_flip_selector_forms_give_one_flip(case):
    v, picks = case
    mask = np.zeros(v.size, dtype=bool)
    mask[picks] = True
    # Written here, independent of the library: negate where the mask is set.
    expected = np.where(mask, -v.amps, v.amps).tobytes()
    chosen = set(picks)
    for selector in (chosen.__contains__, chosen, picks, np.array(picks, dtype=np.int64), mask):
        assert apply_phase_flip(v, selector).amps.tobytes() == expected


@settings(deadline=None)
@given(states_and_indices())
def test_phase_flip_is_an_involution(case):
    v, picks = case
    twice = apply_phase_flip(apply_phase_flip(v, picks), picks)
    assert twice.amps.tobytes() == v.amps.tobytes()


@settings(deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(-40, 40), min_size=1))
def test_phase_flip_names_smallest_out_of_range_index(n, picks):
    size = 1 << n
    outside = [r for r in picks if not 0 <= r < size]
    if not outside:
        assert apply_phase_flip(uniform_state(n), picks).size == size
        return
    with pytest.raises(ValueError, match=f"^selector index {min(outside)} out of range"):
        apply_phase_flip(uniform_state(n), picks)


def test_phase_flip_linearity():
    rng = np.random.default_rng(8)
    for _ in range(25):
        v = random_unit_vector(rng, 3)
        w = random_unit_vector(rng, 3)
        a, b = rng.normal(size=2)
        mixed = AmplitudeVector(3, a * v.amps + b * w.amps)
        lhs = apply_phase_flip(mixed, {2, 5}).amps
        rhs = a * apply_phase_flip(v, {2, 5}).amps + b * apply_phase_flip(w, {2, 5}).amps
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_permutation_swap_moves_basis_state():
    swapped = apply_permutation(basis_state(1, 0), lambda r: 1 - r)
    assert np.array_equal(swapped.amps, basis_state(1, 1).amps)


def test_permutation_array_and_callable_agree():
    rng = np.random.default_rng(9)
    v = random_unit_vector(rng, 3)
    table = rng.permutation(8)
    by_array = apply_permutation(v, table)
    by_call = apply_permutation(v, lambda r: int(table[r]))
    assert np.array_equal(by_array.amps, by_call.amps)


def test_permutation_preserves_amplitude_multiset():
    rng = np.random.default_rng(10)
    v = random_unit_vector(rng, 4)
    w = apply_permutation(v, rng.permutation(16))
    assert np.array_equal(np.sort_complex(w.amps), np.sort_complex(v.amps))


def test_permutation_rejects_duplicates_and_range():
    v = uniform_state(2)
    with pytest.raises(ValueError, match="bijection"):
        apply_permutation(v, [0, 0, 2, 3])
    with pytest.raises(ValueError, match="out of range"):
        apply_permutation(v, [0, 1, 2, 4])
    # -1 would wrap to the missing 3; a range error comes before a repeat.
    with pytest.raises(ValueError, match="out of range"):
        apply_permutation(v, [0, 1, 2, -1])
    with pytest.raises(ValueError, match="out of range"):
        apply_permutation(v, [5, 5, 2, 3])
    with pytest.raises(ValueError, match="shape"):
        apply_permutation(v, [0, 1, 2])


def test_permutation_linearity():
    rng = np.random.default_rng(11)
    table = rng.permutation(8)
    for _ in range(25):
        v = random_unit_vector(rng, 3)
        w = random_unit_vector(rng, 3)
        a, b = rng.normal(size=2)
        mixed = AmplitudeVector(3, a * v.amps + b * w.amps)
        lhs = apply_permutation(mixed, table).amps
        rhs = a * apply_permutation(v, table).amps + b * apply_permutation(w, table).amps
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_copy_is_independent():
    v = uniform_state(2)
    w = v.copy()
    w.amps[0] = 0.0
    assert v.amps[0] == 0.5


def test_norm_of_scaled_vector():
    v = AmplitudeVector(2, [0.5, 0.5, 0.5, 0.5])
    assert abs(norm(v) - 1.0) < 1e-15
    w = AmplitudeVector(1, [3.0, 4.0])
    assert abs(norm(w) - 5.0) < 1e-12
