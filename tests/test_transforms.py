import math

import numpy as np
import pytest

from groversim import (
    AmplitudeVector,
    Oracle,
    ResourceLimitError,
    basis_state,
    invert_phase_marked,
    invert_phase_zero,
    norm,
    uniform_state,
    walsh_hadamard_fast,
    walsh_hadamard_naive,
    wh_matrix_entry,
    wh_sign,
)

# Sign table for n=2, recomputed by hand from the popcount parity of q AND r.
SIGN_TABLE = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
]


def random_unit_vector(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return AmplitudeVector(n, amps / np.linalg.norm(amps))


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
    with pytest.raises(ValueError, match="out of range"):
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
