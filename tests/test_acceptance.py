"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] verdict line (visible with -s and
in failure reports); `pytest -v` also reports one line per criterion.
Tolerances and runtime budgets are stated inline next to each assertion.
"""
import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from groversim import (
    GroverConfig,
    Oracle,
    adder_circuit,
    basis_state,
    check_bijection,
    circuit_to_permutation,
    classical_baseline,
    enumerate_paths,
    grover_steps,
    index_to_bits,
    inverse_circuit,
    measure,
    optimal_iterations,
    run_circuit,
    run_grover,
    scan_probabilities,
    success_probability,
    uniform_state,
    verify_against_matrix,
    walsh_hadamard_fast,
    walsh_hadamard_naive,
    wh_matrix_entry,
)
from groversim.reversible import Gate, ReversibleCircuit
from helpers import FOUR_STATE_TRACE, SIGN_TABLE, random_circuit, random_unit_vector, traced


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name}")


def test_criterion_01_four_state_trace():
    with criterion(1, "two-qubit traced run reproduces all five snapshots"):
        config = GroverConfig(2, Oracle(2, marked={2}), iterations=1)
        trace, doc = traced(config)
        assert [label for label, _ in doc.steps] == ["i", "ii", "iii", "iv", "v"]
        for (_, amps), expected in zip(doc.steps, FOUR_STATE_TRACE):
            assert np.max(np.abs(amps.real - expected)) <= 1e-12
            assert np.all(amps.imag == 0.0)
        prob = success_probability(trace.final_state, config.oracle)
        assert abs(prob - 1.0) <= 1e-12

        best = math.inf
        for _ in range(20):
            tick = time.perf_counter()
            traced(GroverConfig(2, Oracle(2, marked={2}), iterations=1))
            best = min(best, time.perf_counter() - tick)
        assert best < 1e-3  # runtime budget: under 1 ms


def test_criterion_02_sign_table():
    with criterion(2, "two-qubit transform matrix matches the sign table exactly"):
        for q in range(4):
            for r in range(4):
                assert wh_matrix_entry(2, q, r) == SIGN_TABLE[q][r] * 0.5


def test_criterion_03_path_sum_equivalence():
    with criterion(3, "path-sum amplitudes agree with the dense engine"):
        start = time.perf_counter()
        for n in (1, 2, 3, 4):
            size = 1 << n
            cases = [(1, 0), (1, size - 1)]
            if n < 4:
                cases.append((2, size - 1))
            else:
                cases.append((2, 5))
            for t, r in cases:
                deviation = verify_against_matrix(n, grover_steps({r}, t))
                assert deviation <= 1e-10

        # First three steps at n=2: four paths into state 0, one per
        # intermediate state, summing 0.25 + 0.25 - 0.25 + 0.25 = 0.5.
        paths = list(enumerate_paths(2, grover_steps({2}, 1)[:3], 0, 0))
        assert [p.states[1] for p in paths] == [0, 1, 2, 3]
        assert [p.amplitude for p in paths] == [0.25, 0.25, -0.25, 0.25]
        assert sum(p.amplitude for p in paths) == 0.5
        assert time.perf_counter() - start < 10.0  # runtime budget: under 10 s


def test_criterion_04_transform_properties():
    with criterion(4, "transform is self-inverse, matches the naive route, preserves norm"):
        rng = np.random.default_rng(7)
        checked = 0
        for n in range(1, 13):
            for _ in range(9):
                state = random_unit_vector(rng, n)
                once = walsh_hadamard_fast(state)
                assert abs(np.linalg.norm(once.amps) - 1.0) <= 1e-10
                twice = walsh_hadamard_fast(once)
                assert np.max(np.abs(twice.amps - state.amps)) <= 1e-10
                checked += 1
        assert checked >= 100
        for n in range(1, 11):
            for _ in range(3):
                state = random_unit_vector(rng, n)
                fast = walsh_hadamard_fast(state)
                naive = walsh_hadamard_naive(state)
                assert np.max(np.abs(fast.amps - naive.amps)) <= 1e-12


def test_criterion_05_oracle_call_count():
    with criterion(5, "oracle evaluation count equals the iteration count"):
        trace = run_grover(GroverConfig(2, Oracle(2, marked={2}), iterations=1))
        assert trace.oracle_evals == 1
        for t in (0, 1, 2, 5, 10):
            oracle = Oracle(3, marked={6})
            trace = run_grover(GroverConfig(3, oracle, iterations=t))
            assert trace.oracle_evals == t
            assert oracle.eval_count == t


def test_criterion_06_quadratic_speedup():
    with criterion(6, "iteration count grows as sqrt of the space; classical stays linear"):
        start = time.perf_counter()
        for n in range(8, 17):
            size = 1 << n
            best_t = optimal_iterations(size, 1)
            ratio = best_t / math.sqrt(size)
            assert 0.70 <= ratio <= 0.85

            config = GroverConfig(n, Oracle(n, marked={1}))
            series = dict(scan_probabilities(config, best_t))
            assert series[best_t] >= 1.0 - 2.0**-n

            # Random guessing needs at least half the space in draws to
            # reach a coin-flip success rate.
            k_min = math.ceil(math.log(0.5) / math.log(1.0 - 1.0 / size))
            assert k_min >= size // 2
        assert time.perf_counter() - start < 30.0  # runtime budget: under 30 s


def test_criterion_07_oscillation():
    with criterion(7, "success probability oscillates instead of converging"):
        config = GroverConfig(2, Oracle(2, marked={2}))
        series = dict(scan_probabilities(config, 10))
        assert abs(series[0] - 0.25) <= 1e-12
        assert abs(series[1] - 1.0) <= 1e-12
        later = [series[t] for t in range(2, 11)]
        assert any(p < 0.5 for p in later)
        assert any(series[t + 1] < series[t] for t in range(10))


def test_criterion_08_classical_baseline():
    with criterion(8, "random-guess baseline matches its closed form"):
        small = classical_baseline(4, {2}, iterations=4, trials=100000, seed=0)
        assert small.analytic == 0.68359375
        assert abs(small.empirical - 0.68359375) <= 0.005
        large = classical_baseline(1024, {0}, iterations=1024, trials=10000, seed=0)
        assert abs(large.empirical - 0.632) <= 0.02


def test_criterion_09_reversible_layer():
    with criterion(9, "adder truth table, exhaustive bijection checks, inverse composition"):
        adder = adder_circuit()
        for a in (0, 1):
            for b in (0, 1):
                out = run_circuit(adder, [a, b, 0])
                assert out == [a, a ^ b, a & b]
        table = [run_circuit(adder, index_to_bits(x, 3)) for x in range(8)]
        assert check_bijection(table)

        def placements(wires):
            for target in range(wires):
                others = [w for w in range(wires) if w != target]
                yield Gate.not_(target)
                yield from (Gate.cnot(control, target) for control in others)
                yield from (Gate.toffoli(a, b, target) for a, b in combinations(others, 2))

        for wires in range(1, 13):
            identity = np.arange(1 << wires)
            for gate in placements(wires):
                circuit = ReversibleCircuit(wires, (gate,))
                perm = circuit_to_permutation(circuit)
                assert np.array_equal(np.sort(perm), identity)

        rng = np.random.default_rng(41)
        for _ in range(25):
            wires = int(rng.integers(3, 13))
            circuit = random_circuit(rng, wires, int(rng.integers(1, 21)))
            perm = circuit_to_permutation(circuit)
            assert np.array_equal(np.sort(perm), np.arange(1 << wires))
            round_trip = ReversibleCircuit(wires, circuit.gates + inverse_circuit(circuit).gates)
            assert np.array_equal(circuit_to_permutation(round_trip), np.arange(1 << wires))


def test_criterion_10_measurement_statistics():
    with criterion(10, "measurement frequencies and collapse behave"):
        rng = np.random.default_rng(2024)
        state = uniform_state(2)
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(100000):
            outcome, _ = measure(state, rng)
            counts[outcome] += 1
        # Three standard errors for a count of 1e5 draws at p = 0.25.
        bound = 3.0 * math.sqrt(100000 * 0.25 * 0.75)
        assert np.max(np.abs(counts - 25000)) <= bound

        certain = basis_state(2, 2)
        certain.amps[2] = -1.0
        for seed in range(300):
            outcome, collapsed = measure(certain, np.random.default_rng(seed))
            assert outcome == 2
            assert np.array_equal(collapsed.amps, certain.amps)
