"""Fixtures that several test files share: a traced run read back, the
four-state trace worked by hand, a seeded random circuit and the
closed-form success curve."""
import io
import math

import numpy as np

from groversim import Gate, ReversibleCircuit, parse_trace_document, run_grover

# The four-state search with marked={2} and one iteration, worked by hand:
# snapshot after init, then after each of the four steps.
FOUR_STATE_TRACE = np.array([
    [0.5, 0.5, 0.5, 0.5],
    [0.5, 0.5, -0.5, 0.5],
    [0.5, -0.5, 0.5, 0.5],
    [-0.5, -0.5, 0.5, 0.5],
    [0.0, 0.0, -1.0, 0.0],
])


def traced(config):
    """Runs config with its trace written into a string; returns the run's
    result and the parsed document."""
    out = io.StringIO()
    result = run_grover(config, out)
    return result, parse_trace_document(out.getvalue())


def random_circuit(rng, wires, gates):
    """gates drawn from rng, each of a kind that fits the wires, on
    distinct wires."""
    touched = {"NOT": 1, "CNOT": 2, "TOFFOLI": 3}
    kinds = [kind for kind, want in touched.items() if want <= wires]
    out = []
    for _ in range(gates):
        kind = str(rng.choice(kinds))
        picks = rng.choice(wires, size=touched[kind], replace=False)
        out.append(Gate(kind, int(picks[0]), tuple(int(c) for c in picks[1:])))
    return ReversibleCircuit(wires, tuple(out))


def search_angle(size, k):
    """theta with sin(theta)**2 = k / size, for k of size states marked."""
    return math.asin(math.sqrt(k / size))


def closed_form(size, k, t):
    """The success probability after t iterations, sin((2t + 1) * theta)**2."""
    return math.sin((2 * t + 1) * search_angle(size, k)) ** 2
