"""Fixtures that several test files share: a traced run read back, the
four-state trace and two-qubit sign table worked by hand, a seeded random
circuit and unit vector, the closed-form success curve, the benchmark's
modules, a memory probe around a block and a command run in a new process."""
import importlib.util
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from groversim import AmplitudeVector, Gate, ReversibleCircuit, parse_trace_document, run_grover

# The four-state search with marked={2} and one iteration, worked by hand:
# snapshot after init, then after each of the four steps.
FOUR_STATE_TRACE = np.array([
    [0.5, 0.5, 0.5, 0.5],
    [0.5, 0.5, -0.5, 0.5],
    [0.5, -0.5, 0.5, 0.5],
    [-0.5, -0.5, 0.5, 0.5],
    [0.0, 0.0, -1.0, 0.0],
])

# Sign table for n=2, recomputed by hand from the popcount parity of q AND r.
SIGN_TABLE = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
]


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


def random_unit_vector(rng, n):
    """An n-qubit state of complex amplitudes drawn from rng, normalized."""
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return AmplitudeVector(n, amps / np.linalg.norm(amps))


def search_angle(size, k):
    """theta with sin(theta)**2 = k / size, for k of size states marked."""
    return math.asin(math.sqrt(k / size))


def closed_form(size, k, t):
    """The success probability after t iterations, sin((2t + 1) * theta)**2."""
    return math.sin((2 * t + 1) * search_angle(size, k)) ** 2


def load_bench(name):
    """bench/<name>.py, loaded from its file: bench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class MemoryProbe:
    """Traces the allocations of a with block: `peak` is the block's peak,
    `start` and `end` the traced size at entry and at exit, all in bytes.
    Tracing stops when the block ends, also when it raises."""

    def __enter__(self):
        tracemalloc.start()
        self.start, _ = tracemalloc.get_traced_memory()
        return self

    def __exit__(self, *exc):
        self.end, self.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()


def run_command(*command, timeout=120, **environ):
    """A new process running command, with environ added to the environment
    and the package's sources on the interpreter's path; it is killed after
    timeout seconds and subprocess.TimeoutExpired raised, so that a child
    that hangs fails its own test."""
    pythonpath = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)
