"""The three benchmark workloads: seeded inputs, the timed call of each
operation, and the untimed check of its result against an independent route.

Every input is drawn from the workload's seed. The sizes (qubit and wire
counts, iteration counts, gate counts) are fixed per workload, so only the
drawn values change with the seed and the work done per batch does not.
The library is reached through module attributes at call time, so the span
recorder sees each call under the name its caller looks it up by.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Sizes per workload. "runs" entries are (qubits, marked count, repeats).
# Each batch is built from groups of operations of about the same cost, so
# that the median operation falls in the middle of one group and the 90th
# percentile in the middle of another: a percentile that sat between two
# groups would jump between their costs with machine noise.
FULL = {
    "search": {
        # n = 12..16: 64 KiB to 1 MiB of complex128, inside L2. The median
        # falls among the ten n=13 runs, the 90th percentile among the four
        # n=15 runs.
        "runs": [(12, 1, 5), (12, 2, 5), (12, 4, 5), (13, 1, 10), (14, 4, 4), (14, 2, 4),
                 (15, 4, 4), (16, 4, 1)],
        # n = 18, 20: 4 and 16 MiB, at or past L2; (qubits, iterations).
        "scans": [(18, 2), (20, 2)],
    },
    "trace": {
        # Median among the ten n=8 runs, 90th percentile among the three n=10
        # runs; the n=11 document is 7 MB. Few large documents keep the batch
        # short (two to three seconds), so a run holds many batches.
        "runs": [(n, k, 1) for n in (5, 6, 7, 9) for k in (1, 2, 4)]
                + [(8, 1, 10), (10, 1, 3), (11, 1, 1)],
        # The memory pass stops at n=10: the n=11 run alone takes ten seconds
        # under tracemalloc, which slows rendering tenfold.
        "memory_max_n": {"trace_run": 10},
    },
    "crosscheck": {
        # One circuit document (as many gates as wires) per entry; each is
        # verified, run on two inputs and inverted. The median falls among
        # the CLI runs and inversions, the 90th percentile among the four
        # 11-wire verifications.
        "circuits": (10, 11, 11, 11, 11, 12, 13, 14),
        # The memory pass verifies up to 12 wires: a 14-wire verification
        # takes six seconds under tracemalloc, and the peak per state byte of
        # verify is flat in the width (16 to 19 from 10 to 14 wires).
        "memory_max_n": {"verify": 12},
        # Circuits of twice as many gates as wires, on a random state.
        "permutes": (16, 17, 18, 19, 20),
        "pathsums": ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)),
        "transforms": (6, 7, 8, 9, 10),
        "predicates": (14, 15, 16),
        # (log2 size, draws per trial, trials)
        "classical": ((12, 64, 20000), (12, 64, 20000)),
    },
}

# The same operation kinds at sizes that finish in about a second, for the
# self-test.
TINY = {
    "search": {"runs": [(4, 1, 2), (5, 2, 2), (6, 4, 1)], "scans": [(7, 2)]},
    "trace": {"runs": [(3, 1, 1), (4, 2, 1), (5, 1, 1)]},
    "crosscheck": {
        "circuits": (3, 4), "permutes": (5, 6), "pathsums": ((2, 1),),
        "transforms": (3, 4), "predicates": (6,), "classical": ((6, 8, 2000),),
    },
}

SIZES = {"full": FULL, "tiny": TINY}

# Runs of the reference loop's (interpreted, vector) parts that make one ref
# on each workload, in the proportion of the workload's own work: search is
# vector arithmetic, trace renders and parses text, crosscheck does both.
# Each part takes about half a millisecond.
REFERENCE_MIX = {"search": (0, 3), "trace": (2, 0), "crosscheck": (1, 1)}

# Tolerances of the correctness gate.
CURVE_TOL = 1e-9     # dense success probability against sin^2((2t+1) theta)
NORM_TOL = 1e-10     # each parsed trace snapshot against unit norm
ROUTE_TOL = 1e-12    # path-sum and naive transform against the dense engine
SIGMAS = 5.0         # classical empirical rate against its analytic value


class Checker:
    """Collects the failed checks and the digest material of one operation.

    With inject set, the first value checked is perturbed, so the self-test
    can show that a wrong result is counted and does not stop the run.
    """

    def __init__(self, inject: bool = False) -> None:
        self.failures: list[str] = []
        self.material: list = []
        self.inject = inject

    def _spoil(self) -> bool:
        spoil, self.inject = self.inject, False
        return spoil

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        got = float(got) + (1e-3 if self._spoil() else 0.0)
        if not abs(got - want) <= tol:
            self.failures.append(f"{what}: got {got!r}, want {want!r} within {tol:g}")

    def equal(self, what: str, got, want) -> None:
        if self._spoil():
            got = ("perturbed", got)
        if got != want:
            self.failures.append(f"{what}: got {str(got)[:120]}, want {str(want)[:120]}")

    def digest(self, *items) -> None:
        self.material.extend(items)


@dataclass
class Op:
    """One operation: run() is timed, check(result, checker) is not and
    returns the operation's exact counts."""

    kind: str
    n: int  # qubits or wires; 16 * 2**n bytes is the memory-ratio divisor
    run: Callable[[], object]
    check: Callable[[object, Checker], dict]


def best_iterations(size: int, k: int) -> int:
    """Integer t maximizing sin^2((2t+1) theta); ties pick fewer."""
    theta = math.asin(math.sqrt(k / size))
    center = math.pi / (4.0 * theta) - 0.5
    lo = max(0, math.floor(center))
    hi = max(lo, math.ceil(center))
    return hi if curve(size, k, hi) > curve(size, k, lo) else lo


def curve(size: int, k: int, t: int) -> float:
    """Closed-form success probability after t iterations."""
    return math.sin((2 * t + 1) * math.asin(math.sqrt(k / size))) ** 2


def roman(value: int) -> str:
    out = []
    for base, digits in ((1000, "m"), (900, "cm"), (500, "d"), (400, "cd"), (100, "c"),
                         (90, "xc"), (50, "l"), (40, "xl"), (10, "x"), (9, "ix"),
                         (5, "v"), (4, "iv"), (1, "i")):
        count, value = divmod(value, base)
        out.append(digits * count)
    return "".join(out)


def cli_call(lib, argv: list[str]) -> tuple[int, str]:
    """groversim.cli.main in-process, stdout captured (stderr discarded)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lib.cli.main(argv)
    return rc, out.getvalue()


def search_counts(n: int, iterations: int, evals: int, outcome: int | None, marked) -> dict:
    counts = {
        "grover.amp_updates": iterations << n,
        "grover.iterations": iterations,
        "grover.oracle_evals": evals,
    }
    if outcome is not None:
        counts["grover.runs"] = 1
        counts["grover.hits"] = int(outcome in marked)
    return counts


def _marked(rng, n: int, k: int) -> frozenset[int]:
    return frozenset(int(r) for r in rng.choice(1 << n, size=k, replace=False))


def _seed(rng) -> int:
    return int(rng.integers(1 << 31))


def _random_state(rng, n: int) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


# --- search -----------------------------------------------------------------

def run_op(lib, n: int, marked: frozenset[int], seed: int) -> Op:
    k, t = len(marked), best_iterations(1 << n, len(marked))

    def run():
        g = lib.grover
        oracle = g.Oracle(n, marked=marked)
        trace = g.run_grover(g.GroverConfig(n, oracle, iterations="auto", seed=seed))
        return trace, g.success_probability(trace.final_state, oracle)

    def check(result, chk: Checker) -> dict:
        trace, prob = result
        chk.close("success probability", prob, curve(1 << n, k, t), CURVE_TOL)
        chk.equal("iterations", trace.iterations, t)
        chk.equal("oracle_evals", trace.oracle_evals, t)
        chk.digest(trace.iterations, trace.outcome, trace.oracle_evals)
        return search_counts(n, trace.iterations, trace.oracle_evals, trace.outcome, marked)

    return Op("run", n, run, check)


def scan_op(lib, n: int, marked: frozenset[int], t_max: int) -> Op:
    k = len(marked)

    def run():
        g = lib.grover
        oracle = g.Oracle(n, marked=marked)
        series = g.scan_probabilities(g.GroverConfig(n, oracle), t_max)
        return series, oracle.eval_count

    def check(result, chk: Checker) -> dict:
        series, evals = result
        chk.equal("scan points", [t for t, _ in series], list(range(t_max + 1)))
        worst = max(abs(p - curve(1 << n, k, t)) for t, p in series)
        chk.close("scan deviation from the closed form", worst, 0.0, CURVE_TOL)
        chk.equal("oracle_evals", evals, t_max)
        chk.digest(len(series), evals)
        return search_counts(n, t_max, evals, None, marked)

    return Op("scan", n, run, check)


def search_ops(lib, rng, sizes, tmp) -> list[Op]:
    ops = [run_op(lib, n, _marked(rng, n, k), _seed(rng))
           for n, k, repeats in sizes["runs"] for _ in range(repeats)]
    ops += [scan_op(lib, n, _marked(rng, n, 1), t_max) for n, t_max in sizes["scans"]]
    return ops


# --- trace ------------------------------------------------------------------

def trace_op(lib, n: int, marked: frozenset[int], seed: int, path) -> Op:
    k, t = len(marked), best_iterations(1 << n, len(marked))
    argv = ["grover", "run", "--qubits", str(n), "--marked", ",".join(map(str, sorted(marked))),
            "--seed", str(seed), "--trace", str(path), "--format", "json"]

    def run():
        path.unlink(missing_ok=True)
        rc, stdout = cli_call(lib, argv)
        text = path.read_text(encoding="utf-8")
        return rc, stdout, text, lib.documents.parse_trace_document(text)

    def check(result, chk: Checker) -> dict:
        rc, stdout, text, doc = result
        report = json.loads(stdout)
        labels = [label for label, _ in doc.steps]
        drift = max(abs(float(np.linalg.norm(amps)) - 1.0) for _, amps in doc.steps)
        chk.close("snapshot norm drift", drift, 0.0, NORM_TOL)
        chk.equal("exit code", rc, 0)
        chk.equal("iterations", report["iterations"], t)
        chk.equal("labels", labels, [roman(i) for i in range(1, 4 * t + 2)])
        g = lib.grover
        rerun = g.run_grover(g.GroverConfig(n, g.Oracle(n, marked=marked), "auto", seed=seed))
        chk.equal("last snapshot equals the untraced final state bit for bit",
                  doc.steps[-1][1].tobytes() == rerun.final_state.amps.tobytes(), True)
        chk.equal("document outcome", doc.outcome, report["outcome"])
        chk.equal("untraced outcome", rerun.outcome, report["outcome"])
        chk.equal("document oracle_evals", doc.oracle_evals, report["oracle_evals"])
        chk.equal("oracle_evals", report["oracle_evals"], t)
        chk.close("success probability", report["success_probability"],
                  curve(1 << n, k, t), CURVE_TOL)
        chk.digest(stdout, doc.outcome, doc.oracle_evals, len(text))
        counts = search_counts(n, report["iterations"], doc.oracle_evals, doc.outcome, marked)
        counts["documents.trace_bytes"] = len(text.encode("utf-8"))
        counts["cli.stdout_bytes"] = len(stdout.encode("utf-8"))
        return counts

    return Op("trace_run", n, run, check)


def trace_ops(lib, rng, sizes, tmp) -> list[Op]:
    path = tmp / "trace.json"
    return [trace_op(lib, n, _marked(rng, n, k), _seed(rng), path)
            for n, k, repeats in sizes["runs"] for _ in range(repeats)]


# --- crosscheck -------------------------------------------------------------

def _random_gates(rng, wires: int, count: int) -> list[dict]:
    gates = []
    for _ in range(count):
        controls = int(rng.integers(3))
        picked = [int(w) for w in rng.choice(wires, size=1 + controls, replace=False)]
        gates.append({"type": ("NOT", "CNOT", "TOFFOLI")[controls], "target": picked[0],
                      "controls": picked[1:]})
    return gates


def _circuit(lib, wires: int, gates: list[dict]):
    rev = lib.reversible
    return rev.ReversibleCircuit(
        wires, tuple(rev.Gate(g["type"], g["target"], tuple(g["controls"])) for g in gates))


def _permutation(lib, wires: int, gates: list[dict]) -> np.ndarray:
    return lib.reversible.circuit_to_permutation(_circuit(lib, wires, gates))


def circuit_ops(lib, wires: int, gates: list[dict], inputs: list[str], path) -> list[Op]:
    """verify, run on each input, and invert, through the CLI on one circuit
    document; the reference is the library's circuit_to_permutation."""
    path.write_text(json.dumps({"format_version": "1", "wires": wires, "gates": gates}),
                    encoding="utf-8")
    perm = _permutation(lib, wires, gates)

    def verify_check(result, chk: Checker) -> dict:
        rc, stdout = result
        bijective = int(np.bincount(perm, minlength=1 << wires).max()) == 1
        chk.equal("exit code", rc, 0)
        chk.equal("verdict", stdout, f"reversible: {'true' if bijective else 'false'}\n")
        chk.digest(stdout)
        return {"reversible.inputs": 1 << wires, "cli.stdout_bytes": len(stdout)}

    def run_op(bits: str) -> Op:
        y = int(perm[sum(int(b) << i for i, b in enumerate(bits))])

        def check(result, chk: Checker) -> dict:
            rc, stdout = result
            chk.equal("exit code", rc, 0)
            chk.equal("output bits", stdout,
                      "".join(str((y >> i) & 1) for i in range(wires)) + "\n")
            chk.digest(stdout)
            return {"cli.stdout_bytes": len(stdout)}

        return Op("circuit_run", wires,
                  lambda: cli_call(lib, ["circuit", "run", str(path), "--input", bits]), check)

    def invert_check(result, chk: Checker) -> dict:
        rc, stdout = result
        inverse = _permutation(lib, wires, json.loads(stdout)["gates"])
        chk.equal("exit code", rc, 0)
        chk.equal("inverse after circuit is the identity",
                  bool(np.array_equal(inverse[perm], np.arange(1 << wires))), True)
        chk.digest(stdout)
        return {"cli.stdout_bytes": len(stdout)}

    return [
        Op("verify", wires, lambda: cli_call(lib, ["circuit", "verify", str(path)]), verify_check),
        *(run_op(bits) for bits in inputs),
        Op("invert", wires, lambda: cli_call(lib, ["circuit", "invert", str(path)]), invert_check),
    ]


def permute_op(lib, wires: int, gates: list[dict], amps: np.ndarray) -> Op:
    circuit = _circuit(lib, wires, gates)
    state = lib.state.AmplitudeVector(wires, amps)

    def run():
        perm = lib.reversible.circuit_to_permutation(circuit)
        return perm, lib.state.apply_permutation(state, perm)

    def check(result, chk: Checker) -> dict:
        perm, out = result
        chk.equal("permutation is a bijection",
                  int(np.bincount(perm, minlength=1 << wires).max()), 1)
        chk.equal("inverse permutation restores the state exactly",
                  out.amps[perm].tobytes() == amps.tobytes(), True)
        chk.digest(hashlib.sha256(np.ascontiguousarray(perm, dtype=np.int64)).hexdigest())
        return {}

    return Op("permute", wires, run, check)


def pathsum_op(lib, n: int, marked: frozenset[int], iterations: int) -> Op:
    def run():
        ps = lib.pathsum
        return ps.verify_against_matrix(n, ps.grover_steps(marked, iterations))

    def check(error, chk: Checker) -> dict:
        chk.close("path-sum deviation", error, 0.0, ROUTE_TOL)
        chk.digest(n, iterations)
        # Every transform but the last branches 2**n ways, once per end state.
        return {"pathsum.branches": (1 << n) ** (2 * iterations + 1)}

    return Op("pathsum", n, run, check)


def transform_op(lib, n: int, amps: np.ndarray) -> Op:
    state = lib.state.AmplitudeVector(n, amps)

    def run():
        tr = lib.transforms
        return tr.walsh_hadamard_naive(state), tr.walsh_hadamard_fast(state)

    def check(result, chk: Checker) -> dict:
        naive, fast = result
        chk.close("naive against fast transform",
                  float(np.max(np.abs(naive.amps - fast.amps))), 0.0, ROUTE_TOL)
        chk.digest(n)
        return {}

    return Op("wh_naive", n, run, check)


def predicate_op(lib, n: int, mult: int, shift: int, seed: int) -> Op:
    """Predicate oracle marking N/16 states: (r * mult + shift) mod 16 == 0
    with mult odd, which is a bijection mod 16."""
    size = 1 << n
    k, t = size // 16, best_iterations(size, size // 16)

    def predicate(r: int) -> bool:
        return (r * mult + shift) & 15 == 0

    def run():
        g = lib.grover
        oracle = g.Oracle(n, predicate=predicate)
        return g.run_grover(g.GroverConfig(n, oracle, iterations="auto", seed=seed))

    def check(trace, chk: Checker) -> dict:
        index = np.arange(size, dtype=np.int64)
        marked = frozenset(int(r) for r in np.flatnonzero((index * mult + shift) & 15 == 0))
        g = lib.grover
        by_set = g.run_grover(g.GroverConfig(n, g.Oracle(n, marked=marked), "auto", seed=seed))
        amps = trace.final_state.amps[sorted(marked)]
        chk.close("success probability", float(np.sum(amps.real**2 + amps.imag**2)),
                  curve(size, k, t), CURVE_TOL)
        chk.equal("predicate and set oracles give the same final state",
                  trace.final_state.amps.tobytes() == by_set.final_state.amps.tobytes(), True)
        chk.equal("iterations", trace.iterations, t)
        chk.equal("oracle_evals", trace.oracle_evals, t)
        chk.digest(trace.iterations, trace.outcome, trace.oracle_evals)
        return search_counts(n, trace.iterations, trace.oracle_evals, trace.outcome, marked)

    return Op("predicate_run", n, run, check)


def classical_op(lib, bits: int, marked: frozenset[int], draws: int, trials: int,
                 seed: int) -> Op:
    size = 1 << bits

    def run():
        return lib.grover.classical_baseline(size, marked, draws, trials, seed)

    def check(result, chk: Checker) -> dict:
        analytic = 1.0 - (1.0 - len(marked) / size) ** draws
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        chk.close("analytic rate", result.analytic, analytic, ROUTE_TOL)
        chk.close("empirical rate", result.empirical, analytic, SIGMAS * sigma)
        chk.digest(round(result.empirical * trials))
        return {"grover.classical.draws": draws * trials}

    return Op("classical", bits, run, check)


def crosscheck_ops(lib, rng, sizes, tmp) -> list[Op]:
    ops: list[Op] = []
    for wires in sizes["circuits"]:
        gates = _random_gates(rng, wires, wires)
        inputs = ["".join(str(int(b)) for b in rng.integers(2, size=wires)) for _ in range(2)]
        ops += circuit_ops(lib, wires, gates, inputs, tmp / f"circuit-{len(ops)}.json")
    for wires in sizes["permutes"]:
        ops.append(permute_op(lib, wires, _random_gates(rng, wires, 2 * wires),
                              _random_state(rng, wires)))
    for n, iterations in sizes["pathsums"]:
        ops.append(pathsum_op(lib, n, _marked(rng, n, 1), iterations))
    for n in sizes["transforms"]:
        ops.append(transform_op(lib, n, _random_state(rng, n)))
    for n in sizes["predicates"]:
        ops.append(predicate_op(lib, n, 2 * int(rng.integers(8)) + 1, int(rng.integers(16)),
                                _seed(rng)))
    for bits, draws, trials in sizes["classical"]:
        ops.append(classical_op(lib, bits, _marked(rng, bits, int(rng.integers(1, 4))),
                                draws, trials, _seed(rng)))
    return ops


BUILDERS = {"search": search_ops, "trace": trace_ops, "crosscheck": crosscheck_ops}
