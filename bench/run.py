"""groversim benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload search|trace|crosscheck --seed S \
        --seconds T --trace 0|1 [--size full|tiny] [--inject-fault]

Run it from the root of a checkout; the library is imported from ./src.
The seed generates every input. Each workload is a fixed batch of operations
that is repeated for the given number of seconds; every operation is checked
against an independent route after it is timed. The timed metrics are in
"refs": each operation's time divided by the time of a fixed reference loop
run next to it (bench/reference.py), which cancels the host's speed drift.

--trace 0 reports the end-to-end metrics: fresh interpreters for set-up
time (at the start and between timed batches), the untraced timed pass, and a
tracemalloc pass for memory. --trace 1 reports the per-layer metrics: untraced and traced
batches alternate, and the traced ones record a span at every call into a
library function. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Spans and the determinism record are
written under bench/out/.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy is imported: the client is one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BLAS_THREADS = 1

import argparse
import gc
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("search", "trace", "crosscheck")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("amp_updates_per_ref", "1/ref"),
    ("peak_mem_ratio", "ratio"),
]

OP_KINDS = ("run", "scan", "trace_run", "verify", "circuit_run", "invert", "permute",
            "pathsum", "wh_naive", "predicate_run", "classical")

PER_LAYER = [
    ("transforms.wh_fast.calls", "count"),
    ("transforms.wh_fast.self_s", "s"),
    ("transforms.wh_fast.bytes_computed", "B"),
    ("transforms.wh_fast.gb_per_s", "GB/s"),
    ("transforms.flip_marked.calls", "count"),
    ("transforms.flip_marked.self_s", "s"),
    ("grover.oracle.tabulate_s", "s"),
    ("transforms.flip_zero.self_s", "s"),
    ("state.init.self_s", "s"),
    ("grover.run.self_s", "s"),
    ("grover.scan.self_s", "s"),
    ("state.measure.calls", "count"),
    ("state.measure.self_s", "s"),
    ("grover.success_probability.self_s", "s"),
    ("documents.render_trace.self_s", "s"),
    ("documents.parse_trace.self_s", "s"),
    ("documents.trace_bytes", "B"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("reversible.run_circuit.calls", "count"),
    ("reversible.run_circuit.self_s", "s"),
    ("reversible.index_to_bits.self_s", "s"),
    ("reversible.check_bijection.self_s", "s"),
    ("reversible.inputs", "count"),
    ("reversible.to_permutation.self_s", "s"),
    ("state.permute.self_s", "s"),
    ("documents.parse_circuit.self_s", "s"),
    ("documents.render_circuit.self_s", "s"),
    ("pathsum.path_amplitude.calls", "count"),
    ("pathsum.path_amplitude.self_s", "s"),
    ("pathsum.verify.self_s", "s"),
    ("pathsum.branches", "count"),
    ("transforms.wh_naive.calls", "count"),
    ("transforms.wh_naive.self_s", "s"),
    ("grover.classical.self_s", "s"),
    ("grover.classical.draws", "count"),
    ("grover.iterations", "count"),
    ("grover.oracle_evals", "count"),
    ("grover.amp_updates", "count"),
    ("grover.hit_ratio", "ratio"),
    ("trace_mb_per_s", "MB/s"),
    ("verify_inputs_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("bench.op.self_s", "s"),
    ("bench.wall_s", "s"),
    ("bench.ref_s", "s"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.named_layer_share", "ratio"),
] + [(f"mem.peak_ratio.{kind}", "ratio") for kind in OP_KINDS]

# Exact counts: they must repeat between batches of a run and between runs
# of the same code and seed.
COUNTS = ("grover.amp_updates", "grover.iterations", "grover.oracle_evals", "grover.runs",
          "grover.hits", "documents.trace_bytes", "cli.stdout_bytes", "reversible.inputs",
          "pathsum.branches", "grover.classical.draws")

# The layer each workload is built to stress; on the traced pass it should
# hold the largest self-time share against every other module.
NAMED_LAYER = {
    "search": lambda name: name == "transforms.wh_fast",
    "trace": lambda name: name in ("documents.render_trace", "documents.parse_trace"),
    "crosscheck": lambda name: name.startswith("reversible."),
}

MIN_TIMED_OPS = 100

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import groversim, groversim.cli
groversim.cli.build_parser()
print(repr(time.perf_counter() - start))
"""


@dataclass
class Timed:
    """One operation of a batch, as timed and checked."""

    op: workloads.Op
    seconds: float
    refs: float  # seconds over the reference loop's time around the operation
    counts: dict
    mem_ratio: float  # tracemalloc peak over 16 * 2**n bytes (memory pass)


class Tally:
    """Everything the passes of one run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.batches: list[dict] = []  # one per batch: mode, wall, ops, digest, counts

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_batch(ops, tally: Tally, mode: str, rec, ref, inject: bool) -> dict:
    """Run every operation once; mode is "plain", "traced" or "memory"."""
    gc.collect()
    digest = hashlib.sha256()
    counts: Counter = Counter()
    records = []
    probes = []
    calls_before = {name: entry[0] for name, entry in rec.totals.items()}
    for index, op in enumerate(ops):
        probes.append(ref.probe())
        tally.attempted += 1
        chk = workloads.Checker(inject and index == 0)
        result, seconds, peak, op_counts = None, None, 0, {}
        if mode == "memory":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = perf_counter()
        try:
            if mode == "traced":
                rec.active = True
                try:
                    result = rec.call(f"bench.op.{op.kind}", op.run)
                finally:
                    rec.active = False
            else:
                result = op.run()
            seconds = perf_counter() - start
            if mode == "memory":
                peak = tracemalloc.get_traced_memory()[1] - base
            op_counts = op.check(result, chk)
        except Exception as exc:  # a crashing operation is a failed operation
            chk.failures.append(f"raised {type(exc).__name__}: {exc}")
            if seconds is None:
                seconds = perf_counter() - start
        del result
        tally.failures += [f"{op.kind} n={op.n}: {text}" for text in chk.failures]
        digest.update(repr((op.kind, chk.material)).encode())
        counts.update(op_counts)
        records.append(Timed(op, seconds, 0.0, op_counts, peak / (16 << op.n)))
    probes.append(ref.probe())
    for index, timed in enumerate(records):
        timed.refs = timed.seconds / reference.around(probes, index)
    batch = {
        "mode": mode,
        "wall": sum(timed.seconds for timed in records),
        "wall_ref": sum(timed.refs for timed in records),
        "probes": probes,
        "ops": records,
        "digest": digest.hexdigest(),
        "counts": {key: counts[key] for key in COUNTS},
    }
    if mode == "traced":
        batch["calls"] = {name: entry[0] - calls_before.get(name, 0)
                          for name, entry in rec.totals.items()}
    tally.batches.append(batch)
    return batch


def setup_times(count: int) -> list[float]:
    """Set-up time of `count` fresh interpreters, one after another: each
    imports groversim and builds the CLI parser."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def rate(batches, key: str, select, per: str = "seconds") -> float:
    """Sum of a count over the operations select() picks, per unit of their
    time (per second, or per ref with per="refs"), over all the batches."""
    picked = [(t.counts.get(key, 0), getattr(t, per))
              for batch in batches for t in batch["ops"] if select(t)]
    elapsed = sum(amount for _, amount in picked)
    return sum(amount for amount, _ in picked) / elapsed if elapsed > 0 else 0.0


def mean_wall(batches, key: str = "wall_ref") -> float:
    return statistics.fmean(batch[key] for batch in batches)


def end_to_end(plain, memory, setup) -> dict:
    refs = [t.refs for batch in plain for t in batch["ops"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": mean_wall(plain),
        "op_p50_ref": statistics.median(refs),
        "op_p90_ref": statistics.quantiles(refs, n=10)[-1],
        "amp_updates_per_ref": rate(plain, "grover.amp_updates",
                                    lambda t: t.counts.get("grover.amp_updates", 0) > 0, "refs"),
        "peak_mem_ratio": max(t.mem_ratio for t in memory["ops"]),
    }


def per_layer(workload, plain, traced, memory, rec, tally) -> tuple[dict, dict]:
    reps = len(traced)
    values: dict[str, float] = {}
    for name, (calls, self_s, nbytes) in rec.totals.items():
        values[f"{name}.calls"] = calls // reps
        values[f"{name}.self_s"] = self_s / reps
        values[f"{name}.bytes_computed"] = nbytes // reps
    wh_self = values.get("transforms.wh_fast.self_s", 0.0)
    values["transforms.wh_fast.gb_per_s"] = (
        values.get("transforms.wh_fast.bytes_computed", 0) / wh_self / 1e9 if wh_self else 0.0)
    values["grover.oracle.tabulate_s"] = values.get("grover.oracle.tabulate.self_s", 0.0)
    values.update(plain[0]["counts"])
    runs = values.get("grover.runs", 0)
    values["grover.hit_ratio"] = values.get("grover.hits", 0) / runs if runs else 0.0
    values["trace_mb_per_s"] = rate(
        plain, "documents.trace_bytes", lambda t: "documents.trace_bytes" in t.counts) / 1e6
    values["verify_inputs_per_s"] = rate(
        plain, "reversible.inputs", lambda t: t.op.kind == "verify")
    values["fail_ratio"] = tally.failed / tally.attempted
    values["bench.op.self_s"] = sum(entry[1] for name, entry in rec.totals.items()
                                    if name.startswith("bench.op.")) / reps
    values["bench.tracing_overhead"] = mean_wall(traced) / mean_wall(plain)
    values["bench.wall_s"] = mean_wall(plain, "wall")
    values["bench.ref_s"] = statistics.median(p for b in plain for p in b["probes"])
    for kind in OP_KINDS:
        ratios = [t.mem_ratio for t in memory["ops"] if t.op.kind == kind]
        values[f"mem.peak_ratio.{kind}"] = max(ratios, default=0.0)
    shares = layer_shares(workload, rec)
    values["bench.named_layer_share"] = shares["named"]
    return {name: values.get(name, 0) for name, _ in PER_LAYER}, shares


def layer_shares(workload: str, rec) -> dict:
    """Self-time share of the workload's named layer and of every other
    module (the first part of each span name)."""
    named = NAMED_LAYER[workload]
    total = sum(entry[1] for entry in rec.totals.values()) or 1.0
    shares: Counter = Counter()
    for name, entry in rec.totals.items():
        shares["named" if named(name) else name.split(".")[0]] += entry[1] / total
    return dict(shares)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_determinism(tally: Tally, record_path: Path) -> list[str]:
    """Every batch of this run, and an earlier run of the same code and seed,
    must give the same digest and the same exact counts."""
    problems = []
    full = [batch for batch in tally.batches if batch["mode"] != "memory"]
    first = full[0]
    for i, batch in enumerate(full[1:], start=1):
        if batch["digest"] != first["digest"] or batch["counts"] != first["counts"]:
            problems.append(f"batch {i} ({batch['mode']}) differs from batch 0 in digest or counts")
    traced = [batch["calls"] for batch in tally.batches if "calls" in batch]
    if any(calls != traced[0] for calls in traced):
        problems.append("traced batches differ in call counts")
    record = {"source": source_digest(), "digest": first["digest"], "counts": first["counts"]}
    if traced:
        record["calls"] = traced[0]
    if record_path.exists():
        earlier = json.loads(record_path.read_text(encoding="utf-8"))
        if earlier["source"] == record["source"]:
            for key in ("digest", "counts", "calls"):
                if key in earlier and key in record and earlier[key] != record[key]:
                    problems.append(f"{key} differs from an earlier run of the same code and seed")
            record = {**earlier, **record}
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same operations at small sizes (self-test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb the first checked value of every batch (self-test)")
    return parser.parse_args(argv)


def load_library():
    if not (SRC / "groversim" / "__init__.py").is_file():
        raise SystemExit(f"error: no groversim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import groversim
    from groversim import cli, documents, grover, pathsum, reversible, state, transforms
    if Path(groversim.__file__).resolve().parent != SRC / "groversim":
        raise SystemExit(f"error: imported groversim from {groversim.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, documents=documents, grover=grover, pathsum=pathsum,
                           reversible=reversible, state=state, transforms=transforms)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    lib = load_library()
    import numpy

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    rec = spans.Recorder()
    ref = reference.Reference(workloads.REFERENCE_MIX[args.workload])
    tally = Tally()
    try:
        seed = numpy.random.SeedSequence([args.seed, zlib.crc32(args.workload.encode())])
        sizes = workloads.SIZES[args.size][args.workload]
        rng = numpy.random.default_rng(seed)
        ops = workloads.BUILDERS[args.workload](lib, rng, sizes, tmp)
        # Spread each size class over the whole batch, so that no operation
        # kind is timed only within one short window of machine noise.
        ops = [ops[i] for i in rng.permutation(len(ops))]
        setup = []
        if args.trace == 0:
            setup_times(1)  # warm-up: writes bytecode caches, fills the file cache
            setup = setup_times(3)

        def batch(mode, subset=None):
            return run_batch(subset or ops, tally, mode, rec, ref, args.inject_fault)

        # The memory pass runs the first operation of each kind and size (up
        # to the workload's size cap for a kind), as tracemalloc slows the
        # Python-heavy layers up to tenfold. It runs first and doubles as the
        # warm-up: it fills caches and finishes lazy set-up before any batch
        # is timed.
        cap = sizes.get("memory_max_n", {})
        first_of_class: dict = {}
        for op in ops:
            if op.n <= cap.get(op.kind, op.n):
                first_of_class.setdefault((op.kind, op.n), op)
        tracemalloc.start()
        try:
            memory = batch("memory", list(first_of_class.values()))
        finally:
            tracemalloc.stop()
        origin = perf_counter()
        plain, traced = [], []
        if args.trace == 0:
            while (not plain or perf_counter() - origin < args.seconds
                   or sum(len(b["ops"]) for b in plain) < MIN_TIMED_OPS):
                plain.append(batch("plain"))
                # Set-up samples spread over the run, not taken in one burst.
                setup += setup_times(1)
        else:
            while not plain or perf_counter() - origin < args.seconds:
                plain.append(batch("plain"))
                rec.install(spans.library_targets(lib))
                try:
                    traced.append(batch("traced"))
                finally:
                    rec.uninstall()

        problems = check_determinism(
            tally, OUT / f"record-{args.workload}-{args.size}-seed{args.seed}.json")
        if args.trace == 0:
            metrics = end_to_end(plain, memory, setup)
            units = dict(END_TO_END)
        else:
            metrics, shares = per_layer(args.workload, plain, traced, memory, rec, tally)
            units = dict(PER_LAYER)
            rec.write(OUT / f"spans-{args.workload}.jsonl", origin)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for text in (tally.failures + problems)[:20]:
        print(f"check failed: {text}", file=sys.stderr)
    times = sum(len(b["ops"]) for b in plain)
    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"batch_ops={len(ops)} untraced_batches={len(plain)} traced_batches={len(traced)} "
          f"op_samples={times} seconds={perf_counter() - started:.1f}")
    print(f"# machine: nproc={len(os.sched_getaffinity(0))} numpy={numpy.__version__} "
          f"blas_threads={BLAS_THREADS} python={sys.version.split()[0]}")
    print(f"# batch seconds: untraced {[round(b['wall'], 3) for b in plain]} "
          f"traced {[round(b['wall'], 3) for b in traced]}")
    print(f"# batch refs: untraced {[round(b['wall_ref'], 1) for b in plain]} "
          f"traced {[round(b['wall_ref'], 1) for b in traced]}")
    print(f"# digest={plain[0]['digest']} counts={json.dumps(plain[0]['counts'])}")
    if args.trace == 1:
        rest = {k: round(v, 4) for k, v in shares.items() if k != "named"}
        top = max(rest.values(), default=0.0)
        verdict = "holds" if shares["named"] > top else "MISMATCH"
        print(f"# named layer self-time share {shares['named']:.4f} vs others {rest}: {verdict}")
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
