"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 bench/selftest.py

For every workload and both --trace modes it checks that the run exits 0,
that every metric BENCHMARK.json declares is reported under its name and
unit, that the code passes every correctness check, and that two runs with
the same seed give the same determinism digest and counts. It then injects
a wrong result and checks that it is counted in fail_ratio without stopping
the run, and that a directory without the library's sources makes the
benchmark exit with an error and no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return done.returncode, done.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            where = f"{workload} --trace {trace}"
            runs = [bench("--workload", workload, "--seed", "7", "--trace", trace)
                    for _ in range(2)]
            for rc, lines in runs:
                expect(rc == 0, f"{where}: exit code {rc}")
            results = [json.loads(lines[-1]) for _, lines in runs]
            reported = {k: v["unit"] for k, v in results[0]["metrics"].items()}
            expect(reported == declared[trace], f"{where}: every declared metric with its unit")
            expect(all(r["correct"] and r["failed"] == 0 for r in results),
                   f"{where}: every check passes")
            digests = [[l for l in lines if l.startswith("# digest=")] for _, lines in runs]
            expect(digests[0] == digests[1] and digests[0] != [],
                   f"{where}: same digest and counts for the same seed")

        rc, lines = bench("--workload", workload, "--seed", "7", "--trace", "1", "--inject-fault")
        result = json.loads(lines[-1]) if rc == 0 else {}
        expect(rc == 0 and not result["correct"] and result["failed"] >= 1
               and result["metrics"]["fail_ratio"]["value"] > 0,
               f"{workload}: an injected wrong result is counted and the run completes")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        rc, lines = bench("--workload", "search", "--seed", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and not any(l.startswith("{") for l in lines),
           "without the library's sources: non-zero exit and no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
