import errno
import hashlib
import json
import os
import shlex
import shutil
import stat
import sys
from typing import NamedTuple

import numpy as np
import pytest

from groversim import parse_circuit_document, parse_trace_document, render_circuit_document
from groversim.cli import main
from groversim.reversible import Gate, ReversibleCircuit, adder_circuit, inverse_circuit
from helpers import FOUR_STATE_TRACE, MemoryProbe, random_circuit, run_command


def report(iterations, outcome, probability, evals):
    """The text `grover run` prints; probability is the text of its repr."""
    return (f"iterations: {iterations}\noutcome: {outcome}\n"
            f"success_probability: {probability}\noracle_evals: {evals}\n")


RUN_GOLDEN = report(1, 2, "0.9999999999999991", 1)
ENOENT = os.strerror(errno.ENOENT)
ADDER = render_circuit_document(adder_circuit())


def test_importing_the_cli_leaves_numpy_random_out():
    # The circuit commands never draw, so start-up need not import it.
    code = "import sys, groversim.cli; print('numpy.random' in sys.modules)"
    done = run_command(sys.executable, "-c", code)
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_the_cli_module_runs_as_a_script_and_exits_with_mains_code():
    argv = [sys.executable, "-m", "groversim.cli", "grover", "run", "--qubits", "2", "--marked", "2"]
    done = run_command(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, RUN_GOLDEN, "")
    done = run_command(*argv[:-1], "9")
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: marked index 9 out of range for 4 basis states\n"
    )


def test_the_console_script_runs_main_and_passes_its_exit_code():
    # The groversim script that installing the package declares. CI installs
    # it and runs this test alone, after checking that the script is on PATH.
    script = shutil.which("groversim")
    if script is None:
        pytest.skip("no groversim console script on PATH")
    argv = [script, "grover", "run", "--qubits", "2", "--marked", "2"]
    done = run_command(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, RUN_GOLDEN, "")
    done = run_command(*argv[:-1], "9")
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: marked index 9 out of range for 4 basis states\n"
    )
    done = run_command(*argv, GROVERSIM_MAX_QUBITS="1")
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: n=2 exceeds the 1-qubit cap\n")


class Case(NamedTuple):
    """A command-line case: the argv, as shell words, run in a new directory
    holding `files`, and what main gives: the exit code, the exact stdout
    and stderr, and the files left, `files` unchanged where `after` is None.
    A file is its text, with surrogate escapes for bytes that are not UTF-8;
    a directory is a dict of its entries."""

    argv: str
    code: int = 0
    out: str = ""
    err: str = ""
    env: dict = {}
    files: dict = {}
    after: dict | None = None


RUN = "grover run --qubits 2 --marked 2"
RUN_USAGE = (
    "usage: groversim grover run [-h] --qubits N --marked R[,R...] [--iterations T]\n"
    "                            [--seed S] [--trace PATH] [--format {text,json}]\n"
)
NO_INTEGER = {"GROVERSIM_MAX_QUBITS": "abc"}
NOT_AN_INTEGER = "error: GROVERSIM_MAX_QUBITS must be an integer, got 'abc'\n"
ADDER_FILE = {"adder.json": ADDER}
NESTED = "[" * 100_000 + "]" * 100_000
# Bytes that are not UTF-8, held in a str as surrogate escapes.
NOT_UTF8_FILE = {"bad.json": b"\xff\xfe{}".decode("utf-8", "surrogateescape")}
NOT_UTF8_ERROR = ("error: cannot read circuit document 'bad.json': "
                  "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
# Circuits inverted twice, once to a file and once to stdout: each name's
# document and its inverse's.
INVERSES = {
    name: (render_circuit_document(circuit), render_circuit_document(inverse_circuit(circuit)))
    for name, circuit in {
        "adder": adder_circuit(),
        "one wire": ReversibleCircuit(1, (Gate.not_(0),)),
        "two wires": ReversibleCircuit(2, (Gate.cnot(0, 1), Gate.not_(0), Gate.cnot(1, 0))),
        "twenty wires": random_circuit(np.random.default_rng(20), 20, 40),
        "no gates": ReversibleCircuit(3, ()),
    }.items()
}


def usage_error(message):
    return RUN_USAGE + f"groversim grover run: error: {message}\n"


# --help of every command that runs, at 80 columns.
HELP_GOLDENS = {
    "grover run": RUN_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --qubits N            register width; the search space has 2**N states\n"
        "  --marked R[,R...]     comma-separated marked basis indices\n"
        "  --iterations T        iteration count or 'auto' for the optimum (default:\n"
        "                        auto)\n"
        "  --seed S              measurement seed (default: 0)\n"
        "  --trace PATH          also write a step-by-step trace document to PATH\n"
        "  --format {text,json}  stdout format (default: text)\n"
    ),
    "grover scan": (
        "usage: groversim grover scan [-h] --qubits N --marked R[,R...]\n"
        "                             --max-iterations T [--format {csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help          show this help message and exit\n"
        "  --qubits N          register width; the search space has 2**N states\n"
        "  --marked R[,R...]   comma-separated marked basis indices\n"
        "  --max-iterations T  scan t = 0..T (T >= 1)\n"
        "  --format {csv}      output format (default: csv)\n"
    ),
    "classical": (
        "usage: groversim classical [-h] --size N [--marked R[,R...]] --iterations K\n"
        "                           [--trials M] [--seed S]\n"
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --size N           number of states searched\n"
        "  --marked R[,R...]  comma-separated marked indices (default: 0)\n"
        "  --iterations K     uniform draws per trial\n"
        "  --trials M         Monte Carlo trials (default: 100000)\n"
        "  --seed S           sampling seed (default: 0)\n"
    ),
    "circuit verify": (
        "usage: groversim circuit verify [-h] path\n"
        "\n"
        "positional arguments:\n"
        "  path        circuit document (JSON)\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    "circuit run": (
        "usage: groversim circuit run [-h] --input BITS path\n"
        "\n"
        "positional arguments:\n"
        "  path          circuit document (JSON)\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
        "  --input BITS  bit string; the leftmost character is wire 0\n"
    ),
    "circuit invert": (
        "usage: groversim circuit invert [-h] [--output PATH] path\n"
        "\n"
        "positional arguments:\n"
        "  path           circuit document (JSON)\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --output PATH  write here instead of stdout\n"
    ),
}

# One row per command-line behaviour. Rows next to each other also check
# that main's reused parser keeps nothing between calls: a json run, a usage
# error, an uncapped run or an --output run beside the row after it.
CLI_CASES = {
    **{f"{command} --help": Case(f"{command} --help", out=text) for command, text in HELP_GOLDENS.items()},
    "run --format json": Case(f"{RUN} --format json", out=(
        '{"iterations":1,"outcome":2,"success_probability":0.9999999999999991,"oracle_evals":1}\n')),
    "run": Case(RUN, out=RUN_GOLDEN),
    "run --qubits x": Case("grover run --qubits x --marked 2", 2,
                           err=usage_error("argument --qubits: invalid int value: 'x'")),
    "run n=5, seed 11": Case("grover run --qubits 5 --marked 3,17 --seed 11",
                             out=report(3, 3, "0.9613189697265565", 3)),
    "run 0 iterations, seed 7": Case("grover run --qubits 3 --marked 1 --iterations 0 --seed 7",
                                     out=report(0, 5, "0.12499999999999994", 0)),
    "run, half marked": Case(
        "grover run --qubits 2 --marked 0,1", out=report(0, 2, "0.4999999999999998", 0),
        err="note: at least half the space is marked; the auto iteration count is degenerate\n"),
    "run, all marked": Case(
        "grover run --qubits 2 --marked 0,1,2,3", out=report(0, 2, "0.9999999999999996", 0),
        err="note: at least half the space is marked; the auto iteration count is degenerate\n"),
    "run, marked out of range": Case("grover run --qubits 1 --marked 2", 2,
                                     err="error: marked index 2 out of range for 2 basis states\n"),
    "run --iterations x": Case(f"{RUN} --iterations x", 2, err=usage_error(
        "argument --iterations: expected an integer or 'auto', got 'x'")),
    "run --seed -1": Case(f"{RUN} --seed -1", 2, err="error: seed: must be >= 0, got -1\n"),
    "run --seed abc": Case(f"{RUN} --seed abc", 2,
                           err=usage_error("argument --seed: invalid int value: 'abc'")),
    "run --marked 2;3": Case("grover run --qubits 2 --marked '2;3'", 2, err=usage_error(
        "argument --marked: expected comma-separated integers, got '2;3'")),
    "run n=4": Case("grover run --qubits 4 --marked 1", out=report(3, 1, "0.9613189697265575", 3)),
    "run n=4, cap 3": Case("grover run --qubits 4 --marked 1", 3, env={"GROVERSIM_MAX_QUBITS": "3"},
                           err="error: n=4 exceeds the 3-qubit cap\n"),
    "run n=3, cap 3": Case("grover run --qubits 3 --marked 1", env={"GROVERSIM_MAX_QUBITS": "3"},
                           out=report(2, 1, "0.9453124999999973", 2)),
    "run, cap abc": Case(RUN, 2, env=NO_INTEGER, err=NOT_AN_INTEGER),
    "run, cap 0": Case(RUN, 2, env={"GROVERSIM_MAX_QUBITS": "0"},
                       err="error: GROVERSIM_MAX_QUBITS must be >= 1, got 0\n"),
    # 25 iterations at n=10 trace 101 * 2**10 amplitudes, over a 2**12 cap;
    # a file already at the path keeps its bytes, and nothing is left beside it.
    **{f"run --trace, cap 12{where}": Case(
        "grover run --qubits 10 --marked 1 --trace trace.json", 3, env={"GROVERSIM_MAX_QUBITS": "12"},
        files=files, err="error: a trace of 101 snapshots at n=10 exceeds 2**12 amplitudes and "
                         "label characters, the 12-qubit cap\n")
       for where, files in {"": {}, ", over an earlier file": {"trace.json": "earlier trace"}}.items()},
    "run n=10, cap 12": Case("grover run --qubits 10 --marked 1", env={"GROVERSIM_MAX_QUBITS": "12"},
                             out=report(25, 1, "0.9994612447443189", 25)),
    "run --trace to a directory": Case(
        f"{RUN} --trace trace.json", 2, files={"trace.json": {}},
        err="error: cannot write trace document 'trace.json': Is a directory\n"),
    "run --trace in a missing directory": Case(
        f"{RUN} --trace missing/t.json", 2,
        err=f"error: cannot write trace document 'missing/t.json': {ENOENT}\n"),
    "scan": Case("grover scan --qubits 2 --marked 2 --max-iterations 3",
                 out="t,success_probability\n0,0.25\n1,0.999999999999999\n2,0.25\n3,0.249999999999999\n"),
    "scan --max-iterations 0": Case("grover scan --qubits 2 --marked 2 --max-iterations 0", 2,
                                    err="error: t_max: must be >= 1, got 0\n"),
    "scan, cap abc": Case("grover scan --qubits 2 --marked 2 --max-iterations 3", 2,
                          env=NO_INTEGER, err=NOT_AN_INTEGER),
    "classical 0 iterations": Case("classical --size 4 --marked 0 --iterations 0 --trials 10",
                                   out="empirical: 0.0\nanalytic: 0.0\n"),
    "classical --seed -1": Case("classical --size 4 --iterations 1 --seed -1", 2,
                                err="error: seed: must be >= 0, got -1\n"),
    "classical, marked out of range": Case(
        "classical --size 4 --marked 9 --iterations 1 --trials 10", 2,
        err="error: marked index 9 out of range for 4 basis states\n"),
    "classical --trials 0": Case("classical --size 4 --iterations 1 --trials 0", 2,
                                 err="error: trials: must be >= 1, got 0\n"),
    "classical, cap abc": Case("classical --size 4 --iterations 1", 2, env=NO_INTEGER, err=NOT_AN_INTEGER),
    # The baseline allocates a size-entry lookup table, so --size is capped
    # at 2**cap before anything is drawn.
    "classical --size 2048, cap 10": Case(
        "classical --size 2048 --iterations 1 --trials 10", 3, env={"GROVERSIM_MAX_QUBITS": "10"},
        err="error: size 2048 exceeds 2**10, the 10-qubit cap\n"),
    # Every state marked, so that the draws cannot miss, whatever numpy's stream.
    "classical --size 1024, cap 10": Case(
        f"classical --size 1024 --marked {','.join(map(str, range(1024)))} --iterations 1 --trials 10",
        env={"GROVERSIM_MAX_QUBITS": "10"}, out="empirical: 1.0\nanalytic: 1.0\n"),
    # 64 * 100000 draws exceed 2**(4 + 4) at a 4-qubit cap.
    "classical draws, cap 4": Case(
        "classical --size 16 --iterations 64 --trials 100000", 3, env={"GROVERSIM_MAX_QUBITS": "4"},
        err="error: 64 * 100000 draws exceed 2**8, the draw cap of the 4-qubit cap\n"),
    "classical --size 2**70, cap 100": Case(
        f"classical --size {1 << 70} --iterations 1 --trials 1", 2, env={"GROVERSIM_MAX_QUBITS": "100"},
        err=f"error: size: must be >= 1 and <= {1 << 62}, got {1 << 70}\n"),
    "verify": Case("circuit verify adder.json", files=ADDER_FILE, out="reversible: true\n"),
    "verify, cap 2": Case("circuit verify adder.json", 3, env={"GROVERSIM_MAX_QUBITS": "2"},
                          files=ADDER_FILE, err="error: circuit has 3 wires; cap is 2\n"),
    "verify, cap abc": Case("circuit verify adder.json", 2, env=NO_INTEGER, files=ADDER_FILE,
                            err=NOT_AN_INTEGER),
    "verify 70 wires, cap 100": Case(
        "circuit verify wide.json", 2, env={"GROVERSIM_MAX_QUBITS": "100"},
        files={"wide.json": render_circuit_document(ReversibleCircuit(70, (Gate.cnot(0, 69),)))},
        err="error: wires: must be >= 1 and <= 62, got 70\n"),
    "verify 16 wires": Case("circuit verify wide.json", out="reversible: true\n", files={
        "wide.json": render_circuit_document(random_circuit(np.random.default_rng(16), 16, 40))}),
    "verify a missing file": Case(
        "circuit verify nope.json", 2,
        err=f"error: cannot read circuit document 'nope.json': {ENOENT}\n"),
    "verify a directory": Case(
        "circuit verify adder", 2, files={"adder": ADDER_FILE},
        err=f"error: cannot read circuit document 'adder': {os.strerror(errno.EISDIR)}\n"),
    "verify a file that is not UTF-8": Case("circuit verify bad.json", 2, files=NOT_UTF8_FILE,
                                            err=NOT_UTF8_ERROR),
    "verify a SWAP gate": Case(
        "circuit verify bad.json", 2,
        files={"bad.json": '{"format_version": "1", "wires": 2, "gates": [{"type": "SWAP", "target": 0}]}'},
        err="error: circuit document: gates[0]: unknown gate kind 'SWAP'; "
            "expected one of ['CNOT', 'NOT', 'TOFFOLI']\n"),
    "verify wires nested 100000 deep": Case(
        "circuit verify nested.json", 2,
        files={"nested.json": f'{{"format_version": "1", "wires": {NESTED}, "gates": []}}'},
        err="error: circuit document: invalid JSON: nested too deeply\n"),
    "circuit run 110": Case("circuit run adder.json --input 110", files=ADDER_FILE, out="101\n"),
    "circuit run 000": Case("circuit run adder.json --input 000", files=ADDER_FILE, out="000\n"),
    "circuit run 11": Case("circuit run adder.json --input 11", 2, files=ADDER_FILE,
                           err="error: input has 2 bits, circuit has 3 wires\n"),
    "circuit run 10x": Case("circuit run adder.json --input 10x", 2, files=ADDER_FILE,
                            err="error: input must be a non-empty string of 0s and 1s, got '10x'\n"),
    "circuit run, empty input": Case("circuit run adder.json --input ''", 2, files=ADDER_FILE,
                                     err="error: input must be a non-empty string of 0s and 1s, got ''\n"),
    "circuit run, a file that is not UTF-8": Case("circuit run bad.json --input 110", 2,
                                                  files=NOT_UTF8_FILE, err=NOT_UTF8_ERROR),
    "circuit run, cap abc": Case("circuit run adder.json --input 110", env=NO_INTEGER,
                                 files=ADDER_FILE, out="101\n"),
    "invert --output": Case("circuit invert adder.json --output inverse.json", files=ADDER_FILE,
                            after={**ADDER_FILE, "inverse.json": INVERSES["adder"][1]}),
    "invert": Case("circuit invert adder.json", files=ADDER_FILE, out=INVERSES["adder"][1]),
    "invert, cap abc": Case("circuit invert adder.json", env=NO_INTEGER, files=ADDER_FILE,
                            out=INVERSES["adder"][1]),
    **{f"invert --output {shlex.quote(path)}": Case(
        f"circuit invert adder.json --output {shlex.quote(path)}", 2, files=ADDER_FILE,
        err=f"error: cannot write circuit document {path!r}: {ENOENT}\n")
       for path in ("", "missing/out.json")},
    **{f"invert {name} to a file": Case(
        "circuit invert circuit.json --output inverse.json", files={"circuit.json": text},
        after={"circuit.json": text, "inverse.json": inverse})
       for name, (text, inverse) in INVERSES.items()},
    **{f"invert {name} back": Case("circuit invert inverse.json", files={"inverse.json": inverse}, out=text)
       for name, (text, inverse) in INVERSES.items()},
}


def place(where, files):
    for name, text in files.items():
        if isinstance(text, dict):
            (where / name).mkdir()
            place(where / name, text)
        else:
            (where / name).write_text(text, encoding="utf-8", errors="surrogateescape")


def listing(where):
    return {path.name: listing(path) if path.is_dir()
            else path.read_text(encoding="utf-8", errors="surrogateescape")
            for path in where.iterdir()}


def outcome(case, where, monkeypatch, capsys):
    """main's exit code, stdout, stderr and the files left, for case run in
    the new directory `where`, at COLUMNS=80 and with no qubit cap set
    unless the case sets them. argparse's SystemExit gives the code."""
    where.mkdir()
    place(where, case.files)
    with monkeypatch.context() as patch:
        patch.chdir(where)
        patch.setenv("COLUMNS", "80")
        patch.delenv("GROVERSIM_MAX_QUBITS", raising=False)
        for key, value in case.env.items():
            patch.setenv(key, value)
        try:
            code = main(shlex.split(case.argv))
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, listing(where)


def expected(case):
    return case.code, case.out, case.err, case.files if case.after is None else case.after


@pytest.mark.parametrize("name", CLI_CASES)
def test_command_line_case(name, tmp_path, monkeypatch, capsys):
    # Twice in one process: the same results from the same argv, through
    # the parser main() reuses.
    case = CLI_CASES[name]
    assert outcome(case, tmp_path / "first", monkeypatch, capsys) == expected(case)
    assert outcome(case, tmp_path / "second", monkeypatch, capsys) == expected(case)


def in_sequence(names, where, monkeypatch, capsys):
    """Runs the rows `names` one after another in one process, each in a new
    directory under `where`, and checks each against its row."""
    for i, name in enumerate(names):
        assert outcome(CLI_CASES[name], where / str(i), monkeypatch, capsys) == expected(
            CLI_CASES[name]), name


def test_command_line_cases_back_to_back(tmp_path, monkeypatch, capsys):
    # Each row after the one before it and after the one after it, so that
    # no call leaves anything in the reused parser that changes the next.
    in_sequence([*CLI_CASES, *reversed(CLI_CASES)], tmp_path, monkeypatch, capsys)


def test_reused_parser_keeps_no_format(tmp_path, monkeypatch, capsys):
    in_sequence(["run --format json", "run"], tmp_path, monkeypatch, capsys)


def test_reused_parser_keeps_no_output_path(tmp_path, monkeypatch, capsys):
    in_sequence(["invert --output", "invert"], tmp_path, monkeypatch, capsys)


def test_reused_parser_gives_the_same_help(tmp_path, monkeypatch, capsys):
    in_sequence(["grover run --help", "run", "grover run --help"], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("command", HELP_GOLDENS)
def test_help_golden(command):
    # In a new process, as a user's shell runs it, at 80 columns.
    done = run_command(sys.executable, "-m", "groversim.cli", *command.split(), "--help", COLUMNS="80")
    assert (done.returncode, done.stdout, done.stderr) == (0, HELP_GOLDENS[command], "")


def test_run_json_format(capsys):
    # The json report carries the figures of the text report, as numbers.
    assert main([*shlex.split(RUN), "--format", "json"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert main(shlex.split(RUN)) == 0
    text = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert list(raw) == list(text)
    assert {key: repr(value) for key, value in raw.items()} == text


def test_circuit_invert_to_file(tmp_path, capsys):
    out_path = tmp_path / "inverse.json"
    path = tmp_path / "adder.json"
    path.write_text(ADDER, encoding="utf-8")
    assert main(["circuit", "invert", str(path), "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert parse_circuit_document(out_path.read_text(encoding="utf-8")) == inverse_circuit(adder_circuit())


def test_run_writes_trace_document(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    argv = [
        "grover", "run", "--qubits", "2", "--marked", "2",
        "--seed", "9", "--trace", str(trace_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    doc = parse_trace_document(trace_path.read_text(encoding="utf-8"))
    assert doc.n == 2
    assert doc.seed == 9
    assert doc.algorithm == "pcg64"
    assert doc.oracle_evals == 1
    assert [label for label, _ in doc.steps] == ["i", "ii", "iii", "iv", "v"]
    for (_, amps), expected_amps in zip(doc.steps, FOUR_STATE_TRACE):
        assert np.max(np.abs(amps - expected_amps)) <= 1e-12
    assert doc.outcome == 2


# Trace files written by `grover run --trace`: (qubits, marked, seed) ->
# (bytes, sha256). The n=9 document holds 51 negative zeros, written "-0.0".
TRACE_GOLDENS = {
    ("6", "5,40", "9"): (23109, "0f7bd039368194c2cc36d796ddabbc2f529f48da4963043a56071b757b1253f8"),
    ("9", "300", "4"): (904371, "2479c452894f18d60b0f133fa4625a21210a05782f22982424018d32d53cacc3"),
}


@pytest.mark.parametrize("qubits, marked, seed", list(TRACE_GOLDENS))
def test_run_trace_file_golden(qubits, marked, seed, tmp_path, capsys):
    path = tmp_path / "trace.json"
    argv = ["grover", "run", "--qubits", qubits, "--marked", marked, "--seed", seed, "--trace", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == TRACE_GOLDENS[qubits, marked, seed]


def test_run_trace_peaks_below_its_snapshots_plus_half_a_mebibyte(tmp_path, capsys):
    # The document is written one snapshot at a time, so besides the run's
    # (4t + 1) snapshots of 2**n amplitudes little more is held.
    path = tmp_path / "trace.json"
    with MemoryProbe() as probe:
        assert main(["grover", "run", "--qubits", "10", "--marked", "3", "--trace", str(path)]) == 0
    assert capsys.readouterr().out.startswith("iterations: 25\n")
    assert probe.peak < (4 * 25 + 1) * 16 * 2**10 + (512 << 10)


def test_run_trace_holds_no_snapshots(tmp_path, capsys):
    # An n=12 auto trace has 201 snapshots of 64 KiB; the run writes each
    # as the engine yields it.
    path = tmp_path / "trace.json"
    with MemoryProbe() as probe:
        assert main(["grover", "run", "--qubits", "12", "--marked", "3", "--trace", str(path)]) == 0
    assert capsys.readouterr().out.startswith("iterations: 50\n")
    assert probe.peak < 2 << 20


def test_run_trace_file_mode_is_that_of_a_new_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_bytes(b"earlier trace")
    path.chmod(0o600)
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", str(path)]) == 0
    capsys.readouterr()
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert len(parse_trace_document(path.read_text(encoding="utf-8")).steps) == 5


def test_interrupted_trace_write_keeps_the_earlier_file(tmp_path, monkeypatch, capsys):
    import groversim.grover

    def interrupt(state, rng):
        raise KeyboardInterrupt

    monkeypatch.setattr(groversim.grover, "measure", interrupt)
    path = tmp_path / "trace.json"
    path.write_bytes(b"earlier trace")
    with pytest.raises(KeyboardInterrupt):
        main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", str(path)])
    capsys.readouterr()
    assert path.read_bytes() == b"earlier trace"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_trace_rename_exits_2_before_the_report(tmp_path, monkeypatch, capsys):
    import groversim.cli

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), dst)

    monkeypatch.setattr(groversim.cli.os, "replace", refuse)
    path = tmp_path / "trace.json"
    path.write_bytes(b"earlier trace")
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write trace document {str(path)!r}: {os.strerror(errno.EACCES)}\n"
    assert path.read_bytes() == b"earlier trace"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "argv, parse",
    [(f"{RUN} --trace out.json", parse_trace_document),
     ("circuit invert adder.json --output out.json", parse_circuit_document)],
    ids=["grover run --trace", "circuit invert --output"],
)
def test_a_temporary_file_left_by_a_killed_run_does_not_block_the_write(
        argv, parse, tmp_path, monkeypatch, capsys):
    # A run killed before its rename leaves its temporary file behind, and a
    # later run, in a container, often gets the same pid. A file named
    # PATH.<pid>.tmp blocks no write and is left as it is.
    leftover = {f"out.json.{os.getpid()}.tmp": "left by a killed run"}
    case = Case(argv, files={**ADDER_FILE, **leftover})
    code, _, err, files = outcome(case, tmp_path / "run", monkeypatch, capsys)
    assert (code, err) == (0, "")
    parse(files.pop("out.json"))
    assert files == case.files


def test_run_trace_snapshot_off_the_unit_norm_exits_2_and_keeps_the_earlier_file(
        tmp_path, monkeypatch, capsys):
    import groversim.grover

    flip_zero = groversim.grover.invert_phase_zero

    def doubled(state, in_place=False):
        out = flip_zero(state, in_place=in_place)
        out.amps *= 2
        return out

    monkeypatch.setattr(groversim.grover, "invert_phase_zero", doubled)
    path = tmp_path / "trace.json"
    path.write_bytes(b"earlier trace")
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: steps[3]: snapshot norm differs from 1 by 1\n"
    assert path.read_bytes() == b"earlier trace"
    assert list(tmp_path.iterdir()) == [path]


def test_trace_cap_counts_label_text(tmp_path, monkeypatch, capsys):
    # 32765 snapshots of 2 amplitudes fit 2**16, but the rule also counts
    # 32765 // 1000 = 32 label characters each: one "m" per thousand.
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "16")
    path = tmp_path / "trace.json"
    argv = ["grover", "run", "--qubits", "1", "--marked", "0", "--trace", str(path)]
    assert main([*argv, "--iterations", "8191"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a trace of 32765 snapshots at n=1 exceeds 2**16 amplitudes "
                            "and label characters, the 16-qubit cap\n")
    assert list(tmp_path.iterdir()) == []
    # Below a thousand snapshots the rule counts amplitudes alone.
    assert main([*argv, "--iterations", "249"]) == 0
    capsys.readouterr()
    assert len(parse_trace_document(path.read_text(encoding="utf-8")).steps) == 997


@pytest.mark.parametrize("command", ["run", "scan"])
def test_huge_qubits_flag_exits_3_before_building_the_oracle(command, monkeypatch, capsys):
    monkeypatch.delenv("GROVERSIM_MAX_QUBITS", raising=False)
    argv = ["grover", command, "--qubits", "1000000000", "--marked", "1"]
    if command == "scan":
        argv += ["--max-iterations", "2"]
    with MemoryProbe() as probe:
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=1000000000 exceeds the 24-qubit cap\n"
    assert probe.peak < 1 << 20


def test_scan_peak_location(capsys):
    argv = ["grover", "scan", "--qubits", "10", "--marked", "137", "--max-iterations", "60"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [(int(t), float(p)) for t, p in (line.split(",") for line in lines[1:])]
    assert len(rows) == 61
    best_t, best_p = max(rows, key=lambda row: row[1])
    assert best_t == 25
    assert best_p > 0.999


# The empirical line depends on numpy's bounded-integer stream, so it keeps
# a tolerance; the analytic line is exact.
def test_classical_golden(capsys):
    argv = ["classical", "--size", "4", "--marked", "0", "--iterations", "4",
            "--trials", "100000", "--seed", "0"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "analytic: 0.68359375"
    empirical = float(lines[0].split(": ")[1])
    assert abs(empirical - 0.68359375) <= 0.005


def test_classical_defaults_to_marked_zero(capsys):
    argv = ["classical", "--size", "1024", "--iterations", "1024", "--trials", "10000"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    empirical = float(lines[0].split(": ")[1])
    assert lines[1] == "analytic: 0.6323002605887288"
    assert abs(empirical - 0.632) <= 0.02


def test_circuit_verify_reports_a_repeated_index(tmp_path, monkeypatch, capsys):
    # Pins the verdict to the bijection test, not to a constant "true".
    monkeypatch.setattr(
        "groversim.cli.circuit_to_permutation", lambda circuit, cap: np.array([0, 1, 2, 3, 4, 5, 6, 6])
    )
    path = tmp_path / "adder.json"
    path.write_text(ADDER, encoding="utf-8")
    assert main(["circuit", "verify", str(path)]) == 0
    assert capsys.readouterr().out == "reversible: false\n"


@pytest.mark.parametrize(
    "path", [os.path.join("missing", "out.json"), ""], ids=["missing directory", "empty"])
def test_run_trace_write_error_exits_2_before_running(path, tmp_path, monkeypatch, capsys):
    import groversim.cli

    calls = []
    monkeypatch.setattr(groversim.cli, "run_grover", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    assert main(["grover", "run", "--qubits", "12", "--marked", "5", "--trace", path]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert captured.err == f"error: cannot write trace document {path!r}: {ENOENT}\n"
    assert list(tmp_path.iterdir()) == []


def test_run_trace_to_a_bare_file_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", "t.json"]) == 0
    assert capsys.readouterr().out == RUN_GOLDEN
    assert len(parse_trace_document((tmp_path / "t.json").read_text(encoding="utf-8")).steps) == 5


# main() builds one parser per process and reuses it; nothing else carries over.
def test_main_builds_the_parser_once(monkeypatch, capsys):
    import groversim.cli

    builds = []

    def counting():
        builds.append(1)
        return real()

    real = groversim.cli.build_parser
    monkeypatch.setattr(groversim.cli, "build_parser", counting)
    groversim.cli._parser.cache_clear()
    for _ in range(3):
        assert main(["grover", "run", "--qubits", "2", "--marked", "2"]) == 0
        assert capsys.readouterr().out == RUN_GOLDEN
    assert len(builds) == 1


def test_build_parser_returns_a_new_parser():
    from groversim.cli import build_parser

    assert build_parser() is not build_parser()
