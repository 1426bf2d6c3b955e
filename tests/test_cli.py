import errno
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from groversim import parse_circuit_document, parse_trace_document, render_circuit_document
from groversim.cli import main
from groversim.reversible import Gate, ReversibleCircuit, adder_circuit, inverse_circuit

RUN_GOLDEN = (
    "iterations: 1\n"
    "outcome: 2\n"
    "success_probability: 0.9999999999999991\n"
    "oracle_evals: 1\n"
)

FOUR_STATE_TRACE = [
    [0.5, 0.5, 0.5, 0.5],
    [0.5, 0.5, -0.5, 0.5],
    [0.5, -0.5, 0.5, 0.5],
    [-0.5, -0.5, 0.5, 0.5],
    [0.0, 0.0, -1.0, 0.0],
]


def write_adder(tmp_path):
    path = tmp_path / "adder.json"
    path.write_text(render_circuit_document(adder_circuit()), encoding="utf-8")
    return str(path)


def random_circuit(seed, wires, gates):
    """A seeded circuit of NOT, CNOT and TOFFOLI gates on distinct wires."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(gates):
        controls = int(rng.integers(3))
        picked = [int(w) for w in rng.choice(wires, size=1 + controls, replace=False)]
        drawn.append(Gate(("NOT", "CNOT", "TOFFOLI")[controls], picked[0], tuple(picked[1:])))
    return ReversibleCircuit(wires, tuple(drawn))


def run_command(*command, **environ):
    """A new process running command, with environ added to the environment
    and the package's sources on the interpreter's path."""
    pythonpath = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    return subprocess.run(command, capture_output=True, text=True, env=env)


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


def test_run_text_golden(capsys):
    assert main(["grover", "run", "--qubits", "2", "--marked", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == RUN_GOLDEN
    assert captured.err == ""


def test_run_stdout_is_deterministic(capsys):
    argv = ["grover", "run", "--qubits", "5", "--marked", "3,17", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_run_seed_controls_measurement(capsys):
    argv = ["grover", "run", "--qubits", "3", "--marked", "1", "--iterations", "0", "--seed", "7"]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("outcome: ")
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == line


def test_run_json_format(capsys):
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--format", "json"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["iterations"] == 1
    assert raw["outcome"] == 2
    assert raw["oracle_evals"] == 1
    assert abs(raw["success_probability"] - 1.0) <= 1e-12


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
    for (_, amps), expected in zip(doc.steps, FOUR_STATE_TRACE):
        assert np.max(np.abs(amps - np.array(expected))) <= 1e-12
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
    tracemalloc.start()
    try:
        assert main(["grover", "run", "--qubits", "10", "--marked", "3", "--trace", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("iterations: 25\n")
    assert peak < (4 * 25 + 1) * 16 * 2**10 + (512 << 10)


def test_run_trace_holds_no_snapshots(tmp_path, capsys):
    # An n=12 auto trace has 201 snapshots of 64 KiB; the run writes each
    # as the engine yields it.
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        assert main(["grover", "run", "--qubits", "12", "--marked", "3", "--trace", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("iterations: 50\n")
    assert peak < 2 << 20


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


def test_run_trace_to_a_directory_exits_2_and_leaves_no_temporary_file(tmp_path, capsys):
    folder = tmp_path / "trace.json"
    folder.mkdir()
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", str(folder)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write trace document {str(folder)!r}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [folder]
    assert list(folder.iterdir()) == []


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


def test_run_degenerate_marking_warns(capsys):
    assert main(["grover", "run", "--qubits", "2", "--marked", "0,1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("iterations: 0\n")
    assert "degenerate" in captured.err


def test_run_with_every_state_marked_runs_no_iteration(capsys):
    assert main(["grover", "run", "--qubits", "2", "--marked", "0,1,2,3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "iterations: 0\noutcome: 2\nsuccess_probability: 0.9999999999999996\noracle_evals: 0\n"
    )
    assert "degenerate" in captured.err


def test_run_marked_out_of_range_exits_2(capsys):
    assert main(["grover", "run", "--qubits", "1", "--marked", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of range" in captured.err


def test_run_bad_iterations_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["grover", "run", "--qubits", "2", "--marked", "2", "--iterations", "x"])
    assert info.value.code == 2
    assert "integer or 'auto'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["grover", "run", "--qubits", "2", "--marked", "2"],
    ["classical", "--size", "4", "--iterations", "1"],
])
def test_negative_seed_flag_exits_2(command, capsys):
    # The library's integer gate is the only seed rule.
    assert main([*command, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed: must be >= 0, got -1\n"


def test_non_integer_seed_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["grover", "run", "--qubits", "2", "--marked", "2", "--seed", "abc"])
    assert info.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


def test_run_bad_marked_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["grover", "run", "--qubits", "2", "--marked", "2;3"])
    assert info.value.code == 2
    assert "comma-separated" in capsys.readouterr().err


def test_qubit_cap_env_var(monkeypatch, capsys):
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "3")
    assert main(["grover", "run", "--qubits", "4", "--marked", "1"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["grover", "run", "--qubits", "3", "--marked", "1"]) == 0
    capsys.readouterr()


def test_trace_volume_cap_exits_3(tmp_path, monkeypatch, capsys):
    # 25 iterations at n=10 trace 101 * 2**10 amplitudes, over a 2**12 cap.
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "12")
    trace_path = tmp_path / "trace.json"
    argv = ["grover", "run", "--qubits", "10", "--marked", "1", "--trace", str(trace_path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "101 snapshots" in captured.err
    assert not trace_path.exists()
    assert list(tmp_path.iterdir()) == []
    # A file already at the path keeps its bytes, and nothing is left beside it.
    trace_path.write_bytes(b"earlier trace")
    assert main(argv) == 3
    assert capsys.readouterr().out == ""
    assert trace_path.read_bytes() == b"earlier trace"
    assert list(tmp_path.iterdir()) == [trace_path]
    assert main(argv[:-2]) == 0
    capsys.readouterr()


def test_trace_cap_counts_label_text(tmp_path, monkeypatch, capsys):
    # 32765 snapshots of 2 amplitudes fit 2**16, but the rule also counts
    # 32765 // 1000 = 32 label characters each: one "m" per thousand.
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "16")
    path = tmp_path / "trace.json"
    argv = ["grover", "run", "--qubits", "1", "--marked", "0", "--trace", str(path)]
    assert main([*argv, "--iterations", "8191"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "32765 snapshots" in captured.err
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
    tracemalloc.start()
    try:
        assert main(argv) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=1000000000 exceeds the 24-qubit cap\n"
    assert peak < 1 << 20


def test_qubit_cap_env_var_garbage_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "abc")
    assert main(["grover", "run", "--qubits", "2", "--marked", "2"]) == 2
    assert "GROVERSIM_MAX_QUBITS" in capsys.readouterr().err
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "0")
    assert main(["grover", "run", "--qubits", "2", "--marked", "2"]) == 2
    assert ">= 1" in capsys.readouterr().err


def test_scan_csv_golden_rows(capsys):
    assert main(["grover", "scan", "--qubits", "2", "--marked", "2", "--max-iterations", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,success_probability"
    assert lines[1] == "0,0.25"
    assert len(lines) == 5
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(values[1] - 1.0) <= 1e-12
    assert abs(values[2] - 0.25) <= 1e-12


def test_scan_peak_location(capsys):
    argv = ["grover", "scan", "--qubits", "10", "--marked", "137", "--max-iterations", "60"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [(int(t), float(p)) for t, p in (line.split(",") for line in lines[1:])]
    assert len(rows) == 61
    best_t, best_p = max(rows, key=lambda row: row[1])
    assert best_t == 25
    assert best_p > 0.999


def test_scan_rejects_zero_iterations(capsys):
    assert main(["grover", "scan", "--qubits", "2", "--marked", "2", "--max-iterations", "0"]) == 2
    assert "t_max" in capsys.readouterr().err


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
    analytic = float(lines[1].split(": ")[1])
    assert abs(analytic - 0.6323002605887288) <= 1e-15
    assert abs(empirical - 0.632) <= 0.02


def test_classical_zero_iterations(capsys):
    argv = ["classical", "--size", "4", "--marked", "0", "--iterations", "0", "--trials", "10"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "empirical: 0.0\nanalytic: 0.0\n"


def test_classical_validation_exits_2(capsys):
    argv = ["classical", "--size", "4", "--marked", "9", "--iterations", "1", "--trials", "10"]
    assert main(argv) == 2
    assert "out of range" in capsys.readouterr().err


def test_classical_size_cap_exits_3(monkeypatch, capsys):
    # The baseline allocates a size-entry lookup table, so --size is capped
    # at 2**cap before anything is drawn.
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "10")
    argv = ["classical", "--size", "2048", "--iterations", "1", "--trials", "10"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "10-qubit cap" in captured.err
    argv[2] = "1024"
    assert main(argv) == 0


def test_classical_draw_cap_exits_3(monkeypatch, capsys):
    # 64 * 100000 draws exceed 2**(4 + 4) at a 4-qubit cap.
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "4")
    argv = ["classical", "--size", "16", "--iterations", "64", "--trials", "100000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 64 * 100000 draws exceed 2**8, the draw cap of the 4-qubit cap\n"


def test_circuit_verify(tmp_path, capsys):
    assert main(["circuit", "verify", write_adder(tmp_path)]) == 0
    assert capsys.readouterr().out == "reversible: true\n"


def test_circuit_verify_cap_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "2")
    assert main(["circuit", "verify", write_adder(tmp_path)]) == 3
    assert "cap is 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["circuit", "verify", "wide.json"], "wires: must be >= 1 and <= 62, got 70"),
        (["classical", "--size", str(1 << 70), "--iterations", "1", "--trials", "1"],
         f"size: must be >= 1 and <= {1 << 62}, got {1 << 70}"),
    ],
    ids=["circuit-verify", "classical"],
)
def test_more_than_62_index_bits_under_the_cap_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "100")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.json").write_text(
        render_circuit_document(ReversibleCircuit(70, (Gate.cnot(0, 69),))), encoding="utf-8")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_circuit_verify_sixteen_wires(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(render_circuit_document(random_circuit(16, 16, 40)), encoding="utf-8")
    assert main(["circuit", "verify", str(path)]) == 0
    assert capsys.readouterr().out == "reversible: true\n"


def test_circuit_verify_reports_a_repeated_index(tmp_path, monkeypatch, capsys):
    # Pins the verdict to the bijection test, not to a constant "true".
    monkeypatch.setattr(
        "groversim.cli.circuit_to_permutation", lambda circuit, cap: np.array([0, 1, 2, 3, 4, 5, 6, 6])
    )
    assert main(["circuit", "verify", write_adder(tmp_path)]) == 0
    assert capsys.readouterr().out == "reversible: false\n"


def test_circuit_run(tmp_path, capsys):
    path = write_adder(tmp_path)
    assert main(["circuit", "run", path, "--input", "110"]) == 0
    assert capsys.readouterr().out == "101\n"
    assert main(["circuit", "run", path, "--input", "000"]) == 0
    assert capsys.readouterr().out == "000\n"


def test_circuit_run_width_mismatch_exits_2(tmp_path, capsys):
    assert main(["circuit", "run", write_adder(tmp_path), "--input", "11"]) == 2
    assert "2 bits" in capsys.readouterr().err


def test_circuit_run_bad_bitstring_exits_2(tmp_path, capsys):
    assert main(["circuit", "run", write_adder(tmp_path), "--input", "10x"]) == 2
    assert "0s and 1s" in capsys.readouterr().err


def test_circuit_invert_stdout(tmp_path, capsys):
    assert main(["circuit", "invert", write_adder(tmp_path)]) == 0
    parsed = parse_circuit_document(capsys.readouterr().out)
    assert parsed == inverse_circuit(adder_circuit())


def test_circuit_invert_to_file(tmp_path, capsys):
    out_path = tmp_path / "inverse.json"
    assert main(["circuit", "invert", write_adder(tmp_path), "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    parsed = parse_circuit_document(out_path.read_text(encoding="utf-8"))
    assert parsed == inverse_circuit(adder_circuit())


INVERTED_TWICE = {
    "adder": adder_circuit,
    "one wire": lambda: ReversibleCircuit(1, (Gate.not_(0),)),
    "two wires": lambda: ReversibleCircuit(2, (Gate.cnot(0, 1), Gate.not_(0), Gate.cnot(1, 0))),
    "twenty wires": lambda: random_circuit(20, 20, 40),
    "no gates": lambda: ReversibleCircuit(3, ()),
}


@pytest.mark.parametrize("name", INVERTED_TWICE)
def test_inverting_a_circuit_document_twice_gives_its_bytes_back(name, tmp_path, capsys):
    # Once to a file and once to stdout, so both ways of writing are checked.
    path = tmp_path / "circuit.json"
    path.write_text(render_circuit_document(INVERTED_TWICE[name]()), encoding="utf-8")
    inverse = str(tmp_path / "inverse.json")
    assert main(["circuit", "invert", str(path), "--output", inverse]) == 0
    assert main(["circuit", "invert", inverse]) == 0
    assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()


def test_run_trace_write_error_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "t.json")
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write trace document {path!r}: ")
    assert captured.err.count("\n") == 1


UNUSABLE_PATHS = pytest.mark.parametrize(
    "path", [os.path.join("missing", "out.json"), ""], ids=["missing directory", "empty"])


@UNUSABLE_PATHS
def test_run_trace_write_error_exits_2_before_running(path, tmp_path, monkeypatch, capsys):
    import groversim.cli

    calls = []
    monkeypatch.setattr(groversim.cli, "run_grover", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    assert main(["grover", "run", "--qubits", "12", "--marked", "5", "--trace", path]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write trace document {path!r}: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_run_trace_to_a_bare_file_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", "t.json"]) == 0
    assert capsys.readouterr().out == RUN_GOLDEN
    assert len(parse_trace_document((tmp_path / "t.json").read_text(encoding="utf-8")).steps) == 5


@UNUSABLE_PATHS
def test_circuit_invert_write_error_exits_2(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["circuit", "invert", write_adder(tmp_path), "--output", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write circuit document {path!r}: ")
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adder.json"]


def test_circuit_missing_file_exits_2(tmp_path, capsys):
    assert main(["circuit", "verify", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_circuit_bad_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"format_version": "1", "wires": 2, "gates": [{"type": "SWAP", "target": 0}]}',
        encoding="utf-8",
    )
    assert main(["circuit", "verify", str(path)]) == 2
    assert "gates[0]" in capsys.readouterr().err


def test_circuit_verify_of_a_document_nested_too_deeply_exits_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    nested = "[" * 100_000 + "]" * 100_000
    path.write_text(f'{{"format_version": "1", "wires": {nested}, "gates": []}}', encoding="utf-8")
    assert main(["circuit", "verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: circuit document: invalid JSON: nested too deeply\n"


# --help of the search and baseline commands, at 80 columns.
HELP_GOLDENS = {
    ("grover", "run"): (
        "usage: groversim grover run [-h] --qubits N --marked R[,R...] [--iterations T]\n"
        "                            [--seed S] [--trace PATH] [--format {text,json}]\n"
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
    ("grover", "scan"): (
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
    ("classical",): (
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
}


@pytest.mark.parametrize("command", list(HELP_GOLDENS), ids=" ".join)
def test_help_golden(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([*command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP_GOLDENS[command]


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


def test_reused_parser_keeps_no_format(capsys):
    argv = ["grover", "run", "--qubits", "2", "--marked", "2"]
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == 2
    assert main(argv) == 0
    assert capsys.readouterr().out == RUN_GOLDEN


def test_reused_parser_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["grover", "run", "--qubits", "x", "--marked", "2"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(["grover", "run", "--qubits", "2", "--marked", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == RUN_GOLDEN
    assert captured.err == ""


def test_reused_parser_reads_the_cap_on_each_call(monkeypatch, capsys):
    monkeypatch.delenv("GROVERSIM_MAX_QUBITS", raising=False)
    argv = ["grover", "run", "--qubits", "4", "--marked", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "3")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_reused_parser_gives_the_same_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["grover", "run", "--help"])
        assert info.value.code == 0
        helps.append(capsys.readouterr().out.encode("utf-8"))
    assert helps[0] == helps[1] == HELP_GOLDENS[("grover", "run")].encode("utf-8")


def test_reused_parser_keeps_no_output_path(tmp_path, capsys):
    adder = write_adder(tmp_path)
    out_path = tmp_path / "inverse.json"
    assert main(["circuit", "invert", adder, "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    written = out_path.read_text(encoding="utf-8")
    assert main(["circuit", "invert", adder]) == 0
    assert capsys.readouterr().out == written
    assert out_path.read_text(encoding="utf-8") == written
