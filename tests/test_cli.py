import hashlib
import json
import stat
import tracemalloc

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
    assert captured.out == RUN_GOLDEN
    assert captured.err.startswith(f"error: cannot write trace document {str(folder)!r}: ")
    assert list(tmp_path.iterdir()) == [folder]
    assert list(folder.iterdir()) == []


def test_interrupted_trace_write_keeps_the_earlier_file(tmp_path, monkeypatch, capsys):
    import groversim.cli

    def interrupt(doc, fp):
        fp.write("{\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(groversim.cli, "write_trace_document", interrupt)
    path = tmp_path / "trace.json"
    path.write_bytes(b"earlier trace")
    with pytest.raises(KeyboardInterrupt):
        main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", str(path)])
    capsys.readouterr()
    assert path.read_bytes() == b"earlier trace"
    assert list(tmp_path.iterdir()) == [path]


def test_run_degenerate_marking_warns(capsys):
    assert main(["grover", "run", "--qubits", "2", "--marked", "0,1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("iterations: 0\n")
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
    with pytest.raises(SystemExit) as info:
        main([*command, "--seed", "-1"])
    assert info.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err


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


def test_circuit_verify(tmp_path, capsys):
    assert main(["circuit", "verify", write_adder(tmp_path)]) == 0
    assert capsys.readouterr().out == "reversible: true\n"


def test_circuit_verify_cap_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GROVERSIM_MAX_QUBITS", "2")
    assert main(["circuit", "verify", write_adder(tmp_path)]) == 3
    assert "cap is 2" in capsys.readouterr().err


def test_circuit_verify_sixteen_wires(tmp_path, capsys):
    rng = np.random.default_rng(16)
    gates = []
    for _ in range(40):
        controls = int(rng.integers(3))
        wires = [int(w) for w in rng.choice(16, size=1 + controls, replace=False)]
        gates.append(Gate(("NOT", "CNOT", "TOFFOLI")[controls], wires[0], tuple(wires[1:])))
    path = tmp_path / "wide.json"
    path.write_text(render_circuit_document(ReversibleCircuit(16, tuple(gates))), encoding="utf-8")
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


def test_run_trace_write_error_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "t.json")
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write trace document {path!r}: ")
    assert captured.err.count("\n") == 1


def test_run_trace_write_error_exits_2_before_running(tmp_path, monkeypatch, capsys):
    import groversim.cli

    calls = []
    monkeypatch.setattr(groversim.cli, "run_grover", lambda config: calls.append(config))
    path = str(tmp_path / "missing" / "t.json")
    assert main(["grover", "run", "--qubits", "12", "--marked", "5", "--trace", path]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write trace document {path!r}: ")
    assert captured.err.count("\n") == 1


def test_run_trace_to_a_bare_file_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["grover", "run", "--qubits", "2", "--marked", "2", "--trace", "t.json"]) == 0
    assert capsys.readouterr().out == RUN_GOLDEN
    assert len(parse_trace_document((tmp_path / "t.json").read_text(encoding="utf-8")).steps) == 5


def test_circuit_invert_write_error_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "inverse.json")
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
