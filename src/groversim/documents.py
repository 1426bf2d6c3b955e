"""On-disk JSON formats for simulation traces and reversible circuits.

Both formats carry format_version "1". The constructors (TraceDocument;
Gate and ReversibleCircuit) check every rule of a document, the parsers
check JSON types and name the offending field, and the renderers only
format. Floats take 17 significant digits, so a write-read cycle keeps
every double, and the layout is fixed, so equal documents are byte-identical.
A trace is written to a text file one snapshot at a time, and rendering
is that writer into a string; a snapshot formats each distinct amplitude
once, by bit pattern. The parser's object hook decides each amplitude list
once, as soon as JSON closes its step: after one bulk type check of its
[re, im] pairs it becomes a complex128 vector or the text of its fault, so
the parser never holds the list tree of more than one snapshot; neither
changes a byte of what is written or read.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, ClassVar, TextIO

import numpy as np

from .grover import SimulationTrace
from .reversible import Gate, ReversibleCircuit
from .state import MAX_INDEX_QUBITS, RNG_ALGORITHM, _as_int

TRACE_FORMAT_VERSION = "1"
CIRCUIT_FORMAT_VERSION = "1"

# Per-snapshot unit-norm requirement enforced by the TraceDocument constructor.
TRACE_NORM_TOLERANCE = 1e-10


def _format_floats(values: np.ndarray) -> list[str]:
    """17-significant-digit forms of finite doubles; each round-trips. A
    negative zero is "-0.0": a bare "-0" would parse as the integer 0."""
    out = ["%.17g" % v for v in values.tolist()]
    for i in np.flatnonzero(np.signbit(values) & (values == 0)).tolist():
        out[i] = "-0.0"
    return out


def _format_pairs(amps: np.ndarray) -> str:
    """The comma-joined "[re,im]" forms of a contiguous complex128 vector.

    Each distinct amplitude is formatted once: a lexsort of the two int64
    bit patterns of every amplitude groups equal ones, so -0.0 and +0.0
    stay apart, and each entry takes its group's string from the table."""
    bits = amps.view(np.int64).reshape(-1, 2)
    order = np.lexsort((bits[:, 1], bits[:, 0]))
    ranked = bits[order]
    first = np.concatenate(([True], np.any(ranked[1:] != ranked[:-1], axis=1)))
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    parts = _format_floats(amps[order[first]].view(np.float64))
    table = np.array([f"[{re},{im}]" for re, im in zip(parts[::2], parts[1::2])], dtype=object)
    return ",".join(table[group].tolist())


def format_float(value: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return _format_floats(np.array([value]))[0]


@dataclass
class TraceDocument:
    """In-memory form of a trace file: labeled snapshots plus run metadata.

    Construction checks every rule of the format and names fields as the
    file does. The four integer fields must be int and not bool, so that
    they render as JSON integers; n stops at 62 because indices are int64;
    unit norm implies finite amplitudes, and the norm test is written so
    that NaN fails too."""

    format_version: ClassVar[str] = TRACE_FORMAT_VERSION
    n: int
    seed: int
    steps: list[tuple[str, np.ndarray]]
    outcome: int
    oracle_evals: int
    algorithm: str = RNG_ALGORITHM

    def __post_init__(self) -> None:
        size = 1 << _as_int(self.n, "n", 1, MAX_INDEX_QUBITS)
        _as_int(self.seed, "seed")
        _as_int(self.outcome, "outcome", 0, size - 1)
        _as_int(self.oracle_evals, "oracle_evals", 0)
        steps = []
        for i, (label, amps) in enumerate(self.steps):
            amps = np.ascontiguousarray(amps, dtype=np.complex128)
            if amps.shape != (size,):
                raise ValueError(f"steps[{i}].amplitudes: has shape {amps.shape}, expected ({size},)")
            drift = abs(float(np.linalg.norm(amps)) - 1.0)
            if not drift <= TRACE_NORM_TOLERANCE:
                raise ValueError(f"steps[{i}]: snapshot norm differs from 1 by {drift:g}")
            steps.append((str(label), amps))
        self.steps = steps

    @staticmethod
    def from_trace(trace: SimulationTrace) -> "TraceDocument":
        return TraceDocument(
            n=trace.n,
            seed=trace.seed,
            steps=[(label, snap.amps) for label, snap in trace.steps],
            outcome=trace.outcome,
            oracle_evals=trace.oracle_evals,
        )


def write_trace_document(doc: TraceDocument, fp: TextIO) -> None:
    """Writes the document's text to fp one snapshot at a time, so at most
    one snapshot's text is held."""
    fp.write("{\n")
    fp.write(f'  "format_version": {json.dumps(doc.format_version)},\n')
    fp.write(f'  "n": {doc.n},\n')
    fp.write(f'  "rng": {{"algorithm": {json.dumps(doc.algorithm)}, "seed": {doc.seed}}},\n')
    fp.write('  "steps": [')
    for i, (label, amps) in enumerate(doc.steps):
        sep = ",\n" if i else "\n"
        fp.write(f'{sep}    {{"label": {json.dumps(label)}, "amplitudes": [{_format_pairs(amps)}]}}')
    fp.write("\n  ],\n" if doc.steps else "],\n")
    fp.write(f'  "outcome": {doc.outcome},\n')
    fp.write(f'  "oracle_evals": {doc.oracle_evals}\n')
    fp.write("}\n")


def render_trace_document(doc: TraceDocument) -> str:
    out = io.StringIO()
    write_trace_document(doc, out)
    return out.getvalue()


def _load_json(text: str, where: str, object_hook: Callable[[dict], Any] | None = None) -> Any:
    def reject_constant(literal: str) -> Any:
        raise ValueError(f"{where}: {literal} is not a finite number")

    try:
        return json.loads(text, parse_constant=reject_constant, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _check_version(raw: dict, expected: str, where: str) -> None:
    version = raw.get("format_version")
    if version != expected:
        raise ValueError(f"{where}: format_version: expected {expected!r}, got {version!r}")


def _pack_amplitudes(value: Any) -> np.ndarray | str:
    """An "amplitudes" value as its complex128 vector, or the text of its
    fault. Valid lists pass one bulk check of exact types (bool is a
    subclass of int but not a JSON number); the per-pair walk runs only on
    a list that fails it, to name the first bad pair."""
    if type(value) is not list:
        return "amplitudes: expected a list"
    if set(map(type, value)) <= {list} and set(map(len, value)) <= {2}:
        flat = list(chain.from_iterable(value))
        if set(map(type, flat)) <= {int, float}:
            try:
                return np.array(flat, dtype=np.float64).view(np.complex128)
            except OverflowError:
                return "amplitudes: an integer is too large for a double"
    j = next(j for j, pair in enumerate(value)
             if not (type(pair) is list and len(pair) == 2
                     and type(pair[0]) in (int, float) and type(pair[1]) in (int, float)))
    return f"amplitudes[{j}]: expected an [re, im] pair of numbers"


def _pack_steps(obj: dict) -> dict:
    """JSON object hook: decides an "amplitudes" value as soon as the
    scanner closes its object, so that list tree is freed before the next
    step is read."""
    if "amplitudes" in obj:
        obj["amplitudes"] = _pack_amplitudes(obj["amplitudes"])
    return obj


def parse_trace_document(text: str) -> TraceDocument:
    where = "trace document"
    raw = _load_json(text, where, _pack_steps)
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: top level must be an object")
    _check_version(raw, TRACE_FORMAT_VERSION, where)
    n = _as_int(raw.get("n"), f"{where}: n")
    rng = raw.get("rng")
    if not isinstance(rng, dict):
        raise ValueError(f"{where}: rng: expected an object")
    algorithm = rng.get("algorithm")
    if not isinstance(algorithm, str):
        raise ValueError(f"{where}: rng.algorithm: expected a string, got {algorithm!r}")
    seed = _as_int(rng.get("seed"), f"{where}: rng.seed")
    steps_raw = raw.get("steps")
    if not isinstance(steps_raw, list):
        raise ValueError(f"{where}: steps: expected a list")
    steps: list[tuple[str, np.ndarray]] = []
    for i, entry in enumerate(steps_raw):
        spot = f"{where}: steps[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{spot}: expected an object")
        label = entry.get("label")
        if not isinstance(label, str):
            raise ValueError(f"{spot}.label: expected a string, got {label!r}")
        amps = entry.get("amplitudes", "amplitudes: expected a list")
        if isinstance(amps, str):
            raise ValueError(f"{spot}.{amps}")
        steps.append((label, amps))
    outcome = _as_int(raw.get("outcome"), f"{where}: outcome")
    evals = _as_int(raw.get("oracle_evals"), f"{where}: oracle_evals")
    try:
        return TraceDocument(n, seed, steps, outcome, evals, algorithm)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def render_circuit_document(circuit: ReversibleCircuit) -> str:
    lines = [
        "{",
        f'  "format_version": {json.dumps(CIRCUIT_FORMAT_VERSION)},',
        f'  "wires": {circuit.wires},',
    ]
    if circuit.gates:
        lines.append('  "gates": [')
        for i, gate in enumerate(circuit.gates):
            controls = ", ".join(str(c) for c in gate.controls)
            comma = "," if i + 1 < len(circuit.gates) else ""
            lines.append(
                f'    {{"type": {json.dumps(gate.kind)}, "target": {gate.target}, '
                f'"controls": [{controls}]}}{comma}'
            )
        lines.append("  ]")
    else:
        lines.append('  "gates": []')
    lines.append("}\n")
    return "\n".join(lines)


def parse_circuit_document(text: str) -> ReversibleCircuit:
    where = "circuit document"
    raw = _load_json(text, where)
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: top level must be an object")
    _check_version(raw, CIRCUIT_FORMAT_VERSION, where)
    wires = _as_int(raw.get("wires"), f"{where}: wires", minimum=1)
    gates_raw = raw.get("gates")
    if not isinstance(gates_raw, list):
        raise ValueError(f"{where}: gates: expected a list")
    gates = []
    for i, entry in enumerate(gates_raw):
        spot = f"{where}: gates[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{spot}: expected an object")
        kind = entry.get("type")
        if not isinstance(kind, str):
            raise ValueError(f"{spot}.type: expected a string, got {kind!r}")
        target = _as_int(entry.get("target"), f"{spot}.target", minimum=0)
        controls_raw = entry.get("controls", [])
        if not isinstance(controls_raw, list):
            raise ValueError(f"{spot}.controls: expected a list")
        controls = tuple(
            _as_int(c, f"{spot}.controls[{j}]", minimum=0) for j, c in enumerate(controls_raw)
        )
        try:
            gates.append(Gate(kind, target, controls))
        except ValueError as exc:
            raise ValueError(f"{spot}: {exc}") from None
    try:
        return ReversibleCircuit(wires, tuple(gates))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
