"""On-disk JSON formats for simulation traces and reversible circuits.

Both formats carry format_version "1". The constructors (TraceDocument;
Gate and ReversibleCircuit) check every rule of a document, the parsers
check JSON types and name the offending field, and the renderers only
format. Floats take 17 significant digits, so a write-read cycle keeps
every double, and the layout is fixed, so equal documents are byte-identical.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from .grover import SimulationTrace
from .reversible import Gate, ReversibleCircuit
from .state import RNG_ALGORITHM

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
    file does. n stops at 62 because indices are int64; unit norm implies
    finite amplitudes, and the norm test is written so that NaN fails too."""

    format_version: ClassVar[str] = TRACE_FORMAT_VERSION
    n: int
    seed: int
    steps: list[tuple[str, np.ndarray]]
    outcome: int
    oracle_evals: int
    algorithm: str = RNG_ALGORITHM

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 62:
            raise ValueError(f"n: must be >= 1 and <= 62, got {self.n}")
        size = 1 << self.n
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
        if not 0 <= self.outcome < size:
            raise ValueError(f"outcome: {self.outcome} out of range for n={self.n}")
        if self.oracle_evals < 0:
            raise ValueError(f"oracle_evals: must be >= 0, got {self.oracle_evals}")

    @staticmethod
    def from_trace(trace: SimulationTrace) -> "TraceDocument":
        return TraceDocument(
            n=trace.n,
            seed=trace.seed,
            steps=[(label, snap.amps) for label, snap in trace.steps],
            outcome=trace.outcome,
            oracle_evals=trace.oracle_evals,
        )


def render_trace_document(doc: TraceDocument) -> str:
    lines = [
        "{",
        f'  "format_version": {json.dumps(doc.format_version)},',
        f'  "n": {doc.n},',
        f'  "rng": {{"algorithm": {json.dumps(doc.algorithm)}, "seed": {doc.seed}}},',
    ]
    if doc.steps:
        lines.append('  "steps": [')
        for i, (label, amps) in enumerate(doc.steps):
            parts = _format_floats(amps.view(np.float64))
            pairs = ",".join([f"[{re},{im}]" for re, im in zip(parts[::2], parts[1::2])])
            comma = "," if i + 1 < len(doc.steps) else ""
            lines.append(f'    {{"label": {json.dumps(label)}, "amplitudes": [{pairs}]}}{comma}')
        lines.append("  ],")
    else:
        lines.append('  "steps": [],')
    lines.append(f'  "outcome": {doc.outcome},')
    lines.append(f'  "oracle_evals": {doc.oracle_evals}')
    lines.append("}\n")
    return "\n".join(lines)


def _load_json(text: str, where: str) -> Any:
    def reject_constant(literal: str) -> Any:
        raise ValueError(f"{where}: {literal} is not a finite number")

    try:
        return json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _as_int(value: Any, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _check_version(raw: dict, expected: str, where: str) -> None:
    version = raw.get("format_version")
    if version != expected:
        raise ValueError(f"{where}: format_version: expected {expected!r}, got {version!r}")


def parse_trace_document(text: str) -> TraceDocument:
    where = "trace document"
    raw = _load_json(text, where)
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
        pairs = entry.get("amplitudes")
        if not isinstance(pairs, list):
            raise ValueError(f"{spot}.amplitudes: expected a list")
        # Exact types: bool is a subclass of int but not a JSON number.
        for j, pair in enumerate(pairs):
            if not (type(pair) is list and len(pair) == 2
                    and type(pair[0]) in (int, float) and type(pair[1]) in (int, float)):
                raise ValueError(f"{spot}.amplitudes[{j}]: expected an [re, im] pair of numbers")
        try:
            values = np.array(pairs, dtype=np.float64)
        except OverflowError:
            raise ValueError(f"{spot}.amplitudes: an integer is too large for a double") from None
        steps.append((label, values.view(np.complex128).ravel()))
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
