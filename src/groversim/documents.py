"""On-disk JSON formats for simulation traces and reversible circuits.

Both formats carry format_version "1". The constructors (TraceDocument;
Gate and ReversibleCircuit) check every rule of a document, and the
parsers check JSON types and name the offending field. Floats take 17
significant digits, so a write-read cycle keeps every double, and each
layout is a fixed string template, so equal documents are byte-identical.

A trace is written one snapshot line at a time, through one writer that a
TraceDocument and a traced run (grover.run_grover) share; rendering is that
writer into a string. It checks each field and snapshot by the
constructor's rules, so a document changed after it was built is refused,
not written (a circuit is frozen, so its renderer only formats). It keeps
the previous snapshot's bit patterns and texts, O(2**n), sized at the
first snapshot, and formats only the amplitudes whose bits changed since
it, each distinct one once.

A trace is read by one of two routes that give the same document or the
same error. Text in the writer's own layout is read directly: the head and
the tail are accepted only if their templates give them back byte for byte,
and each step line is read as a change from the one before. The "[re,im]"
texts the two lines share at both ends keep the amplitudes already decoded,
and of the texts between, each distinct one is decoded once, by json, in
one call; the zero flip, and the flip of one marked state, change one
amplitude, so their lines cost about one pair. Any other text, and any
text the direct reader declines, goes through json.loads, whose object
hook packs each amplitude list as soon as its step closes; that route is
the reference and words every error.
"""
from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from itertools import chain, count
from typing import Any, Callable, ClassVar, Iterator, TextIO

import numpy as np

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


@dataclass
class TraceDocument:
    """In-memory form of a trace file: labeled snapshots plus run metadata.

    Construction checks every rule of the format and names fields as the
    file does. The four integer fields must be int and not bool, so that
    they render as JSON integers, and the algorithm and labels must be
    strings; n stops at 62 because indices are int64; unit norm implies
    finite amplitudes, and the norm test is written so that NaN fails too."""

    format_version: ClassVar[str] = TRACE_FORMAT_VERSION
    n: int
    seed: int
    steps: list[tuple[str, np.ndarray]]
    outcome: int
    oracle_evals: int
    algorithm: str = RNG_ALGORITHM

    def __post_init__(self) -> None:
        size = 1 << _as_int(self.n, "n", 1, MAX_INDEX_QUBITS)
        _as_int(self.seed, "rng.seed", 0)
        _as_int(self.outcome, "outcome", 0, size - 1)
        _as_int(self.oracle_evals, "oracle_evals", 0)
        _require_str(self.algorithm, "rng.algorithm")
        self.steps = [(_require_str(label, f"steps[{i}].label"), _snapshot(i, amps, size))
                      for i, (label, amps) in enumerate(self.steps)]


def _require_str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, got {value!r}")
    return value


def _snapshot(i: int, amps: Any, size: int) -> np.ndarray:
    """Snapshot i as a contiguous complex128 vector of `size` amplitudes,
    refused unless it has that shape and unit norm."""
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    if amps.shape != (size,):
        raise ValueError(f"steps[{i}].amplitudes: has shape {amps.shape}, expected ({size},)")
    drift = abs(float(np.linalg.norm(amps)) - 1.0)
    if not drift <= TRACE_NORM_TOLERANCE:
        raise ValueError(f"steps[{i}]: snapshot norm differs from 1 by {drift:g}")
    return amps


def _head(n: int, seed: int, algorithm: str) -> str:
    return (f'{{\n  "format_version": {json.dumps(TRACE_FORMAT_VERSION)},\n  "n": {n},\n'
            f'  "rng": {{"algorithm": {json.dumps(algorithm)}, "seed": {seed}}},\n  "steps": [')


def _tail(steps: int, outcome: int, oracle_evals: int) -> str:
    end = "\n  ]" if steps else "]"
    return f'{end},\n  "outcome": {outcome},\n  "oracle_evals": {oracle_evals}\n}}\n'


class _TraceWriter:
    """Writes one trace to fp: the head when made, a line per snapshot, the
    tail on close. Each checks its fields by the TraceDocument rules, the
    same messages included, before it writes, so what it writes is text
    the parser takes back. It keeps what it wrote of the last snapshot, so
    that the next formats only the amplitudes that changed: a copy of its
    int64 bit patterns (the engine overwrites its buffers in place) and
    each amplitude's "[re,im]" text, O(2**n) in all, made at the first
    snapshot. The bits start as a NaN pattern, which no unit-norm snapshot
    holds, so the first snapshot changes every entry."""

    def __init__(self, fp: TextIO, n: int, seed: int, algorithm: str = RNG_ALGORITHM) -> None:
        self.size = 1 << _as_int(n, "n", 1, MAX_INDEX_QUBITS)
        _as_int(seed, "rng.seed", 0)
        _require_str(algorithm, "rng.algorithm")
        fp.write(_head(n, seed, algorithm))
        self.fp, self.steps = fp, 0
        self.bits: np.ndarray | None = None
        self.texts: np.ndarray | None = None

    def step(self, label: str, amps: Any) -> None:
        _require_str(label, f"steps[{self.steps}].label")
        pairs = self.pairs(_snapshot(self.steps, amps, self.size))
        sep = ",\n" if self.steps else "\n"
        self.fp.write(f'{sep}    {{"label": {json.dumps(label)}, "amplitudes": [{pairs}]}}')
        self.steps += 1

    def pairs(self, amps: np.ndarray) -> str:
        """The comma-joined "[re,im]" forms of a contiguous complex128
        snapshot.

        Entries are compared by bit pattern, so -0.0 and +0.0 stay apart. A
        lexsort of the changed entries' bit patterns groups equal ones, each
        group is formatted once and its text scattered to the group's
        entries; then all texts are joined."""
        bits = amps.view(np.int64)
        if self.bits is None:
            self.bits = np.full(len(bits), -1, dtype=np.int64)
            self.texts = np.empty(len(amps), dtype=object)
        changed = np.flatnonzero((bits[0::2] != self.bits[0::2]) | (bits[1::2] != self.bits[1::2]))
        np.copyto(self.bits, bits)
        re, im = bits[0::2][changed], bits[1::2][changed]
        order = np.lexsort((im, re))
        re, im = re[order], im[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
        parts = _format_floats(amps[changed[order[first]]].view(np.float64))
        table = np.array([f"[{x},{y}]" for x, y in zip(parts[::2], parts[1::2])], dtype=object)
        self.texts[changed[order]] = table[np.cumsum(first) - 1]
        return ",".join(self.texts.tolist())

    def close(self, outcome: int, oracle_evals: int) -> None:
        _as_int(outcome, "outcome", 0, self.size - 1)
        _as_int(oracle_evals, "oracle_evals", 0)
        self.fp.write(_tail(self.steps, outcome, oracle_evals))


def write_trace_document(doc: TraceDocument, fp: TextIO) -> None:
    """Writes the document's text to fp one snapshot at a time, so at most
    one snapshot's text is held, besides the last snapshot's bit patterns
    and per-amplitude texts."""
    writer = _TraceWriter(fp, doc.n, doc.seed, doc.algorithm)
    for label, amps in doc.steps:
        writer.step(label, amps)
    writer.close(doc.outcome, doc.oracle_evals)


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
        fault = f" at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except RecursionError:
        fault = ": nested too deeply"
    except ValueError as exc:
        if str(exc).startswith(f"{where}: "):  # reject_constant's refusal names where
            raise
        fault = f": {exc}"  # an integer past Python's digit limit, bytes not in UTF-8
    raise ValueError(f"{where}: invalid JSON{fault}")


def _load_object(text: str | bytes, version: str, where: str,
                 object_hook: Callable[[dict], Any] | None = None) -> dict:
    """The JSON object in text, refused unless its format_version is version."""
    raw = _load_json(text, where, object_hook)
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: top level must be an object")
    found = raw.get("format_version")
    if found != version:
        raise ValueError(f"{where}: format_version: expected {version!r}, got {found!r}")
    return raw


def _objects(raw: dict, key: str, where: str) -> Iterator[tuple[str, dict]]:
    """Each object of the list raw[key], with the name its errors use."""
    entries = raw.get(key)
    if not isinstance(entries, list):
        raise ValueError(f"{where}: {key}: expected a list")
    for i, entry in enumerate(entries):
        spot = f"{where}: {key}[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{spot}: expected an object")
        yield spot, entry


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
    step is read. A literal too large for a double, which json reads as an
    infinity, is named by its pair."""
    if "amplitudes" in obj:
        amps = _pack_amplitudes(obj["amplitudes"])
        if not isinstance(amps, str) and not np.isfinite(amps).all():
            amps = f"amplitudes[{np.flatnonzero(~np.isfinite(amps))[0]}]: not a finite number"
        obj["amplitudes"] = amps
    return obj


def parse_trace_document(text: str) -> TraceDocument:
    """The document in text: read directly if text is in the writer's own
    layout, else through json.loads, which words every error."""
    doc = _read_written_trace(text) if type(text) is str else None
    return doc if doc is not None else _parse_trace_json(text)


# The writer's layout. The head and tail patterns only find the values;
# the reader accepts them only if the writer re-renders them byte for byte.
# Every step line but the first starts with the "," that ends the last one.
_HEAD = re.compile(r'\{\n  "format_version": "[^"\n]*",\n  "n": (-?[0-9]+),\n  "rng": '
                   r'\{"algorithm": ("(?:[^"\\\n]|\\.)*"), "seed": ([0-9]+)\},\n  "steps": \[')
_STEP = re.compile(r'(,?)\n    \{"label": ("(?:[^"\\\n]|\\.)*"), "amplitudes": \[\[')
_TAIL = re.compile(r'(?:\n  )?\],\n  "outcome": (-?[0-9]+),\n  "oracle_evals": (-?[0-9]+)\n\}\n')


def _shared_run(text: str, a: int, b: int, limit: int, backward: bool) -> int:
    """How many characters, at most limit, text shares at offsets a and b:
    going forward from both, or backward up to both. Chunks start at 64
    characters and double while they match; the first that differs is then
    halved down to the first character that differs."""
    done, width, growing = 0, 64, True
    while width and done < limit:
        stop = min(done + width, limit)
        if backward:
            same = text.startswith(text[a - stop:a - done], b - stop)
        else:
            same = text.startswith(text[a + done:a + stop], b + done)
        if same:
            done = stop
            if growing:
                width *= 2
                continue
        else:
            growing = False
        width //= 2
    return done


def _decode_pairs(pairs: list[str]) -> np.ndarray | None:
    """The amplitudes of pair texts, each distinct one decoded once in one
    json call, or None unless that call yields one [re, im] pair of numbers
    per distinct text."""
    first: dict[str, int] = {}
    where = np.fromiter(map(first.setdefault, pairs, count()), np.intp, len(pairs))
    distinct = _pack_amplitudes(_load_json("[[" + "],[".join(first) + "]]", "trace document"))
    if isinstance(distinct, str) or len(distinct) != len(first):
        return None
    rank = np.empty(len(pairs), dtype=np.intp)
    rank[np.fromiter(first.values(), np.intp, len(first))] = np.arange(len(first))
    return distinct[rank[where]]


def _read_written_trace(text: str) -> TraceDocument | None:
    """The document in text if every part of it is in the writer's layout,
    else None. The head and tail must re-render byte for byte.

    A step line's amplitude text is its pair texts joined by "],[". Each
    distinct pair text is decoded once, in one json call; if that call
    yields one [re, im] pair of numbers per distinct text, no text held a
    bracket, so each is exactly one pair of the JSON text and decodes as
    json.loads of the whole would decode it.

    Each line is read as a change from the line before (the first, from an
    empty line at the head's end). The longest run the two share at the
    start is cut back to its last "],[", and the run they share at the end
    to its first. "],[" cannot overlap itself, so each separator in those
    runs is a separator of both lines, and the pair texts before the first
    cut and after the second are the same texts in both. They were decoded
    and checked with the line before, so its amplitudes are reused for
    them, and only the pair texts between the cuts are split and decoded."""
    try:
        head = _HEAD.match(text)
        if head is None:
            return None
        n, algorithm, seed = int(head[1]), json.loads(head[2]), int(head[3])
        if _head(n, seed, algorithm) != head[0]:
            return None
        pos, steps = head.end(), []
        last_start = last_end = pos
        while (step := _STEP.match(text, pos)) and bool(step[1]) == bool(steps):
            start = step.end()
            # The amplitudes end at the last "]]}" before the line's newline;
            # text with no newline left cannot match the tail.
            end = text.rfind("]]}", start, text.find("\n", start))
            if end < 0:
                return None
            lo, hi, before, after = start, end, 0, 0
            limit = min(end - start, last_end - last_start)
            shared = _shared_run(text, last_start, start, limit, False)
            cut = text.rfind("],[", last_start, last_start + shared)
            if cut >= 0:
                cut += len("],[")
                before, lo = text.count("],[", last_start, cut), start + (cut - last_start)
            shared = _shared_run(text, last_end, end, limit - shared, True)
            cut = text.find("],[", last_end - shared, last_end)
            if cut >= 0:
                after, hi = text.count("],[", cut, last_end), end - (last_end - cut)
            changed = _decode_pairs(text[lo:hi].split("],["))
            if changed is None:
                return None
            if before or after:
                last = steps[-1][1]
                changed = np.concatenate((last[:before], changed, last[len(last) - after:]))
            steps.append((json.loads(step[2]), changed))
            last_start, last_end = start, end
            pos = end + len("]]}")
        tail = _TAIL.fullmatch(text, pos)
        if tail is None:
            return None
        outcome, evals = int(tail[1]), int(tail[2])
        if _tail(len(steps), outcome, evals) != tail[0]:
            return None
        return TraceDocument(n, seed, steps, outcome, evals, algorithm)
    except ValueError:
        return None


def _parse_trace_json(text: str | bytes) -> TraceDocument:
    where = "trace document"
    raw = _load_object(text, TRACE_FORMAT_VERSION, where, _pack_steps)
    n = _as_int(raw.get("n"), f"{where}: n")
    rng = raw.get("rng")
    if not isinstance(rng, dict):
        raise ValueError(f"{where}: rng: expected an object")
    algorithm = _require_str(rng.get("algorithm"), f"{where}: rng.algorithm")
    seed = _as_int(rng.get("seed"), f"{where}: rng.seed")
    steps: list[tuple[str, np.ndarray]] = []
    for spot, entry in _objects(raw, "steps", where):
        label = _require_str(entry.get("label"), f"{spot}.label")
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
    lines = ",\n".join(f'    {{"type": {json.dumps(g.kind)}, "target": {g.target}, '
                       f'"controls": [{", ".join(map(str, g.controls))}]}}' for g in circuit.gates)
    gates = f"\n{lines}\n  " if lines else ""
    return (f'{{\n  "format_version": {json.dumps(CIRCUIT_FORMAT_VERSION)},\n'
            f'  "wires": {circuit.wires},\n  "gates": [{gates}]\n}}\n')


def parse_circuit_document(text: str) -> ReversibleCircuit:
    where = "circuit document"
    raw = _load_object(text, CIRCUIT_FORMAT_VERSION, where)
    wires = _as_int(raw.get("wires"), f"{where}: wires", minimum=1)
    gates = []
    for spot, entry in _objects(raw, "gates", where):
        kind = _require_str(entry.get("type"), f"{spot}.type")
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
