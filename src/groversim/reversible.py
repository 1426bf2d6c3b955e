"""Reversible boolean circuits: NOT/CNOT/Toffoli gates, a one-bit adder,
exhaustive bijection checking, and lifting circuits to index permutations.

Bit-vectors use the same convention as basis indices: wire i is bit i of
the packed index, so wire 0 is the least significant bit.

Two routes run a circuit: run_circuit takes one input at a time, and
circuit_to_permutation lifts the whole circuit bit-sliced (Biham, FSE
1997). The lift writes down each wire's plane of one bit per input for the
identity, runs every gate as one or two uint8 operations on whole planes,
and turns the planes into the index table with one 8x8 bit-matrix
transpose.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .state import DEFAULT_MAX_QUBITS, MAX_INDEX_QUBITS, ResourceLimitError
from .state import _as_int, _is_permutation

GATE_CONTROL_COUNTS = {"NOT": 0, "CNOT": 1, "TOFFOLI": 2}


@dataclass(frozen=True)
class Gate:
    """One reversible gate; controls are distinct from the target."""

    kind: str
    target: int
    controls: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GATE_CONTROL_COUNTS:
            raise ValueError(
                f"unknown gate kind {self.kind!r}; expected one of {sorted(GATE_CONTROL_COUNTS)}"
            )
        _as_int(self.target, "target", 0)
        controls = tuple(_as_int(c, f"controls[{j}]", 0) for j, c in enumerate(self.controls))
        object.__setattr__(self, "controls", controls)
        want = GATE_CONTROL_COUNTS[self.kind]
        if len(self.controls) != want:
            raise ValueError(f"{self.kind} takes {want} controls, got {len(self.controls)}")
        wires = (self.target, *self.controls)
        if len(set(wires)) != len(wires):
            raise ValueError(f"target and controls must be distinct, got {wires}")

    @staticmethod
    def not_(target: int) -> "Gate":
        return Gate("NOT", target)

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate("CNOT", target, (control,))

    @staticmethod
    def toffoli(control_a: int, control_b: int, target: int) -> "Gate":
        return Gate("TOFFOLI", target, (control_a, control_b))


@dataclass(frozen=True)
class ReversibleCircuit:
    """A fixed wire count and an ordered gate sequence."""

    wires: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        _as_int(self.wires, "wires", 1)
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, gate in enumerate(self.gates):
            top = max((gate.target, *gate.controls))
            if top >= self.wires:
                raise ValueError(
                    f"gates[{i}] touches wire {top}, but the circuit has {self.wires} wires"
                )


def _as_bits(bits: Sequence[int]) -> list[int]:
    return [_as_int(b, f"bits[{i}]", 0, 1) for i, b in enumerate(bits)]


def apply_gate(bits: Sequence[int], gate: Gate) -> list[int]:
    """Apply one gate to a classical bit-vector, returning a new list.

    The target flips exactly when every control bit is 1; a NOT has no
    controls and always flips.
    """
    out = _as_bits(bits)
    top = max((gate.target, *gate.controls))
    if top >= len(out):
        raise ValueError(f"gate touches wire {top}, but the input has {len(out)} bits")
    _flip(out, gate)
    return out


def _flip(bits: list[int], gate: Gate) -> None:
    """apply_gate in place on bits already checked, wide enough for gate."""
    if all(bits[c] for c in gate.controls):
        bits[gate.target] ^= 1


def run_circuit(circuit: ReversibleCircuit, bits: Sequence[int]) -> list[int]:
    """Run every gate in order on an input of matching width; the input is
    checked once, and the circuit already keeps its gates on its wires."""
    if len(bits) != circuit.wires:
        raise ValueError(f"input has {len(bits)} bits, circuit has {circuit.wires} wires")
    out = _as_bits(bits)
    for gate in circuit.gates:
        _flip(out, gate)
    return out


def adder_circuit() -> ReversibleCircuit:
    """One-bit adder on wires (a, b, c).

    With c = 0 on input, the output is (a, a XOR b, a AND b), i.e. wire 1
    carries the sum and wire 2 the carry. The Toffoli must come first so
    the carry reads the original b.
    """
    return ReversibleCircuit(3, (Gate.toffoli(0, 1, 2), Gate.cnot(0, 1)))


def inverse_circuit(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Reverse the gate order; each gate is its own inverse."""
    return ReversibleCircuit(circuit.wires, tuple(reversed(circuit.gates)))


def bits_to_index(bits: Sequence[int]) -> int:
    """Pack a bit-vector little-endian: bits[i] becomes bit i."""
    value = 0
    for i, b in enumerate(_as_bits(bits)):
        value |= b << i
    return value


def index_to_bits(value: int, width: int) -> list[int]:
    """Unpack an index into `width` bits (at most 62), wire 0 first."""
    size = 1 << _as_int(width, "width", 1, MAX_INDEX_QUBITS)
    _as_int(value, "value", 0, size - 1)
    return [(value >> i) & 1 for i in range(width)]


def check_bijection(table: Sequence[Sequence[int]]) -> bool:
    """True iff a full truth table (one output row per input) is a bijection.

    The table must have 2**w rows of width w, row x holding the output for
    input x; it is a bijection exactly when no output repeats.
    """
    if len(table) == 0:
        raise ValueError("truth table is empty")
    width = len(table[0])
    if len(table) != 1 << width:
        raise ValueError(f"table has {len(table)} rows, expected {1 << width} for width {width}")
    values = np.empty(len(table), dtype=np.int64)
    for x, row in enumerate(table):
        if len(row) != width:
            raise ValueError(f"row {list(row)} does not have width {width}")
        values[x] = bits_to_index(row)
    return _is_permutation(values)


# The three delta swaps of an 8x8 bit-matrix transpose held in one uint64,
# row k in byte k (Warren, Hacker's Delight, section 7-3); as numpy scalars,
# so no Python int is converted on each call.
_TRANSPOSE8 = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transpose8(words: np.ndarray) -> None:
    """Transpose the 8x8 bit matrix in each uint64 of words, in place."""
    t = np.empty_like(words)
    for shift, mask in _TRANSPOSE8:
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t


def _run_on_planes(planes: np.ndarray, gates: Sequence[Gate]) -> None:
    """Run the gates in place on packed wire planes, planes[i] for wire i.

    A function of its own so that no plane view outlives the gates, and the
    lift can free the planes before it transposes them."""
    for gate in gates:
        target = planes[gate.target]
        if gate.kind == "NOT":
            np.invert(target, out=target)
        elif gate.kind == "CNOT":
            target ^= planes[gate.controls[0]]
        else:
            target ^= planes[gate.controls[0]] & planes[gate.controls[1]]


def circuit_to_permutation(
    circuit: ReversibleCircuit, max_wires: int = DEFAULT_MAX_QUBITS
) -> np.ndarray:
    """Permutation p over basis indices with p[x] = circuit output on x.

    The lift is bit-sliced: it runs the gates on all 2**w inputs at once as
    boolean operations on packed wire planes, 8 inputs to a byte (one byte
    below 3 wires). Bit k of byte j of wire i's plane is bit i of input
    8j + k, so the identity's planes are fixed: 0xAA, 0xCC and 0xF0 for
    wires 0-2, and runs of 2**(i-3) bytes of 0x00, then 0xFF, for wire i.
    A NOT inverts a plane, a CNOT xors one into another and a Toffoli xors
    in the AND of two. One 8x8 bit transpose of the planes of wires
    8g..8g+7 gives byte g of 8 consecutive entries of the explicitly
    little-endian table, which a big-endian host builds the same. The lift
    allocates 8 bytes per input for the table and 1 per group of 8 wires;
    over the cap it raises ResourceLimitError, and under it over 62 wires
    (the int64 index limit) ValueError, before any is allocated.

    Every gate flips its target under a condition that does not read the
    target, so the table is a bijection by construction and is not
    recounted here; `circuit verify` and apply_permutation check it.
    """
    cap = _as_int(max_wires, "max_wires", 1)
    if circuit.wires > cap:
        raise ResourceLimitError(f"circuit has {circuit.wires} wires; cap is {cap}")
    size = 1 << _as_int(circuit.wires, "wires", 1, MAX_INDEX_QUBITS)
    groups = -(-circuit.wires // 8)
    planes = np.zeros((8 * groups, max(size, 8) >> 3), dtype=np.uint8)
    planes[:3] = [[0xAA], [0xCC], [0xF0]]
    for w in range(3, circuit.wires):
        planes[w].reshape(-1, 2, 1 << (w - 3))[:, 1] = 0xFF
    _run_on_planes(planes, circuit.gates)
    # cols[g, j] holds byte j of the planes of wires 8g..8g+7, one to a byte.
    cols = np.ascontiguousarray(planes.reshape(groups, 8, -1).transpose(0, 2, 1))
    del planes
    _transpose8(cols.view("<u8"))
    values = np.zeros(max(size, 8), dtype="<i8")
    table = values.view("<u1").reshape(-1, 8)  # row x: the bytes of x, low byte first
    # One column at a time: a single strided write of all of them is far slower.
    for g in range(groups):
        table[:, g] = cols[g].reshape(-1)
    return values[:size].astype(np.int64, copy=False)
