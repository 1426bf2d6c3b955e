"""Reversible boolean circuits: NOT/CNOT/Toffoli gates, a one-bit adder,
exhaustive bijection checking, and lifting circuits to index permutations.

Bit-vectors use the same convention as basis indices: wire i is bit i of
the packed index, so wire 0 is the least significant bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .state import DEFAULT_MAX_QUBITS, ResourceLimitError

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
        object.__setattr__(self, "target", int(self.target))
        object.__setattr__(self, "controls", tuple(int(c) for c in self.controls))
        want = GATE_CONTROL_COUNTS[self.kind]
        if len(self.controls) != want:
            raise ValueError(f"{self.kind} takes {want} controls, got {len(self.controls)}")
        wires = (self.target, *self.controls)
        if any(w < 0 for w in wires):
            raise ValueError(f"wire indices must be nonnegative, got {wires}")
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
        if self.wires < 1:
            raise ValueError(f"need at least one wire, got {self.wires}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, gate in enumerate(self.gates):
            top = max((gate.target, *gate.controls))
            if top >= self.wires:
                raise ValueError(
                    f"gates[{i}] touches wire {top}, but the circuit has {self.wires} wires"
                )


def _as_bits(bits: Sequence[int]) -> list[int]:
    out = [int(b) for b in bits]
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"bits must be 0 or 1, got {list(bits)}")
    return out


def apply_gate(bits: Sequence[int], gate: Gate) -> list[int]:
    """Apply one gate to a classical bit-vector, returning a new list.

    The target flips exactly when every control bit is 1; a NOT has no
    controls and always flips.
    """
    out = _as_bits(bits)
    top = max((gate.target, *gate.controls))
    if top >= len(out):
        raise ValueError(f"gate touches wire {top}, but the input has {len(out)} bits")
    if all(out[c] for c in gate.controls):
        out[gate.target] ^= 1
    return out


def run_circuit(circuit: ReversibleCircuit, bits: Sequence[int]) -> list[int]:
    """Run every gate in order on an input of matching width."""
    if len(bits) != circuit.wires:
        raise ValueError(f"input has {len(bits)} bits, circuit has {circuit.wires} wires")
    out = _as_bits(bits)
    for gate in circuit.gates:
        out = apply_gate(out, gate)
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
    """Unpack an index into `width` bits, wire 0 first."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not 0 <= value < 1 << width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def _is_permutation(values: np.ndarray) -> bool:
    """True iff values holds each index 0..len(values)-1 exactly once."""
    return bool((np.bincount(values, minlength=len(values)) == 1).all())


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


def circuit_to_permutation(
    circuit: ReversibleCircuit, max_wires: int = DEFAULT_MAX_QUBITS
) -> np.ndarray:
    """Permutation p over basis indices with p[x] = circuit output on x.

    Every gate flips its target under a condition that does not read the
    target, so the table is a bijection by construction and is not
    recounted here; `circuit verify` and apply_permutation check it.
    """
    if circuit.wires > max_wires:
        raise ResourceLimitError(f"circuit has {circuit.wires} wires; cap is {max_wires}")
    size = 1 << circuit.wires
    values = np.arange(size, dtype=np.int64)
    for gate in circuit.gates:
        condition = np.ones(size, dtype=bool)
        for c in gate.controls:
            condition &= ((values >> c) & 1).astype(bool)
        values = np.where(condition, values ^ (1 << gate.target), values)
    return values
