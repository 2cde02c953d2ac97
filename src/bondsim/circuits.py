"""Sequential state-preparation circuits with mid-circuit measurement and reset.

A half-infinite MPS on 1 + n_b qubits is generated by repeating
[Reset(system), U(system + bond)]; measuring the system qubit between
iterations samples local observables of the chain, and a terminal
basis-rotation + measurement block on the bond register performs state
tomography of the half-chain entanglement.

A circuit says "block x j": its iterations are one tuple of op objects,
repeated, and every later stage keeps that sharing.  Circuit.map_ops, which
compile_circuit and noise.fold_circuit use, maps each distinct op object
once, and the simulator finds the repetition by identity.

Wire convention everywhere: wire 0 = system qubit, wires 1..n_b = bond
register.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .ansatz import AnsatzParams, ansatz_gate_sequence
from .gates import H, I2
from .kak import NativeCircuitFragment, decompose_to_native
from .mps import BondsimError

__all__ = [
    "Circuit",
    "CircuitOp",
    "build_state_prep_circuit",
    "compile_circuit",
    "gate",
    "leak_check",
    "measure",
    "reset",
    "tomography_settings",
]

_BASES = ("X", "Y", "Z")

# Rotations mapping each measurement basis onto the computational (Z) axis:
# R P R^dag = Z.
BASIS_ROTATION = {
    "X": H,
    "Y": H @ np.diag([1.0, -1.0j]),  # H S^dag
    "Z": I2.copy(),
}


@dataclass(frozen=True)
class CircuitOp:
    """One circuit instruction.

    kind "gate":       unitary (and optionally its native fragment) on wires
    kind "measure":    single-wire measurement in a Pauli basis, labeled
    kind "reset":      trace out a wire and reinitialize it to |0>
    kind "leak_check": flag shots where any listed wire leaked, labeled
    """

    kind: str
    wires: tuple
    unitary: np.ndarray | None = None
    fragment: NativeCircuitFragment | None = None
    basis: str | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in ("gate", "measure", "reset", "leak_check"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "measure" and self.basis not in _BASES:
            raise ValueError(f"bad measurement basis {self.basis!r}")


def gate(unitary: np.ndarray, wires: tuple,
         fragment: NativeCircuitFragment | None = None) -> CircuitOp:
    return CircuitOp(kind="gate", wires=tuple(wires), unitary=unitary,
                     fragment=fragment)


def measure(wire: int, basis: str, label: str) -> CircuitOp:
    return CircuitOp(kind="measure", wires=(wire,), basis=basis, label=label)


def reset(wire: int) -> CircuitOp:
    return CircuitOp(kind="reset", wires=(wire,))


def leak_check(wires: tuple, label: str) -> CircuitOp:
    return CircuitOp(kind="leak_check", wires=tuple(wires), label=label)


@dataclass(frozen=True)
class Circuit:
    n_wires: int
    ops: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for op in self._distinct().values():
            if any(w < 0 or w >= self.n_wires for w in op.wires):
                raise ValueError("op wires out of range")

    def _distinct(self) -> dict:
        """id -> op, for each distinct op object, in first-seen order."""
        return {id(op): op for op in self.ops}

    def map_ops(self, fn, **metadata) -> "Circuit":
        """The circuit with each distinct op object replaced by fn(op),
        computed once, so the result shares ops as this one does; metadata
        entries are added to a copy of this circuit's."""
        new = {key: fn(op) for key, op in self._distinct().items()}
        return Circuit(n_wires=self.n_wires,
                       ops=tuple(new[id(op)] for op in self.ops),
                       metadata={**self.metadata, **metadata})

    def labels(self) -> list:
        return [op.label for op in self.ops if op.label is not None]

    def count_uzz(self) -> int:
        """U_zz in the native fragments, counted once per distinct op."""
        per_op = {key: op.fragment.uzz_count
                  for key, op in self._distinct().items()
                  if op.kind == "gate" and op.fragment is not None}
        return sum(per_op.get(id(op), 0) for op in self.ops)


def _gate_sequence(u) -> list:
    """(matrix, wires) gates for one iteration's site unitary."""
    if isinstance(u, AnsatzParams):
        # A two-qubit layout compiles best as one gate; a wider one tile by tile.
        if u.mode == "ansatz" and u.n_b > 1:
            return ansatz_gate_sequence(np.asarray(u.angles), u.n_b)
        u = u.unitary()
    u = np.asarray(u, dtype=complex)
    if u.shape == (4, 4):
        return [(u, (0, 1))]
    if u.shape == (8, 8):
        # No three-qubit synthesis: an 8x8 gate stays monolithic and can only
        # be simulated exactly; tiled layouts should pass AnsatzParams.
        return [(u, (0, 1, 2))]
    raise ValueError("site unitary must act on 2 or 3 qubits")


def build_state_prep_circuit(u, prep: np.ndarray | None, j: int,
                             purpose: str = "energy",
                             schedule: list | None = None,
                             setting: tuple | None = None,
                             bond_frame: list | None = None) -> Circuit:
    """Assemble the j-iteration sequential preparation circuit.

    u: site unitary (AnsatzParams, 4x4, or 8x8 matrix).
    prep: boundary-preparation unitary W on the bond register, W|0...0> =
      |L> (None = |0...0>).
    purpose "energy": measure the system qubit per `schedule`, a list of
      (iteration, basis) pairs; default bases X, Z, Z on iterations
      j-2, j-1, j.  Each measured iteration's qubit is reset at the start
      of the next iteration (measure as soon as possible).
    purpose "tomography": no system measurements; terminal basis-rotation +
      measurement block on the bond register per `setting`, a tuple of one
      basis letter per bond wire.
    bond_frame: optional (matrix, wires) gates applied to the bond register
      after the last iteration (a gauge change of the measured bond basis).

    Every iteration appends the same tuple of op objects, [reset(0); site
    gates], so the circuit holds each of them once however large j is.
    """
    seq = _gate_sequence(u)
    n_wires = max(max(w) for _, w in seq) + 1
    n_b = n_wires - 1
    if j < 1:
        raise ValueError("need at least one iteration")
    if purpose not in ("energy", "tomography"):
        raise ValueError(f"unknown purpose {purpose!r}")
    meas_plan: dict[int, str] = {}
    if purpose == "energy":
        if schedule is None:
            if j < 3:
                raise ValueError("default X,Z,Z schedule needs j >= 3")
            schedule = [(j - 2, "X"), (j - 1, "Z"), (j, "Z")]
        meas_plan = {it: basis for it, basis in schedule}
        if len(meas_plan) != len(schedule):
            raise ValueError("duplicate iterations in schedule")
        if any(it < 1 or it > j for it in meas_plan):
            raise ValueError("schedule extends beyond the circuit")
    ops: list[CircuitOp] = []
    if prep is not None:
        ops.append(gate(np.asarray(prep, dtype=complex),
                        tuple(range(1, n_b + 1))))
    site = (reset(0), *(gate(m, wires) for m, wires in seq))
    for it in range(1, j + 1):
        ops.extend(site)
        if it in meas_plan:
            ops.append(measure(0, meas_plan[it], label=f"m{it}:{meas_plan[it]}"))
    if bond_frame is not None:
        for m, wires in bond_frame:
            ops.append(gate(np.asarray(m, dtype=complex), tuple(wires)))
    ops.append(leak_check(tuple(range(n_wires)), label="leak"))
    if purpose == "tomography":
        if setting is None:
            setting = ("Z",) * n_b
        if len(setting) != n_b:
            raise ValueError("tomography setting must give one basis per bond wire")
        for k, basis in enumerate(setting):
            wire = 1 + k
            if basis != "Z":
                ops.append(gate(BASIS_ROTATION[basis], (wire,)))
            ops.append(measure(wire, "Z", label=f"b{wire}:{basis}"))
    meta = {"iterations": j, "purpose": purpose, "n_b": n_b}
    if isinstance(u, AnsatzParams):
        meta.update({"lambda": u.lam, "chi": 2 ** u.n_b, "mode": u.mode})
    if setting is not None:
        meta["setting"] = "".join(setting)
    return Circuit(n_wires=n_wires, ops=tuple(ops), metadata=meta)


def tomography_settings(n_b: int, restricted: bool = False) -> list:
    """Measurement settings (one basis per bond wire) for bond tomography.

    n_b=1: {X, Y, Z}.  n_b=2 full: all 9 pairs.  n_b=2 restricted: the three
    settings {(X,X), (Y,Z), (Z,Y)} that cover every Pauli coefficient allowed
    by the Ising-flip symmetry {II, IX, XI, XX, YZ, ZY}.
    """
    if n_b == 1:
        return [("X",), ("Y",), ("Z",)]
    if n_b == 2:
        if restricted:
            return [("X", "X"), ("Y", "Z"), ("Z", "Y")]
        return [(a, b) for a in _BASES for b in _BASES]
    raise ValueError("tomography settings defined for n_b in {1, 2}")


@functools.lru_cache(maxsize=64)
def _fragment(u_bytes: bytes, wires: tuple, n_wires: int) -> NativeCircuitFragment:
    """decompose_to_native of the gate with these bytes, memoized across
    circuits: one chi=4 point's circuits repeat 20 distinct gates."""
    d = 2 ** len(wires)
    u = np.frombuffer(u_bytes, dtype=complex).reshape(d, d)
    return decompose_to_native(u, wires=wires, n_wires=n_wires)


def _bare(op: CircuitOp) -> bool:
    return op.kind == "gate" and op.fragment is None


def compile_circuit(circuit: Circuit) -> Circuit:
    """Attach native fragments to every gate op (required for noisy runs).

    Each distinct op object is compiled once (Circuit.map_ops), so the
    compiled circuit shares ops as its input does, and each distinct
    (unitary, wires) pair is decomposed once, also across calls.  A circuit
    whose gate ops all carry fragments is returned as it is.
    """
    if not any(map(_bare, circuit.ops)):
        return circuit

    def native(op):
        if not _bare(op):
            return op
        if op.unitary.shape[0] > 4:
            raise BondsimError("cannot compile a three-qubit gate to native "
                               "form; use a tiled layout")
        u = np.asarray(op.unitary, dtype=complex).tobytes()
        return replace(op, fragment=_fragment(u, op.wires, circuit.n_wires))

    return circuit.map_ops(native)
