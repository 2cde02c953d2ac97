"""Stochastic noise model, gate folding, and zero-noise extrapolation.

The error budget mirrors a trapped-ion QCCD machine: depolarizing noise per
two-qubit entangler and per single-qubit rotation, leakage out of the qubit
subspace per entangler, and spectator depolarization of the bond register
during every mid-circuit measurement or reset of the system qubit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace as _dc_replace

import numpy as np

from .circuits import Circuit
from .kak import NativeCircuitFragment

__all__ = [
    "NoiseModel",
    "depolarize",
    "fold_circuit",
    "leakage_postselect",
    "zne_extrapolate",
]


@dataclass(frozen=True)
class NoiseModel:
    """Error rates; the defaults are the reference hardware profile."""

    p2: float = 0.008        # two-qubit depolarizing per U_zz
    p1: float = 0.0003       # single-qubit depolarizing per rotation
    p_leak: float = 0.001    # leakage probability per U_zz per qubit
    eps_meas: float = 0.002  # bond-wire depolarizing per mid-circuit measure
    eps_reset: float = 0.0004  # bond-wire depolarizing per mid-circuit reset

    def __post_init__(self):
        for name, val in asdict(self).items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be a probability, got {val}")

    @property
    def trivial(self) -> bool:
        return all(v == 0.0 for v in asdict(self).values())

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(p2=0.0, p1=0.0, p_leak=0.0, eps_meas=0.0, eps_reset=0.0)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        return cls(**json.loads(text))

    @classmethod
    def load(cls, path) -> "NoiseModel":
        with open(path) as fh:
            return cls.from_json(fh.read())


def depolarize(rho: np.ndarray, wires: tuple, p: float,
               n_wires: int) -> np.ndarray:
    """rho -> (1-p) rho + p (Tr_wires rho) x I/d on the targeted wires.

    rho may carry leading batch axes, shape (..., 2^n_wires, 2^n_wires);
    every matrix in the batch gets the same channel.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if p == 0.0:
        return rho
    mixed = rho
    for w in wires:
        # Trace out one wire and put I/2 back in its place.  Wire 0 is the
        # most significant bit of the basis-state index.
        lo, hi = 2 ** w, 2 ** (n_wires - 1 - w)
        t = mixed.reshape(rho.shape[:-2] + (lo, 2, hi, lo, 2, hi))
        mixed = np.zeros_like(t)
        mixed[..., :, 0, :, :, 0, :] = mixed[..., :, 1, :, :, 1, :] = 0.5 * (
            t[..., :, 0, :, :, 0, :] + t[..., :, 1, :, :, 1, :])
        mixed = mixed.reshape(rho.shape)
    # At p = 1, (1-p) rho + p mixed is mixed up to the sign of a zero.
    return mixed if p == 1.0 else (1.0 - p) * rho + p * mixed


def _fold_fragment(frag: NativeCircuitFragment) -> NativeCircuitFragment:
    """Replace each U_zz by U_zz^3 followed by a Z x Z frame (net identity).

    Uses U_zz = i (Rz(pi) x Rz(pi)) U_zz^3, so the folded fragment is
    unitarily identical to the original, phase included, while tripling the
    physical entangler count.
    """
    ops = []
    phase = frag.phase
    for name, wires, angle in frag.ops:
        if name == "uzz":
            ops.extend([(name, wires, angle)] * 3)
            ops.append(("rz", (wires[0],), np.pi))
            ops.append(("rz", (wires[1],), np.pi))
            phase = phase * 1j
        else:
            ops.append((name, wires, angle))
    return NativeCircuitFragment(n_wires=frag.n_wires, ops=ops, phase=phase)


def fold_circuit(circuit: Circuit) -> Circuit:
    """Triple every entangler in a native-compiled circuit.  Each distinct
    op object is folded once (Circuit.map_ops), so the folded circuit
    shares ops as its input does."""

    def fold(op):
        if op.kind != "gate":
            return op
        if op.fragment is None:
            raise ValueError("fold_circuit needs native fragments;"
                             " run compile_circuit first")
        return _dc_replace(op, fragment=_fold_fragment(op.fragment))

    return circuit.map_ops(fold, folded=True)


def zne_extrapolate(base, folded):
    """Linear extrapolation to zero noise of values (numbers or arrays) from
    a circuit and its noise-folded copy: E_0 = E_1 - (E_3 - E_1) / 2."""
    return base - 0.5 * (folded - base)


def leakage_postselect(shots, check_label: str = "leak") -> tuple:
    """Drop shots whose leak-check flag fired; report the retention fraction.

    Takes and returns a ``simulator.ShotTable``: (kept shots, retention).
    Raises if the label was never recorded or if there are no shots.
    """
    if not len(shots):
        raise ValueError("no shots to filter")
    kept = shots[shots.column(check_label) == 1]
    return kept, len(kept) / len(shots)
