"""Elementary gate matrices and Pauli constants shared across modules."""

from __future__ import annotations

import functools
import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = (X + Z) / np.sqrt(2)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

# Native entangling gate exp(i pi/4 Z x Z).
UZZ = np.diag(np.exp(1j * np.pi / 4 * np.array([1, -1, -1, 1]))).astype(complex)

_AXES = {"x": X, "y": Y, "z": Z}


def rot(axis: str, theta: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta/2 P_axis)."""
    p = _AXES[axis]
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * p


def rx(theta: float) -> np.ndarray:
    return rot("x", theta)


def ry(theta: float) -> np.ndarray:
    return rot("y", theta)


def rz(theta: float) -> np.ndarray:
    return rot("z", theta)


def native_gate(name: str, angle: float | None = None) -> np.ndarray:
    """Matrix of one native op: "rx"/"ry"/"rz" at `angle`, or "uzz"."""
    return UZZ if name == "uzz" else rot(name[1], angle)


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@functools.lru_cache(maxsize=None)
def pauli_strings(n: int) -> np.ndarray:
    """Every n-qubit Pauli string's matrix, stacked in product("IXYZ") order
    (wire 0 is the first letter; entry 0 is the identity).  Read-only."""
    mats = np.stack([kron_all(*[PAULI[c] for c in p])
                     for p in itertools.product("IXYZ", repeat=n)])
    mats.flags.writeable = False
    return mats


def embed(gate: np.ndarray, wires: tuple, n_wires: int) -> np.ndarray:
    """Expand a 1- or 2-qubit gate acting on `wires` to the full register.

    Wire 0 is the most significant bit of the basis-state index.
    """
    n_g = len(wires)
    if gate.shape != (2 ** n_g, 2 ** n_g):
        raise ValueError("gate shape does not match wire count")
    g = gate.reshape((2,) * (2 * n_g))
    dim = 2 ** n_wires
    full = np.eye(dim, dtype=complex).reshape((2,) * (2 * n_wires))
    axes_in = [w for w in wires]
    res = np.tensordot(g, full, axes=(list(range(n_g, 2 * n_g)), axes_in))
    # tensordot puts the gate output axes first; move them back to wire slots
    order = []
    gate_axes = list(range(n_g))
    rest = list(range(n_g, 2 * n_wires))
    pos = {}
    k = 0
    for ax in range(2 * n_wires):
        if ax in axes_in:
            pos[ax] = gate_axes[axes_in.index(ax)]
        else:
            pos[ax] = rest[k]
            k += 1
    order = [pos[ax] for ax in range(2 * n_wires)]
    res = res.transpose(order)
    return res.reshape(dim, dim)


def global_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b after optimal global phase alignment."""
    inner = np.trace(a.conj().T @ b)
    if abs(inner) < 1e-300:
        return float(np.linalg.norm(a - b))
    phase = inner / abs(inner)
    return float(np.linalg.norm(a * phase - b))
