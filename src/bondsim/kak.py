"""Compilation of one- and two-qubit unitaries into the native gate set.

Native operations are arbitrary-angle single-qubit rotations and the fixed
entangler U_zz = exp(i pi/4 Z x Z).  Two-qubit unitaries go through the
Cartan (KAK) decomposition

    U = e^{i phi} (g1 x g2) exp(i (a XX + b YY + c ZZ)) (g3 x g4),

with each coordinate in [-pi/4, pi/4] (multiples of pi/2 fold into g1 x g2).
Every gate compiles on one path: g3 x g4, a core read off (a, b, c), g1 x g2.
The core is empty for tensor products, one U_zz for the controlled-phase
class (one coordinate at +-pi/4, the others zero), and otherwise three U_zz
in closed form (Vatan & Williams, PRA 69, 032315 (2004)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import (H, X, Y, Z, embed, global_phase_distance, native_gate,
                    rx, ry, rz)

__all__ = [
    "NativeCircuitFragment",
    "compile_one_qubit",
    "compile_two_qubit",
    "decompose_to_native",
    "euler_zyz",
    "kak_decompose",
]

# Magic basis: conjugation maps SU(2) x SU(2) onto SO(4).
_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2)

@dataclass
class NativeCircuitFragment:
    """Ordered native ops plus an explicit global phase.

    Each op is ("rx"|"ry"|"rz", (wire,), angle) or ("uzz", (w0, w1), None).
    Ops apply left-to-right (first list element acts first).
    """

    n_wires: int
    ops: list = field(default_factory=list)
    phase: complex = 1.0 + 0.0j

    @property
    def uzz_count(self) -> int:
        return sum(1 for op in self.ops if op[0] == "uzz")

    def matrix(self) -> np.ndarray:
        dim = 2 ** self.n_wires
        u = np.eye(dim, dtype=complex) * self.phase
        for name, wires, angle in self.ops:
            u = embed(native_gate(name, angle), tuple(wires), self.n_wires) @ u
        return u


def euler_zyz(u: np.ndarray) -> tuple[complex, float, float, float]:
    """Factor a 2x2 unitary as phase * Rz(a) Ry(b) Rz(c)."""
    det = np.linalg.det(u)
    phase = det ** 0.5
    su = u / phase
    b = 2 * np.arctan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) > 1e-10 and abs(su[1, 0]) > 1e-10:
        apc = -2 * np.angle(su[0, 0])
        amc = 2 * np.angle(su[1, 0])
        a, c = (apc + amc) / 2, (apc - amc) / 2
    elif abs(su[0, 0]) > 1e-10:  # diagonal
        a, c = -2 * np.angle(su[0, 0]), 0.0
    else:  # antidiagonal
        a, c = 2 * np.angle(su[1, 0]), 0.0
    rec = rz(a) @ ry(b) @ rz(c)
    # Resolve the +-pi branch of the half-angle phase.
    if np.linalg.norm(phase * rec - u) > 1e-8:
        phase = -phase
    return phase, a, b, c


class _FragmentBuilder:
    """Accumulates ops, merging pending single-qubit gates per wire."""

    def __init__(self, n_wires: int):
        self.frag = NativeCircuitFragment(n_wires=n_wires)
        self.pending = [np.eye(2, dtype=complex) for _ in range(n_wires)]

    def one_qubit(self, gate: np.ndarray, wire: int) -> None:
        self.pending[wire] = gate @ self.pending[wire]

    def _flush(self, wire: int) -> None:
        g = self.pending[wire]
        if np.linalg.norm(g - np.eye(2)) < 1e-14:
            return
        phase, a, b, c = euler_zyz(g)
        for name, angle in (("rz", c), ("ry", b), ("rz", a)):
            if abs(angle) > 1e-14:
                self.frag.ops.append((name, (wire,), angle))
        self.frag.phase *= phase
        self.pending[wire] = np.eye(2, dtype=complex)

    def uzz(self, w0: int, w1: int) -> None:
        self._flush(w0)
        self._flush(w1)
        self.frag.ops.append(("uzz", (w0, w1), None))

    def phase(self, p: complex) -> None:
        self.frag.phase *= p

    def finish(self) -> NativeCircuitFragment:
        for w in range(self.frag.n_wires):
            self._flush(w)
        return self.frag


def compile_one_qubit(u: np.ndarray, wire: int = 0, n_wires: int = 1) -> NativeCircuitFragment:
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 unitary")
    b = _FragmentBuilder(n_wires)
    b.one_qubit(u, wire)
    return b.finish()


def _kron_factor(l: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """Split a 4x4 tensor-product unitary into phase * (g1 x g2), g_i in SU(2)."""
    blocks = l.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    flat = np.abs(blocks.reshape(4, 4)).sum(axis=1)
    i, j = np.unravel_index(np.argmax(flat), (2, 2))
    g2 = blocks[i, j]
    g2 = g2 / np.sqrt(abs(np.linalg.det(g2)))
    g1 = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for c in range(2):
            g1[a, c] = np.trace(g2.conj().T @ blocks[a, c]) / 2
    g1 = g1 / np.sqrt(abs(np.linalg.det(g1)))
    kron = np.kron(g1, g2)
    inner = np.trace(kron.conj().T @ l) / 4
    if abs(inner) < 1e-8:
        raise np.linalg.LinAlgError("local factorization failed")
    phase = inner / abs(inner)
    if global_phase_distance(l, kron) > 1e-8:
        raise np.linalg.LinAlgError("matrix is not a tensor product")
    return phase, g1, g2


_DIAG_XX = np.real(np.diag(_MAGIC.conj().T @ np.kron(X, X) @ _MAGIC))
_DIAG_YY = np.real(np.diag(_MAGIC.conj().T @ np.kron(Y, Y) @ _MAGIC))
_DIAG_ZZ = np.real(np.diag(_MAGIC.conj().T @ np.kron(Z, Z) @ _MAGIC))


def _ai_kak(v: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray, np.ndarray]:
    """v = gphase * k1 diag(exp(i theta)) k2 with k1, k2 real orthogonal."""
    gphase = np.linalg.det(v) ** 0.25
    up = v / gphase
    m = up.T @ up
    # Simultaneously diagonalize Re(m) and Im(m) (commuting real symmetrics).
    for t in (0.0, 0.318309886, 0.754877666, 1.236067977):
        w, p = np.linalg.eigh(m.real + t * m.imag)
        if np.linalg.norm(p.T @ m @ p - np.diag(np.diag(p.T @ m @ p))) < 1e-9:
            break
    else:
        raise np.linalg.LinAlgError("could not diagonalize m")
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    d = np.diag(p.T @ m @ p)
    theta = np.angle(d) / 2
    # det(diag) must be 1; fold the mod-pi residue into one angle.
    resid = np.angle(np.exp(1j * theta.sum()))
    theta[0] -= resid
    k2 = p.T
    k1 = up @ p @ np.diag(np.exp(-1j * theta))
    if np.linalg.norm(k1.imag) > 1e-8 or np.linalg.norm(k2.imag) > 1e-8:
        raise np.linalg.LinAlgError("orthogonal factors not real")
    if np.linalg.norm(gphase * k1 @ np.diag(np.exp(1j * theta)) @ k2 - v) > 1e-8:
        raise np.linalg.LinAlgError("type-AI factorization failed")
    return gphase, k1.real, theta, k2.real


def _interaction(a: float, b: float, c: float) -> np.ndarray:
    m = np.cos(a) * np.eye(4) + 1j * np.sin(a) * np.kron(X, X)
    m = m @ (np.cos(b) * np.eye(4) + 1j * np.sin(b) * np.kron(Y, Y))
    m = m @ (np.cos(c) * np.eye(4) + 1j * np.sin(c) * np.kron(Z, Z))
    return m


def kak_decompose(u: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray, tuple, np.ndarray, np.ndarray]:
    """Cartan decomposition of a 4x4 unitary.

    Returns (phase, g1, g2, (a, b, c), g3, g4) with
    u = phase * (g1 x g2) exp(i (a XX + b YY + c ZZ)) (g3 x g4) and every
    coordinate reduced into [-pi/4, pi/4].
    """
    if u.shape != (4, 4):
        raise ValueError("expected a 4x4 unitary")
    gphase, k1, theta, k2 = _ai_kak(_MAGIC.conj().T @ u @ _MAGIC)
    basis = np.stack([_DIAG_XX, _DIAG_YY, _DIAG_ZZ]).T  # 4 x 3
    coeffs, *_ = np.linalg.lstsq(basis, theta, rcond=None)
    ph1, g1, g2 = _kron_factor(_MAGIC @ k1 @ _MAGIC.conj().T)
    ph2, g3, g4 = _kron_factor(_MAGIC @ k2 @ _MAGIC.conj().T)
    # Fold the nearest multiple k of pi/2 into g1 x g2: the Pauli pairs
    # commute and exp(i t PP) = i^k (P^k x P^k) exp(i (t - k pi/2) PP); the
    # phase fix below absorbs the i^k.
    for axis, pauli in enumerate((X, Y, Z)):
        k = round(coeffs[axis] / (np.pi / 2))
        coeffs[axis] -= k * np.pi / 2
        if k % 2:
            g1, g2 = g1 @ pauli, g2 @ pauli
    phase = gphase * ph1 * ph2
    rec = phase * np.kron(g1, g2) @ _interaction(*coeffs) @ np.kron(g3, g4)
    inner = np.trace(rec.conj().T @ u) / 4
    if abs(inner) < 0.5:
        raise np.linalg.LinAlgError("kak reconstruction failed")
    phase = phase * inner / abs(inner)
    return phase, g1, g2, tuple(float(c) for c in coeffs), g3, g4


# conjugations rotating exp(i t ZZ) onto the other interaction axes
_AXIS_CONJ = {0: H, 1: rx(-np.pi / 2), 2: None}  # XX, YY, ZZ


def _emit_single_uzz(b: _FragmentBuilder, axis: int, t: float, w0: int, w1: int) -> None:
    """Append exp(i t P P), t = +-pi/4, using one U_zz."""
    conj = _AXIS_CONJ[axis]
    if conj is not None:
        b.one_qubit(conj.conj().T, w0)
        b.one_qubit(conj.conj().T, w1)
    if t < 0:
        b.one_qubit(X, w0)
    b.uzz(w0, w1)
    if t < 0:
        b.one_qubit(X, w0)
    if conj is not None:
        b.one_qubit(conj, w0)
        b.one_qubit(conj, w1)


def _emit_cnot(b: _FragmentBuilder, control: int, target: int) -> None:
    """CNOT = (H on target) CZ (H on target); CZ = e^{i pi/4} U_zz (Rz(pi/2) x Rz(pi/2))."""
    b.one_qubit(H, target)
    b.one_qubit(rz(np.pi / 2), control)
    b.one_qubit(rz(np.pi / 2), target)
    b.uzz(control, target)
    b.phase(np.exp(1j * np.pi / 4))
    b.one_qubit(H, target)


def _emit_core(b: _FragmentBuilder, a: float, bb: float, c: float,
               u: int, v: int) -> None:
    """Append e^{-i pi/4} exp(i (a XX + bb YY + c ZZ)) on wires (u, v) with
    three CNOTs (Vatan & Williams, PRA 69, 032315 (2004)); the interaction
    is symmetric under a swap of the wires."""
    b.one_qubit(rz(np.pi / 2), v)
    _emit_cnot(b, v, u)
    b.one_qubit(rz(np.pi / 2 - 2 * c), u)
    b.one_qubit(ry(np.pi / 2 - 2 * a), v)
    _emit_cnot(b, u, v)
    b.one_qubit(ry(2 * bb - np.pi / 2), v)
    _emit_cnot(b, v, u)
    b.one_qubit(rz(-np.pi / 2), u)


def compile_two_qubit(u: np.ndarray, wires: tuple = (0, 1),
                      n_wires: int = 2) -> NativeCircuitFragment:
    """Compile a 4x4 unitary into single-qubit rotations and U_zz gates.

    One path for every gate: g3 x g4, the core of its class read off the
    reduced Cartan coordinates, then g1 x g2.  Tensor products (no active
    coordinate) need no core; one active coordinate at a quarter turn (the
    controlled-phase class) needs one U_zz; everything else takes the
    closed-form three-U_zz core (Vatan & Williams 2004).
    """
    if u.shape != (4, 4):
        raise ValueError("expected a 4x4 unitary")
    w0, w1 = wires
    phase, g1, g2, coeffs, g3, g4 = kak_decompose(u)
    active = [k for k, t in enumerate(coeffs) if abs(np.sin(2 * t)) > 1e-10]
    builder = _FragmentBuilder(n_wires)
    builder.one_qubit(g3, w0)
    builder.one_qubit(g4, w1)
    if len(active) == 1 and abs(np.cos(2 * coeffs[active[0]])) < 1e-10:
        _emit_single_uzz(builder, active[0], coeffs[active[0]], w0, w1)
    elif active:
        # e^{-i pi/4} times the interaction; the wires enter swapped, which
        # saves rotations.
        phase *= np.exp(1j * np.pi / 4)
        _emit_core(builder, *coeffs, w1, w0)
    builder.phase(phase)
    builder.one_qubit(g1, w0)
    builder.one_qubit(g2, w1)
    return builder.finish()


def decompose_to_native(u: np.ndarray, wires: tuple | None = None,
                        n_wires: int | None = None) -> NativeCircuitFragment:
    """Compile a one- or two-qubit unitary into the native gate set.

    Single-qubit unitaries become at most three rotations; two-qubit
    unitaries use at most three U_zz entanglers.
    """
    if u.shape == (2, 2):
        wires = wires or (0,)
        return compile_one_qubit(u, wire=wires[0], n_wires=n_wires or max(wires) + 1)
    if u.shape == (4, 4):
        wires = wires or (0, 1)
        return compile_two_qubit(u, wires=wires, n_wires=n_wires or max(wires) + 1)
    raise ValueError("only one- and two-qubit unitaries are supported")
