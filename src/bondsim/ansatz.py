"""Parameterized gate layouts for the unitary embedding of a uniform MPS tensor.

The site tensor V of a chi = 2^n_b MPS is realized as the upper-left block of
a unitary U on 1 + n_b qubits (wire 0 = system, wires 1..n_b = bond register):

    V_sigma[alpha, beta] = <sigma, beta| U |0, alpha>

Two parameterizations are provided:

* mode="ansatz": a tiled layout built from GXY(a, b) = cZ (Rx(a) x Ry(b)) cZ
  two-qubit tiles with fixed single-qubit frames.  The frames are chosen so
  that every layout is exactly covariant under the Ising flip,

      (X x X^{n_b}) U (Z x X^{n_b})^dag = U,

  which forces the bond-register fixed point to commute with X^{x n_b}.  For
  n_b = 2 this is what makes the 3-setting restricted tomography exact.
* mode="full_unitary": exp(i sum_k c_k P_k) over the full Pauli basis of
  su(2^(1+n_b)).  Nothing is imposed, so the optimizer is free to pick
  symmetry-broken solutions (it does, for lambda below the finite-chi
  pseudo-transition).

The tiled layout is spelled once, in ansatz_gate_sequence, and
build_ansatz_unitary is its product.  tensor_energy, the optimizer's
objective, is the package's one TFIM energy density: mps.ising_terms at
mps.steady_state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .gates import CZ, H, I2, embed, pauli_strings, rx, ry, rz
from .mps import BondsimError, BoundaryState, MPSTensor, ising_terms, steady_state

__all__ = [
    "AnsatzParams",
    "BoundaryPrep",
    "boundary_prep",
    "OptimizerConfig",
    "ansatz_gate_sequence",
    "ansatz_num_params",
    "build_ansatz_unitary",
    "build_full_unitary",
    "canonical_gauge",
    "extract_isometry",
    "gxy_gate",
    "tensor_energy",
    "variational_optimize",
]


# ---------------------------------------------------------------------------
# tiles


def gxy_gate(alpha: float, beta: float) -> np.ndarray:
    """Two-qubit tile cZ (Rx(alpha) x Ry(beta)) cZ."""
    return CZ @ np.kron(rx(alpha), ry(beta)) @ CZ


_IH = np.kron(I2, H)
_HH = np.kron(H, H)
# rz(-pi/2) maps Y -> X under conjugation; GXY commutes with Y x X exactly,
# so the framed tile below commutes with X x X.
_GL = np.kron(rz(-np.pi / 2), I2)
_GR = np.kron(rz(np.pi / 2), I2)


def _entry_tile(alpha: float, beta: float) -> np.ndarray:
    """Covariant entry tile: (X x X) S (Z x X)^dag = S."""
    return _IH @ gxy_gate(alpha, beta) @ _HH


def _flip_even_tile(alpha: float, beta: float) -> np.ndarray:
    """GXY tile framed to commute with X x X."""
    return _GL @ gxy_gate(alpha, beta) @ _GR


def ansatz_num_params(n_b: int) -> int:
    """Entry tile, then n_b + 1 layers of 1 + n_b Rx angles and a tile."""
    if n_b not in (1, 2):
        raise ValueError(f"no tiled layout defined for n_b={n_b}")
    return 2 + (n_b + 1) * (n_b + 3)


def ansatz_gate_sequence(angles: np.ndarray, n_b: int) -> list:
    """The flip-covariant tiled layout on 1 + n_b wires as an ordered list
    of (matrix, wires) gates, first entry applied first.

    Layer structure: one entry tile on (system, bond_1), then n_b + 1 layers
    of Rx dressings on every wire followed by a framed GXY tile.  For n_b=2
    the tiles alternate between (bond_1, bond_2) and (system, bond_1).  All
    Rx dressings and framed tiles commute with the global flip, so
    covariance of the entry tile is inherited by the whole layout.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (ansatz_num_params(n_b),):
        raise ValueError("angle vector has wrong length for this layout")
    seq = [(_entry_tile(angles[0], angles[1]), (0, 1))]
    i = 2
    for layer in range(1, n_b + 2):
        for w in range(1 + n_b):
            seq.append((rx(angles[i]), (w,)))
            i += 1
        wires = (1, 2) if n_b == 2 and layer % 2 else (0, 1)
        seq.append((_flip_even_tile(angles[i], angles[i + 1]), wires))
        i += 2
    return seq


def build_ansatz_unitary(angles: np.ndarray, n_b: int) -> np.ndarray:
    """Product of ``ansatz_gate_sequence``.  Each layer's Rx dressing is
    multiplied out before it is applied, the grouping the bundled chi=4
    parameters were optimized with, so their energies reproduce bit for
    bit."""
    n_wires = 1 + n_b
    u = dress = np.eye(2 ** n_wires, dtype=complex)
    for gate, wires in ansatz_gate_sequence(angles, n_b):
        if len(wires) == 1:
            dress = embed(gate, wires, n_wires) @ dress
        else:
            u = embed(gate, wires, n_wires) @ (dress @ u)
            dress = np.eye(2 ** n_wires, dtype=complex)
    return u


def full_unitary_num_params(n_b: int) -> int:
    return 4 ** (1 + n_b) - 1


def build_full_unitary(coeffs: np.ndarray, n_b: int) -> np.ndarray:
    """exp(i sum c_k P_k) over all non-identity Pauli strings."""
    coeffs = np.asarray(coeffs, dtype=float)
    basis = pauli_strings(1 + n_b)[1:]  # drop the identity
    if coeffs.shape != (len(basis),):
        raise ValueError("coefficient vector has wrong length")
    # one reduction, which adds the terms in basis order like a loop would
    gen = np.add.reduce(coeffs[:, None, None] * basis, axis=0)
    return expm(1j * gen)


# ---------------------------------------------------------------------------
# isometry <-> unitary


def extract_isometry(u: np.ndarray, n_b: int) -> MPSTensor:
    """Read off V_sigma[alpha, beta] = <sigma, beta|U|0, alpha>."""
    chi = 2 ** n_b
    if u.shape != (2 * chi, 2 * chi):
        raise ValueError("unitary dimension does not match n_b")
    v = u.reshape(2, chi, 2, chi)[:, :, 0, :].transpose(0, 2, 1)
    return MPSTensor(data=np.ascontiguousarray(v))


# ---------------------------------------------------------------------------
# energy


def tensor_energy(tensor: MPSTensor, lam: float) -> float:
    """TFIM energy density -(<Z_j Z_{j+1}> + lam <X_j>) in the steady state
    (``mps.steady_state``), the package's one energy of a tensor."""
    ex, ezz = ising_terms(tensor.data.transpose(0, 2, 1), steady_state(tensor))
    return -(ezz + lam * ex)


# ---------------------------------------------------------------------------
# optimization


@dataclass(frozen=True)
class AnsatzParams:
    """Optimized circuit parameters for one (lambda, n_b, mode) point."""

    lam: float
    n_b: int
    mode: str  # "ansatz" | "full_unitary"
    angles: tuple
    energy: float

    def unitary(self) -> np.ndarray:
        ang = np.asarray(self.angles, dtype=float)
        if self.mode == "ansatz":
            return build_ansatz_unitary(ang, self.n_b)
        return build_full_unitary(ang, self.n_b)

    def tensor(self) -> MPSTensor:
        return extract_isometry(self.unitary(), self.n_b)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "n_b": self.n_b,
            "mode": self.mode,
            "angles": list(self.angles),
            "energy": self.energy,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AnsatzParams":
        return cls(
            lam=float(obj["lambda"]),
            n_b=int(obj["n_b"]),
            mode=str(obj["mode"]),
            angles=tuple(float(a) for a in obj["angles"]),
            energy=float(obj["energy"]),
        )


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 6
    seed: int = 20240901
    maxiter: int = 6000

    def __post_init__(self):
        for name in ("restarts", "maxiter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")


def _num_params(n_b: int, mode: str) -> int:
    if mode == "ansatz":
        return ansatz_num_params(n_b)
    if mode == "full_unitary":
        return full_unitary_num_params(n_b)
    raise ValueError(f"unknown mode {mode!r}")


def variational_optimize(
    lam: float,
    n_b: int,
    mode: str = "ansatz",
    config: OptimizerConfig | None = None,
) -> tuple[AnsatzParams, float]:
    """Minimize the steady-state TFIM energy density over layout angles.

    Powell restarts from seeded Gaussian initializations (standard deviation
    1.2), then a Nelder-Mead polish of the best candidate.  Fully
    deterministic for a fixed config.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    cfg = config or OptimizerConfig()
    n = _num_params(n_b, mode)
    build = build_ansatz_unitary if mode == "ansatz" else build_full_unitary

    def objective(p: np.ndarray) -> float:
        try:
            return tensor_energy(extract_isometry(build(p, n_b), n_b), lam)
        except BondsimError:
            return 10.0

    rng = np.random.default_rng(cfg.seed)
    starts = [rng.normal(scale=1.2, size=n) for _ in range(cfg.restarts)]
    best_val, best_x = np.inf, None
    with np.errstate(all="ignore"):
        for x0 in starts:
            res = minimize(
                objective, x0, method="Powell",
                options={"maxiter": cfg.maxiter, "xtol": 1e-12, "ftol": 1e-14},
            )
            if res.fun < best_val:
                best_val, best_x = res.fun, res.x
        res = minimize(
            objective, best_x, method="Nelder-Mead",
            options={"maxiter": 4 * cfg.maxiter, "xatol": 1e-13, "fatol": 1e-16},
        )
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    params = AnsatzParams(
        lam=lam, n_b=n_b, mode=mode, angles=tuple(best_x), energy=float(best_val)
    )
    return params, float(best_val)


# ---------------------------------------------------------------------------
# boundary preparation


@dataclass(frozen=True)
class BoundaryPrep:
    """Unitary W on the bond register with W|0...0> = |L>."""

    w_unitary: np.ndarray
    target_state: BoundaryState


def boundary_prep(target: BoundaryState) -> BoundaryPrep:
    """Build a bond-register unitary whose first column is the target state.

    The remaining columns are a deterministic orthonormal completion; only
    the first column matters since the register always starts in |0...0>.
    """
    v = target.vector
    chi = v.shape[0]
    w = np.zeros((chi, chi), dtype=complex)
    w[:, 0] = v
    proj = np.eye(chi) - np.outer(v, v.conj())
    q, r = np.linalg.qr(proj)
    cols = [q[:, k] for k in range(chi) if abs(r[k, k]) > 1e-10]
    if len(cols) != chi - 1:
        raise BondsimError("boundary completion failed")
    for k, col in enumerate(cols):
        w[:, 1 + k] = col
    prepared = w[:, 0]
    if np.linalg.norm(prepared - v) > 1e-12:
        raise BondsimError("boundary preparation does not hit the target")
    return BoundaryPrep(w_unitary=w, target_state=target)


# ---------------------------------------------------------------------------
# gauge canonicalization (restricted-tomography form)


def canonical_gauge(tensor: MPSTensor) -> tuple[MPSTensor, np.ndarray, tuple]:
    """Rotate the bond basis so the fixed point fits the restricted pattern.

    For a flip-covariant chi=4 tensor the fixed point only carries Pauli
    weight on {II, IX, XI, XX, YY, YZ, ZY, ZZ}.  A per-qubit Rx gauge
    rotation leaves the covariance intact while rotating the (Y, Z) block
    M = [[YY, YZ], [ZY, ZZ]] as R(t1) M R(t2)^T.  Splitting M into a rotation
    part (angle rot) and a reflection part (angle ref), the first turns by
    t1 - t2 and the second by t1 + t2, so t1 = pi/2 - (rot + ref)/2 and
    t2 = (rot - ref)/2 take both to angle pi/2 and null YY and ZZ.  The
    remaining support {II, IX, XI, XX, YZ, ZY} is exactly what the
    3-setting tomography {(X,X), (Y,Z), (Z,Y)} measures.

    Returns (gauged tensor, gauge unitary G, per-bond-wire Rx angles); the
    gauge acts as rho_fixed -> G rho G^dag and G = Rx(t1) x Rx(t2).
    """
    chi = tensor.data.shape[1]
    if chi == 2:
        return tensor, np.eye(2, dtype=complex), (0.0,)
    if chi != 4:
        raise ValueError("canonical gauge implemented for chi in {2, 4}")
    rho = steady_state(tensor)
    # YY, YZ, ZY, ZZ in the product("IXYZ") order of the Pauli strings
    m00, m01, m10, m11 = (float(np.trace(rho @ p).real)
                          for p in pauli_strings(2)[[10, 11, 14, 15]])
    rot = np.arctan2(m10 - m01, m00 + m11)
    ref = np.arctan2(m10 + m01, m00 - m11)
    t1, t2 = np.pi / 2 - (rot + ref) / 2, (rot - ref) / 2
    g = np.kron(rx(t1), rx(t2))
    # Kraus transform K -> G K G^dag moves the fixed point to G rho G^dag;
    # in tensor components that is V_sigma -> conj(G) V_sigma G^T.
    v = tensor.data
    gauged = np.stack([g.conj() @ v[0] @ g.T, g.conj() @ v[1] @ g.T])
    return MPSTensor(data=gauged), g, (float(t1), float(t2))
