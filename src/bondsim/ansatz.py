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

variational_optimize runs L-BFGS-B on the exact gradient of that energy
(energy_and_gradient).  mps.ising_energy_gradient gives dE/d conj(K) at the
fixed point for the cost of one small linear solve; the chain rule then goes
through the Hermitian generator's eigendecomposition (full_unitary) or the
prefix products of ansatz_gate_sequence, which _ansatz_products builds in
the same pass as U (ansatz).  One evaluation with its gradient costs two to
three times a value alone, and a start needs tens to hundreds of them where
a derivative-free search needed 10^4 to 10^5 values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .gates import CZ, H, I2, embed, pauli_strings, rx, ry, rz
from .mps import (BondsimError, BoundaryState, MPSTensor, ising_energy_gradient,
                  ising_terms, steady_state)

__all__ = [
    "AnsatzParams",
    "boundary_prep",
    "OptimizerConfig",
    "ansatz_gate_sequence",
    "ansatz_num_params",
    "build_ansatz_unitary",
    "build_full_unitary",
    "canonical_gauge",
    "energy_and_gradient",
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


def _ansatz_products(angles: np.ndarray, n_b: int) -> tuple:
    """(U, prefixes) of the tiled layout from one pass over
    ``ansatz_gate_sequence``, each gate embedded once.  U multiplies each
    layer's Rx dressing out before applying it, the grouping the bundled
    chi=4 parameters were optimized with, so their energies reproduce bit
    for bit.  prefixes[m] = E_m ... E_1, one gate at a time."""
    n_wires = 1 + n_b
    eye = np.eye(2 ** n_wires, dtype=complex)
    u = dress = p = eye
    prefix = []
    for gate, wires in ansatz_gate_sequence(angles, n_b):
        e = embed(gate, wires, n_wires)
        p = e @ p
        prefix.append(p)
        if len(wires) == 1:
            dress = e @ dress
        else:
            u = e @ (dress @ u)
            dress = eye
    return u, np.stack(prefix)


def build_ansatz_unitary(angles: np.ndarray, n_b: int) -> np.ndarray:
    """Product of ``ansatz_gate_sequence``, in the bundled grouping (see
    ``_ansatz_products``)."""
    return _ansatz_products(angles, n_b)[0]


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
# gradient: G = dE/d conj(U) from mps.ising_energy_gradient, then the chain
# rule dE/dx_k = 2 Re tr(G^dag dU/dx_k) through each layout


def _unitary_gradient(tensor: MPSTensor, lam: float) -> np.ndarray:
    """dE/d conj(U): the Kraus stack K_s = V_s^T is U's first chi columns,
    split into two chi-row blocks, so the other columns get zeros."""
    k = tensor.data.transpose(0, 2, 1)
    chi = k.shape[1]
    g = np.zeros((2 * chi, 2 * chi), dtype=complex)
    g[:, :chi] = ising_energy_gradient(k, lam).reshape(2 * chi, chi)
    return g


def _full_unitary_gradient(coeffs: np.ndarray, n_b: int,
                           g: np.ndarray) -> np.ndarray:
    """Chain rule through U = exp(i H), H = sum_k c_k P_k.  With
    H = W diag(w) W^dag, dU = W (F o W^dag dH W) W^dag, where F holds the
    divided differences of e^{ix} on w (Daleckii-Krein), so
    dE/dc_k = 2 Re tr(P_k D) with D = W (F o W^dag G^dag W) W^dag."""
    basis = pauli_strings(1 + n_b)[1:]
    w, v = np.linalg.eigh(np.einsum("k,kij->ij", coeffs, basis))
    # (e^{ia} - e^{ib}) / (a - b) = i e^{i(a+b)/2} sinc((a-b)/2), which is
    # also right on the diagonal
    mean, half = (w[:, None] + w) / 2, (w[:, None] - w) / 2
    f = 1j * np.exp(1j * mean) * np.sinc(half / np.pi)
    dh = v @ (f * (v.conj().T @ g.conj().T @ v)) @ v.conj().T
    return 2 * (basis.reshape(len(basis), -1) @ dh.T.ravel()).real


@functools.lru_cache(maxsize=None)
def _angle_generators(n_b: int) -> tuple:
    """For each angle of the tiled layout: the index of its gate in
    ``ansatz_gate_sequence`` and the embedded Hermitian generator Gen with
    d gate/d angle = -(i/2) Gen gate.

    Every angle enters its gate through one Rx or Ry between fixed
    unitaries, and R(t + pi) = -i P R(t) for R(t) = exp(-i t P/2), so
    Gen = i gate(pi) gate(0)^dag at any value of the other angles; it is
    read off the sequence, the layout's only spelling.
    """
    n = ansatz_num_params(n_b)
    base = ansatz_gate_sequence(np.zeros(n), n_b)
    index, gens = [], []
    for i in range(n):
        shifted = ansatz_gate_sequence(np.pi * np.eye(n)[i], n_b)
        (m,) = [m for m, (g, _) in enumerate(shifted)
                if not np.array_equal(g, base[m][0])]
        g0, wires = base[m]
        index.append(m)
        gens.append(embed(1j * shifted[m][0] @ g0.conj().T, wires, 1 + n_b))
    return np.array(index), np.stack(gens)


def _ansatz_gradient(n_b: int, prefix: np.ndarray, u: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """Chain rule through the tiled layout U = E_n ... E_1.  With the prefix
    P_m = E_m ... E_1 (``_ansatz_products``), dU/dt = -(i/2) U P_m^dag Gen
    P_m for an angle of gate m, so dE/dt = Im tr(P_m G^dag U P_m^dag Gen)."""
    index, gens = _angle_generators(n_b)
    r = prefix @ (g.conj().T @ u) @ prefix.conj().swapaxes(1, 2)
    return np.einsum("kij,kji->k", r[index], gens).imag


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
    """Seeded starts for ``variational_optimize``.  ``maxiter`` counts
    L-BFGS-B iterations per start; the polish of the best start gets
    4 * maxiter."""

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


def energy_and_gradient(x: np.ndarray, lam: float, n_b: int,
                        mode: str) -> tuple[float, np.ndarray]:
    """The optimizer's objective: ``tensor_energy`` of the layout's tensor
    at parameters x, and its exact gradient in x.

    A ``BondsimError``, a singular adjoint solve (a degenerate fixed point,
    e.g. U = I) or a non-finite gradient give the penalty 10.0 with a zero
    gradient.
    """
    try:
        if mode == "ansatz":
            u, prefix = _ansatz_products(x, n_b)
        else:
            u = build_full_unitary(x, n_b)
        tensor = extract_isometry(u, n_b)
        value = tensor_energy(tensor, lam)
        g = _unitary_gradient(tensor, lam)
    except (BondsimError, np.linalg.LinAlgError):
        return 10.0, np.zeros(len(x))
    if mode == "ansatz":
        grad = _ansatz_gradient(n_b, prefix, u, g)
    else:
        grad = _full_unitary_gradient(x, n_b, g)
    if not np.all(np.isfinite(grad)):
        return 10.0, np.zeros(len(x))
    return value, grad


def variational_optimize(
    lam: float,
    n_b: int,
    mode: str = "ansatz",
    config: OptimizerConfig | None = None,
) -> tuple[AnsatzParams, float]:
    """Minimize the steady-state TFIM energy density over layout angles.

    L-BFGS-B on ``energy_and_gradient`` (the exact gradient) from seeded
    Gaussian initializations (standard deviation 1.2), then a second
    L-BFGS-B run from the best candidate with four times the iteration
    budget.  Fully deterministic for a fixed config.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    cfg = config or OptimizerConfig()
    n = _num_params(n_b, mode)

    def run(x0: np.ndarray, maxiter: int):
        return minimize(energy_and_gradient, x0, args=(lam, n_b, mode),
                        jac=True, method="L-BFGS-B",
                        options={"maxiter": maxiter, "ftol": 0.0,
                                 "gtol": 1e-12})

    rng = np.random.default_rng(cfg.seed)
    starts = [rng.normal(scale=1.2, size=n) for _ in range(cfg.restarts)]
    best_val, best_x = np.inf, None
    with np.errstate(all="ignore"):
        for x0 in starts:
            res = run(x0, cfg.maxiter)
            if res.fun < best_val:
                best_val, best_x = res.fun, res.x
        res = run(best_x, 4 * cfg.maxiter)
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    params = AnsatzParams(
        lam=lam, n_b=n_b, mode=mode, angles=tuple(best_x), energy=float(best_val)
    )
    return params, float(best_val)


# ---------------------------------------------------------------------------
# boundary preparation


def boundary_prep(target: BoundaryState) -> np.ndarray:
    """A bond-register unitary W whose first column is the target state,
    W|0...0> = |L>.

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
    return w


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
