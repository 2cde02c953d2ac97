"""Uniform-MPS linear algebra: isometries, bond channels, transfer spectra,
fixed points, the TFIM energy terms and their gradient, and half-chain
entanglement entropy.

Everything is closed form: the fixed point is a spectral projection, the
slowest left eigen-operator is a row of the inverse of the transfer matrix's
eigenvector matrix (one eigendecomposition per spectrum), and the boundary
state is built from the fixed point's eigenvectors, with no search.

Conventions: the site tensor V has shape (2, chi, chi) indexed [sigma, alpha,
beta].  The bond state propagates left-to-right as rho' = sum_s K_s rho K_s^dag
with K_s = V_s^T, which makes the channel exactly the partial trace of the
unitary dilation used by the circuit simulator.  A channel is passed around
as its (2, chi, chi) Kraus stack; the chi^2 x chi^2 transfer matrix is
formed only where a spectrum or a linear solve needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ISO_TOL = 1e-10
# |mu_2| above 1 - DEGENERACY_TOL counts as on the unit circle.
DEGENERACY_TOL = 1e-8


class BondsimError(Exception):
    """Base error for this package."""


class NotIsometricError(BondsimError):
    pass


class DegenerateChannelError(BondsimError):
    pass


@dataclass(frozen=True)
class MPSTensor:
    """Uniform rank-3 site tensor V[sigma, alpha, beta] with chi = 2**n_b."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 3 or data.shape[0] != 2 or data.shape[1] != data.shape[2]:
            raise ValueError(f"expected shape (2, chi, chi), got {data.shape}")
        chi = data.shape[1]
        if chi < 1 or (chi & (chi - 1)) != 0:
            raise ValueError(f"bond dimension {chi} is not a power of 2")
        object.__setattr__(self, "data", data)

    @property
    def chi(self) -> int:
        return self.data.shape[1]

    @property
    def n_b(self) -> int:
        return int(self.chi).bit_length() - 1


@dataclass(frozen=True)
class ChannelSpectrum:
    eigenvalues: np.ndarray          # sorted by descending modulus
    fixed_point: np.ndarray          # Hermitian PSD, trace 1
    subdominant_mode: np.ndarray     # left eigen-operator of eigenvalues[1]
    degenerate: bool = False


@dataclass(frozen=True)
class BoundaryState:
    """Pure left-boundary vector |L> of the half-infinite chain."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).ravel()
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"boundary vector norm {n} != 1")
        object.__setattr__(self, "vector", v)

    @property
    def chi(self) -> int:
        return self.vector.shape[0]

    def density(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True)
class EntropyResult:
    entropy_bits: float
    schmidt_spectrum: np.ndarray     # descending, sums to 1


def is_isometry(tensor: MPSTensor, tol: float = ISO_TOL) -> bool:
    v = tensor.data
    gram = v[0] @ v[0].conj().T + v[1] @ v[1].conj().T
    return np.linalg.norm(gram - np.eye(tensor.chi)) <= tol


def transfer_matrix(kraus) -> np.ndarray:
    """kron(K_0, conj K_0) + kron(K_1, conj K_1) of the Kraus pair or its
    (2, chi, chi) stack, as one broadcast product: the multiplies np.kron
    does, without its overhead."""
    k = np.asarray(kraus)
    t = k[:, :, None, :, None] * k.conj()[:, None, :, None, :]
    return (t[0] + t[1]).reshape(k.shape[1] ** 2, -1)


def bond_channel(tensor: MPSTensor) -> np.ndarray:
    """The bond channel of an isometric tensor as its (2, chi, chi) Kraus
    stack K_s = V_s^T, C-contiguous."""
    if not is_isometry(tensor, 1e-8):
        raise NotIsometricError("tensor violates sum_s V_s V_s^dag = I at 1e-8")
    return np.ascontiguousarray(tensor.data.transpose(0, 2, 1))


def apply_channel(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_s K_s rho K_s^dag for a (2, chi, chi) Kraus stack."""
    rho = np.asarray(rho, dtype=complex)
    chi = kraus.shape[1]
    if rho.shape != (chi, chi):
        raise ValueError(f"rho shape {rho.shape} != ({chi}, {chi})")
    k0, k1 = kraus
    return k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T


def symmetric_boundary(chi: int) -> BoundaryState:
    return BoundaryState(np.full(chi, 1 / np.sqrt(chi)))


def project_fixed_point(evals: np.ndarray, evecs: np.ndarray,
                        boundary: np.ndarray) -> np.ndarray:
    """Fixed point the iterated channel reaches from a boundary density: its
    projection onto the eigenvalue-1 eigenspace of the transfer matrix
    (eigenvalues ``evals``, right eigenvectors ``evecs``).  That is the limit
    of the iterates' running mean; the only fixed point if it is unique.
    """
    chi = boundary.shape[0]
    coeffs = np.linalg.solve(evecs, boundary.reshape(-1).astype(complex))
    keep = np.abs(evals - 1.0) < 1e-9
    rho = (evecs[:, keep] @ coeffs[keep]).reshape(chi, chi)
    rho = (rho + rho.conj().T) / 2
    tr = rho.trace().real
    if abs(tr) < 1e-12:
        raise BondsimError("boundary has no weight on the fixed-point space")
    return rho / tr


def steady_state(tensor: MPSTensor) -> np.ndarray:
    """Bond-channel fixed point reachable from the maximally mixed bond
    state I/chi.

    Solves the eigenproblem of the transfer matrix once and projects I/chi
    onto the eigenvalue-1 eigenspace (``project_fixed_point``);
    with a degenerate fixed-point space (ordered phase) this picks the state
    the iterated channel converges to.  Skips ``bond_channel``'s isometry
    check, which the optimizer's unitaries satisfy by construction.
    """
    v = tensor.data
    chi = v.shape[1]
    w, r = np.linalg.eig(transfer_matrix(v.transpose(0, 2, 1)))
    return project_fixed_point(w, r, np.eye(chi) / chi)


def ising_terms(kraus, rho: np.ndarray) -> tuple[float, float]:
    """(<X>, <Z Z>) on the sites that the Kraus pair generates from bond
    state rho: <X> on the first, <Z Z> on the first and the second.
    ``kraus`` is the pair or its (2, chi, chi) stack."""
    k = np.asarray(kraus)
    kh = k.conj().swapaxes(1, 2)
    # pair[s, t] = K_s rho K_t^dag; <X> = 2 Re tr(K_1 rho K_0^dag), <ZZ> from
    # two channel steps with Z insertions.  One stacked product per step.
    pair = (k @ rho)[:, None] @ kh
    ex = 2 * pair[1, 0].trace().real
    zz = (k @ (pair[0, 0] - pair[1, 1]) @ kh).trace(axis1=1, axis2=2)
    return ex, (zz[0] - zz[1]).real


def ising_energy_gradient(kraus, lam: float) -> np.ndarray:
    """Gradient of the fixed-point energy density E = -(<ZZ> + lam <X>) of a
    trace-preserving Kraus pair (or its (2, chi, chi) stack) with respect to
    the conjugate Kraus stack: G_s = dE/d conj(K_s), so that
    dE = 2 Re sum_s tr(G_s^dag dK_s) along any variation that keeps
    sum_s K_s^dag K_s = I.

    Stack the Kraus operators into one 2chi x chi column block C.  Then
    E = tr(rho O) at the fixed point rho, with O = -C^dag W C,
    W = Z x Q + lam X x I on (site, bond) and Q = C^dag (Z x I) C, the bond
    operator that reads <Z> on the next site.  The left fixed point of the
    channel is I, so the fixed point's response is one linear solve
    (Vanderstraeten, Haegeman & Verstraete, SciPost Phys. Lect. Notes 7
    (2019)), (1 - T^dag) Y = O - E I, and with
    M = K_0 rho K_0^dag - K_1 rho K_1^dag and z = (+1, -1)

        G_s = Y K_s rho - (W C)_s rho - z_s K_s M
            = Y K_s rho - z_s Q K_s rho - lam K_{1-s} rho - z_s K_s M.

    rho and Y come from one bordered matrix A = 1 - T + |I/chi><I|:
    A rho = I/chi, and A^dag Y = O solves the equation above (its trace is
    chi E).  Y is fixed up to a multiple of I, which adds c K_s rho to G_s
    and nothing to dE.  A is singular when eigenvalue 1 of T is degenerate;
    numpy then raises ``LinAlgError`` or returns non-finite entries.
    """
    k = np.asarray(kraus)
    chi = k.shape[1]
    eye = np.eye(chi).ravel()
    a = np.eye(chi * chi) - transfer_matrix(k) + np.outer(eye / chi, eye)
    rho = np.linalg.solve(a, eye / chi).reshape(chi, chi)
    c = k.reshape(2 * chi, chi)
    zk = k * np.array([1.0, -1.0])[:, None, None]
    q = c.conj().T @ zk.reshape(2 * chi, chi)
    wc = q @ zk + lam * k[::-1]
    o = -c.conj().T @ wc.reshape(2 * chi, chi)
    y = np.linalg.solve(a.conj().T, o.ravel()).reshape(chi, chi)
    kr = k @ rho
    m = (zk @ kr.conj().swapaxes(1, 2)).sum(axis=0)
    return y @ kr - wc @ rho - zk @ m


def transfer_spectrum(kraus: np.ndarray) -> ChannelSpectrum:
    """Eigenvalues, fixed point and slowest left eigen-operator of the
    channel with this (2, chi, chi) Kraus stack.

    Degenerate means a second eigenvalue on the unit circle (a second fixed
    point or a periodic orbit); the fixed point is then the one reached from
    the symmetric boundary state (the cat-state branch).
    """
    chi = kraus.shape[1]
    evals, evecs = np.linalg.eig(transfer_matrix(kraus))
    order = np.argsort(-np.abs(evals))
    evals, evecs = evals[order], evecs[:, order]
    degenerate = chi > 1 and abs(evals[1]) > 1.0 - DEGENERACY_TOL
    fixed = project_fixed_point(evals, evecs,
                                symmetric_boundary(chi).density())

    # Left eigen-operator at the subdominant eigenvalue: the Hilbert-Schmidt
    # overlap Tr(E2^dag rho_0) is the coefficient of the slowest transient.
    # Row 1 of evecs^-1 is the left eigenvector, so E2 is its conjugate.
    sub = np.zeros((chi, chi), dtype=complex)
    if chi > 1:
        sub = np.linalg.inv(evecs)[1].conj().reshape(chi, chi)
        sub = sub / np.linalg.norm(sub)

    return ChannelSpectrum(eigenvalues=evals, fixed_point=fixed,
                           subdominant_mode=sub, degenerate=degenerate)


def entanglement_entropy(rho: np.ndarray, tol: float = 1e-8) -> EntropyResult:
    rho = np.asarray(rho, dtype=complex)
    if np.linalg.norm(rho - rho.conj().T) > tol:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} is not 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w.min() < -tol:
        raise ValueError(f"negative eigenvalue {w.min()}")
    w = np.clip(w, 0.0, None)
    w = np.sort(w)[::-1]
    w = w / w.sum()
    return EntropyResult(entropy_bits=float(entropy_bits(w)),
                         schmidt_spectrum=w)


def entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of the probability vectors along the last
    axis (0 log 0 = 0), never below 0."""
    p = np.asarray(p, dtype=float)
    logs = np.log2(np.where(p > 0, p, 1.0))
    return np.maximum(-(p * logs).sum(axis=-1), 0.0)


def half_chain_entropy(tensor: MPSTensor, boundary: BoundaryState, j: int) -> EntropyResult:
    """Entropy of the bond register after j channel iterations from |L><L|,
    i.e. the MPS bipartite entanglement across the cut after site j."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    rho = _iterate(bond_channel(tensor), boundary, j)
    return entanglement_entropy(rho, tol=1e-6)


def _iterate(kraus: np.ndarray, boundary: BoundaryState, n: int) -> np.ndarray:
    rho = boundary.density()
    for _ in range(n):
        rho = apply_channel(kraus, rho)
    return rho


def burn_in_length(spectrum: ChannelSpectrum, tol: float) -> int:
    """Smallest j with |mu_2|^j <= tol; mu_2 = largest modulus strictly < 1."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"burn-in tolerance {tol} is not in (0, 1)")
    if spectrum.degenerate:
        raise DegenerateChannelError(
            "channel has a degenerate fixed point; choose the iteration count manually")
    if len(spectrum.eigenvalues) == 1:
        return 1
    mu2 = abs(spectrum.eigenvalues[1])
    if mu2 <= tol or mu2 == 0.0:
        return 1
    return max(1, int(np.ceil(np.log(tol) / np.log(mu2))))


def select_boundary(spectrum: ChannelSpectrum) -> tuple[BoundaryState, float]:
    """Pure state |L> with Tr(E2^dag |L><L|) = 0; returns the overlap reached.

    E2 is a left eigen-operator at an eigenvalue other than 1, so
    Tr(E2^dag rho) = 0 at the fixed point rho = sum_k p_k |psi_k><psi_k|: the
    weighted mean of z_k = <psi_k|E2^dag|psi_k> is 0.  Folding in the psi_k in
    order of decreasing p_k, each step keeps <v|E2^dag|v> at the running
    weighted mean, which ends at 0 (the two-vector step of Carden, Inverse
    Problems 25, 115019 (2009)).

    The result does not depend on the phase of E2 or on rounding noise in
    it: a step whose two values of <.|E2^dag|.> agree is skipped, and where
    every phi makes the cross term real, phi is the one that makes it
    largest.
    """
    if spectrum.degenerate:
        raise DegenerateChannelError("subdominant mode is not unique")
    a = spectrum.subdominant_mode.conj().T
    p, psi = np.linalg.eigh(spectrum.fixed_point)
    v, weight = psi[:, -1], p[-1]
    for pk, y in zip(np.clip(p[-2::-1], 0.0, None), psi[:, -2::-1].T):
        # Move <v|A|v> the fraction s of the way to <y|A|y>.  With the segment
        # turned onto the real axis (rot), v' = v + t e^{i phi} y and phi making
        # the cross term real, this is (1-s) n t^2 + c t - s n = 0.
        weight += pk
        s = pk / weight
        av, ay = v.conj() @ a @ v, y.conj() @ a @ y
        if abs(ay - av) <= 1e-12:
            continue
        rot = np.conj(ay - av)
        n = abs(rot) ** 2
        beta, gamma = rot * (v.conj() @ a @ y), rot * (y.conj() @ a @ v)
        odd, even = beta - np.conj(gamma), beta + np.conj(gamma)
        phase = np.exp(-1j * np.angle(odd if abs(odd) > 1e-6 * abs(even)
                                      else even))
        c = (phase * beta + np.conj(phase) * gamma).real
        # the root of smaller modulus, in the form that does not cancel
        den = c + np.copysign(np.sqrt(c * c + 4 * s * (1 - s) * n * n), c)
        t = 2 * s * n / den if den != 0.0 else 0.0
        v = (v + t * phase * y) / np.sqrt(1 + t * t)
    # Fix the arbitrary global phase so results are deterministic.
    k = int(np.argmax(np.abs(v)))
    v = v * np.exp(-1j * np.angle(v[k]))
    return BoundaryState(v), float(abs(v.conj() @ a @ v))
