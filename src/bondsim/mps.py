"""Uniform-MPS linear algebra: isometries, bond channels, transfer spectra,
fixed points, the TFIM energy terms and half-chain entanglement entropy.

Everything is closed form: the fixed point is a spectral projection, the
slowest left eigen-operator is a row of the inverse of the transfer matrix's
eigenvector matrix (one eigendecomposition per spectrum), and the boundary
state is built from the fixed point's eigenvectors, with no search.

Conventions: the site tensor V has shape (2, chi, chi) indexed [sigma, alpha,
beta].  The bond state propagates left-to-right as rho' = sum_s K_s rho K_s^dag
with K_s = V_s^T, which makes the channel exactly the partial trace of the
unitary dilation used by the circuit simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ISO_TOL = 1e-10


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
class BondChannel:
    """Kraus pair K_0, K_1 on bond space plus the chi^2 x chi^2 transfer matrix."""

    kraus: tuple
    transfer: np.ndarray = field(init=False)

    def __post_init__(self):
        k0, k1 = (np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", (k0, k1))
        object.__setattr__(self, "transfer", transfer_matrix((k0, k1)))

    @property
    def chi(self) -> int:
        return self.kraus[0].shape[0]


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


def bond_channel(tensor: MPSTensor) -> BondChannel:
    if not is_isometry(tensor, 1e-8):
        raise NotIsometricError("tensor violates sum_s V_s V_s^dag = I at 1e-8")
    return BondChannel(kraus=(tensor.data[0].T.copy(), tensor.data[1].T.copy()))


def apply_channel(channel: BondChannel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.chi, channel.chi):
        raise ValueError(f"rho shape {rho.shape} != ({channel.chi}, {channel.chi})")
    k0, k1 = channel.kraus
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


def steady_state(tensor: MPSTensor, boundary: np.ndarray | None = None) -> np.ndarray:
    """Bond-channel fixed point reachable from a boundary density matrix
    (default I/chi).

    Solves the eigenproblem of the transfer matrix once and projects the
    boundary onto the eigenvalue-1 eigenspace (``project_fixed_point``);
    with a degenerate fixed-point space (ordered phase) this picks the state
    the iterated channel converges to.  Skips ``bond_channel``'s isometry
    check, which the optimizer's unitaries satisfy by construction.
    """
    v = tensor.data
    chi = v.shape[1]
    if boundary is None:
        boundary = np.eye(chi) / chi
    w, r = np.linalg.eig(transfer_matrix(v.transpose(0, 2, 1)))
    return project_fixed_point(w, r, boundary)


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


def transfer_spectrum(channel: BondChannel, boundary: BoundaryState | None = None,
                      degeneracy_tol: float = 1e-8) -> ChannelSpectrum:
    """Eigenvalues, fixed point and slowest left eigen-operator of a channel.

    Degenerate means a second eigenvalue on the unit circle (a second fixed
    point or a periodic orbit); the fixed point is then the one reached from
    ``boundary``, by default the symmetric state (the cat-state branch).
    """
    chi = channel.chi
    evals, evecs = np.linalg.eig(channel.transfer)
    order = np.argsort(-np.abs(evals))
    evals, evecs = evals[order], evecs[:, order]
    degenerate = chi > 1 and abs(evals[1]) > 1.0 - degeneracy_tol
    if boundary is None:
        boundary = symmetric_boundary(chi)
    fixed = project_fixed_point(evals, evecs, boundary.density())

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


def _iterate(channel: BondChannel, boundary: BoundaryState, n: int) -> np.ndarray:
    rho = boundary.density()
    for _ in range(n):
        rho = apply_channel(channel, rho)
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
