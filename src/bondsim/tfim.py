"""Independent exact references for the transverse-field Ising chain
H = -sum_j (Z_j Z_{j+1} + lambda X_j).

Two routes, both exact to double precision: free-fermion quadrature for the
infinite-chain energy density, and the closed-form corner-transfer-matrix
entanglement spectrum for the half-chain entropy.  The brute-force
cross-check, Lanczos diagonalization of short chains, is a test reference
(``tests/references.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ellipkm1


@dataclass(frozen=True)
class TFIMParams:
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lambda must be finite and nonnegative")


@dataclass(frozen=True)
class OracleResult:
    energy_density: float
    entropy_bits: float
    method: str                  # quadrature | closed_form
    convergence_estimate: float
    converged: bool = True


def exact_energy_density(params: TFIMParams) -> OracleResult:
    """Infinite-chain ground-state energy per site via the free-fermion
    dispersion e(lam) = -(1/pi) Integral_0^pi sqrt(1 + lam^2 + 2 lam cos k) dk."""
    lam = params.lam

    def dispersion(k):
        return np.sqrt(1.0 + lam * lam + 2.0 * lam * np.cos(k))

    val, err = quad(dispersion, 0.0, np.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return OracleResult(energy_density=-val / np.pi, entropy_bits=float("nan"),
                        method="quadrature", convergence_estimate=err / np.pi)


# ---------------------------------------------------------------------------
# Closed-form entropy oracle
# ---------------------------------------------------------------------------

_CUTOFF = 50.0   # entanglement energy above which modes go to the tail bound


def exact_half_chain_entropy(params: TFIMParams) -> OracleResult:
    """Half-chain entropy of the infinite chain from the closed-form
    corner-transfer-matrix spectrum (Peschel, Kaulke & Legeza, Ann. Phys.
    (Leipzig) 8, 153 (1999)).

    The reduced density matrix is a product of free-fermion modes with
    entanglement energies eps_l = (2l + 1) eps (lam > 1) or 2 l eps (lam < 1),
    eps = pi K(k') / K(k), k = min(lam, 1/lam).  In the ordered phase the
    eps_0 = 0 mode contributes exactly one bit: the symmetric (cat) branch.
    ``convergence_estimate`` bounds the dropped modes, using
    H(x) <= (1 + x) exp(-x) nats per mode.
    """
    lam = params.lam
    if abs(lam - 1.0) < 1e-9:
        raise ValueError("entropy diverges at the critical point lambda = 1")
    # k'^2 = (1 - k)(1 + k) without cancellation near lam = 1; ellipkm1(p)
    # is K at parameter 1 - p, so K(k) = ellipkm1(k'^2), K(k') = ellipkm1(k^2).
    if lam < 1.0:
        k, kp2 = lam, (1.0 - lam) * (1.0 + lam)
    else:
        k, kp2 = 1.0 / lam, ((lam - 1.0) / lam) * ((lam + 1.0) / lam)
    eps = np.pi * float(ellipkm1(k * k) / ellipkm1(kp2))
    if np.isinf(eps):
        # k^2 = 0 (lam = 0, or lam so large that k^2 underflows): every mode
        # is frozen except the ordered phase's eps_0 = 0 cat mode.
        return OracleResult(energy_density=float("nan"),
                            entropy_bits=1.0 if lam < 1.0 else 0.0,
                            method="closed_form", convergence_estimate=0.0)
    first = 0.0 if lam < 1.0 else eps
    n = int(_CUTOFF / (2.0 * eps)) + 1
    x = first + 2.0 * eps * np.arange(n)
    q = np.exp(-x)
    bits = float(np.sum(np.log1p(q) + x * q / (1.0 + q)) / np.log(2.0))
    # Sum of (1 + x) e^-x over the dropped modes x_n + 2 eps j, j >= 0.
    x_n, r = first + 2.0 * eps * n, np.exp(-2.0 * eps)
    tail = np.exp(-x_n) * ((1.0 + x_n) / (1.0 - r)
                           + 2.0 * eps * r / (1.0 - r) ** 2)
    return OracleResult(energy_density=float("nan"), entropy_bits=bits,
                        method="closed_form",
                        convergence_estimate=float(tail / np.log(2.0)))
