"""Closed-form half-chain entropy of the infinite transverse-field Ising chain.

The reduced density matrix of half the chain is a product of free-fermion
modes with single-particle entanglement energies (Peschel, Kaulke & Legeza,
Ann. Phys. (Leipzig) 8, 153 (1999))

    eps = pi K(k') / K(k),   k = min(lam, 1/lam),   k' = sqrt(1 - k^2),
    eps_l = (2l + 1) eps  (lam > 1),    eps_l = 2 l eps  (lam < 1),

and S = sum_l H2(1 / (1 + exp(eps_l))) bits.  In the ordered phase the l = 0
mode has eps_0 = 0 and contributes exactly one bit: the cat bit of the
symmetric ground state, the same convention as ``bondsim.tfim``.
"""

from __future__ import annotations

import math

from scipy.special import ellipk, ellipkm1

_MODES = 200


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def closed_form_entropy(lam: float) -> float:
    """Half-chain von Neumann entropy in bits; diverges at lam = 1."""
    if lam <= 0.0 or lam == 1.0:
        raise ValueError("closed form needs lam > 0 and lam != 1")
    m = min(lam, 1.0 / lam) ** 2           # scipy takes the parameter m = k^2
    eps = math.pi * float(ellipkm1(m)) / float(ellipk(m))
    total = 0.0
    for l in range(_MODES):
        e_l = (2 * l + 1) * eps if lam > 1.0 else 2 * l * eps
        if e_l > 700.0:
            break
        total += _h2(1.0 / (1.0 + math.exp(e_l)))
    return total
