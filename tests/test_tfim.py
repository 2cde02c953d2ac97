"""Exact-reference cross-checks for the transverse-field Ising oracles.

Frozen values below were computed independently: the energy densities from
the closed elliptic-integral form e(lam) = -(2/pi)(1+lam) E(m) with
m = 4 lam/(1+lam)^2, and the entropies from the closed-form entanglement
spectrum, cross-checked here against the free-fermion correlation-matrix
block entropy (Peschel, J. Phys. A 36, L205 (2003)).
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from bondsim.tfim import (TFIMParams, exact_energy_density,
                          exact_half_chain_entropy)
from references import exact_diag


def closed_form_energy(lam):
    m = 4 * lam / (1 + lam) ** 2
    return -(2 / np.pi) * (1 + lam) * ellipe(m)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.9, 1.0, 1.2, 2.0, 10.0])
def test_energy_density_matches_elliptic_form(lam):
    r = exact_energy_density(TFIMParams(lam))
    assert r.method == "quadrature"
    assert abs(r.energy_density - closed_form_energy(lam)) < 1e-10
    assert r.convergence_estimate < 1e-9


def test_energy_special_points():
    assert np.isclose(exact_energy_density(TFIMParams(0.0)).energy_density, -1.0)
    assert np.isclose(exact_energy_density(TFIMParams(1.0)).energy_density,
                      -4 / np.pi, atol=1e-12)
    # lam >> 1: e -> -lam - 1/(4 lam)
    e = exact_energy_density(TFIMParams(50.0)).energy_density
    assert abs(e - (-50.0 - 1 / 200.0)) < 1e-6


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        TFIMParams(-0.1)


@pytest.mark.parametrize("lam", [float("inf"), float("nan")])
def test_nonfinite_lambda_rejected(lam):
    with pytest.raises(ValueError):
        TFIMParams(lam)


@pytest.mark.parametrize("lam,n", [(0.5, 10), (1.0, 12), (1.5, 10)])
def test_exact_diag_tracks_infinite_chain(lam, n):
    r = exact_diag(TFIMParams(lam), n, boundary="periodic")
    e_inf = exact_energy_density(TFIMParams(lam)).energy_density
    # finite-size corrections are exponentially small off criticality,
    # -pi/(6 n^2) x velocity at lam = 1
    assert abs(r.energy_density - e_inf) < 1.2 / n ** 2 + 1e-6


def test_exact_diag_two_sites():
    # H = -(ZZ + lam(X1 + X2)) on 2 sites (open): ground energy
    # -sqrt(1 + 4 lam^2) per bond
    lam = 0.7
    r = exact_diag(TFIMParams(lam), 2, boundary="open")
    assert np.isclose(r.energy_density, -np.sqrt(1 + 4 * lam ** 2), atol=1e-10)


def test_exact_diag_validation():
    with pytest.raises(ValueError):
        exact_diag(TFIMParams(1.0), 15)
    with pytest.raises(ValueError):
        exact_diag(TFIMParams(1.0), 8, boundary="weird")


def test_exact_diag_ordered_phase_entropy():
    # Deep in the ordered phase the symmetric ground state is a 2-fold cat:
    # half-chain entropy -> 1 bit.
    r = exact_diag(TFIMParams(0.05), 10)
    assert abs(r.entropy_bits - 1.0) < 1e-2


def correlation_block_entropy(lam, size):
    """Entropy in bits of `size` adjacent sites of the infinite chain from
    the singular values nu of the Majorana correlation matrix G_mn = g_(m-n),
    g_l = (1/2pi) Int e^(-il phi) (cos phi - lam - i sin phi)/|...| dphi."""
    def c(m):   # (1/pi) Int_0^pi cos(m phi) / |cos phi - lam - i sin phi|
        val, _ = quad(lambda phi: 1.0 / np.sqrt(1.0 + lam * lam
                                                - 2.0 * lam * np.cos(phi)),
                      0.0, np.pi, weight="cos", wvar=m, epsabs=1e-13,
                      limit=200)
        return val / np.pi
    cs = [c(m) for m in range(size + 1)]
    g = {l: cs[abs(l + 1)] - lam * cs[abs(l)] for l in range(-size, size)}
    gmat = np.array([[g[m - n] for n in range(size)] for m in range(size)])
    nu = np.clip(np.linalg.svd(gmat, compute_uv=False), 0.0, 1.0)
    p = (1.0 + nu) / 2.0
    p = p[p < 1.0]
    return float(-np.sum(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p)))


def test_entropy_oracle_disordered_phase():
    r = exact_half_chain_entropy(TFIMParams(2.0))
    assert r.method == "closed_form"
    assert r.converged
    assert 0.0 < r.convergence_estimate < 1e-12
    # frozen exact value, cross-checked by the correlation-matrix test below
    assert abs(r.entropy_bits - 0.1281733) < 5e-5


@pytest.mark.parametrize("lam", [1.2, 2.0])
def test_entropy_oracle_matches_correlation_matrix(lam):
    # A block of 60 sites has two cuts, each ~60 / xi correlation lengths
    # away from the other (xi = 1/ln(lam) = 5.5 sites at lam = 1.2).
    oracle = exact_half_chain_entropy(TFIMParams(lam)).entropy_bits
    assert abs(correlation_block_entropy(lam, 60) / 2 - oracle) < 1e-9


def test_entropy_oracle_edge_cases():
    r = exact_half_chain_entropy(TFIMParams(0.0))
    assert r.entropy_bits == 1.0 and r.convergence_estimate == 0.0
    # just above lam = 1 the entropy is below one bit; just below it carries
    # the cat bit on top; both grow without bound as lam -> 1
    assert 0.0 < exact_half_chain_entropy(TFIMParams(1.01)).entropy_bits < 1.0
    assert exact_half_chain_entropy(TFIMParams(0.99)).entropy_bits > 1.0
    near = [exact_half_chain_entropy(TFIMParams(1.0 + d)).entropy_bits
            for d in (-1e-6, -1e-3, 1e-3, 1e-6)]
    assert np.all(np.isfinite(near))
    assert near[0] > near[1] > 1.0 and near[3] > near[2] > 0.0
    assert 0.0 < exact_half_chain_entropy(TFIMParams(1e3)).entropy_bits < 1e-5
    for lam in (0.3, 0.999, 1.001, 5.0):
        r = exact_half_chain_entropy(TFIMParams(lam))
        assert r.method == "closed_form" and r.converged
        assert r.convergence_estimate < 1e-12


def test_entropy_oracle_ordered_phase_has_cat_bit():
    r = exact_half_chain_entropy(TFIMParams(0.5))
    assert r.entropy_bits > 1.0
    # correlation length ~1.4 sites at lam=0.5, so a 12-site diagonalization
    # (which picks the symmetric cat state) is converged to the same value
    ed = exact_diag(TFIMParams(0.5), 14, boundary="open")
    assert abs(r.entropy_bits - ed.entropy_bits) < 5e-4


def test_entropy_oracle_critical_point_raises():
    with pytest.raises(ValueError):
        exact_half_chain_entropy(TFIMParams(1.0))
