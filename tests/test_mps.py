"""Bond-channel linear algebra against hand-checkable states.

The product state (V_s = delta_s0 I) and the cluster-like random isometry
cover the degenerate and generic spectral branches respectively.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bondsim import mps
from bondsim.mps import (BoundaryState, DegenerateChannelError, MPSTensor,
                         NotIsometricError)


def random_isometric_tensor(chi, seed):
    """Haar-random unitary on (system x bond), restricted to bond input |0>."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 * chi, 2 * chi)) + 1j * rng.normal(size=(2 * chi, 2 * chi))
    q, r = np.linalg.qr(m)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    # columns alpha of block sigma: V[sigma, alpha, beta] = <sigma beta|U|0 alpha>
    v = np.zeros((2, chi, chi), dtype=complex)
    for s in range(2):
        for a in range(chi):
            for b in range(chi):
                v[s, a, b] = q[s * chi + b, a]
    return MPSTensor(v)


def test_tensor_shape_validation():
    with pytest.raises(ValueError):
        MPSTensor(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        MPSTensor(np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        MPSTensor(np.zeros((2, 3, 3)))  # chi not a power of two


@given(st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_random_isometry_is_isometric(seed):
    t = random_isometric_tensor(2, seed)
    assert mps.is_isometry(t)


def test_non_isometry_rejected():
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0] = np.eye(2)
    v[1] = np.eye(2)  # sum V V^dag = 2I
    with pytest.raises(NotIsometricError):
        mps.bond_channel(MPSTensor(v))


def test_channel_trace_preserving():
    t = random_isometric_tensor(4, 11)
    ch = mps.bond_channel(t)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out = mps.apply_channel(ch, rho)
    assert np.isclose(np.trace(out), 1.0)
    assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_product_state_channel_degenerate_free():
    # V_0 = I, V_1 = 0: channel is the identity map, every rho is fixed.
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0] = np.eye(2)
    ch = mps.bond_channel(MPSTensor(v))
    spec = mps.transfer_spectrum(ch)
    assert spec.degenerate
    with pytest.raises(DegenerateChannelError):
        mps.burn_in_length(spec, 1e-6)
    with pytest.raises(DegenerateChannelError):
        mps.select_boundary(spec)


def test_transfer_spectrum_fixed_point():
    t = random_isometric_tensor(2, 5)
    ch = mps.bond_channel(t)
    spec = mps.transfer_spectrum(ch)
    assert np.isclose(abs(spec.eigenvalues[0]), 1.0, atol=1e-10)
    rho = spec.fixed_point
    assert np.isclose(np.trace(rho), 1.0)
    assert np.linalg.norm(mps.apply_channel(ch, rho) - rho) < 1e-9


def test_burn_in_length_controls_distance():
    t = random_isometric_tensor(2, 5)
    ch = mps.bond_channel(t)
    spec = mps.transfer_spectrum(ch)
    tol = 1e-6
    j = mps.burn_in_length(spec, tol)
    boundary, _ = mps.select_boundary(spec)
    rho = boundary.density()
    for _ in range(j):
        rho = mps.apply_channel(ch, rho)
    # after j steps every transient has decayed below ~tol
    assert np.linalg.norm(rho - spec.fixed_point) < 50 * tol
    assert abs(spec.eigenvalues[1]) ** j <= tol * (1 + 1e-9)
    assert abs(spec.eigenvalues[1]) ** (j - 1) > tol
    for bad in (0.0, 1.0, 2.0, -1e-4, float("nan")):
        with pytest.raises(ValueError):
            mps.burn_in_length(spec, bad)


BOUNDARY_CASES = [(2, 1), (2, 5), (2, 17), (4, 23), (4, 2), (4, 40), (8, 3),
                  (8, 12)]


@pytest.mark.parametrize("chi,seed", BOUNDARY_CASES)
def test_select_boundary_kills_slowest_transient(chi, seed):
    t = random_isometric_tensor(chi, seed)
    ch = mps.bond_channel(t)
    spec = mps.transfer_spectrum(ch)
    boundary, overlap = mps.select_boundary(spec)
    ov = abs(boundary.vector.conj() @ spec.subdominant_mode.conj().T
             @ boundary.vector)
    assert np.isclose(ov, overlap, atol=1e-9)
    assert overlap < 1e-11
    # biorthogonality: the slowest mode carries no weight at the fixed point
    assert abs(np.trace(spec.subdominant_mode.conj().T @ spec.fixed_point)) < 1e-12
    again, _ = mps.select_boundary(spec)
    assert np.array_equal(again.vector, boundary.vector)
    sym = mps.symmetric_boundary(chi)
    ov_sym = abs(sym.vector.conj() @ spec.subdominant_mode.conj().T
                 @ sym.vector)
    assert overlap <= ov_sym + 1e-12


def test_select_boundary_ignores_phase_and_noise_of_the_mode():
    """The boundary depends on the subdominant eigenspace only, not on the
    phase LAPACK gives its vector or on rounding noise in it.  Covers real
    mu_2 (the cross-term phase is free) and the flip-covariant chi=4 points
    (every <psi_k|E2^dag|psi_k> is 0)."""
    from bondsim.ansatz import AnsatzParams
    from bondsim.sweeps import _bundled_table
    tensors = [AnsatzParams.from_json(rec).tensor()
               for rec in _bundled_table().values()]
    assert len(tensors) == 23
    tensors += [random_isometric_tensor(chi, seed)
                for chi, seed in BOUNDARY_CASES]
    rng = np.random.default_rng(8)
    for t in tensors:
        spec = mps.transfer_spectrum(mps.bond_channel(t))
        base = mps.select_boundary(spec)[0].vector
        mode = spec.subdominant_mode
        noise = rng.normal(size=mode.shape) + 1j * rng.normal(size=mode.shape)
        variants = [mode * np.exp(1j * th) for th in (0.3, np.pi / 2, np.pi, 2)]
        variants.append(mode + 1e-14 * noise / np.linalg.norm(noise))
        for m in variants:
            moved = mps.select_boundary(replace(spec, subdominant_mode=m))[0]
            assert np.linalg.norm(moved.vector - base) < 1e-10


def _cycle_tensor(chi):
    """Isometric tensor whose channel permutes the basis states cyclically
    (K_0 = |1><0| + |2><1| + ..., K_1 the rest of the cycle), so its transfer
    eigenvalues include every chi-th root of unity."""
    k = [np.zeros((chi, chi)), np.zeros((chi, chi))]
    for a in range(chi):
        k[a >= chi // 2][(a + 1) % chi, a] = 1.0
    return MPSTensor(np.stack([k[0].T, k[1].T]))


@pytest.mark.parametrize("chi", [2, 4])
def test_periodic_channel_is_degenerate(chi):
    ch = mps.bond_channel(_cycle_tensor(chi))
    spec = mps.transfer_spectrum(ch)
    roots = np.exp(2j * np.pi * np.arange(chi) / chi)
    assert all(np.min(np.abs(spec.eigenvalues - r)) < 1e-12 for r in roots)
    assert spec.degenerate
    # the reachable fixed point is the running mean of the iterates
    assert np.allclose(spec.fixed_point, np.eye(chi) / chi, atol=1e-12)
    with pytest.raises(DegenerateChannelError):
        mps.burn_in_length(spec, 1e-4)
    with pytest.raises(DegenerateChannelError):
        mps.select_boundary(spec)


def test_entanglement_entropy_basics():
    r = mps.entanglement_entropy(np.eye(2) / 2)
    assert np.isclose(r.entropy_bits, 1.0)
    assert np.allclose(r.schmidt_spectrum, [0.5, 0.5])
    r = mps.entanglement_entropy(np.diag([1.0, 0.0]))
    assert r.entropy_bits == 0.0
    with pytest.raises(ValueError):
        mps.entanglement_entropy(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        mps.entanglement_entropy(np.array([[0.5, 0.5], [-0.5, 0.5]]))


def test_half_chain_entropy_converges_to_fixed_point():
    t = random_isometric_tensor(2, 9)
    ch = mps.bond_channel(t)
    spec = mps.transfer_spectrum(ch)
    s_inf = mps.entanglement_entropy(spec.fixed_point).entropy_bits
    s_j = mps.half_chain_entropy(t, mps.symmetric_boundary(2), 200).entropy_bits
    assert abs(s_j - s_inf) < 1e-8


def test_expectation_consistency():
    """<O>_j from the iterated channel equals the brute-force trace formula."""
    t = random_isometric_tensor(2, 31)
    k = mps.bond_channel(t)
    b = mps.symmetric_boundary(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    j = 7
    rho = b.density()
    for _ in range(j - 1):
        rho = mps.apply_channel(k, rho)
    assert np.allclose(mps._iterate(k, b, j - 1), rho, atol=1e-14)
    ex = sum(x[s, tt] * np.trace(k[tt] @ rho @ k[s].conj().T)
             for s in (0, 1) for tt in (0, 1)).real
    got_x, zz = mps.ising_terms(k, rho)
    assert np.isclose(got_x, ex, atol=1e-12)
    # <Z_j Z_{j+1}> reduces to two independent site means iff uncorrelated;
    # here just check it lies in [-1, 1] and matches a direct contraction
    assert -1.0 - 1e-9 <= zz <= 1.0 + 1e-9
    mid = k[0] @ rho @ k[0].conj().T - k[1] @ rho @ k[1].conj().T
    direct = (np.trace(k[0] @ mid @ k[0].conj().T)
              - np.trace(k[1] @ mid @ k[1].conj().T)).real
    assert np.isclose(zz, direct, atol=1e-12)


def test_boundary_state_normalization():
    with pytest.raises(ValueError):
        BoundaryState(np.array([1.0, 1.0]))
    b = BoundaryState(np.array([1.0, 0.0]))
    assert np.allclose(b.density(), np.diag([1.0, 0.0]))
