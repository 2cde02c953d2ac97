import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bondsim import ansatz, mps
from bondsim.ansatz import (AnsatzParams, OptimizerConfig, ansatz_gate_sequence,
                            ansatz_num_params, boundary_prep,
                            build_ansatz_unitary, build_full_unitary,
                            canonical_gauge, energy_and_gradient,
                            extract_isometry, full_unitary_num_params,
                            gxy_gate, tensor_energy, variational_optimize)
from bondsim.gates import X, Y, Z, embed, global_phase_distance, kron_all
from bondsim.mps import steady_state
from bondsim.sweeps import get_params
from references import (flip_covariance_error, two_pass_ansatz_products,
                        unitarity_error)

ANGLES = st.floats(-np.pi, np.pi, allow_nan=False)


@given(ANGLES, ANGLES)
@settings(max_examples=25, deadline=None)
def test_gxy_commutes_with_y_cross_x(a, b):
    g = gxy_gate(a, b)
    yx = np.kron(Y, X)
    assert np.linalg.norm(g @ yx - yx @ g) < 1e-12


@pytest.mark.parametrize("n_b", [1, 2])
def test_layout_unitary_and_covariant(n_b):
    rng = np.random.default_rng(4)
    angles = rng.uniform(-np.pi, np.pi, ansatz_num_params(n_b))
    u = build_ansatz_unitary(angles, n_b)
    assert unitarity_error(u) < 1e-12
    assert flip_covariance_error(u, n_b) < 1e-12


@pytest.mark.parametrize("n_b", [1, 2])
def test_gate_sequence_reproduces_layout(n_b):
    rng = np.random.default_rng(9)
    angles = rng.uniform(-np.pi, np.pi, ansatz_num_params(n_b))
    n_wires = 1 + n_b
    u = np.eye(2 ** n_wires, dtype=complex)
    for mat, wires in ansatz_gate_sequence(angles, n_b):
        u = embed(mat, wires, n_wires) @ u
    assert np.linalg.norm(u - build_ansatz_unitary(angles, n_b)) < 1e-12


def test_full_unitary_param_count_and_unitarity():
    assert full_unitary_num_params(1) == 15
    assert full_unitary_num_params(2) == 63
    rng = np.random.default_rng(2)
    u = build_full_unitary(rng.normal(size=15) * 0.3, 1)
    assert unitarity_error(u) < 1e-12


def test_angle_vector_length_checked():
    with pytest.raises(ValueError):
        build_ansatz_unitary(np.zeros(9), 1)
    with pytest.raises(ValueError):
        build_full_unitary(np.zeros(14), 1)


@pytest.mark.parametrize("n_b", [1, 2])
def test_extract_isometry_roundtrip(n_b):
    rng = np.random.default_rng(7)
    u = build_ansatz_unitary(rng.uniform(-1, 1, ansatz_num_params(n_b)), n_b)
    t = extract_isometry(u, n_b)
    assert mps.is_isometry(t)
    # the tensor is the |0, alpha> column block of the unitary: writing it
    # back there gives the unitary again
    chi = 2 ** n_b
    u2 = u.copy()
    u2[:, :chi] = t.data.transpose(0, 2, 1).reshape(2 * chi, chi)
    assert np.allclose(u2, u)
    t2 = extract_isometry(u2, n_b)
    assert np.allclose(t.data, t2.data)
    assert unitarity_error(u2) < 1e-10


def test_steady_state_matches_transfer_spectrum():
    rng = np.random.default_rng(17)
    u = build_full_unitary(rng.normal(size=15) * 0.4, 1)
    t = extract_isometry(u, 1)
    rho = steady_state(t)
    spec = mps.transfer_spectrum(mps.bond_channel(t))
    assert np.linalg.norm(rho - spec.fixed_point) < 1e-9


def test_tensor_energy_matches_iterated_channel():
    """The energy density is the long-chain limit of the brute-force site
    sums sum_{s,t} O[s,t] K_t rho K_s^dag along the iterated channel."""
    rng = np.random.default_rng(23)
    u = build_full_unitary(rng.normal(size=15) * 0.4, 1)
    t = extract_isometry(u, 1)
    k = mps.bond_channel(t)
    rho = mps._iterate(k, mps.BoundaryState(np.array([1.0, 0.0])), 400)

    def site(op, r):
        return sum(op[s, q] * (k[q] @ r @ k[s].conj().T)
                   for s in (0, 1) for q in (0, 1))

    ex = np.trace(site(X, rho)).real
    ezz = np.trace(site(Z, site(Z, rho))).real
    for lam in (0.5, 1.0, 1.7):
        assert np.isclose(tensor_energy(t, lam), -(ezz + lam * ex),
                          atol=1e-10)


def test_params_json_roundtrip():
    p = AnsatzParams(lam=1.2, n_b=1, mode="full_unitary",
                     angles=tuple(np.linspace(-1, 1, 15)), energy=-1.4188)
    q = AnsatzParams.from_json(p.to_json())
    assert q == p
    assert q.tensor().chi == 2


def test_optimize_small_field_is_product_limit():
    """lambda = 0: the optimum is the classical Ising product state, e = -1."""
    cfg = OptimizerConfig(restarts=2, maxiter=2000)
    params, e = variational_optimize(0.0, 1, mode="full_unitary", config=cfg)
    assert e <= -1.0 + 1e-7
    assert np.isclose(params.energy, e)


def test_optimize_large_field_limit():
    """lambda >> 1: paramagnet, e -> -lam - 1/(4 lam); a chi=2 MPS captures
    the leading 1/lam correction, so the optimum sits between the exact
    energy and the mean-field value -lam."""
    from bondsim.tfim import TFIMParams, exact_energy_density
    cfg = OptimizerConfig(restarts=3, maxiter=3000)
    params, e = variational_optimize(100.0, 1, mode="full_unitary", config=cfg)
    e_exact = exact_energy_density(TFIMParams(100.0)).energy_density
    assert e >= e_exact - 1e-9          # variational bound
    assert e <= e_exact + 2e-4          # and nearly saturates it
    assert abs(e_exact - (-100.0 - 1 / 400.0)) < 1e-6  # asymptote check


def test_optimize_deterministic():
    cfg = OptimizerConfig(restarts=1, maxiter=1500)
    p1, e1 = variational_optimize(1.3, 1, mode="full_unitary", config=cfg)
    p2, e2 = variational_optimize(1.3, 1, mode="full_unitary", config=cfg)
    assert p1.angles == p2.angles
    assert e1 == e2


@pytest.mark.parametrize("lam", [0.3, 1.3, 100.0])
@pytest.mark.parametrize("n_b", [1, 2])
@pytest.mark.parametrize("mode", ["full_unitary", "ansatz"])
def test_energy_gradient_matches_central_differences(mode, n_b, lam):
    n = (full_unitary_num_params if mode == "full_unitary"
         else ansatz_num_params)(n_b)
    x = np.random.default_rng(11 + n_b).normal(scale=1.2, size=n)
    value, grad = energy_and_gradient(x, lam, n_b, mode)
    assert value == tensor_energy(extract_isometry(
        build_full_unitary(x, n_b) if mode == "full_unitary"
        else build_ansatz_unitary(x, n_b), n_b), lam)
    h = 1e-5
    central = np.array([
        (energy_and_gradient(x + h * e, lam, n_b, mode)[0]
         - energy_and_gradient(x - h * e, lam, n_b, mode)[0]) / (2 * h)
        for e in np.eye(n)])
    assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(grad)


def _chi4_angle_points() -> list:
    """The five bundled chi=4 points and four random angle vectors."""
    bundled = [np.asarray(get_params(lam, 2, optimize_if_missing=False).angles)
               for lam in (1.01, 1.05, 1.1, 1.15, 1.2)]
    rng = np.random.default_rng(41)
    return bundled + [rng.normal(scale=1.2, size=ansatz_num_params(2))
                      for _ in range(4)]


@pytest.mark.parametrize("n_b", [1, 2])
def test_one_pass_layout_products_match_two_passes_bitwise(n_b):
    """U and the gradient's prefixes from one pass over the gate list are
    bit for bit the two-pass composition, and so are the objective's value
    and gradient."""
    points = (_chi4_angle_points() if n_b == 2 else
              [np.random.default_rng(s).normal(scale=1.2, size=10)
               for s in range(4)])
    for x in points:
        u, prefix = ansatz._ansatz_products(x, n_b)
        ref_u, ref_prefix = two_pass_ansatz_products(x, n_b)
        assert np.array_equal(u, ref_u)
        assert np.array_equal(prefix, ref_prefix)
        assert np.array_equal(build_ansatz_unitary(x, n_b), ref_u)
        tensor = extract_isometry(ref_u, n_b)
        g = ansatz._unitary_gradient(tensor, 1.1)
        value, grad = energy_and_gradient(x, 1.1, n_b, "ansatz")
        assert value == tensor_energy(tensor, 1.1)
        assert np.array_equal(
            grad, ansatz._ansatz_gradient(n_b, ref_prefix, ref_u, g))


def test_degenerate_fixed_point_gets_the_penalty():
    """U = I: K_0 = I and K_1 = 0, so every state is fixed and the adjoint
    solve is singular.  The objective returns the penalty, not an error."""
    k = extract_isometry(build_full_unitary(np.zeros(15), 1), 1).data
    with pytest.raises(np.linalg.LinAlgError):
        mps.ising_energy_gradient(k.transpose(0, 2, 1), 1.0)
    value, grad = energy_and_gradient(np.zeros(15), 1.0, 1, "full_unitary")
    assert value == 10.0
    assert np.array_equal(grad, np.zeros(15))


@pytest.mark.parametrize("lam", [0.3, 2.0])
def test_optimizer_reaches_exact_on_the_benchmark_budget(lam):
    """One start with 20 iterations (and an 80-iteration polish) lands
    within 1e-4 J/site of the exact energy density, in both phases."""
    from bondsim.tfim import TFIMParams, exact_energy_density
    _, e = variational_optimize(lam, 1, "full_unitary",
                                OptimizerConfig(restarts=1, maxiter=20))
    e_exact = exact_energy_density(TFIMParams(lam)).energy_density
    assert e_exact - 1e-9 <= e <= e_exact + 1e-4


@pytest.mark.parametrize("lam, n_b", [(0.2, 1), (1.15, 1), (1.15, 2)])
def test_reoptimizing_bundled_points_reaches_their_energy(lam, n_b):
    """The default config, from its seeded starts, gets at least as low as
    the stored optimum (the table is not rewritten)."""
    from bondsim.sweeps import get_params
    stored = get_params(lam, n_b, optimize_if_missing=False)
    _, e = variational_optimize(lam, n_b, stored.mode)
    assert e <= stored.energy + 1e-12


@pytest.mark.parametrize("field", ["restarts", "maxiter"])
def test_optimizer_config_rejects_empty_budget(field):
    for bad in (0, -2):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            OptimizerConfig(**{field: bad})


def test_boundary_prep_first_column():
    rng = np.random.default_rng(3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    w = boundary_prep(mps.BoundaryState(v))
    assert unitarity_error(w) < 1e-10
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.linalg.norm(w @ e0 - v) < 1e-12


def _gauge_case(case):
    if case == "random":
        rng = np.random.default_rng(41)
        angles = rng.uniform(-np.pi, np.pi, ansatz_num_params(2))
        return extract_isometry(build_ansatz_unitary(angles, 2), 2)
    if case == "zero":   # (Y, Z) block exactly 0: atan2(0, 0)
        return extract_isometry(
            build_ansatz_unitary(np.zeros(ansatz_num_params(2)), 2), 2)
    from bondsim.sweeps import get_params
    return get_params(case, 2, optimize_if_missing=False).tensor()


@pytest.mark.parametrize("case", ["random", "zero", 1.01, 1.05, 1.1, 1.15,
                                  1.2])
def test_canonical_gauge_nulls_yy_zz(case):
    t = _gauge_case(case)
    gauged, g, ths = canonical_gauge(t)
    assert mps.is_isometry(gauged)
    rho = steady_state(gauged)
    from bondsim.gates import PAULI
    def coeff(label):
        return np.trace(rho @ kron_all(*[PAULI[c] for c in label])).real
    assert abs(coeff("YY")) < 1e-12
    assert abs(coeff("ZZ")) < 1e-12
    # gauge consistency: gauged fixed point is G rho_old G^dag
    rho_old = steady_state(t)
    assert np.linalg.norm(rho - g @ rho_old @ g.conj().T) < 1e-9
    # entropy is gauge invariant
    s_old = mps.entanglement_entropy(rho_old).entropy_bits
    s_new = mps.entanglement_entropy(rho).entropy_bits
    assert abs(s_old - s_new) < 1e-10


def test_canonical_gauge_trivial_for_chi2():
    rng = np.random.default_rng(5)
    t = extract_isometry(build_ansatz_unitary(
        rng.uniform(-1, 1, 10), 1), 1)
    same, g, ths = canonical_gauge(t)
    assert np.allclose(same.data, t.data)
    assert np.allclose(g, np.eye(2))
    assert ths == (0.0,)
