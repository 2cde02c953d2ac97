import numpy as np
import pytest

from bondsim import mps
from bondsim.ansatz import build_full_unitary, extract_isometry
from bondsim.circuits import build_state_prep_circuit, tomography_settings
from bondsim.estimation import (RESTRICTED_PATTERN, EnergyEstimate, Tomogram,
                                energy_from_records, entropy_from_expectations,
                                entropy_with_ci, expectations_from_tomogram,
                                project_psd, project_simplex,
                                rho_from_expectations, tomogram_from_shots)
from bondsim.mps import BondsimError
from bondsim.noise import ZNEPair, zne_extrapolate
from bondsim.simulator import ShotTable, sample_shots, simulate_exact

COEFFS = 0.35 * np.cos(np.arange(1, 16) * 1.7)
SITE_U = build_full_unitary(COEFFS, 1)
TENSOR = extract_isometry(SITE_U, 1)
J = 24


def sampled_tomogram(shots=4000, seed=0, site_u=SITE_U, n_b=1,
                     restricted=False):
    recs = {}
    for k, setting in enumerate(tomography_settings(n_b, restricted)):
        c = build_state_prep_circuit(site_u, None, J, purpose="tomography",
                                     setting=setting)
        recs[setting] = sample_shots(c, None, shots, seed=seed + k)
    return tomogram_from_shots(recs, n_b)


def exact_bond_state():
    c = build_state_prep_circuit(SITE_U, None, J, purpose="tomography",
                                 setting=("Z",))
    return simulate_exact(c).bond_rho


def shot_table(labels, rows):
    outcomes = np.array(rows, dtype=np.int8)
    return ShotTable(labels=labels, outcomes=outcomes,
                     leaked=np.zeros(len(outcomes), dtype=bool))


def test_energy_from_records_shape():
    shots = shot_table(("m3:X", "m4:Z", "m5:Z"),
                       [(1, 1, 1), (-1, 1, -1), (1, -1, -1), (1, 1, 1)])
    est = energy_from_records(shots, lam=2.0)
    per_shot = [-(1 + 2), -(-1 - 2), -(1 + 2), -(1 + 2)]
    assert np.isclose(est.e, np.mean(per_shot))
    assert np.isclose(est.sigma, np.std(per_shot, ddof=1) / 2)
    assert est.n_shots == 4
    assert set(est.components) == {"mean_X", "mean_ZZ"}


def test_energy_labels_must_be_unambiguous():
    shots = shot_table(("m1:X", "m2:X", "m3:Z", "m4:Z"), [(1, 1, 1, 1)])
    with pytest.raises(BondsimError):
        energy_from_records(shots, 1.0)


def test_tomogram_expectations_match_exact():
    tomo = sampled_tomogram(shots=30000, seed=2)
    rho = exact_bond_state()
    from bondsim.gates import PAULI
    for p in ("X", "Y", "Z"):
        exact = np.trace(rho @ PAULI[p]).real
        assert abs(tomo.expectation(p) - exact) < 4.5 / np.sqrt(30000) + 1e-12
    assert tomo.expectation("I") == 1.0


def test_reconstruct_1q_recovers_state():
    tomo = sampled_tomogram(shots=50000, seed=3)
    est = project_psd(rho_from_expectations(expectations_from_tomogram(tomo)))
    rho = exact_bond_state()
    assert np.linalg.norm(est.rho - rho) < 0.02
    assert np.all(np.linalg.eigvalsh(est.rho) > -1e-12)


def test_project_psd_simplex():
    est = project_psd(np.diag([1.1, -0.1]))
    assert np.allclose(est.rho, np.diag([1.0, 0.0]))
    assert est.psd_projected
    assert np.isclose(est.raw_min_eigenvalue, -0.1)
    # idempotent on valid states
    rho = np.diag([0.75, 0.25])
    est = project_psd(rho)
    assert np.allclose(est.rho, rho)
    assert not est.psd_projected


def test_project_psd_preserves_eigenbasis():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    h = (a + a.T) / 2
    h = h / np.trace(h)
    est = project_psd(h)
    w = np.linalg.eigvalsh(est.rho)
    assert w.min() > -1e-14
    assert np.isclose(w.sum(), 1.0)
    # projection only moves the spectrum
    _, u_in = np.linalg.eigh(h)
    _, u_out = np.linalg.eigh(est.rho)
    assert np.linalg.norm(est.rho @ h - h @ est.rho) < 1e-12


def test_project_simplex_stack_matches_project_psd():
    """Row by row, the stacked projection is the spectrum project_psd
    keeps, on Hermitian stacks with negative eigenvalues and trace != 1."""
    rng = np.random.default_rng(12)
    for dim in (2, 4):
        a = rng.normal(size=(50, dim, dim)) + 1j * rng.normal(size=(50, dim, dim))
        spectra = rng.normal(0.3, 0.5, size=(50, dim))
        spectra[:, 0] = -0.05 - np.abs(spectra[:, 0])
        basis = np.linalg.qr(a)[0]
        h = (basis * spectra[:, None, :]) @ basis.conj().transpose(0, 2, 1)
        w, u = np.linalg.eigh(h)
        assert (w.min(axis=1) < 0).all()
        assert (np.abs(w.sum(axis=1) - 1) > 1e-3).all()
        p = project_simplex(w)
        assert p.min() >= 0 and np.allclose(p.sum(axis=1), 1, atol=1e-14)
        for k in range(len(h)):
            ref = project_psd(h[k]).rho
            assert np.linalg.norm((u[k] * p[k]) @ u[k].conj().T - ref) < 1e-12
            assert np.allclose(np.sort(p[k]), np.linalg.eigvalsh(ref),
                               atol=1e-12)


def test_rho_from_expectations_roundtrip():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    import itertools
    from bondsim.gates import PAULI, kron_all
    exps = {"".join(s): np.trace(rho @ kron_all(PAULI[s[0]], PAULI[s[1]])).real
            for s in itertools.product("IXYZ", repeat=2)}
    assert np.linalg.norm(rho_from_expectations(exps) - rho) < 1e-12


def test_restricted_pattern_is_flip_even():
    from bondsim.gates import PAULI, kron_all
    flip = kron_all(PAULI["X"], PAULI["X"])
    for label in RESTRICTED_PATTERN:
        op = kron_all(PAULI[label[0]], PAULI[label[1]])
        assert np.linalg.norm(flip @ op - op @ flip) < 1e-12


def test_entropy_with_ci_covers_truth():
    tomo = sampled_tomogram(shots=8000, seed=5)
    s, sig = entropy_with_ci(tomo, bootstrap_b=300, seed=9)
    s_true = mps.entanglement_entropy(exact_bond_state()).entropy_bits
    assert sig > 0
    assert abs(s - s_true) < 5 * sig + 0.01


def pure_tomogram(n_b, seed, shots=500):
    """|+...+>: the all-X setting always reads 0, the others are uniform."""
    rng = np.random.default_rng(seed)
    uniform = [1 / 2 ** n_b] * 2 ** n_b
    settings = {s: rng.multinomial(shots, uniform)
                for s in tomography_settings(n_b, restricted=n_b == 2)}
    settings[("X",) * n_b] = np.eye(2 ** n_b, dtype=int)[0] * shots
    return Tomogram(settings=settings, shots_per_setting=shots)


@pytest.mark.parametrize("n_b,restricted,pure", [
    (1, False, False), (2, True, False), (1, False, True), (2, True, True)])
def test_point_estimate_matches_single_matrix_reference(n_b, restricted,
                                                        pure):
    """The batched pipeline's point estimate is the single-matrix entropy of
    the zero-noise-extrapolated expectations; the pure states put the
    extrapolated spectrum outside the simplex, so the projection acts."""
    site_u = SITE_U if n_b == 1 else build_full_unitary(
        0.3 * np.sin(np.arange(1, 64) * 0.9), 2)
    tomo, folded = (pure_tomogram(n_b, seed) if pure else
                    sampled_tomogram(500, seed, site_u, n_b, restricted)
                    for seed in (21, 31))
    s, _ = entropy_with_ci(tomo, mitigation=folded, bootstrap_b=100,
                           restricted=restricted)
    exps = zne_extrapolate(ZNEPair(
        base_estimates=expectations_from_tomogram(tomo, restricted),
        folded_estimates=expectations_from_tomogram(folded, restricted)))
    assert project_psd(rho_from_expectations(exps)).psd_projected == pure
    assert abs(s - entropy_from_expectations(exps, restricted)) < 1e-12


def test_entropy_with_ci_input_guards():
    tomo = sampled_tomogram(shots=40, seed=6)
    with pytest.raises(BondsimError):
        entropy_with_ci(tomo, bootstrap_b=200)
    tomo = sampled_tomogram(shots=200, seed=6)
    with pytest.raises(ValueError):
        entropy_with_ci(tomo, bootstrap_b=10)


def test_shot_floor_checks_every_setting():
    # post-selection can leave settings with unequal counts; a short setting
    # that is not the last one must still trip the 50-shot floor
    recs = {}
    for k, setting in enumerate(tomography_settings(1)):
        c = build_state_prep_circuit(SITE_U, None, J, purpose="tomography",
                                     setting=setting)
        recs[setting] = sample_shots(c, None, 30 if k == 0 else 200, seed=k)
    tomo = tomogram_from_shots(recs, 1)
    assert tomo.shots_per_setting == 30
    with pytest.raises(BondsimError):
        entropy_with_ci(tomo, bootstrap_b=200)


def test_tomogram_resample_statistics():
    tomo = sampled_tomogram(shots=2000, seed=7)
    sparse = Tomogram(settings={("X", "Z"): np.array([5, 0, 3, 0]),
                                ("Z", "Z"): np.array([0, 0, 0, 8])},
                      shots_per_setting=8)
    for t in (tomo, sparse):
        r = t.resample(np.random.default_rng(0), 30)
        assert r.shots_per_setting == t.shots_per_setting
        for setting, counts in r.settings.items():
            observed = t.settings[setting]
            assert counts.shape == (30, len(observed))
            # every draw keeps the total and stays on the observed support
            assert (counts.sum(axis=1) == observed.sum()).all()
            assert (counts[:, observed == 0] == 0).all()
    # resampling moves the expectation by roughly the binomial scale
    diffs = np.abs(tomo.resample(np.random.default_rng(0), 30)
                   .expectation("Z") - tomo.expectation("Z"))
    assert 0 < np.mean(diffs) < 5 / np.sqrt(2000)


def test_expectations_from_tomogram_restricted_zeros():
    settings = {s: np.array([10, 0, 0, 10]) for s in
                [("X", "X"), ("Y", "Z"), ("Z", "Y")]}
    tomo = Tomogram(settings=settings, shots_per_setting=20, metadata={})
    exps = expectations_from_tomogram(tomo, restricted=True)
    assert exps["YY"] == 0.0 and exps["ZZ"] == 0.0
    assert set(exps) == {"".join(p) for p in
                         __import__("itertools").product("IXYZ", repeat=2)}
