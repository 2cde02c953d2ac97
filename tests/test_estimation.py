import itertools
from collections import Counter

import numpy as np
import pytest

import references
from bondsim import estimation, mps
from bondsim.ansatz import build_full_unitary, extract_isometry
from bondsim.circuits import build_state_prep_circuit, tomography_settings
from bondsim.estimation import (RESTRICTED_PATTERN, Tomogram,
                                energy_from_records, entropy_with_ci,
                                pauli_coefficients, project_simplex,
                                projected_entropy, rho_from_coefficients,
                                tomogram_from_shots)
from bondsim.gates import pauli_strings
from bondsim.mps import BondsimError
from bondsim.noise import zne_extrapolate
from bondsim.simulator import ShotTable, sample_shots, simulate_exact
from bondsim.sweeps import get_params

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
    w, u = np.linalg.eigh(rho_from_coefficients(pauli_coefficients(tomo), 1))
    est = (u * project_simplex(w)) @ u.conj().T
    rho = exact_bond_state()
    assert np.linalg.norm(est - rho) < 0.02
    assert np.all(np.linalg.eigvalsh(est) > -1e-12)


def test_project_psd_simplex():
    """The spectrum of an unphysical state moves to the nearest point of the
    simplex, a valid one stays put, and projected_entropy reads the result."""
    assert np.allclose(project_simplex(np.array([1.1, -0.1])), [1.0, 0.0])
    assert np.array_equal(project_simplex(np.array([0.75, 0.25])),
                          [0.75, 0.25])
    assert projected_entropy(np.diag([1.1, -0.1])) == 0.0
    h = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert np.isclose(projected_entropy(np.diag([0.25, 0.75])), h, atol=1e-15)


def test_project_simplex_is_the_euclidean_projection():
    """Row by row on stacks with negative entries and sums != 1, the output
    meets the optimality conditions of min |p - w| over the simplex: p is a
    distribution, p - w is one constant on the support, and no entry off the
    support would rise above 0 by that constant.  projected_entropy runs the
    same projection on the spectra of a Hermitian stack."""
    rng = np.random.default_rng(12)
    for dim in (2, 4):
        w = rng.normal(0.3, 0.5, size=(50, dim))
        w[:, 0] = -0.05 - np.abs(w[:, 0])
        assert (np.abs(w.sum(axis=1) - 1) > 1e-3).all()
        p = project_simplex(w)
        assert p.min() >= 0 and np.allclose(p.sum(axis=1), 1, atol=1e-14)
        for k in range(len(w)):
            on = p[k] > 0
            shift = (p[k] - w[k])[on]
            assert np.ptp(shift) < 1e-12
            assert (w[k][~on] + shift[0] <= 1e-12).all()
        a = rng.normal(size=(50, dim, dim)) + 1j * rng.normal(size=(50, dim, dim))
        basis = np.linalg.qr(a)[0]
        h = (basis * w[:, None, :]) @ basis.conj().transpose(0, 2, 1)
        assert np.allclose(projected_entropy(h), mps.entropy_bits(p),
                           atol=1e-12)


def test_rho_from_expectations_roundtrip():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    coeffs = np.einsum("ij,pji->p", rho, pauli_strings(2)).real
    assert np.linalg.norm(rho_from_coefficients(coeffs, 2) - rho) < 1e-12
    stack = rho_from_coefficients(np.stack([coeffs, coeffs]), 2)
    assert stack.shape == (2, 4, 4) and np.allclose(stack, rho, atol=1e-12)


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
    extrapolated spectrum outside the simplex, so the projection acts.  The
    reference assembles, projects and reads the one matrix here."""
    site_u = SITE_U if n_b == 1 else build_full_unitary(
        0.3 * np.sin(np.arange(1, 64) * 0.9), 2)
    tomo, folded = (pure_tomogram(n_b, seed) if pure else
                    sampled_tomogram(500, seed, site_u, n_b, restricted)
                    for seed in (21, 31))
    s, _ = entropy_with_ci(tomo, mitigation=folded, bootstrap_b=100,
                           restricted=restricted)
    coeffs = zne_extrapolate(pauli_coefficients(tomo, restricted),
                             pauli_coefficients(folded, restricted))
    rho = np.einsum("p,pij->ij", coeffs, pauli_strings(n_b)) / 2 ** n_b
    w, u = np.linalg.eigh(rho)
    assert (w.min() < 0) == pure
    ref = mps.entanglement_entropy((u * project_simplex(w)) @ u.conj().T)
    assert abs(s - ref.entropy_bits) < 1e-12


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


def test_empty_folded_setting_is_an_error():
    """Post-selection can keep no shot of a folded setting: that is a
    BondsimError, which a sweep turns into an error row."""
    tomo = sampled_tomogram(shots=200, seed=6)
    recs = {}
    for k, setting in enumerate(tomography_settings(1)):
        c = build_state_prep_circuit(SITE_U, None, J, purpose="tomography",
                                     setting=setting)
        shots = sample_shots(c, None, 200, seed=k)
        recs[setting] = shots[:0] if k == 1 else shots
    folded = tomogram_from_shots(recs, 1)
    assert folded.shots_per_setting == 0
    with pytest.raises(BondsimError, match="kept no shots"):
        entropy_with_ci(tomo, mitigation=folded, bootstrap_b=100)


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
    coeffs = pauli_coefficients(tomo, restricted=True)
    assert coeffs.shape == (16,)
    exps = dict(zip(map("".join, itertools.product("IXYZ", repeat=2)), coeffs))
    assert exps["YY"] == 0.0 and exps["ZZ"] == 0.0
    assert exps["II"] == exps["XX"] == exps["YZ"] == exps["ZY"] == 1.0
    assert {p for p, v in exps.items() if v} <= set(RESTRICTED_PATTERN)


def test_exact_checks_run_the_estimator_of_entropy_with_ci(monkeypatch):
    """Acceptance criteria 03 and 07 reach rho and S through the functions
    that make entropy_with_ci's point estimate and its bootstrap stack."""
    calls = Counter()
    names = ("pauli_coefficients", "rho_from_coefficients",
             "projected_entropy")
    for name in names:
        fn = getattr(estimation, name)
        monkeypatch.setattr(estimation, name, lambda *a, _fn=fn, _name=name,
                            **kw: calls.update([_name]) or _fn(*a, **kw))
    entropy_with_ci(sampled_tomogram(shots=500, seed=8), bootstrap_b=100)
    assert calls == {name: 2 for name in names}
    calls.clear()
    params = get_params(1.2, 2, optimize_if_missing=False)
    references.tomography_state(
        references.exact_tomogram(params, 40, restricted=True),
        restricted=True)
    assert calls == {name: 1 for name in names}
