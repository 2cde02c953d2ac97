import numpy as np
import pytest

from bondsim import mps
from bondsim.ansatz import build_full_unitary, extract_isometry
from bondsim.circuits import build_state_prep_circuit, tomography_settings
from bondsim.estimation import (RESTRICTED_PATTERN, EnergyEstimate, Tomogram,
                                energy_from_records, entropy_with_ci,
                                expectations_from_tomogram, project_psd,
                                reconstruct_1q, reconstruct_2q,
                                rho_from_expectations, tomogram_from_shots)
from bondsim.mps import BondsimError
from bondsim.simulator import sample_shots, simulate_exact

COEFFS = 0.35 * np.cos(np.arange(1, 16) * 1.7)
SITE_U = build_full_unitary(COEFFS, 1)
TENSOR = extract_isometry(SITE_U, 1)
J = 24


def sampled_tomogram(shots=4000, seed=0):
    recs = {}
    for k, setting in enumerate(tomography_settings(1)):
        c = build_state_prep_circuit(SITE_U, None, J, purpose="tomography",
                                     setting=setting)
        recs[setting] = sample_shots(c, None, shots, seed=seed + k)
    return tomogram_from_shots(recs, 1)


def exact_bond_state():
    c = build_state_prep_circuit(SITE_U, None, J, purpose="tomography",
                                 setting=("Z",))
    return simulate_exact(c).bond_rho


def test_energy_from_records_shape():
    class Rec:
        def __init__(self, x, z1, z2):
            self.outcomes = {"m3:X": x, "m4:Z": z1, "m5:Z": z2}
    shots = [Rec(1, 1, 1), Rec(-1, 1, -1), Rec(1, -1, -1), Rec(1, 1, 1)]
    est = energy_from_records(shots, lam=2.0)
    per_shot = [-(1 + 2), -(-1 - 2), -(1 + 2), -(1 + 2)]
    assert np.isclose(est.e, np.mean(per_shot))
    assert np.isclose(est.sigma, np.std(per_shot, ddof=1) / 2)
    assert est.n_shots == 4
    assert set(est.components) == {"mean_X", "mean_ZZ"}


def test_energy_labels_must_be_unambiguous():
    class Rec:
        outcomes = {"m1:X": 1, "m2:X": 1, "m3:Z": 1, "m4:Z": 1}
    with pytest.raises(BondsimError):
        energy_from_records([Rec()], 1.0)


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
    est = reconstruct_1q(tomo)
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
    rng = np.random.default_rng(0)
    r = tomo.resample(rng)
    assert r.shots_per_setting == tomo.shots_per_setting
    for setting, counts in r.settings.items():
        assert sum(counts.values()) == tomo.shots_per_setting
        assert set(counts) <= set(tomo.settings[setting]) | {"0", "1"}
    # resampling moves the expectation by roughly the binomial scale
    diffs = [abs(tomo.resample(np.random.default_rng(k)).expectation("Z")
                 - tomo.expectation("Z")) for k in range(30)]
    assert 0 < np.mean(diffs) < 5 / np.sqrt(2000)


def test_expectations_from_tomogram_restricted_zeros():
    settings = {s: {"00": 10, "11": 10} for s in
                [("X", "X"), ("Y", "Z"), ("Z", "Y")]}
    tomo = Tomogram(settings=settings, shots_per_setting=20, metadata={})
    exps = expectations_from_tomogram(tomo, restricted=True)
    assert exps["YY"] == 0.0 and exps["ZZ"] == 0.0
    assert set(exps) == {"".join(p) for p in
                         __import__("itertools").product("IXYZ", repeat=2)}
