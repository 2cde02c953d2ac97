import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from bondsim.circuits import build_state_prep_circuit, compile_circuit
from bondsim.gates import embed, kron_all, rz
from bondsim.noise import (NoiseModel, depolarize, fold_circuit,
                           leakage_postselect, zne_extrapolate)
from bondsim.simulator import ShotTable
from bondsim.sweeps import get_params
from bondsim.tfim import TFIMParams, exact_energy_density
from references import exact_mitigated_energy


def random_density(n_wires, seed):
    rng = np.random.default_rng(seed)
    d = 2 ** n_wires
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_noise_model_defaults_and_validation():
    nm = NoiseModel()
    assert nm.p2 == 0.008 and nm.p1 == 0.0003 and nm.p_leak == 0.001
    assert nm.eps_meas == 0.002 and nm.eps_reset == 0.0004
    assert not nm.trivial
    assert NoiseModel.none().trivial
    with pytest.raises(ValueError):
        NoiseModel(p2=1.5)
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1)


def test_noise_model_json_roundtrip(tmp_path):
    nm = NoiseModel(p2=0.01, p1=0.001, p_leak=0.0, eps_meas=0.0,
                    eps_reset=0.0)
    assert NoiseModel.from_json(nm.to_json()) == nm
    path = tmp_path / "noise.json"
    path.write_text(nm.to_json())
    assert NoiseModel.load(path) == nm


def test_depolarize_limits():
    rho = random_density(2, 0)
    assert np.allclose(depolarize(rho, (0, 1), 0.0, 2), rho)
    out = depolarize(rho, (0, 1), 1.0, 2)
    assert np.allclose(out, np.eye(4) / 4)
    # one wire at p=1: marginal on the other wire is untouched
    out = depolarize(rho, (0,), 1.0, 2)
    marg = out.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    marg_in = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    assert np.allclose(marg, marg_in)
    assert np.allclose(out, np.kron(np.eye(2) / 2, marg_in))


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=20, deadline=None)
def test_depolarize_composes(p, q):
    """Two depolarizing hits on the same wire compose with
    1 - p_eff = (1-p)(1-q)."""
    rho = random_density(2, 3)
    twice = depolarize(depolarize(rho, (1,), p, 2), (1,), q, 2)
    once = depolarize(rho, (1,), 1 - (1 - p) * (1 - q), 2)
    assert np.linalg.norm(twice - once) < 1e-12


def test_depolarize_commutes_with_a_unitary_on_its_wire():
    """The premise of the simulator's rotation fusion: a rotation run and
    its k p-hits equal the run's product and one hit of 1 - (1-p)^k, here
    on a batch of states."""
    rho = np.stack([random_density(3, s) for s in range(4)])
    us = [embed(unitary_group.rvs(2, random_state=s), (1,), 3)
          for s in range(3)]
    p, hits = 0.07, rho
    for u in us:
        hits = depolarize(u @ hits @ u.conj().T, (1,), p, 3)
    prod = us[2] @ us[1] @ us[0]
    once = depolarize(prod @ rho @ prod.conj().T, (1,), 1 - (1 - p) ** 3, 3)
    assert np.abs(hits - once).max() < 1e-12


def test_full_depolarizing_is_the_traced_part():
    """At p = 1 depolarize returns the traced part itself; that is the
    general (1 - p) rho + p mixed bit for bit, on a stack and on every
    wire."""
    rng = np.random.default_rng(11)
    rho = rng.normal(size=(4, 5, 8, 8)) + 1j * rng.normal(size=(4, 5, 8, 8))
    for w in range(3):
        t = rho.reshape((4, 5) + (2 ** w, 2, 2 ** (2 - w)) * 2)
        traced = np.einsum("...aibcid->...abcd", t)
        mixed = 0.5 * np.einsum("...abcd,ij->...aibcjd", traced, np.eye(2))
        general = 0.0 * rho + 1.0 * mixed.reshape(rho.shape)
        assert np.array_equal(depolarize(rho, (w,), 1.0, 3), general)


def test_depolarize_preserves_trace_and_hermiticity():
    rho = random_density(3, 5)
    out = depolarize(rho, (0, 2), 0.3, 3)
    assert np.isclose(np.trace(out), 1.0)
    assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_fold_circuit_triples_interactions_exactly():
    u = unitary_group.rvs(4, random_state=np.random.default_rng(1))
    c = compile_circuit(build_state_prep_circuit(u, None, 3))
    folded = fold_circuit(c)
    assert folded.count_uzz() == 3 * c.count_uzz()
    assert folded.metadata["folded"] is True
    # unitary-identical: every folded fragment equals the original matrix
    for op, fop in zip(c.ops, folded.ops):
        if op.kind == "gate":
            assert np.linalg.norm(op.fragment.matrix()
                                  - fop.fragment.matrix()) < 1e-10


def test_fold_inserts_frame_rotations():
    u = unitary_group.rvs(4, random_state=np.random.default_rng(2))
    c = compile_circuit(build_state_prep_circuit(u, None, 3))
    folded = fold_circuit(c)
    frag = next(op.fragment for op in folded.ops if op.kind == "gate"
                and op.fragment.uzz_count > 0)
    # Z x Z = -(rz(pi) x rz(pi)): each folded interaction carries two rz(pi)
    n_uzz = frag.uzz_count
    n_pi = sum(1 for kind, _, angle in frag.ops
               if kind == "rz" and angle is not None
               and np.isclose(angle, np.pi))
    assert n_pi >= 2 * (n_uzz // 3)


def test_fold_requires_compiled_circuit():
    u = unitary_group.rvs(4, random_state=np.random.default_rng(3))
    c = build_state_prep_circuit(u, None, 3)
    with pytest.raises(Exception):
        fold_circuit(c)


def test_zne_linear_extrapolation():
    assert np.isclose(zne_extrapolate(0.9, 0.7), 1.0)
    out = zne_extrapolate(np.array([0.9, -0.3]), np.array([0.7, -0.1]))
    assert np.allclose(out, [1.0, -0.4])


def test_zne_exact_for_linear_noise():
    """If E(n) = E0 + c n (n = number of interactions), the 1x/3x pair
    recovers E0 exactly."""
    e0, c = 0.42, -0.011
    assert np.isclose(zne_extrapolate(e0 + c, e0 + 3 * c), e0)


# The README energy grid; every point is bundled.
ENERGY_GRID = tuple(round(0.2 * k, 10) for k in range(11))


@pytest.mark.parametrize("lam", ENERGY_GRID)
def test_mitigated_energy_bias_is_bounded(lam):
    """At infinitely many shots, the post-selected ZNE energy of every chi=2
    grid point is within 0.05 J/site of the exact energy under the default
    noise (worst 0.044 at lambda = 0, where j = 95); without noise it is the
    variational energy up to the burn-in tolerance."""
    params = get_params(lam, 1, optimize_if_missing=False)
    exact = exact_energy_density(TFIMParams(lam)).energy_density
    assert abs(exact_mitigated_energy(params, NoiseModel()) - exact) <= 0.05
    assert np.isclose(exact_mitigated_energy(params, NoiseModel.none()),
                      params.energy, atol=1e-4)


def test_leakage_postselect():
    shots = ShotTable(labels=("m1:Z", "leak"),
                      outcomes=np.array([[1, 1], [-1, 1], [1, -1], [1, 1]],
                                        dtype=np.int8),
                      leaked=np.array([False, False, True, False]))
    kept, retention = leakage_postselect(shots)
    assert len(kept) == 3
    assert np.isclose(retention, 0.75)
    assert (kept.column("leak") == 1).all()
    assert kept.column("m1:Z").tolist() == [1, -1, 1]
    assert not kept.leaked.any()
    with pytest.raises(KeyError):
        leakage_postselect(shots, "missing")
