"""End-to-end acceptance gate.

Each test prints exactly one [PASS]/[FAIL] line for its criterion.  The
criteria cover: oracle fidelity, the sampled chi=2 energy sweep, exactness of
the simulator/tomography pipeline against the bond-channel formalism, the
finite-chi entropy signature of the phase transition, zero-noise
extrapolation scaling, noise-folding exactness, restricted-vs-full
tomography, leakage retention, the variational bound, and determinism.
"""

import numpy as np
import pytest

from bondsim import mps, tfim
from bondsim.circuits import build_state_prep_circuit, compile_circuit
from bondsim.noise import NoiseModel, fold_circuit
from bondsim.simulator import sample_shots, simulate_exact
from bondsim.sweeps import SweepConfig, get_params, prepare_point, \
    run_energy_sweep
from references import exact_diag, exact_tomogram, tomography_state

CHI2_ENTROPY_LAMBDAS = (0.2, 0.6, 1.0, 1.2, 2.0)
CHI4_LAMBDAS = (1.01, 1.05, 1.1, 1.15, 1.2)

# Half-chain entropy of the infinite chain, frozen from the closed-form
# entanglement spectrum (Peschel, Kaulke & Legeza 1999); tests/test_tfim.py
# cross-checks it against the correlation-matrix block entropy.
ENTROPY_ORACLE = {1.01: 0.7940579, 1.2: 0.3655147, 2.0: 0.1281733}


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_oracle_fidelity():
    """Exact references agree across three independent routes."""
    from scipy.special import ellipe
    ok, details = True, []
    for lam in (0.3, 0.9, 1.0, 1.5, 3.0):
        e = tfim.exact_energy_density(tfim.TFIMParams(lam)).energy_density
        m = 4 * lam / (1 + lam) ** 2
        closed = -(2 / np.pi) * (1 + lam) * ellipe(m)
        if abs(e - closed) > 1e-10:
            ok, details = False, [f"energy mismatch at lam={lam}"]
    e_crit = tfim.exact_energy_density(tfim.TFIMParams(1.0)).energy_density
    if abs(e_crit + 4 / np.pi) > 1e-10:
        ok = False
        details.append("critical energy != -4/pi")
    for lam in (0.5, 1.5):
        ed = exact_diag(tfim.TFIMParams(lam), 12).energy_density
        e_inf = tfim.exact_energy_density(tfim.TFIMParams(lam)).energy_density
        if abs(ed - e_inf) > 2e-3:
            ok = False
            details.append(f"exact diag off at lam={lam}")
    s2 = tfim.exact_half_chain_entropy(tfim.TFIMParams(2.0)).entropy_bits
    if abs(s2 - ENTROPY_ORACLE[2.0]) > 1e-4:
        ok = False
        details.append(f"entropy oracle at lam=2: {s2}")
    s_half = tfim.exact_half_chain_entropy(tfim.TFIMParams(0.5)).entropy_bits
    s_ed = exact_diag(tfim.TFIMParams(0.5), 14, boundary="open").entropy_bits
    if abs(s_half - s_ed) > 5e-4:
        ok = False
        details.append("entropy routes disagree at lam=0.5")
    _report(1, "oracle fidelity (quadrature, diagonalization, entropy)", ok,
            "; ".join(details))


def test_criterion_02_energy_sweep():
    """Sampled chi=2 energies across 11 field points track the exact curve
    within shot noise plus the finite-chi variational gap (2.5%)."""
    grid = tuple(round(0.2 * k, 10) for k in range(11))
    rows = run_energy_sweep(SweepConfig(lambda_grid=grid, shots=5000, seed=20))
    ok, worst = True, ""
    for row in rows:
        tol = 2 * row["e_sigma"] + 0.025 * abs(row["e_exact"])
        if abs(row["e"] - row["e_exact"]) > tol:
            ok = False
            worst = f"lam={row['lambda']}: |{row['e']:.4f}-{row['e_exact']:.4f}| > {tol:.4f}"
    _report(2, "chi=2 energy sweep, 11 points x 5000 shots within "
               "2 sigma + 2.5%", ok, worst)


@pytest.mark.parametrize("n_b,lambdas", [(1, CHI2_ENTROPY_LAMBDAS),
                                         (2, CHI4_LAMBDAS)])
def test_criterion_03_pipeline_exactness(n_b, lambdas):
    """Exact-mode circuit tomography reproduces the MPS half-chain state:
    density matrix to 1e-10, entropy to 1e-8, at five fields per chi."""
    ok, detail = True, ""
    for lam in lambdas:
        params = get_params(lam, n_b)
        tensor, channel, spec, boundary, prep, _ = prepare_point(params, 1e-6)
        j = 300
        c = build_state_prep_circuit(params, prep, j, purpose="tomography",
                                     setting=("Z",) * n_b)
        res = simulate_exact(c)
        rho = boundary.density()
        for _ in range(j):
            rho = mps.apply_channel(channel, rho)
        if np.linalg.norm(res.bond_rho - rho) > 1e-10:
            ok, detail = False, f"rho mismatch at lam={lam}"
            break
        _, s_tomo = tomography_state(exact_tomogram(params, j))
        s_mps = mps.entanglement_entropy(rho).entropy_bits
        if abs(s_tomo - s_mps) > 1e-8:
            ok, detail = False, f"entropy mismatch at lam={lam}: " \
                                f"{abs(s_tomo - s_mps):.2e}"
            break
    _report(3, f"tomography pipeline exactness (chi={2 ** n_b})", ok, detail)


def test_criterion_04_phase_transition_signature():
    """The finite-chi entropy peak sits above lam=1, and chi=4 improves on
    chi=2 toward the diverging oracle near the critical point."""
    def entropy_of(lam, n_b):
        t = get_params(lam, n_b).tensor()
        spec = mps.transfer_spectrum(mps.bond_channel(t))
        return mps.entanglement_entropy(spec.fixed_point).entropy_bits

    grid = (0.9, 1.0, 1.02, 1.05, 1.08, 1.1, 1.15)
    entropies = [entropy_of(lam, 1) for lam in grid]
    lam_peak = grid[int(np.argmax(entropies))]
    s2 = entropy_of(1.01, 1)
    s4 = entropy_of(1.01, 2)
    oracle = ENTROPY_ORACLE[1.01]
    ok = (lam_peak > 1.0
          and s4 > s2
          and abs(s4 - oracle) < abs(s2 - oracle))
    _report(4, "entropy peak above lam=1 and chi=4 closer to the oracle "
               "at lam=1.01", ok,
            f"peak at {lam_peak}, S2={s2:.3f}, S4={s4:.3f}, oracle={oracle}")


def _exact_energy(circuit, noise, lam, j):
    res = simulate_exact(circuit, noise)
    zz = res.pair_products[(f"m{j-1}:Z", f"m{j}:Z")]
    x = res.marginals[f"m{j-2}:X"]
    return -(zz + lam * x)


def test_criterion_05_zne_quadratic_scaling():
    """First-order extrapolation cancels the linear error: halving p2 cuts
    the residual ZNE bias by ~4x."""
    lam = 1.2
    params = get_params(lam, 1)
    _, _, _, _, prep, j = prepare_point(params, 1e-6)
    c = compile_circuit(build_state_prep_circuit(params, prep, j))
    folded = fold_circuit(c)
    e0 = _exact_energy(c, None, lam, j)
    bias = {}
    for p2 in (0.008, 0.004):
        nm = NoiseModel(p2=p2, p1=0.0, p_leak=0.0, eps_meas=0.0,
                        eps_reset=0.0)
        e1 = _exact_energy(c, nm, lam, j)
        e3 = _exact_energy(folded, nm, lam, j)
        bias[p2] = abs(e1 - 0.5 * (e3 - e1) - e0)
    ratio = bias[0.008] / bias[0.004]
    ok = 2.8 <= ratio <= 5.2
    _report(5, "ZNE bias scales quadratically (ratio 4 +- 30%)", ok,
            f"ratio={ratio:.3f}")


def test_criterion_06_folding_exactness():
    """Noise folding is an identity at zero noise: every exact observable of
    the folded circuit matches the original to 1e-12."""
    params = get_params(1.2, 1)
    _, _, _, _, prep, j = prepare_point(params, 1e-6)
    c = compile_circuit(build_state_prep_circuit(params, prep, j))
    folded = fold_circuit(c)
    r, rf = simulate_exact(c), simulate_exact(folded)
    worst = max(abs(r.marginals[k] - rf.marginals[k]) for k in r.marginals)
    worst = max(worst, np.linalg.norm(r.bond_rho - rf.bond_rho))
    ok = worst < 1e-12
    _report(6, "folded circuit observable-identical at zero noise", ok,
            f"max deviation {worst:.2e}")


def test_criterion_07_restricted_tomography():
    """At chi=4 the gauged 3-setting tomography reconstructs the same state
    as all 9 settings, to 1e-10, across the near-critical fields."""
    ok, detail = True, ""
    for lam in (1.01, 1.05, 1.1, 1.2):
        params = get_params(lam, 2)
        j = 300
        rho_full, s_full = tomography_state(exact_tomogram(params, j))
        rho_restr, s_restr = tomography_state(
            exact_tomogram(params, j, restricted=True), restricted=True)
        d_rho = np.linalg.norm(rho_full - rho_restr)
        d_s = abs(s_full - s_restr)
        if d_rho > 1e-10 or d_s > 1e-10:
            ok, detail = False, f"lam={lam}: d_rho={d_rho:.2e}, d_S={d_s:.2e}"
            break
    _report(7, "restricted (3-setting) tomography matches full tomography "
               "to 1e-10", ok, detail)


def test_criterion_08_leakage_retention():
    """Post-selection retention follows (1 - p_leak)^(2 * gates) within
    4 sigma at 1e4 shots; disabling leakage is exactly a no-op."""
    params = get_params(1.2, 1)
    _, _, _, _, prep, j = prepare_point(params, 1e-6)
    c = compile_circuit(build_state_prep_circuit(params, prep, j))
    p_leak = 0.002
    nm = NoiseModel(p2=0.0, p1=0.0, p_leak=p_leak, eps_meas=0.0,
                    eps_reset=0.0)
    n = 10000
    shots = sample_shots(c, nm, n, seed=31)
    kept = (shots.column("leak") == 1).mean()
    expected = (1 - p_leak) ** (2 * c.count_uzz())
    sigma = np.sqrt(expected * (1 - expected) / n)
    ok = abs(kept - expected) < 4 * sigma
    nm0 = NoiseModel(p2=0.005, p1=0.0002, p_leak=0.0, eps_meas=0.0,
                     eps_reset=0.0)
    a = sample_shots(c, nm0, 500, seed=5)
    b = sample_shots(c, nm0, 500, seed=5)
    noop = (np.array_equal(a.outcomes, b.outcomes)
            and not a.leaked.any()
            and (a.column("leak") == 1).all())
    _report(8, "leakage retention matches (1-p)^(2 gates) and p_leak=0 is "
               "a no-op", ok and noop,
            f"kept={kept:.4f}, expected={expected:.4f}, sigma={sigma:.4f}")


def test_criterion_09_variational_bound():
    """Every stored optimum respects the variational bound, and widening the
    bond register never raises the optimal energy."""
    ok, detail = True, ""
    grid = tuple(round(0.2 * k, 10) for k in range(11)) + CHI4_LAMBDAS
    for lam in sorted(set(grid)):
        p = get_params(lam, 1)
        e_exact = tfim.exact_energy_density(tfim.TFIMParams(lam)).energy_density
        if p.energy < e_exact - 1e-9:
            ok, detail = False, f"chi=2 bound violated at lam={lam}"
            break
        from bondsim.ansatz import tensor_energy
        if abs(tensor_energy(p.tensor(), lam) - p.energy) > 1e-7:
            ok, detail = False, f"stored energy stale at lam={lam}"
            break
    if ok:
        for lam in CHI4_LAMBDAS:
            e2 = get_params(lam, 1).energy
            e4 = get_params(lam, 2).energy
            e_exact = tfim.exact_energy_density(
                tfim.TFIMParams(lam)).energy_density
            if e4 < e_exact - 1e-9 or e4 > e2 + 1e-9:
                ok, detail = False, f"chi=4 ordering fails at lam={lam}"
                break
    _report(9, "variational bound and monotonicity in chi", ok, detail)


def test_criterion_10_determinism():
    """Fixed seeds give bit-identical sweeps and shot records."""
    cfg = SweepConfig(lambda_grid=(1.0, 1.2), shots=800, seed=77)
    same_rows = run_energy_sweep(cfg) == run_energy_sweep(cfg)
    params = get_params(1.2, 1)
    _, _, _, _, prep, j = prepare_point(params, 1e-6)
    c = build_state_prep_circuit(params, prep, j)
    nm = NoiseModel()
    a = sample_shots(c, nm, 400, seed=13)
    b = sample_shots(c, nm, 400, seed=13)
    same_shots = (a.labels == b.labels
                  and np.array_equal(a.outcomes, b.outcomes)
                  and np.array_equal(a.leaked, b.leaked))
    _report(10, "bit-identical reruns for fixed seeds", same_rows and same_shots)
