"""The exact engine and the shots drawn from it, checked against the
bond-channel formalism they are supposed to dilate and against closed forms
of the leak rules."""

from collections import OrderedDict
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from bondsim import mps, simulator
from bondsim.ansatz import (build_full_unitary, canonical_gauge,
                            extract_isometry)
from bondsim.circuits import (Circuit, build_state_prep_circuit,
                              compile_circuit, gate, leak_check, measure,
                              reset)
from bondsim.estimation import energy_from_records
from bondsim.gates import rx
from bondsim.kak import NativeCircuitFragment
from bondsim.mps import BondsimError
from bondsim.noise import NoiseModel, fold_circuit, leakage_postselect
from bondsim.simulator import sample_shots, simulate_exact
from bondsim.sweeps import (SweepConfig, get_params, prepare_point,
                            run_entropy_sweep)
from references import op_by_op_distribution

# a fixed, mildly entangling chi=2 site unitary (no optimization involved)
COEFFS = 0.35 * np.cos(np.arange(1, 16) * 1.7)
SITE_U = build_full_unitary(COEFFS, 1)
TENSOR = extract_isometry(SITE_U, 1)
J = 24


@pytest.fixture(scope="module")
def exact_tomo():
    c = build_state_prep_circuit(SITE_U, None, J, purpose="tomography",
                                 setting=("Z",))
    return simulate_exact(c)


def test_exact_bond_state_is_iterated_channel(exact_tomo):
    ch = mps.bond_channel(TENSOR)
    rho = np.diag([1.0, 0.0]).astype(complex)
    for _ in range(J):
        rho = mps.apply_channel(ch, rho)
    assert np.linalg.norm(exact_tomo.bond_rho - rho) < 1e-12


def test_exact_marginals_match_channel_expectations():
    c = build_state_prep_circuit(SITE_U, None, J, purpose="energy")
    res = simulate_exact(c)
    ch = mps.bond_channel(TENSOR)
    b = mps.BoundaryState(np.array([1.0, 0.0]))
    # site n is generated from the bond state after n - 1 iterations
    ex, _ = mps.ising_terms(ch, mps._iterate(ch, b, J - 3))
    _, ezz = mps.ising_terms(ch, mps._iterate(ch, b, J - 2))
    k0, k1 = ch
    rho = mps._iterate(ch, b, J - 1)
    ez = np.trace(k0 @ rho @ k0.conj().T - k1 @ rho @ k1.conj().T).real
    assert np.isclose(res.marginals[f"m{J-2}:X"], ex, atol=1e-12)
    assert np.isclose(res.marginals[f"m{J}:Z"], ez, atol=1e-12)
    assert np.isclose(res.pair_products[(f"m{J-1}:Z", f"m{J}:Z")], ezz,
                      atol=1e-12)


def test_pair_products_keyed_in_op_order_past_nine_iterations():
    """At j = 10 the labels m9:Z, m10:Z sort the other way as strings; the
    pair is still keyed (m9:Z, m10:Z), as an energy estimate indexes it."""
    j = 10
    c = build_state_prep_circuit(SITE_U, None, j, purpose="energy")
    res = simulate_exact(c)
    assert list(res.pair_products) == list(combinations(c.labels(), 2))
    ch = mps.bond_channel(TENSOR)
    rho = mps._iterate(ch, mps.BoundaryState(np.array([1.0, 0.0])), j - 2)
    _, ezz = mps.ising_terms(ch, rho)
    assert np.isclose(res.pair_products[("m9:Z", "m10:Z")], ezz, atol=1e-12)


def test_exact_noiseless_retention_is_one(exact_tomo):
    assert exact_tomo.retention == 1.0
    assert exact_tomo.marginals["leak"] == 1.0


def test_deferred_measurement_invariance():
    """Dropping the mid-circuit measurements leaves the bond state unchanged
    (they commute with everything later on their wire)."""
    from bondsim.circuits import Circuit
    c = build_state_prep_circuit(SITE_U, None, 8, purpose="energy",
                                 schedule=[(4, "X"), (6, "Z")])
    stripped = Circuit(n_wires=c.n_wires,
                       ops=tuple(op for op in c.ops if op.kind != "measure"),
                       metadata=dict(c.metadata))
    r1 = simulate_exact(c)
    r2 = simulate_exact(stripped)
    assert np.linalg.norm(r1.bond_rho - r2.bond_rho) < 1e-12


def test_sampled_energy_consistent_with_exact():
    lam = 1.1
    c = build_state_prep_circuit(SITE_U, None, J, purpose="energy")
    exact = simulate_exact(c)
    e_exact = -(exact.pair_products[(f"m{J-1}:Z", f"m{J}:Z")]
                + lam * exact.marginals[f"m{J-2}:X"])
    shots = sample_shots(c, None, 20000, seed=11)
    est = energy_from_records(shots, lam)
    assert abs(est.e - e_exact) < 4.5 * est.sigma


def test_sampling_deterministic():
    c = build_state_prep_circuit(SITE_U, None, 5, purpose="energy")
    nm = NoiseModel(p2=0.01, p1=0.001, p_leak=0.002, eps_meas=0.001,
                    eps_reset=0.001)
    a = sample_shots(c, nm, 200, seed=42)
    b = sample_shots(c, nm, 200, seed=42)
    assert a.labels == b.labels
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.leaked, b.leaked)
    c2 = sample_shots(c, nm, 200, seed=43)
    assert not np.array_equal(a.outcomes, c2.outcomes)


def test_zero_leak_rate_is_noop():
    """p_leak = 0 must not consume RNG draws: outcomes bit-identical to a
    model that never mentions leakage."""
    c = build_state_prep_circuit(SITE_U, None, 5, purpose="energy")
    base = NoiseModel(p2=0.01, p1=0.001, p_leak=0.0, eps_meas=0.0,
                      eps_reset=0.0)
    a = sample_shots(c, base, 300, seed=7)
    b = sample_shots(c, base, 300, seed=7)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert not a.leaked.any()
    assert (a.column("leak") == 1).all()


def test_zero_leak_rate_matches_vanishing_leak_rate():
    """p_leak = 0 takes the one-register path; p_leak = 1e-300 runs the full
    2^n + 1 leak register with leak branches too small to change any float.
    The two must agree exactly, so the fast path neither draws extra
    randomness nor changes outcomes."""
    params = get_params(1.2, 1)
    *_, prep, j = prepare_point(params, 1e-4)
    c = compile_circuit(build_state_prep_circuit(params, prep, j,
                                                 purpose="energy"))
    runs = []
    for p_leak in (0.0, 1e-300):
        nm = NoiseModel(p2=0.008, p1=0.0003, p_leak=p_leak, eps_meas=0.002,
                        eps_reset=0.002)
        runs.append((simulate_exact(c, nm), sample_shots(c, nm, 2000, seed=3)))
    (ex0, shots0), (ex1, shots1) = runs
    assert ex0.retention == ex1.retention == 1.0
    assert ex0.marginals.keys() == ex1.marginals.keys()
    for lab, val in ex0.marginals.items():
        assert abs(val - ex1.marginals[lab]) < 1e-12
    assert ex0.pair_products.keys() == ex1.pair_products.keys()
    for key, val in ex0.pair_products.items():
        assert abs(val - ex1.pair_products[key]) < 1e-12
    assert np.abs(ex0.bond_rho - ex1.bond_rho).max() < 1e-12
    assert np.array_equal(shots0.outcomes, shots1.outcomes)
    assert not shots0.leaked.any() and not shots1.leaked.any()


def test_leakage_retention_scaling():
    p_leak = 0.004
    c = compile_circuit(build_state_prep_circuit(SITE_U, None, 10,
                                                 purpose="tomography",
                                                 setting=("Z",)))
    n_uzz = c.count_uzz()
    nm = NoiseModel(p2=0.0, p1=0.0, p_leak=p_leak, eps_meas=0.0,
                    eps_reset=0.0)
    n = 20000
    shots = sample_shots(c, nm, n, seed=3)
    kept = (shots.column("leak") == 1).sum()
    expected = (1 - p_leak) ** (2 * n_uzz)
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert abs(kept / n - expected) < 4 * sigma
    # exact-mode retention is the closed-form value
    res = simulate_exact(c, nm)
    assert np.isclose(res.retention, expected, atol=1e-12)


def test_exact_depolarizing_shrinks_purity():
    c = build_state_prep_circuit(SITE_U, None, 10, purpose="tomography",
                                 setting=("Z",))
    clean = simulate_exact(c)
    nm = NoiseModel(p2=0.05, p1=0.0, p_leak=0.0, eps_meas=0.0, eps_reset=0.0)
    noisy = simulate_exact(c, nm)
    pur = lambda r: np.trace(r @ r).real
    assert pur(noisy.bond_rho) < pur(clean.bond_rho) - 1e-6
    assert np.isclose(np.trace(noisy.bond_rho), 1.0)


def test_exact_spectator_measurement_crosstalk():
    """eps_meas depolarizes the bond register on system-qubit measurements;
    a circuit with more mid-circuit measurements decoheres more."""
    nm = NoiseModel(p2=0.0, p1=0.0, p_leak=0.0, eps_meas=0.05, eps_reset=0.0)
    few = build_state_prep_circuit(SITE_U, None, 12, purpose="energy",
                                   schedule=[(12, "Z")])
    many = build_state_prep_circuit(SITE_U, None, 12, purpose="energy",
                                    schedule=[(k, "Z") for k in range(4, 13)])
    pur = lambda c: np.trace(simulate_exact(c, nm).bond_rho
                             @ simulate_exact(c, nm).bond_rho).real
    assert pur(many) < pur(few) - 1e-6


def test_sampled_tomography_matches_exact_distribution():
    c = build_state_prep_circuit(SITE_U, None, J, purpose="tomography",
                                 setting=("X",))
    exact = simulate_exact(c)
    shots = sample_shots(c, None, 40000, seed=5)
    mean = shots.column("b1:X").mean()
    assert abs(mean - exact.marginals["b1:X"]) < 4.5 / np.sqrt(40000)


# ---------------------------------------------------------------------------
# leak rules: each closed form below changes if its rule is dropped

Q = 0.1
LEAK_ONLY = NoiseModel(p2=0.0, p1=0.0, p_leak=Q, eps_meas=0.0, eps_reset=0.0)
UZZ01 = ("uzz", (0, 1), None)


def _native(*ops):
    """A two-wire gate op that runs the given native ops."""
    frag = NativeCircuitFragment(n_wires=2, ops=list(ops))
    return gate(frag.matrix(), (0, 1), fragment=frag)


def _leak_circuit(*ops):
    return Circuit(n_wires=2, ops=ops + (leak_check((0, 1), "leak"),))


def test_leak_flag_is_sticky():
    """A wire that leaked in a U_zz skips the later X flip: <Z> = -(1-Q)
    (a flag that did not stick would give -1)."""
    c = _leak_circuit(_native(UZZ01), _native(("rx", (1,), np.pi)),
                      measure(1, "Z", "m"))
    res = simulate_exact(c, LEAK_ONLY)
    assert np.isclose(res.marginals["m"], -(1 - Q), atol=1e-12)
    assert np.isclose(res.retention, (1 - Q) ** 2, atol=1e-12)


def test_leaked_wire_records_random_outcomes():
    """|0> reads +1 unless the wire leaked, then +-1 at random: <Z> = 1-Q."""
    c = _leak_circuit(_native(UZZ01), measure(1, "Z", "m"))
    res = simulate_exact(c, LEAK_ONLY)
    assert np.isclose(res.marginals["m"], 1 - Q, atol=1e-12)
    # leak-free +1 +1, only wire 0 leaked -1 +1, wire 1 leaked averages 0
    assert np.isclose(res.pair_products[("m", "leak")], (1 - Q) * (1 - 2 * Q),
                      atol=1e-12)


def test_leaked_ion_depolarizes_clean_partner():
    """Wire 1 holds |1>; the second U_zz fully depolarizes it when only
    wire 0 leaked in the first: <Z_1> = -(1-Q)^3, not -(1-Q)^2."""
    c = _leak_circuit(_native(("rx", (1,), np.pi)), _native(UZZ01),
                      _native(UZZ01), measure(1, "Z", "m"))
    res = simulate_exact(c, LEAK_ONLY)
    assert np.isclose(res.marginals["m"], -(1 - Q) ** 3, atol=1e-12)


def test_reset_clears_flag_but_not_leak_record():
    """After a reset the wire takes gates again (<Z> = -1 after an X flip),
    while the leak check still sees the earlier leak."""
    c = _leak_circuit(_native(UZZ01), reset(0), _native(("rx", (0,), np.pi)),
                      measure(0, "Z", "m"))
    res = simulate_exact(c, LEAK_ONLY)
    assert np.isclose(res.marginals["m"], -1.0, atol=1e-12)
    assert np.isclose(res.marginals["leak"], 2 * (1 - Q) ** 2 - 1, atol=1e-12)
    shots = sample_shots(c, LEAK_ONLY, 2000, seed=4)
    assert (shots.column("m") == -1).all()
    assert np.array_equal(shots.leaked, shots.column("leak") == -1)


def test_zero_noise_runs_the_attached_fragment():
    """A gate op that carries a native fragment is simulated by the fragment
    even without noise, so a compiled or folded circuit is checked as it
    runs: here the unitary is the identity and the fragment flips wire 1."""
    flip = NativeCircuitFragment(n_wires=2, ops=[("rx", (1,), np.pi)])
    c = Circuit(n_wires=2, ops=(gate(np.eye(4), (0, 1), fragment=flip),
                                measure(1, "Z", "m")))
    for noise in (None, NoiseModel.none()):
        assert np.isclose(simulate_exact(c, noise).marginals["m"], -1.0,
                          atol=1e-12)
        assert (sample_shots(c, noise, 50, seed=2).column("m") == -1).all()


def test_partial_leak_check_rejected():
    c = Circuit(n_wires=2, ops=(leak_check((1,), "leak"),))
    with pytest.raises(ValueError):
        simulate_exact(c, LEAK_ONLY)


# ---------------------------------------------------------------------------
# the repeated block as one matrix power of its carrier map

NOISES = {"default": NoiseModel(), "no-leak": NoiseModel(p_leak=0.0),
          "zero": NoiseModel.none()}


def _point_circuits(lam, n_b):
    """A point's energy and tomography circuits, compiled, base and folded,
    built as the sweeps build them."""
    params = get_params(lam, n_b, optimize_if_missing=False)
    tensor, *_, prep, j = prepare_point(params, 1e-4)
    frame = None
    if n_b == 2:
        _, _, angles = canonical_gauge(tensor)
        frame = [(rx(a), (1 + k,)) for k, a in enumerate(angles)
                 if abs(a) > 1e-12]
    energy = build_state_prep_circuit(params, prep, j, purpose="energy")
    tomo = build_state_prep_circuit(params, prep, j, purpose="tomography",
                                    setting=("Y",) + ("Z",) * (n_b - 1),
                                    bond_frame=frame)
    for c in map(compile_circuit, (energy, tomo)):
        yield c
        yield fold_circuit(c)


@pytest.mark.parametrize("lam,n_b", [(0.0, 1), (1.0, 1), (2.0, 1),
                                     (1.01, 2), (1.2, 2)])
def test_power_step_matches_op_by_op(lam, n_b, monkeypatch):
    for circuit in _point_circuits(lam, n_b):
        for noise in NOISES.values():
            fast = simulator._evolve(circuit, noise)
            with monkeypatch.context() as m:
                m.setattr(simulator, "_find_run", lambda ops: None)
                slow = simulator._evolve(circuit, noise)
            assert fast.labels == slow.labels
            assert np.array_equal(fast.outcomes, slow.outcomes)
            assert np.array_equal(fast.leaked, slow.leaked)
            assert np.abs(fast.probs - slow.probs).max() < 1e-12
            assert np.abs(fast.bond_rho - slow.bond_rho).max() < 1e-12


def test_run_covers_the_burn_in():
    """Every iteration of a tomography circuit is in the run, and in an
    energy circuit every iteration before the first measurement; folding
    keeps the iterations alike."""
    params = get_params(1.2, 1)
    *_, prep, j = prepare_point(params, 1e-4)
    for purpose, count in (("tomography", j), ("energy", j - 2)):
        c = compile_circuit(build_state_prep_circuit(params, prep, j,
                                                     purpose=purpose))
        for circuit in (c, fold_circuit(c)):
            start, length, found = simulator._find_run(circuit.ops)
            assert (start, length, found) == (1, 2, count)


def _counting_builds(monkeypatch) -> list:
    """Clear the memo and record the memo size at every build of a carrier
    map."""
    monkeypatch.setattr(simulator, "_BLOCK_CHANNELS", OrderedDict())
    sizes = []
    build = simulator._build_block_channel

    def counted(*args):
        sizes.append(len(simulator._BLOCK_CHANNELS))
        return build(*args)

    monkeypatch.setattr(simulator, "_build_block_channel", counted)
    return sizes


def test_warm_memo_is_bitwise_cold(monkeypatch):
    builds = _counting_builds(monkeypatch)
    circuits = list(_point_circuits(1.2, 2))[2:]   # tomography base, folded
    cold = [simulator._evolve(c, NoiseModel()) for c in circuits]
    warm = [simulator._evolve(c, NoiseModel()) for c in circuits]
    assert len(builds) == 2
    for a, b in zip(cold, warm):
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.bond_rho, b.bond_rho)
    simulator._BLOCK_CHANNELS.clear()
    again = simulator._evolve(circuits[1], NoiseModel())
    assert np.array_equal(again.probs, cold[1].probs)


def test_memo_holds_at_most_two_blocks(monkeypatch):
    builds = _counting_builds(monkeypatch)
    for lam in (0.4, 1.2, 2.0):
        for circuit in _point_circuits(lam, 1):
            simulator._evolve(circuit, NoiseModel())
            assert len(simulator._BLOCK_CHANNELS) <= 2
    # energy and tomography circuits of a point share their blocks
    assert len(builds) == 6
    assert max(builds) <= 1      # an entry is evicted before a build


def test_chi4_point_builds_two_carrier_maps(monkeypatch):
    """One restricted ZNE point runs six circuits (three settings, base and
    folded) but builds only the base and the folded block's map."""
    monkeypatch.delenv("BONDSIM_WORKERS", raising=False)
    builds = _counting_builds(monkeypatch)
    cfg = SweepConfig(lambda_grid=(1.2,), n_b=2, shots=300,
                      noise=NoiseModel(), zne=True, postselect=True,
                      restricted_tomography=True, bootstrap_b=100,
                      entropy_oracle=False, seed=1)
    row = run_entropy_sweep(cfg)[0]
    assert "error" not in row
    assert len(builds) == 2


def test_power_step_keeps_the_trace_check(monkeypatch):
    """A block whose gate is not trace-preserving fails the trace check on
    the state the power step leaves, before any gate runs op by op."""
    builds = _counting_builds(monkeypatch)
    shrink = 0.9 * np.eye(4)
    c = Circuit(n_wires=2, ops=(reset(0), gate(shrink, (0, 1))) * 5
                + (leak_check((0, 1), "leak"),))
    assert simulator._find_run(c.ops) == (0, 2, 5)
    with pytest.raises(BondsimError, match="state lost trace"):
        simulate_exact(c)
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# each wire's rotations between entanglers as one fused channel

HEAVY = NoiseModel(p2=0.05, p1=0.02, p_leak=0.03, eps_meas=0.02,
                   eps_reset=0.01)
# Runs of rx/ry/rz on every wire before, between and after U_zz; the second
# op's leading rotations fuse with the first op's trailing ones.
FRAG_A = NativeCircuitFragment(n_wires=3, ops=[
    ("rx", (0,), 0.3), ("ry", (0,), -1.1), ("rz", (1,), 0.7),
    ("rx", (2,), 2.1), ("uzz", (0, 1), None), ("rz", (0,), 0.4),
    ("ry", (1,), 1.3), ("ry", (2,), -0.6), ("rz", (2,), 0.9),
    ("uzz", (1, 2), None), ("rx", (1,), -0.8), ("rz", (0,), 1.7)])
FRAG_B = NativeCircuitFragment(n_wires=3, ops=[
    ("rz", (2,), 0.5), ("rx", (0,), -0.2), ("ry", (1,), 0.6),
    ("uzz", (0, 2), None), ("ry", (0,), 2.4), ("rz", (1,), -1.4),
    ("rx", (2,), 1.2), ("uzz", (0, 1), None), ("rz", (2,), -0.3),
    ("rx", (1,), 0.1)])


def _fused_test_circuit() -> Circuit:
    """Three repeated iterations (the power step), then op by op: a
    mid-circuit measurement, the gates again, the leak check and two bond
    measurements."""
    a, b = (gate(f.matrix(), (0, 1, 2), fragment=f) for f in (FRAG_A, FRAG_B))
    return Circuit(n_wires=3, ops=(reset(0), a, b) * 3 + (
        measure(0, "X", "m"), reset(0), a, b, leak_check((0, 1, 2), "leak"),
        measure(1, "Y", "b1"), measure(2, "Z", "b2")))


def test_fused_rotations_match_op_by_op_reference():
    c = _fused_test_circuit()
    # 22 native ops: 4 U_zz and 18 rotations, which fuse into 10 steps
    steps = simulator._fuse(c.ops[1:3], 3, HEAVY.p1)
    assert [kind for kind, *_ in steps].count("rot") == 10
    for noise in (HEAVY, NoiseModel(p_leak=0.0), NoiseModel.none()):
        dist = simulator._evolve(c, noise)
        probs, bond_rho = op_by_op_distribution(c, noise)
        got = {(tuple(o), bool(l)): p for o, l, p in
               zip(dist.outcomes, dist.leaked, dist.probs)}
        assert got.keys() >= probs.keys()
        assert max(abs(got[k] - probs.get(k, 0.0)) for k in got) < 1e-12
        assert np.abs(dist.bond_rho - bond_rho).max() < 1e-12


# ---------------------------------------------------------------------------
# the support: register states that can hold weight

# Leak masks of the chi=4 carrier's register states, in carrier order: never
# leaked, then leaked with wires {}, {1}, {2}, {1, 2} leaked now.
CARRIER_MASKS = (None, 0b000, 0b010, 0b100, 0b110)


def _short_chi4_circuits():
    """A bundled chi=4 tomography circuit with j = 3, so the power step
    still runs, compiled, base and folded."""
    params = get_params(1.15, 2, optimize_if_missing=False)
    tensor, *_, prep, _ = prepare_point(params, 1e-4)
    _, _, angles = canonical_gauge(tensor)
    frame = [(rx(a), (1 + k,)) for k, a in enumerate(angles)
             if abs(a) > 1e-12]
    c = compile_circuit(build_state_prep_circuit(
        params, prep, 3, purpose="tomography", setting=("Z", "Y"),
        bond_frame=frame))
    assert simulator._find_run(c.ops)[2] == 3
    return c, fold_circuit(c)


def test_leaked_start_chunks_match_op_by_op_reference(monkeypatch):
    """The carrier rows that start leaked reach only leaked register states
    whose leak mask contains their own, and skipping the rest keeps the
    distribution of the independent reference."""
    monkeypatch.setattr(simulator, "_BLOCK_CHANNELS", OrderedDict())
    for circuit in _short_chi4_circuits():
        dist = simulator._evolve(circuit, HEAVY)
        probs, bond_rho = op_by_op_distribution(circuit, HEAVY)
        got = {(tuple(o), bool(l)): p for o, l, p in
               zip(dist.outcomes, dist.leaked, dist.probs)}
        assert got.keys() >= probs.keys()
        assert max(abs(got[k] - probs.get(k, 0.0)) for k in got) < 1e-12
        assert np.abs(dist.bond_rho - bond_rho).max() < 1e-12
    for m in simulator._BLOCK_CHANNELS.values():
        blocks = m.reshape(5, 16, 5, 16)
        assert not blocks[1:, :, 0].any()   # leaked rows, never-leaked columns
        for a, ma in enumerate(CARRIER_MASKS):
            for b, mb in enumerate(CARRIER_MASKS):
                reach = ma is None or (mb is not None and mb & ma == ma)
                assert blocks[a, :, b].any() == reach, (a, b)


def test_steps_skip_register_states_without_weight(monkeypatch):
    """No step is applied to a register state whose matrices are all exact
    zeros, in the carrier pushes or op by op."""
    monkeypatch.setattr(simulator, "_BLOCK_CHANNELS", OrderedDict())
    empty = []
    on = simulator._on

    def spy(rho, sel, fn):
        empty.append(int((~rho[:, sel].any(axis=(0, 2, 3))).sum()))
        return on(rho, sel, fn)

    monkeypatch.setattr(simulator, "_on", spy)
    for circuit in _short_chi4_circuits():
        simulator._evolve(circuit, HEAVY)
    assert len(empty) > 0 and sum(empty) == 0


# ---------------------------------------------------------------------------
# post-selected draws from the clean branch

def _postselect_circuits():
    """A bundled chi=2 energy circuit and a chi=4 lambda=1.15 tomography
    circuit with its gauge frame, compiled, base and folded."""
    return (*list(_point_circuits(1.2, 1))[:2],
            *list(_point_circuits(1.15, 2))[2:])


@pytest.mark.parametrize("noise", [NoiseModel(), HEAVY],
                         ids=["default", "heavy"])
def test_postselected_draw_is_the_filtered_full_draw(noise):
    for circuit in _postselect_circuits():
        for seed in (1, 2):
            full, retention = leakage_postselect(
                sample_shots(circuit, noise, 2000, seed))
            kept = sample_shots(circuit, noise, 2000, seed, postselect=True)
            assert kept.labels == full.labels
            assert np.array_equal(kept.outcomes, full.outcomes)
            assert np.array_equal(kept.leaked, full.leaked)
            assert len(kept) / 2000 == retention


@pytest.mark.parametrize("noise", [NoiseModel(), HEAVY],
                         ids=["default", "heavy"])
def test_clean_cells_are_r_times_the_leak_free_cells(noise):
    """In the never-leaked register state each U_zz only multiplies the
    weight by (1 - p_leak)^2, so the full engine's never-leaked cells are
    r = (1 - p_leak)^(2 U_zz) times the p_leak = 0 engine's cells."""
    for circuit in _postselect_circuits():
        full = simulator._evolve(circuit, noise)
        clean = simulator._evolve(circuit, replace(noise, p_leak=0.0))
        r = (1.0 - noise.p_leak) ** (2 * circuit.count_uzz())
        assert np.array_equal(full.outcomes, clean.outcomes)
        assert np.array_equal(full.leaked, clean.leaked)
        assert not clean.probs[clean.leaked].any()
        never = ~full.leaked
        assert np.abs(full.probs[never] - r * clean.probs[never]).max() < 1e-12


def test_postselected_draw_runs_the_engine_without_leakage(monkeypatch):
    rates = []
    evolve = simulator._evolve

    def spy(circuit, noise):
        rates.append(noise.p_leak)
        return evolve(circuit, noise)

    monkeypatch.setattr(simulator, "_evolve", spy)
    for circuit in _postselect_circuits():
        sample_shots(circuit, HEAVY, 100, seed=1, postselect=True)
    assert rates == [0.0] * 4


def test_postselected_draw_edge_cases():
    circuit = _postselect_circuits()[0]
    no_leak = NoiseModel(p_leak=0.0)
    assert np.array_equal(
        sample_shots(circuit, no_leak, 500, seed=4, postselect=True).outcomes,
        sample_shots(circuit, no_leak, 500, seed=4).outcomes)
    gone = sample_shots(circuit, NoiseModel(p_leak=1.0), 500, seed=4,
                        postselect=True)
    assert len(gone) == 0 and gone.labels == tuple(circuit.labels())
    unchecked = Circuit(n_wires=2, ops=(_native(UZZ01), measure(1, "Z", "m")))
    for noise in (LEAK_ONLY, NoiseModel.none()):
        with pytest.raises(ValueError, match="one leak check"):
            sample_shots(unchecked, noise, 10, postselect=True)
    late = Circuit(n_wires=2, ops=(leak_check((0, 1), "leak"),
                                   _native(UZZ01), measure(1, "Z", "m")))
    with pytest.raises(ValueError, match="after the leak check"):
        sample_shots(late, LEAK_ONLY, 10, postselect=True)
