import numpy as np
import pytest
from scipy.stats import unitary_group

from bondsim.ansatz import (AnsatzParams, ansatz_num_params, boundary_prep,
                            build_ansatz_unitary, canonical_gauge)
from bondsim import circuits
from bondsim.circuits import (BASIS_ROTATION, Circuit, CircuitOp,
                              build_state_prep_circuit, compile_circuit,
                              gate, leak_check, measure, reset,
                              tomography_settings)
from bondsim.gates import PAULI, embed, global_phase_distance, rx
from bondsim.mps import BondsimError, BoundaryState
from bondsim.noise import NoiseModel, fold_circuit
from bondsim.sweeps import (WORKER_ENV, SweepConfig, _bundled_table,
                            get_params, prepare_point, run_entropy_sweep)


def random_site_unitary(seed=0):
    return unitary_group.rvs(4, random_state=np.random.default_rng(seed))


def test_basis_rotations_map_to_z():
    for basis, r in BASIS_ROTATION.items():
        assert np.allclose(r @ PAULI[basis] @ r.conj().T, PAULI["Z"])


def test_op_validation():
    with pytest.raises(ValueError):
        CircuitOp(kind="noop", wires=(0,))
    with pytest.raises(ValueError):
        measure(0, "Q", "bad")
    with pytest.raises(ValueError):
        Circuit(n_wires=2, ops=(reset(5),))


def test_energy_circuit_structure():
    u = random_site_unitary(1)
    c = build_state_prep_circuit(u, None, 5, purpose="energy")
    assert c.n_wires == 2
    assert c.metadata["iterations"] == 5
    # five resets, five gates, three labeled measurements, one leak check
    kinds = [op.kind for op in c.ops]
    assert kinds.count("reset") == 5
    assert kinds.count("gate") == 5
    assert kinds.count("measure") == 3
    assert kinds.count("leak_check") == 1
    assert c.labels() == ["m3:X", "m4:Z", "m5:Z", "leak"]


def test_energy_circuit_custom_schedule():
    u = random_site_unitary(2)
    c = build_state_prep_circuit(u, None, 4, schedule=[(1, "Z"), (2, "Z")])
    assert c.labels() == ["m1:Z", "m2:Z", "leak"]
    with pytest.raises(ValueError):
        build_state_prep_circuit(u, None, 4, schedule=[(5, "Z")])
    with pytest.raises(ValueError):
        build_state_prep_circuit(u, None, 2)  # default schedule needs j >= 3


def test_tomography_circuit_structure():
    u = random_site_unitary(3)
    c = build_state_prep_circuit(u, None, 4, purpose="tomography",
                                 setting=("X",))
    # terminal block: basis rotation then Z measurement, after the leak check
    assert c.labels() == ["leak", "b1:X"]
    last = c.ops[-1]
    assert last.kind == "measure" and last.basis == "Z"
    rot = c.ops[-2]
    assert rot.kind == "gate" and np.allclose(rot.unitary, BASIS_ROTATION["X"])
    # Z setting needs no rotation
    cz = build_state_prep_circuit(u, None, 4, purpose="tomography",
                                  setting=("Z",))
    assert cz.ops[-2].kind == "leak_check"


def test_boundary_prep_prepended():
    u = random_site_unitary(4)
    v = np.array([0.6, 0.8], dtype=complex)
    prep = boundary_prep(BoundaryState(v))
    c = build_state_prep_circuit(u, prep, 3)
    first = c.ops[0]
    assert first.kind == "gate" and first.wires == (1,)
    assert np.allclose(first.unitary[:, 0], v)


def test_ansatz_params_tile_by_tile():
    rng = np.random.default_rng(6)
    p = AnsatzParams(lam=1.0, n_b=2, mode="ansatz",
                     angles=tuple(rng.uniform(-1, 1, ansatz_num_params(2))),
                     energy=0.0)
    c = build_state_prep_circuit(p, None, 3, purpose="tomography",
                                 setting=("Z", "Z"))
    assert c.n_wires == 3
    assert c.metadata["chi"] == 4
    gates = [op for op in c.ops if op.kind == "gate"]
    # every gate acts on at most two wires, so the circuit is compilable
    assert all(len(op.wires) <= 2 for op in gates)
    # each iteration contributes entry tile + 3 x (3 dressings + tile) gates
    assert len(gates) == 3 * 13
    # per-iteration product reproduces the monolithic layout unitary
    u_layout = build_ansatz_unitary(np.asarray(p.angles), 2)
    u_prod = np.eye(8, dtype=complex)
    for op in gates[:13]:
        u_prod = embed(op.unitary, op.wires, 3) @ u_prod
    assert np.linalg.norm(u_prod - u_layout) < 1e-12
    compiled = compile_circuit(c)
    assert all(op.fragment is not None for op in compiled.ops
               if op.kind == "gate")
    assert compiled.count_uzz() > 0


def test_bond_frame_sits_before_leak_check():
    u = random_site_unitary(8)
    frame = [(BASIS_ROTATION["X"], (1,))]
    c = build_state_prep_circuit(u, None, 3, purpose="tomography",
                                 setting=("Z",), bond_frame=frame)
    kinds = [op.kind for op in c.ops]
    i_leak = kinds.index("leak_check")
    assert c.ops[i_leak - 1].kind == "gate"
    assert np.allclose(c.ops[i_leak - 1].unitary, BASIS_ROTATION["X"])


def test_tomography_settings_cover():
    assert tomography_settings(1) == [("X",), ("Y",), ("Z",)]
    full = tomography_settings(2)
    assert len(full) == 9 and len(set(full)) == 9
    restricted = tomography_settings(2, restricted=True)
    assert restricted == [("X", "X"), ("Y", "Z"), ("Z", "Y")]
    with pytest.raises(ValueError):
        tomography_settings(3)


def test_compile_circuit_attaches_fragments():
    u = random_site_unitary(7)
    c = compile_circuit(build_state_prep_circuit(u, None, 3))
    for op in c.ops:
        if op.kind == "gate":
            assert op.fragment is not None
            target = embed(op.unitary, op.wires, c.n_wires)
            assert np.linalg.norm(op.fragment.matrix() - target) < 1e-10
    assert c.count_uzz() == 3 * 3  # generic gate costs 3 per iteration


def test_compile_decomposes_each_distinct_gate_once(monkeypatch):
    """j iterations of one site gate, plus a boundary gate on another wire,
    cost two decompositions, not j + 1."""
    calls = []
    real = circuits.decompose_to_native

    def counting(*args, **kwargs):
        calls.append(kwargs.get("wires"))
        return real(*args, **kwargs)

    monkeypatch.setattr(circuits, "decompose_to_native", counting)
    prep = boundary_prep(BoundaryState(np.array([0.6, 0.8])))
    c = compile_circuit(build_state_prep_circuit(random_site_unitary(4),
                                                 prep, 10))
    assert sorted(calls) == [(0, 1), (1,)]
    site = {id(op.fragment) for op in c.ops
            if op.kind == "gate" and op.wires == (0, 1)}
    assert len(site) == 1


def test_chi4_point_decomposes_each_distinct_gate_once(monkeypatch):
    """A chi=4 restricted ZNE point repeats 20 distinct gates over its
    circuits; the memo decomposes each once, and a second run of the point
    decomposes none."""
    calls = []
    real = circuits.decompose_to_native
    monkeypatch.setattr(circuits, "decompose_to_native",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.delenv(WORKER_ENV, raising=False)
    cfg = SweepConfig(lambda_grid=(1.15,), n_b=2, shots=300,
                      noise=NoiseModel(), zne=True, postselect=True,
                      restricted_tomography=True, bootstrap_b=100,
                      entropy_oracle=False, seed=1)
    first = run_entropy_sweep(cfg)
    assert len(calls) == 20
    assert run_entropy_sweep(cfg) == first
    assert len(calls) == 20


# Native rotations in one iteration, summed over the 23 bundled points, as
# compiled when this bound was set; a compile change may lower it.
BUNDLED_ROTATIONS_PER_ITERATION = 913


def test_bundled_points_native_op_counts():
    """The Z-setting tomography circuit of every bundled point spends 3 U_zz
    on each two-qubit gate, and the native rotations of one iteration (the
    ops between two resets) do not creep up."""
    rotations = 0
    for entry in _bundled_table().values():
        lam, n_b = float(entry["lambda"]), int(entry["n_b"])
        c = compile_circuit(_bundled_circuit(lam, n_b, "tomography",
                                             ("Z",) * n_b))
        pairs = sum(1 for op in c.ops
                    if op.kind == "gate" and len(op.wires) == 2)
        assert c.count_uzz() == 3 * pairs
        resets = [i for i, op in enumerate(c.ops) if op.kind == "reset"]
        rotations += sum(len(op.fragment.ops) - op.fragment.uzz_count
                         for op in c.ops[resets[0] + 1:resets[1]])
    assert rotations <= BUNDLED_ROTATIONS_PER_ITERATION


def test_compile_rejects_monolithic_three_qubit_gate():
    u8 = unitary_group.rvs(8, random_state=np.random.default_rng(9))
    c = build_state_prep_circuit(u8, None, 3)
    with pytest.raises(BondsimError):
        compile_circuit(c)


# ---------------------------------------------------------------------------
# block x j: one set of op objects for every iteration, at every stage


def _sharing(c: Circuit) -> list:
    """For each op, the index of the first op that is the same object."""
    first: dict = {}
    return [first.setdefault(id(op), i) for i, op in enumerate(c.ops)]


def _bundled_circuit(lam, n_b, purpose, setting=None):
    """A bundled point's circuit, built as the sweeps build it."""
    params = get_params(lam, n_b, optimize_if_missing=False)
    tensor, *_, prep, j = prepare_point(params, 1e-4)
    frame = None
    if purpose == "tomography":
        _, _, angles = canonical_gauge(tensor)
        frame = [(rx(a), (1 + k,)) for k, a in enumerate(angles)
                 if abs(a) > 1e-12]
    return build_state_prep_circuit(params, prep, j, purpose=purpose,
                                    setting=setting, bond_frame=frame)


@pytest.mark.parametrize("lam,n_b,purpose,setting,distinct", [
    (1.15, 2, "tomography", ("X", "X"), 22),
    (1.2, 1, "energy", None, 7),
])
def test_stages_share_one_op_per_distinct_op(lam, n_b, purpose, setting,
                                             distinct):
    """Built, compiled and folded circuits hold one op object per distinct
    op, however many iterations they spell, and share them alike."""
    built = _bundled_circuit(lam, n_b, purpose, setting)
    compiled = compile_circuit(built)
    folded = fold_circuit(compiled)
    assert len(built.ops) > 5 * distinct
    for c in (built, compiled, folded):
        assert len({id(op) for op in c.ops}) == distinct
        assert _sharing(c) == _sharing(built)
    assert compiled.metadata == built.metadata
    assert folded.metadata == {**built.metadata, "folded": True}


def test_compile_returns_a_compiled_circuit_as_it_is():
    c = compile_circuit(_bundled_circuit(1.2, 2, "tomography", ("Y", "Z")))
    folded = fold_circuit(c)
    assert compile_circuit(c) is c
    assert compile_circuit(folded) is folded
