"""The benchmark tracer (perfbench/spans.py) reaches into the package by name:
it looks functions up with getattr, binds some of their arguments by name,
indexes some results and takes len() of shot tables.  A rename here would
otherwise break only traced benchmark runs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from bondsim import ansatz, mps
from bondsim.ansatz import OptimizerConfig, variational_optimize
from bondsim.circuits import build_state_prep_circuit
from bondsim.noise import NoiseModel, leakage_postselect
from bondsim.simulator import sample_shots
from bondsim.sweeps import get_params, prepare_point

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# arguments the tracer binds by name
BOUND = {
    ("simulator", "sample_shots"): {"circuit", "n_shots"},
    ("noise", "leakage_postselect"): {"shots"},
    ("estimation", "entropy_with_ci"): {"bootstrap_b"},
    ("kak", "decompose_to_native"): {"u", "wires"},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_with_its_bound_arguments():
    spans = _load_spans()
    assert set(BOUND) <= set(spans.SPANS)
    for mod_name, fn_name in spans.SPANS:
        fn = getattr(importlib.import_module(f"bondsim.{mod_name}"), fn_name)
        assert callable(fn), (mod_name, fn_name)
        params = set(inspect.signature(fn).parameters)
        assert BOUND.get((mod_name, fn_name), set()) <= params, fn_name


def test_shot_tables_have_a_length():
    u = np.kron(np.eye(2), np.eye(2)).astype(complex)
    c = build_state_prep_circuit(u, None, 3, purpose="energy")
    shots = sample_shots(c, NoiseModel.none(), 20, seed=0)
    assert len(shots) == 20
    assert len(leakage_postselect(shots)[0]) == 20


def test_indexed_results_have_the_traced_types():
    """The tracer samples prepare_point(...)[5] as the burn-in j and
    select_boundary(...)[1] as the boundary overlap."""
    for lam, n_b in ((0.2, 1), (1.2, 1), (1.15, 2)):
        point = prepare_point(get_params(lam, n_b, optimize_if_missing=False),
                              1e-4)
        assert isinstance(point[5], int) and point[5] >= 3
        assert isinstance(mps.select_boundary(point[2])[1], float)


def test_optimizer_objective_is_tensor_energy(monkeypatch):
    """ansatz.objective_calls counts the calls to ansatz.tensor_energy, so
    the optimizer must reach the energy through that module name."""
    calls = []
    energy = ansatz.tensor_energy
    monkeypatch.setattr(ansatz, "tensor_energy",
                        lambda *a: calls.append(1) or energy(*a))
    variational_optimize(1.3, 1, "full_unitary",
                         OptimizerConfig(restarts=1, maxiter=2))
    assert len(calls) > 10
