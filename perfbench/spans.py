"""Span tracer that wraps bondsim's public functions at each layer boundary.

Each wrapped call is a span.  A span's self time is its wall time minus the
wall time of the spans it encloses, so the self times of one op add up to
the op's wall time.  The package is not modified: ``install`` rebinds every
module-level name in ``bondsim.*`` that refers to a wrapped function (the
modules import each other's functions by name), and ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("ansatz", "circuits", "estimation", "kak", "mps", "noise",
           "simulator", "sweeps", "tfim")

# (module, function) -> span name.  The span name's prefix is its layer.
SPANS = {
    ("sweeps", "run_energy_sweep"): "sweeps.sweep",
    ("sweeps", "run_entropy_sweep"): "sweeps.sweep",
    ("sweeps", "prepare_point"): "sweeps.prepare_point",
    ("sweeps", "get_params"): "sweeps.get_params",
    ("ansatz", "variational_optimize"): "ansatz.optimize",
    ("ansatz", "tensor_energy"): "ansatz.objective",
    ("ansatz", "canonical_gauge"): "ansatz.gauge",
    ("ansatz", "boundary_prep"): "ansatz.prep",
    ("mps", "bond_channel"): "mps.spectrum",
    ("mps", "transfer_spectrum"): "mps.spectrum",
    ("mps", "burn_in_length"): "mps.spectrum",
    ("mps", "select_boundary"): "mps.boundary",
    ("mps", "entanglement_entropy"): "mps.entropy",
    ("mps", "half_chain_entropy"): "mps.entropy",
    ("circuits", "build_state_prep_circuit"): "circuits.build",
    ("circuits", "compile_circuit"): "circuits.compile",
    ("kak", "decompose_to_native"): "kak.decompose",
    ("simulator", "sample_shots"): "simulator.sample",
    ("noise", "fold_circuit"): "noise.fold",
    ("noise", "leakage_postselect"): "noise.postselect",
    ("noise", "zne_extrapolate"): "noise.zne",
    ("estimation", "energy_from_records"): "estimation.energy",
    ("estimation", "tomogram_from_shots"): "estimation.tomogram",
    ("estimation", "entropy_with_ci"): "estimation.ci",
    ("tfim", "exact_energy_density"): "tfim.energy",
    ("tfim", "exact_half_chain_entropy"): "tfim.entropy",
}

LAYERS = ("sweeps", "ansatz", "mps", "circuits", "kak", "simulator", "noise",
          "estimation", "tfim")
ROOT = "bench.op"


class Tracer:
    """Collects span self times and per-layer counters for a run."""

    def __init__(self):
        self.self_s = defaultdict(float)   # span name -> summed self time
        self.total_s = defaultdict(float)  # span name -> summed wall time
        self.calls = Counter()             # span name -> call count
        self.counts = Counter()            # observed quantities, see _observe
        self.samples = defaultdict(list)   # observed per-call values
        self.kak_inputs: set = set()       # distinct KAK inputs of this op
        self.op_records: list = []         # (op wall, sum of self, spans)
        self._stack: list = []             # open spans: [name, start, child]
        self._spans = 0
        self._patched: list = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        wall = time.perf_counter() - frame[1]
        self._stack.pop()
        name = frame[0]
        self.self_s[name] += wall - frame[2]
        self.total_s[name] += wall
        self.calls[name] += 1
        self._spans += 1
        if self._stack:
            self._stack[-1][2] += wall
        return wall

    def run_op(self, fn):
        """Run one op under the root span; record its wall and self sum."""
        before = sum(self.self_s.values())
        spans = self._spans
        self.kak_inputs = set()
        frame = self._enter(ROOT)
        try:
            return fn()
        finally:
            wall = self._exit(frame)
            self.counts["kak_unique"] += len(self.kak_inputs)
            self.op_records.append(
                (wall, sum(self.self_s.values()) - before,
                 self._spans - spans))

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            self._observe(name, sig, args, kwargs, result)
            return result

        return wrapper

    # -- layer quantities -------------------------------------------------

    def _observe(self, name, sig, args, kwargs, result) -> None:
        if name == "sweeps.prepare_point":
            self.samples["burn_in_j"].append(result[5])
        elif name == "mps.boundary":
            self.samples["boundary_overlap"].append(result[1])
        elif name == "circuits.build":
            self.samples["ops_per_circuit"].append(len(result.ops))
        elif name == "kak.decompose":
            bound = sig.bind(*args, **kwargs).arguments
            u = np.asarray(bound["u"])
            self.kak_inputs.add((np.round(u, 10).tobytes(),
                                 tuple(bound.get("wires") or ())))
        elif name == "simulator.sample":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            circuit = bound.arguments["circuit"]
            n_shots = bound.arguments["n_shots"]
            self.counts["shots"] += n_shots
            self.counts["circuit_ops"] += len(circuit.ops)
            self.counts["shot_ops"] += n_shots * len(circuit.ops)
            self.samples["uzz_per_circuit"].append(circuit.count_uzz())
        elif name == "noise.postselect":
            self.counts["ps_attempted"] += len(sig.bind(*args, **kwargs)
                                               .arguments["shots"])
            self.counts["ps_kept"] += len(result[0])
        elif name == "estimation.ci":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["resamples"] += bound.arguments["bootstrap_b"]

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        import bondsim
        mods = [importlib.import_module(f"bondsim.{m}") for m in MODULES]
        wrappers = {}
        for (mod_name, fn_name), span in SPANS.items():
            orig = getattr(importlib.import_module(f"bondsim.{mod_name}"),
                           fn_name)
            wrappers[id(orig)] = (orig, self.wrap(span, orig))
        for mod in [bondsim, *mods]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def span_cost_s(n: int = 20000) -> float:
    """Wall cost of one span around a no-op call, in seconds."""
    noop = Tracer().wrap("bench.noop", lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    wrapped = (time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    for _ in range(n):
        (lambda: None)()
    return max(wrapped - (time.perf_counter() - t0) / n, 0.0)
