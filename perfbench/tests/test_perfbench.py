"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import closed_form_entropy  # noqa: E402
from spans import Tracer, span_cost_s  # noqa: E402

run._import_bondsim(run._src_dir(ROOT))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyNoisy(workloads.EnergyNoisyChi2):
    """One noisy, mitigated, post-selected point at a few shots: every span
    of the sweep path nests at least once."""

    grid = (1.2,)

    def config(self, lam, seed):
        from dataclasses import replace
        return replace(super().config(lam, seed), shots=200)


class TinyIdeal(workloads.EnergyIdealChi2):
    grid = (1.2,)


class WithFailures(workloads.Workload):
    """A passing op and three ways for an op to fail."""

    name = "with_failures"

    def round(self):
        good = {"e": -1.0, "e_sigma": 0.01, "e_exact": -1.0}
        check = workloads._energy_check

        def boom():
            raise RuntimeError("injected")

        return [workloads.Op("good", lambda: good, check),
                workloads.Op("raises", boom, check),
                workloads.Op("error row", lambda: {"error": "x"}, check),
                workloads.Op("wrong", lambda: {**good, "e": -2.0}, check)]


def _spec_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_closed_form_reference_values():
    assert closed_form_entropy(2.0) == pytest.approx(0.1281733, abs=1e-7)
    assert closed_form_entropy(1.01) == pytest.approx(0.79406, abs=1e-5)
    # Ordered phase: the cat bit on top of a small remainder.
    assert 1.0 < closed_form_entropy(0.5) < 1.01


def test_every_named_metric_is_emitted_with_its_unit():
    plain = run.run_ops(TinyIdeal(0), seconds=0.0)
    e2e = run.end_to_end_metrics(plain, [0.5])
    assert {k: m["unit"] for k, m in e2e.items()} == _spec_units("end_to_end")
    assert all(m["value"] > 0 for m in e2e.values())

    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_ops(TinyIdeal(0), seconds=0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    layer = run.per_layer_metrics(traced, tracer)
    assert {k: m["unit"] for k, m in layer.items()} == _spec_units("per_layer")


def test_injected_failing_ops_are_counted():
    res = run.run_workload(WithFailures, 0, 0.0, False, ROOT)
    assert (res["attempted"], res["failed"]) == (4, 3)
    assert res["provenance"]["failed_frac"] == pytest.approx(0.75)
    assert any("RuntimeError: injected" in f for f in res["failures"])


class TwoSlots(workloads.Workload):
    """Two sleeping ops per round, in the figure's slots "a" and "b"."""

    name = "two_slots"

    def round(self):
        def nap():
            time.sleep(0.005)
            return {}

        return [workloads.Op(f"{slot} #{self.rng.integers(100)}", nap,
                             lambda row: None, slot=slot)
                for slot in ("a", "b")]


def test_run_stops_near_seconds_and_run_s_is_per_slot_medians():
    res = run.run_ops(TwoSlots(0), seconds=0.1)
    rounds = len(res["round_walls"])
    assert rounds >= 3
    assert abs(sum(res["round_walls"]) - 0.1) <= res["round_walls"][-1]
    a, b = res["op_walls"][0::2], res["op_walls"][1::2]
    assert res["figure_s"] == pytest.approx(statistics.median(a)
                                            + statistics.median(b))


def test_self_times_sum_to_op_wall():
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_ops(TinyNoisy(3), seconds=0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not result["failures"]
    for name in ("simulator.sample", "circuits.compile", "kak.decompose",
                 "noise.fold", "mps.boundary", "sweeps.sweep"):
        assert tracer.calls[name] > 0, name
    span_cost = span_cost_s()
    assert len(tracer.op_records) == len(result["op_walls"])
    for wall, (_, self_sum, spans) in zip(result["op_walls"],
                                         tracer.op_records):
        assert self_sum <= wall
        assert wall - self_sum <= 10 * span_cost * spans + 1e-3


def test_tracer_restores_the_package():
    from bondsim import simulator, sweeps
    orig = sweeps.sample_shots
    tracer = Tracer()
    tracer.install()
    assert sweeps.sample_shots is not orig
    assert simulator.sample_shots is sweeps.sample_shots
    tracer.uninstall()
    assert sweeps.sample_shots is orig and simulator.sample_shots is orig
