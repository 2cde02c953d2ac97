"""bondsim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload energy_noisy_chi2 --seed 0 \
        --seconds 24 --trace 0

The package is imported from the checkout's ``src/``; the run fails without
printing a result if that is missing.  Ops run serially in this process
(``BONDSIM_WORKERS`` is removed from the environment) in whole rounds, as
many as come nearest to ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give the
metrics with their units and sample counts, the failed ops, a digest of the
first round's result rows and the run's provenance.

``--workload all`` runs every workload untraced and traced, each in a fresh
process, prints one table and writes ``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread: ops run serially, and on small matrices a second BLAS
# thread only adds synchronisation, making timings slower and less steady.
# Set before numpy is first imported; an explicit setting is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, ROOT, Tracer, span_cost_s  # noqa: E402
from workloads import WORKLOADS, beyond_criterion_02  # noqa: E402

SETUP_REPEATS = 3
MAX_RUN_S = 150.0   # no round starts once a run could pass this
SETUP_CODE = ("import bondsim\n"
              "from bondsim.sweeps import get_params\n"
              "get_params(0.0, 1, optimize_if_missing=False)\n")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# environment


def _src_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "bondsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bondsim package under {src}; run "
                         "from the root of a bondsim checkout")
    return src


def _import_bondsim(src: Path):
    os.environ.pop("BONDSIM_WORKERS", None)
    sys.path.insert(0, str(src))
    import bondsim
    if Path(bondsim.__file__).resolve().parent != (src / "bondsim").resolve():
        raise SystemExit(f"perfbench: bondsim imported from "
                         f"{bondsim.__file__}, not from {src}")
    return bondsim


def measure_setup(src: Path, repeats: int = SETUP_REPEATS) -> list:
    """Wall times of fresh interpreters that import bondsim and fetch the
    first bundled parameter set."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("BONDSIM_WORKERS", None)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _blas_info() -> dict:
    """BLAS vendor from numpy's build record; thread count from the loaded
    OpenBLAS library, or None where that cannot be asked."""
    import ctypes

    import numpy as np
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict mode
        vendor = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        maps = []
    for lib in sorted({p for p in maps if "openblas" in p and ".so" in p}):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return {"blas_vendor": vendor, "blas_threads": fn()}
    return {"blas_vendor": vendor, "blas_threads": None}


def provenance(root: Path, seed: int, trace: bool) -> dict:
    import numpy as np
    import scipy
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    return {"git_sha": sha, "seed": seed, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, **_blas_info(),
            "serial": "BONDSIM_WORKERS" not in os.environ, "trace": trace}


# ---------------------------------------------------------------------------
# the measured loop


def _rounded(row: dict) -> dict:
    return {k: float(f"{v:.6g}") if isinstance(v, float) else v
            for k, v in row.items()}


def run_ops(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run whole rounds of ops, stopping at the round boundary nearest to
    `seconds` (always after at least one round)."""
    labels, op_walls, round_walls, rows, failures = [], [], [], [], []
    slot_walls = defaultdict(list)
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        ops = workload.round()
        for op in ops:
            labels.append(op.label)
            t0 = time.perf_counter()
            try:
                row = tracer.run_op(op.run) if tracer else op.run()
                op_walls.append(time.perf_counter() - t0)
                reason = op.check(row)
            except Exception as exc:   # a raising op is a failed op
                op_walls.append(time.perf_counter() - t0)
                row, reason = {"op": op.label}, f"{type(exc).__name__}: {exc}"
            slot_walls[op.slot or op.label].append(op_walls[-1])
            rows.append(row)
            if reason is not None:
                failures.append(f"{op.label}: {reason}")
        round_walls.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - start
        if (elapsed + round_walls[-1] / 2 >= seconds
                or elapsed + round_walls[-1] > MAX_RUN_S):
            break
    first = [_rounded(r) for r in rows[:len(ops)]]
    first.sort(key=lambda r: json.dumps(r, sort_keys=True))
    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode())
    return {"labels": labels, "op_walls": op_walls, "round_walls": round_walls,
            "figure_s": sum(_median(w) for w in slot_walls.values()),
            "rows": rows, "failures": failures,
            "digest": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(run: dict, setup_times: list) -> dict:
    """run_s, the time to the figure, sums each slot's median op wall over
    the run's rounds, so one slow stretch of the host moves it less than a
    sum of raw round walls."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _metric(_median(setup_times), "s"),
        "point_s.p50": _metric(_median(run["op_walls"]), "s"),
        "run_s": _metric(run["figure_s"], "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer_metrics(run: dict, tr: Tracer) -> dict:
    n_ops = max(len(run["op_walls"]), 1)
    op_wall = tr.total_s[ROOT] or 1e-300
    self_s, calls, counts = tr.self_s, tr.calls, tr.counts

    def per_op(x):
        return x / n_ops

    def layer_self(layer):
        return sum(v for k, v in self_s.items()
                   if k.split(".")[0] == layer)

    def mean(key):
        return statistics.fmean(tr.samples[key]) if tr.samples[key] else 0.0

    rows = run["rows"]
    offgrid = [r for r in rows if "e_opt" in r]
    sample_s = self_s["simulator.sample"]
    kak_calls = calls["kak.decompose"]
    m = {
        "simulator.sample_s": (per_op(sample_s), "s/op"),
        "simulator.calls": (per_op(calls["simulator.sample"]), "count/op"),
        "simulator.shots": (per_op(counts["shots"]), "count/op"),
        "simulator.ops": (per_op(counts["circuit_ops"]), "count/op"),
        "simulator.us_per_shot_op": (
            1e6 * sample_s / counts["shot_ops"] if counts["shot_ops"] else 0.0,
            "us"),
        "kak.s": (per_op(self_s["kak.decompose"]), "s/op"),
        "kak.calls": (per_op(kak_calls), "count/op"),
        "kak.unique": (per_op(counts["kak_unique"]), "count/op"),
        "kak.unique_ratio": (counts["kak_unique"] / kak_calls
                             if kak_calls else 0.0, "ratio"),
        "circuits.build_s": (per_op(self_s["circuits.build"]), "s/op"),
        "circuits.compile_s": (per_op(self_s["circuits.compile"]), "s/op"),
        "circuits.ops_per_circuit": (mean("ops_per_circuit"), "count"),
        "circuits.uzz_per_circuit": (mean("uzz_per_circuit"), "count"),
        "noise.fold_s": (per_op(self_s["noise.fold"]), "s/op"),
        "noise.postselect_s": (per_op(self_s["noise.postselect"]), "s/op"),
        "noise.retention": (counts["ps_kept"] / counts["ps_attempted"]
                            if counts["ps_attempted"] else 0.0, "ratio"),
        "mps.spectrum_s": (per_op(self_s["mps.spectrum"]), "s/op"),
        "mps.boundary_s": (per_op(self_s["mps.boundary"]), "s/op"),
        "mps.boundary_overlap": (mean("boundary_overlap"), "ratio"),
        "mps.burn_in_j": (mean("burn_in_j"), "count"),
        "ansatz.optimize_s": (per_op(tr.total_s["ansatz.optimize"]), "s/op"),
        "ansatz.objective_calls": (per_op(calls["ansatz.objective"]),
                                   "count/op"),
        "ansatz.objective_us": (
            1e6 * tr.total_s["ansatz.objective"] / calls["ansatz.objective"]
            if calls["ansatz.objective"] else 0.0, "us"),
        "ansatz.gauge_s": (per_op(self_s["ansatz.gauge"]), "s/op"),
        "ansatz.prep_s": (per_op(self_s["ansatz.prep"]), "s/op"),
        "estimation.energy_s": (per_op(self_s["estimation.energy"]), "s/op"),
        "estimation.tomogram_s": (per_op(self_s["estimation.tomogram"]),
                                  "s/op"),
        "estimation.ci_s": (per_op(self_s["estimation.ci"]), "s/op"),
        "estimation.resamples": (per_op(counts["resamples"]), "count/op"),
        "tfim.entropy_s": (per_op(self_s["tfim.entropy"]), "s/op"),
        "tfim.energy_s": (per_op(self_s["tfim.energy"]), "s/op"),
        "sweeps.get_params_s": (per_op(self_s["sweeps.get_params"]), "s/op"),
        "sweeps.point_self_s": (per_op(layer_self("sweeps")
                                       - self_s["sweeps.get_params"]), "s/op"),
        "shots_per_s": (counts["shots"] / op_wall, "1/s"),
        "opt_gap": (_median([r["e_opt"] - r["e_exact"] for r in offgrid]),
                    "J/site"),
        "oracle_err_bits": (_median([abs(r["s_oracle"] - r["s_closed"])
                                     for r in offgrid]), "bits"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self(layer) / op_wall, "ratio")
    m["bench.share"] = (self_s[ROOT] / op_wall, "ratio")
    return {k: _metric(v, u) for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# entry points


def run_workload(make_workload, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    src = _src_dir(root)
    bondsim = _import_bondsim(src)
    # First-call set-up, paid once per user run and counted in setup_s.
    bondsim.sweeps.get_params(0.0, 1, optimize_if_missing=False)
    setup_times = measure_setup(src)
    workload = make_workload(seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        run = run_ops(workload, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    attempted, failed = len(run["op_walls"]), len(run["failures"])
    prov = provenance(root, seed, trace)
    prov["failed_frac"] = failed / attempted
    prov["run_s"] = run["figure_s"]
    prov["beyond_criterion_02"] = beyond_criterion_02(run["rows"])
    if tracer:
        metrics = per_layer_metrics(run, tracer)
        spans = sum(n for _, _, n in tracer.op_records)
        prov["trace_overhead_s_est"] = spans * span_cost_s()
    else:
        metrics = end_to_end_metrics(run, setup_times)
    counts = {"setup_s": len(setup_times), "run_s": len(run["round_walls"])}
    return {"workload": workload.name, "metrics": metrics, "counts": counts,
            "ops": list(zip(run["labels"], run["op_walls"])),
            "attempted": attempted, "failed": failed,
            "failures": run["failures"], "digest": run["digest"],
            "provenance": prov}


def _print_run(res: dict) -> None:
    print(f"perfbench {res['workload']}: {res['attempted']} ops,"
          f" {res['failed']} failed")
    for key, m in res["metrics"].items():
        n = res["counts"].get(key, res["attempted"])
        print(f"  {key:28s} {m['value']:<14.6g} {m['unit']:9s} n={n}")
    print("  point_s.p90: not reported, a run holds fewer than the 100 ops"
          " that leave 10 beyond it")
    for label, wall in res["ops"]:
        print(f"  op {label:32s} {wall:.4f} s")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    print(f"digest {res['workload']} seed={res['provenance']['seed']}"
          f" {res['digest']}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))


def run_all(seed: int, seconds: float, root: Path) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    report = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=root, capture_output=True,
                                 text=True, check=True).stdout
            print(out, end="")
            lines = out.splitlines()
            prov = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
                        if ln.startswith("provenance "))
            report[f"{name}/trace{trace}"] = {
                **json.loads(lines[-1]), "provenance": prov}
        traced = report[f"{name}/trace1"]["provenance"]
        traced["trace_overhead_s"] = \
            traced["run_s"] - report[f"{name}/trace0"]["provenance"]["run_s"]
    print(f"{'workload':20s} {'metric':14s} {'value':>12s} unit")
    for name in WORKLOADS:
        for key, m in report[f"{name}/trace0"]["metrics"].items():
            print(f"{name:20s} {key:14s} {m['value']:12.6g} {m['unit']}")
        overhead = report[f"{name}/trace1"]["provenance"]["trace_overhead_s"]
        print(f"{name:20s} {'trace overhead':14s} {overhead:12.4g} s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, root)
    res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), root)
    _print_run(res)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
