"""Sweep orchestration: per-lambda energy and entropy pipelines plus a
validation suite, with a bundled table of pre-optimized circuit parameters.

Every output row carries the matching classical-MPS and exact oracle columns
so a figure reproduced from these tables is self-validating.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import mps, tfim
from .ansatz import (AnsatzParams, boundary_prep, canonical_gauge,
                     variational_optimize)
from .circuits import (build_state_prep_circuit, compile_circuit,
                       tomography_settings)
from .estimation import (energy_from_records, entropy_with_ci,
                         projected_entropy, tomogram_from_shots)
from .gates import rx
from .mps import BondsimError, DegenerateChannelError
from .noise import NoiseModel, fold_circuit, zne_extrapolate
from .simulator import sample_shots, simulate_exact

__all__ = [
    "SweepConfig",
    "default_mode",
    "get_params",
    "prepare_point",
    "run_energy_sweep",
    "run_entropy_sweep",
    "run_validation",
    "write_table",
]

MAX_BURN_IN = 256
WORKER_ENV = "BONDSIM_WORKERS"


@dataclass(frozen=True)
class SweepConfig:
    lambda_grid: tuple
    n_b: int = 1
    shots: int = 5000
    noise: NoiseModel | None = None
    zne: bool = False
    postselect: bool = False
    restricted_tomography: bool = False
    seed: int = 0
    burn_in_tol: float = 1e-4
    mode: str | None = None          # None = default for this n_b
    cache_path: str | None = None    # extra optimized-parameter store
    bootstrap_b: int = 1000
    entropy_oracle: bool = True      # closed-form reference column

    def __post_init__(self):
        if not self.lambda_grid:
            raise ValueError("empty lambda grid")
        if list(self.lambda_grid) != sorted(self.lambda_grid):
            raise ValueError("lambda grid must be sorted")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not 0.0 < self.burn_in_tol < 1.0:
            raise ValueError(
                f"burn-in tolerance {self.burn_in_tol} is not in (0, 1)")


def default_mode(n_b: int) -> str:
    """Unrestricted exponentials at chi=2 (they find the symmetry-broken
    optimum below the pseudo-transition, matching the lowest-energy MPS);
    the flip-covariant tiled layout at chi=4 (tileable and restricted-
    tomography exact)."""
    return "full_unitary" if n_b == 1 else "ansatz"


# ---------------------------------------------------------------------------
# optimized-parameter store


def _key(lam: float, n_b: int, mode: str) -> str:
    """Table key: lambda as .6g (the bundled form) where exact, else in full."""
    text = f"{lam:.6g}"
    if float(text) != lam:
        text = repr(float(lam))
    return f"{text}|{n_b}|{mode}"


@functools.lru_cache(maxsize=None)
def _bundled_table() -> dict:
    """The packaged table, parsed once per process (callers only read it).
    The cache file, which other processes may rewrite, is read per call."""
    try:
        text = resources.files("bondsim").joinpath("data/params.json") \
            .read_text()
    except FileNotFoundError:
        return {}
    return json.loads(text)


def _cache_table(path: str | None) -> dict:
    if path and os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {}


def get_params(lam: float, n_b: int, mode: str | None = None,
               cache_path: str | None = None,
               optimize_if_missing: bool = True) -> AnsatzParams:
    """Fetch optimized parameters for one grid point, optimizing on a miss."""
    mode = mode or default_mode(n_b)
    key = _key(lam, n_b, mode)
    for table in (_cache_table(cache_path), _bundled_table()):
        # an entry under another lambda's key (older cache files) is a miss
        if key in table and float(table[key]["lambda"]) == lam:
            return AnsatzParams.from_json(table[key])
    if not optimize_if_missing:
        raise BondsimError(f"no stored parameters for {key}")
    params, _ = variational_optimize(lam, n_b, mode=mode)
    if cache_path:
        _store_params(cache_path, key, params)
    return params


def _store_params(path: str, key: str, params: AnsatzParams) -> None:
    """Merge one entry into the cache file as it is on disk now, and replace
    the file atomically so that a reader never sees a partial table.

    A process that replaces the file between this re-read and the replace
    still loses its entry; there is no lock.
    """
    table = _cache_table(path)
    table[key] = params.to_json()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# per-point plumbing


def prepare_point(params: AnsatzParams, burn_in_tol: float):
    """(tensor, Kraus stack of its bond channel, channel spectrum, boundary
    state, boundary-preparation unitary W, iteration count j) for one state.

    Degenerate channels (a second eigenvalue on the unit circle: the
    symmetry-broken end of the grid, or a periodic orbit) fall back to the
    symmetric boundary and a fixed iteration count.
    """
    tensor = params.tensor()
    channel = mps.bond_channel(tensor)
    try:
        spec = mps.transfer_spectrum(channel)
        boundary, _ = mps.select_boundary(spec)
        j = min(mps.burn_in_length(spec, burn_in_tol), MAX_BURN_IN)
    except DegenerateChannelError:
        spec = None
        boundary = mps.symmetric_boundary(tensor.chi)
        j = 32
    j = max(j, 3)  # room for the X,Z,Z schedule
    return tensor, channel, spec, boundary, boundary_prep(boundary), j


def _shots(circuit, noise: NoiseModel, cfg: SweepConfig, seed: int) -> tuple:
    """(shots, retention): cfg.shots draws of one circuit, leak-post-selected
    when the config asks for it."""
    shots = sample_shots(circuit, noise, cfg.shots, seed, cfg.postselect)
    return shots, len(shots) / cfg.shots


def _energy_point(args):
    (lam, idx, cfg) = args
    noise = cfg.noise or NoiseModel.none()
    params = get_params(lam, cfg.n_b, cfg.mode, cfg.cache_path)
    tensor, channel, spec, boundary, prep, j = prepare_point(
        params, cfg.burn_in_tol)
    circuit = build_state_prep_circuit(params, prep, j, purpose="energy")
    if cfg.zne:
        circuit = compile_circuit(circuit)
    seed = cfg.seed + 1000 * idx
    shots, retention = _shots(circuit, noise, cfg, seed)
    est = energy_from_records(shots, lam)
    row = {
        "lambda": lam, "chi": 2 ** cfg.n_b, "shots": cfg.shots,
        "e": est.e, "e_sigma": est.sigma,
        "e_mps": params.energy,
        "e_exact": tfim.exact_energy_density(
            tfim.TFIMParams(lam)).energy_density,
        "retention": retention, "mitigated": int(cfg.zne),
        "iterations": j,
    }
    if cfg.zne:
        fshots, _ = _shots(fold_circuit(circuit), noise, cfg, seed + 1)
        fest = energy_from_records(fshots, lam)
        base, folded = est.components, fest.components
        row["e_raw"] = est.e
        row["e_folded"] = fest.e
        row["e"] = -(zne_extrapolate(base["mean_ZZ"], folded["mean_ZZ"])
                     + lam * zne_extrapolate(base["mean_X"], folded["mean_X"]))
        row["e_sigma"] = float(np.hypot(1.5 * est.sigma, 0.5 * fest.sigma))
    return row


def _entropy_point(args):
    (lam, idx, cfg) = args
    noise = cfg.noise or NoiseModel.none()
    params = get_params(lam, cfg.n_b, cfg.mode, cfg.cache_path)
    tensor, channel, spec, boundary, prep, j = prepare_point(
        params, cfg.burn_in_tol)
    frame = None
    if cfg.n_b == 2:
        # Local bond-basis gauge putting the fixed point into the
        # restricted-tomography pattern; harmless for full tomography.
        _, _, angles = canonical_gauge(tensor)
        frame = [(rx(a), (1 + k,)) for k, a in enumerate(angles)
                 if abs(a) > 1e-12]
    settings = tomography_settings(cfg.n_b, cfg.restricted_tomography)
    seed = cfg.seed + 1000 * idx
    recs, frecs = {}, {}
    kept = attempted = 0
    for k, setting in enumerate(settings):
        circuit = build_state_prep_circuit(
            params, prep, j, purpose="tomography", setting=setting,
            bond_frame=frame)
        if cfg.zne:
            circuit = compile_circuit(circuit)
        recs[setting], _ = _shots(circuit, noise, cfg, seed + 2 * k)
        kept += len(recs[setting])
        attempted += cfg.shots
        if cfg.zne:
            frecs[setting], _ = _shots(fold_circuit(circuit), noise, cfg,
                                       seed + 2 * k + 1)
    tomo = tomogram_from_shots(recs, cfg.n_b, {"lambda": lam})
    folded = tomogram_from_shots(frecs, cfg.n_b) if cfg.zne else None
    s, sig = entropy_with_ci(tomo, mitigation=folded,
                             bootstrap_b=cfg.bootstrap_b, seed=seed + 17,
                             restricted=cfg.restricted_tomography)
    if spec is not None:
        s_mps = mps.entanglement_entropy(spec.fixed_point).entropy_bits
    else:
        s_mps = mps.half_chain_entropy(tensor, boundary, j).entropy_bits
    s_exact = ""
    if cfg.entropy_oracle and abs(lam - 1.0) > 1e-9:
        s_exact = tfim.exact_half_chain_entropy(
            tfim.TFIMParams(lam)).entropy_bits
    return {
        "lambda": lam, "chi": 2 ** cfg.n_b, "shots": cfg.shots,
        "entropy": s, "entropy_sigma": sig,
        "entropy_mps": s_mps,
        "entropy_exact": s_exact,
        "retention": kept / attempted, "mitigated": int(cfg.zne),
        "iterations": j,
    }


def _worker_count() -> int:
    raw = os.environ.get(WORKER_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKER_ENV} must be an integer >= 1, got {raw!r}")
    return workers


def _run_job(point_fn, job) -> dict:
    """Run one sweep point; a BondsimError becomes an error row."""
    try:
        return point_fn(job)
    except BondsimError as exc:
        lam, _, cfg = job
        return {"lambda": lam, "chi": 2 ** cfg.n_b, "error": str(exc)}


def _run_points(point_fn, cfg: SweepConfig) -> list:
    jobs = [(lam, idx, cfg) for idx, lam in enumerate(cfg.lambda_grid)]
    run = functools.partial(_run_job, point_fn)
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]


def run_energy_sweep(config: SweepConfig) -> list:
    return _run_points(_energy_point, config)


def run_entropy_sweep(config: SweepConfig) -> list:
    return _run_points(_entropy_point, config)


# ---------------------------------------------------------------------------
# validation suite


def _check(report: list, name: str, ok: bool, detail: str = "") -> None:
    report.append({"check": name, "passed": bool(ok), "detail": detail})


def run_validation(config: SweepConfig | None = None) -> dict:
    """Cross-module invariant suite; deterministic for a fixed config."""
    cfg = config or SweepConfig(lambda_grid=(1.2,))
    report: list = []
    lam = cfg.lambda_grid[-1]
    params = get_params(lam, cfg.n_b, cfg.mode, cfg.cache_path)
    tensor, channel, spec, boundary, prep, j = prepare_point(params, 1e-10)

    _check(report, "isometry", mps.is_isometry(tensor, 1e-9))

    circuit = build_state_prep_circuit(params, prep, j, purpose="tomography",
                                       setting=("Z",) * cfg.n_b)
    res = simulate_exact(circuit)
    rho = mps._iterate(channel, boundary, j)
    _check(report, "channel-consistency",
           np.linalg.norm(res.bond_rho - rho) < 1e-10)

    from .circuits import Circuit
    energy = build_state_prep_circuit(params, prep, j, purpose="energy")
    stripped = Circuit(
        n_wires=energy.n_wires,
        ops=tuple(op for op in energy.ops if op.kind != "measure"),
        metadata=dict(energy.metadata))
    _check(report, "deferred-measurement",
           np.linalg.norm(simulate_exact(energy).bond_rho
                          - simulate_exact(stripped).bond_rho) < 1e-12)

    compiled = compile_circuit(circuit)
    folded = fold_circuit(compiled)
    _check(report, "folding-identity",
           np.linalg.norm(simulate_exact(compiled).bond_rho
                          - simulate_exact(folded).bond_rho) < 1e-12)

    # Extrapolate the bond state, then take its entropy, as the sweeps do:
    # S is not analytic at the chi=4 spectrum's near-zero eigenvalues.
    s0 = mps.entanglement_entropy(simulate_exact(compiled).bond_rho).entropy_bits
    biases = {}
    for p2 in (0.008, 0.004):
        nm = NoiseModel(p2=p2, p1=0.0, p_leak=0.0, eps_meas=0.0, eps_reset=0.0)
        rho_zne = zne_extrapolate(simulate_exact(compiled, nm).bond_rho,
                                  simulate_exact(folded, nm).bond_rho)
        biases[p2] = abs(float(projected_entropy(rho_zne)) - s0)
    ratio = biases[0.008] / max(biases[0.004], 1e-30)
    _check(report, "zne-quadratic-scaling", 2.8 <= ratio <= 5.2,
           f"ratio={ratio:.3f}")

    passed = all(r["passed"] for r in report)
    return {"passed": passed, "checks": report,
            "config": {"lambda": lam, "n_b": cfg.n_b}}


# ---------------------------------------------------------------------------
# output


def write_table(rows: list, path, fmt: str = "csv") -> None:
    """Write rows as CSV (columns in first-seen order) or as JSON, to a file
    path or to an open text stream."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(path, (str, os.PathLike)):
        with open(path, "w", newline="") as fh:
            write_table(rows, fh, fmt)
        return
    if fmt == "json":
        json.dump(rows, path, indent=1, sort_keys=True)
        path.write("\n")
        return
    cols = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.DictWriter(path, fieldnames=cols)
    writer.writeheader()
    writer.writerows(rows)
