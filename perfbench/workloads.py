"""The benchmark's workloads: seeded lists of ops through bondsim's public API.

One op is one user-visible unit of work: one lambda point of a sweep, or one
off-grid reference point.  A workload hands out ops in rounds; a round is the
whole figure (every grid point once, in a seeded order), so every run sees the
same mix of points whatever its seed, and a round's wall time is the time to
the figure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from reference import closed_form_entropy

# Sizes are set so one 24 s run of each workload takes 25-40 s on a 2-core box
# (the README energy sweep takes 5000 shots per circuit, its chi=4 entropy
# sweep 5000 shots per setting at four field values), and so that every run
# sees the same mix of points.
ENERGY_GRID = tuple(round(0.2 * k, 10) for k in range(11))   # 0.0 .. 2.0
ENTROPY_GRID_CHI4 = (1.15, 1.2)
NOISY_SHOTS = 500           # per circuit, base and folded
IDEAL_SHOTS = 5000
CHI4_SHOTS = 300            # per tomography setting
CHI4_BOOTSTRAP = 1000
# Each run gates some 20-40 energy points on their shot-noise band.  At two
# sigma about 2 % of correct points fall outside it by chance, so the gate
# uses four (a chance failure every ~700 runs of 22 points); the two-sigma
# count is still reported.
ENERGY_CHECK_SIGMAS = 4.0
OFFGRID_MAXITER = 20        # Powell iterations; the polish gets 4x as many
# Off-grid lambda bands, one op per band and round; both phases.
OFFGRID_BANDS = ((0.27, 0.33), (1.9, 2.1))


@dataclass
class Op:
    label: str
    run: Callable[[], dict]             # returns one result row
    check: Callable[[dict], str | None]  # failure reason, or None if correct
    slot: str = ""   # place in the figure; run_s takes a median per slot


def _sweep_row(rows: list) -> dict:
    if len(rows) != 1:
        raise RuntimeError(f"expected one row, got {len(rows)}")
    return rows[0]


def _energy_within(row: dict, k: float) -> bool:
    """|e - e_exact| <= k sigma + 2.5 % |e_exact|: shot noise plus the
    finite-chi variational gap (acceptance criterion 02 uses k = 2)."""
    allowed = k * row["e_sigma"] + 0.025 * abs(row["e_exact"])
    return abs(row["e"] - row["e_exact"]) <= allowed


def beyond_criterion_02(rows: list) -> int:
    """Energy rows outside criterion 02's 2-sigma band, reported, not gated."""
    return sum(1 for r in rows if "e_sigma" in r and not _energy_within(r, 2))


def _energy_check(row: dict) -> str | None:
    if "error" in row:
        return f"error row: {row['error']}"
    if not _energy_within(row, ENERGY_CHECK_SIGMAS):
        return (f"|e - e_exact| = {abs(row['e'] - row['e_exact']):.4g} beyond"
                f" {ENERGY_CHECK_SIGMAS:g} sigma = {row['e_sigma']:.4g}"
                f" + 2.5 % of |e_exact|")
    return None


def _entropy_check(row: dict) -> str | None:
    if "error" in row:
        return f"error row: {row['error']}"
    s, sig, ret = row["entropy"], row["entropy_sigma"], row["retention"]
    if not (math.isfinite(s) and 0.0 <= s <= 2.0):
        return f"entropy {s} outside [0, 2] bits"
    if not sig > 0.0:
        return f"entropy sigma {sig} is not positive"
    if not 0.0 < ret <= 1.0:
        return f"retention {ret} outside (0, 1]"
    return None


def _offgrid_check(row: dict) -> str | None:
    if not row["e_opt"] >= row["e_exact"] - 1e-9:
        return f"e_opt {row['e_opt']} below e_exact {row['e_exact']}"
    err = abs(row["s_oracle"] - row["s_closed"])
    if not err <= 1e-3:
        return f"oracle off the closed form by {err:.3g} bits"
    return None


class Workload:
    """Seeded source of op rounds."""

    name = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def round(self) -> list:
        raise NotImplementedError


class _SweepWorkload(Workload):
    """One op is the sweep on a one-point grid with its own seed."""

    grid: tuple = ()
    sweep = "run_energy_sweep"
    check = staticmethod(_energy_check)

    def config(self, lam: float, seed: int):
        raise NotImplementedError

    def round(self) -> list:
        from bondsim import sweeps
        ops = []
        for lam in self.rng.permutation(self.grid):
            cfg = self.config(float(lam), int(self.rng.integers(2 ** 31)))

            def run(cfg=cfg):
                # Looked up at call time so a traced run sees the wrapper.
                return _sweep_row(getattr(sweeps, self.sweep)(cfg))

            ops.append(Op(f"lambda={lam:g} seed={cfg.seed}", run, self.check,
                          slot=f"lambda={lam:g}"))
        return ops


class EnergyNoisyChi2(_SweepWorkload):
    """The README energy sweep: chi=2, default noise, ZNE, post-selection."""

    name = "energy_noisy_chi2"
    grid = ENERGY_GRID

    def config(self, lam, seed):
        from bondsim import NoiseModel, SweepConfig
        return SweepConfig(lambda_grid=(lam,), n_b=1, shots=NOISY_SHOTS,
                           noise=NoiseModel(), zne=True, postselect=True,
                           seed=seed)


class EntropyNoisyChi4(_SweepWorkload):
    """chi=4 restricted 3-setting tomography with noise, ZNE, post-selection
    and the bootstrap; no oracle column."""

    name = "entropy_noisy_chi4"
    grid = ENTROPY_GRID_CHI4
    sweep = "run_entropy_sweep"
    check = staticmethod(_entropy_check)

    def config(self, lam, seed):
        from bondsim import NoiseModel, SweepConfig
        return SweepConfig(lambda_grid=(lam,), n_b=2, shots=CHI4_SHOTS,
                           noise=NoiseModel(), zne=True, postselect=True,
                           restricted_tomography=True,
                           bootstrap_b=CHI4_BOOTSTRAP, entropy_oracle=False,
                           seed=seed)


class EnergyIdealChi2(_SweepWorkload):
    """The energy sweep without noise: nothing is compiled or folded."""

    name = "energy_ideal_chi2"
    grid = ENERGY_GRID

    def config(self, lam, seed):
        from bondsim import SweepConfig
        return SweepConfig(lambda_grid=(lam,), n_b=1, shots=IDEAL_SHOTS,
                           seed=seed)


class OffgridChi2(Workload):
    """Seeded lambda values off the bundled grid, one per phase and round."""

    name = "offgrid_chi2"

    def __init__(self, seed: int):
        super().__init__(seed)
        table = json.loads(resources.files("bondsim")
                           .joinpath("data/params.json").read_text())
        self.bundled = {float(k.split("|")[0]) for k in table}
        self.seen: set = set()   # the iTEBD oracle caches per lambda

    def _draw(self, lo: float, hi: float) -> float:
        while True:
            lam = round(float(self.rng.uniform(lo, hi)), 6)
            if lam not in self.seen and lam not in self.bundled:
                self.seen.add(lam)
                return lam

    def round(self) -> list:
        lams = [self._draw(lo, hi) for lo, hi in OFFGRID_BANDS]
        return [Op(label=f"lambda={lams[i]:g}",
                   run=lambda lam=lams[i]: offgrid_point(lam),
                   check=_offgrid_check, slot=f"band={i}")
                for i in self.rng.permutation(len(lams))]


def offgrid_point(lam: float) -> dict:
    """`bondsim optimize --restarts 1` with a capped iteration budget, then
    both exact oracles."""
    from bondsim import ansatz, tfim
    cfg = ansatz.OptimizerConfig(restarts=1, maxiter=OFFGRID_MAXITER)
    _, e_opt = ansatz.variational_optimize(lam, 1, "full_unitary", cfg)
    point = tfim.TFIMParams(lam)
    return {
        "lambda": lam,
        "e_opt": e_opt,
        "e_exact": tfim.exact_energy_density(point).energy_density,
        "s_oracle": tfim.exact_half_chain_entropy(point).entropy_bits,
        "s_closed": closed_form_entropy(lam),
    }


WORKLOADS = {w.name: w for w in (EnergyNoisyChi2, EntropyNoisyChi4,
                                 EnergyIdealChi2, OffgridChi2)}
