"""Command-line entry point.

Subcommands: optimize, oracle, energy-sweep, entropy-sweep, validate.
Exit codes: 0 success, 1 failed validation / failed point, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import tfim
from .ansatz import OptimizerConfig, variational_optimize
from .mps import BondsimError
from .noise import NoiseModel
from .sweeps import (SweepConfig, default_mode, run_energy_sweep,
                     run_entropy_sweep, run_validation, write_table)

ENERGY_GRID = tuple(round(0.2 * k, 10) for k in range(11))        # 0.0 .. 2.0
ENTROPY_GRID_NB1 = tuple(round(0.2 * k, 10) for k in range(1, 11))
ENTROPY_GRID_NB2 = (1.01, 1.05, 1.1, 1.2)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lambda-list", type=str, default=None,
                   help="comma-separated field values (overrides min/max)")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nb", type=int, default=1, choices=(1, 2))
    p.add_argument("--shots", type=int, default=5000)
    p.add_argument("--noise-profile", type=str, default=None,
                   help="JSON file with noise rates; omit for noiseless")
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--pleak", type=float, default=None)
    p.add_argument("--eps-meas", type=float, default=None)
    p.add_argument("--eps-reset", type=float, default=None)
    p.add_argument("--zne", action="store_true")
    p.add_argument("--postselect", action="store_true")
    p.add_argument("--restricted-tomo", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in-tol", type=float, default=1e-4)
    p.add_argument("--mode", type=str, default=None,
                   choices=("ansatz", "full_unitary"),
                   help="default full_unitary at --nb 1, ansatz at --nb 2;"
                        " full_unitary at --nb 2 is one three-qubit gate,"
                        " which cannot be compiled: noiseless only")
    p.add_argument("--params-cache", type=str, default=None)
    p.add_argument("--format", type=str, default="csv",
                   choices=("csv", "json"))
    p.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondsim",
        description="Bond-qubit MPS circuits for the transverse-field Ising "
                    "chain: optimization, noisy sampling, and tomography.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimize circuit parameters at one "
                                        "field value")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--nb", type=int, default=1, choices=(1, 2))
    p.add_argument("--mode", type=str, default=None,
                   choices=("ansatz", "full_unitary"))
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("oracle", help="exact thermodynamic-limit reference "
                                      "values")
    _add_grid_args(p)
    p.add_argument("--format", type=str, default="csv",
                   choices=("csv", "json"))
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("energy-sweep", help="sampled energy density across a "
                                            "field grid")
    _add_grid_args(p)
    _add_common_args(p)

    p = sub.add_parser("entropy-sweep", help="half-chain entropy from bond "
                                             "tomography across a field grid")
    _add_grid_args(p)
    _add_common_args(p)
    p.add_argument("--no-entropy-oracle", action="store_true",
                   help="skip the infinite-chain reference column")

    p = sub.add_parser("validate", help="run the cross-module invariant "
                                        "suite")
    p.add_argument("--nb", type=int, default=1, choices=(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params-cache", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    return parser


def _grid(args, default: tuple) -> tuple:
    if args.steps is not None and args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.lambda_list is not None:
        vals = tuple(float(v) for v in args.lambda_list.split(",") if v)
        if not vals:
            raise ValueError("--lambda-list is empty")
        return tuple(sorted(vals))
    if args.lambda_min is not None or args.lambda_max is not None:
        lo = args.lambda_min if args.lambda_min is not None else 0.0
        hi = args.lambda_max if args.lambda_max is not None else 2.0
        n = 11 if args.steps is None else args.steps
        return tuple(round(v, 10) for v in np.linspace(lo, hi, n))
    return default


def _noise(args) -> NoiseModel | None:
    profile = args.noise_profile
    overrides = {k: getattr(args, a) for k, a in
                 (("p2", "p2"), ("p1", "p1"), ("p_leak", "pleak"),
                  ("eps_meas", "eps_meas"), ("eps_reset", "eps_reset"))
                 if getattr(args, a) is not None}
    if not profile and not overrides:
        return None
    return replace(NoiseModel.load(profile) if profile else NoiseModel.none(),
                   **overrides)


def _emit(rows, fmt: str, out: str | None) -> None:
    write_table(rows, out or sys.stdout, fmt)


def _cmd_optimize(args) -> int:
    mode = args.mode or default_mode(args.nb)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    params, energy = variational_optimize(args.lam, args.nb, mode=mode,
                                          config=cfg)
    payload = params.to_json()
    payload["e_exact"] = tfim.exact_energy_density(
        tfim.TFIMParams(args.lam)).energy_density
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    else:
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return 0


def _cmd_oracle(args) -> int:
    grid = _grid(args, ENERGY_GRID)
    rows = []
    for lam in grid:
        p = tfim.TFIMParams(lam)
        row = {"lambda": lam,
               "e_exact": tfim.exact_energy_density(p).energy_density}
        try:
            row["entropy_exact"] = tfim.exact_half_chain_entropy(p).entropy_bits
        except (ValueError, BondsimError):
            row["entropy_exact"] = ""
        rows.append(row)
    _emit(rows, args.format, args.out)
    return 0


def _sweep_config(args, default_grid: tuple) -> SweepConfig:
    return SweepConfig(
        lambda_grid=_grid(args, default_grid),
        n_b=args.nb,
        shots=args.shots,
        noise=_noise(args),
        zne=args.zne,
        postselect=args.postselect,
        restricted_tomography=args.restricted_tomo,
        seed=args.seed,
        burn_in_tol=args.burn_in_tol,
        mode=args.mode,
        cache_path=args.params_cache,
    )


def _cmd_energy_sweep(args) -> int:
    rows = run_energy_sweep(_sweep_config(args, ENERGY_GRID))
    _emit(rows, args.format, args.out)
    return 1 if any("error" in r for r in rows) else 0


def _cmd_entropy_sweep(args) -> int:
    default = ENTROPY_GRID_NB1 if args.nb == 1 else ENTROPY_GRID_NB2
    cfg = _sweep_config(args, default)
    if args.no_entropy_oracle:
        cfg = replace(cfg, entropy_oracle=False)
    rows = run_entropy_sweep(cfg)
    _emit(rows, args.format, args.out)
    return 1 if any("error" in r for r in rows) else 0


def _cmd_validate(args) -> int:
    cfg = SweepConfig(lambda_grid=(1.2,), n_b=args.nb, seed=args.seed,
                      cache_path=args.params_cache)
    report = run_validation(cfg)
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for check in report["checks"]:
        status = "ok" if check["passed"] else "FAIL"
        print(f"[{status}] {check['check']} {check['detail']}".rstrip(),
              file=sys.stderr)
    return 0 if report["passed"] else 1


_COMMANDS = {
    "optimize": _cmd_optimize,
    "oracle": _cmd_oracle,
    "energy-sweep": _cmd_energy_sweep,
    "entropy-sweep": _cmd_entropy_sweep,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, BondsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
