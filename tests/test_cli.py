import csv
import json

import numpy as np
import pytest

from bondsim.cli import ENERGY_GRID, _noise, build_parser, main
from bondsim.noise import NoiseModel


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["energy-sweep", "--lambda-list", "1.0,1.2",
                              "--shots", "100"])
    assert args.command == "energy-sweep"
    assert args.shots == 100


def test_default_energy_grid():
    assert ENERGY_GRID == tuple(round(0.2 * k, 10) for k in range(11))
    assert len(ENERGY_GRID) == 11


def test_bad_usage_exit_code():
    assert main(["energy-sweep", "--shots", "not-a-number"]) == 2
    assert main(["no-such-command"]) == 2
    for tol in ("0", "1", "2", "nan"):
        assert main(["energy-sweep", "--lambda-list", "1.2",
                     "--burn-in-tol", tol]) == 2
    for steps in ("0", "-3"):
        assert main(["oracle", "--lambda-min", "0.5", "--lambda-max", "1.5",
                     "--steps", steps]) == 2


def test_optimize_rejects_empty_budget(capsys):
    """--restarts 0 is a usage error with its own message, not a failure
    deep inside the optimizer."""
    assert main(["optimize", "--lam", "1.2", "--restarts", "0"]) == 2
    assert "restarts must be at least 1, got 0" in capsys.readouterr().err


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle.csv"
    rc = main(["oracle", "--lambda-list", "0.5,1.0,2.0", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(r["lambda"]) for r in rows] == [0.5, 1.0, 2.0]
    assert np.isclose(float(rows[1]["e_exact"]), -4 / np.pi, atol=1e-10)
    # entropy column empty at the critical point, filled elsewhere
    assert rows[1]["entropy_exact"] == ""
    assert main(["oracle", "--lambda-min", "0.5", "--lambda-max", "1.5",
                 "--steps", "1", "--out", str(out)]) == 0
    assert [r["lambda"] for r in csv.DictReader(out.open())] == ["0.5"]


def test_energy_sweep_command_json(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["energy-sweep", "--lambda-list", "1.2", "--shots", "400",
               "--seed", "9", "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["lambda"] == 1.2
    assert abs(rows[0]["e"] - rows[0]["e_mps"]) < 6 * rows[0]["e_sigma"]


def test_energy_sweep_noise_flags(tmp_path):
    out = tmp_path / "noisy.json"
    rc = main(["energy-sweep", "--lambda-list", "1.2", "--shots", "400",
               "--p2", "0.01", "--pleak", "0.002", "--postselect",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())[0]
    assert row["retention"] < 1.0


def test_noise_flags_build_the_model(tmp_path):
    """No flag is noiseless; overrides start from zero rates; a profile
    gives its rates, and an override replaces just its own rate."""
    rates = dict(p2=0.02, p1=0.001, p_leak=0.003, eps_meas=0.004,
                 eps_reset=0.005)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(rates))

    def noise(*flags):
        return _noise(build_parser().parse_args(["energy-sweep", *flags]))

    assert noise() is None
    assert noise("--p2", "0.01", "--pleak", "0.002") == NoiseModel(
        p2=0.01, p1=0.0, p_leak=0.002, eps_meas=0.0, eps_reset=0.0)
    assert noise("--noise-profile", str(profile)) == NoiseModel(**rates)
    assert (noise("--noise-profile", str(profile), "--p2", "0.01")
            == NoiseModel(**{**rates, "p2": 0.01}))


def test_entropy_sweep_command(tmp_path):
    out = tmp_path / "entropy.csv"
    rc = main(["entropy-sweep", "--lambda-list", "1.2", "--shots", "1500",
               "--no-entropy-oracle", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert float(rows[0]["entropy"]) > 0


def test_sweep_output_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["energy-sweep", "--lambda-list", "1.0,1.2", "--shots", "300",
            "--seed", "4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["validate", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    err = capsys.readouterr().err
    assert "[ok]" in err
