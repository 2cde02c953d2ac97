import json
import os

import numpy as np
import pytest

from bondsim import cli, simulator, sweeps
from bondsim.ansatz import AnsatzParams
from bondsim.mps import BondsimError
from bondsim.noise import NoiseModel, leakage_postselect
from bondsim.sweeps import (WORKER_ENV, SweepConfig, default_mode, get_params,
                            prepare_point, run_energy_sweep,
                            run_entropy_sweep, run_validation, write_table)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=())
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=(1.2, 1.0))
    with pytest.raises(ValueError):
        SweepConfig(lambda_grid=(1.0,), shots=0)


def test_default_modes():
    assert default_mode(1) == "full_unitary"
    assert default_mode(2) == "ansatz"


def test_get_params_bundled():
    p = get_params(1.2, 1)
    assert isinstance(p, AnsatzParams)
    assert p.lam == 1.2 and p.n_b == 1 and p.mode == "full_unitary"
    # bundled optimum beats the exact energy only from above
    assert p.energy >= -1.4188424758 - 1e-9


def test_bundled_table_is_read_once(monkeypatch):
    reads = []
    files = sweeps.resources.files
    monkeypatch.setattr(sweeps.resources, "files",
                        lambda pkg: reads.append(pkg) or files(pkg))
    sweeps._bundled_table.cache_clear()
    assert get_params(1.2, 1, optimize_if_missing=False) \
        == get_params(1.2, 1, optimize_if_missing=False)
    get_params(1.2, 2, optimize_if_missing=False)
    assert reads == ["bondsim"]


def test_get_params_missing_raises():
    with pytest.raises(BondsimError):
        get_params(0.777, 1, optimize_if_missing=False)


def test_get_params_user_cache(tmp_path):
    path = str(tmp_path / "cache.json")
    stored = AnsatzParams(lam=0.777, n_b=1, mode="full_unitary",
                          angles=tuple(np.zeros(15)), energy=-1.0)
    with open(path, "w") as fh:
        json.dump({"0.777|1|full_unitary": stored.to_json()}, fh)
    p = get_params(0.777, 1, cache_path=path, optimize_if_missing=False)
    assert p == stored


def test_get_params_needs_the_exact_lambda():
    """1.2000004 shares its six digits with the bundled 1.2 but is not it."""
    with pytest.raises(BondsimError):
        get_params(1.2000004, 1, optimize_if_missing=False)


def test_params_cache_keeps_lambdas_that_share_six_digits(tmp_path,
                                                          monkeypatch):
    path = str(tmp_path / "cache.json")

    def optimize(lam, n_b, mode="ansatz", config=None):
        return AnsatzParams(lam=lam, n_b=n_b, mode=mode,
                            angles=tuple(np.full(15, lam)), energy=-lam), None

    monkeypatch.setattr(sweeps, "variational_optimize", optimize)
    lams = (1.2000004, 1.2000003, 1.2)
    for lam in lams[:2]:
        assert get_params(lam, 1, cache_path=path).lam == lam
    with open(path) as fh:
        assert len(json.load(fh)) == 2
    for lam in lams:
        assert get_params(lam, 1, cache_path=path,
                          optimize_if_missing=False).lam == lam


def test_every_grid_lambda_hits_the_bundled_table():
    """The CLI's default grids, `--lambda-min/--lambda-max` grids and every
    bundled entry are found without optimizing; a stale entry stored under
    another lambda's key is a miss."""
    grids = [cli.ENERGY_GRID, cli.ENTROPY_GRID_NB1]
    for lo, hi, steps in ((0.0, 2.0, 11), (0.2, 2.0, 10)):
        args = cli.build_parser().parse_args(
            ["energy-sweep", "--lambda-min", str(lo), "--lambda-max", str(hi),
             "--steps", str(steps)])
        grids.append(cli._grid(args, ()))
    for grid in grids:
        for lam in grid:
            assert get_params(lam, 1, optimize_if_missing=False).lam == lam
    for lam in cli.ENTROPY_GRID_NB2:
        assert get_params(lam, 2, optimize_if_missing=False).lam == lam
    for key, entry in sweeps._bundled_table().items():
        lam, n_b, mode = key.split("|")
        assert get_params(float(lam), int(n_b), mode,
                          optimize_if_missing=False).to_json() == entry
    assert get_params(0.0, 1, optimize_if_missing=False).lam == 0.0


def test_stale_cache_entry_under_a_shared_key_is_a_miss(tmp_path):
    path = str(tmp_path / "cache.json")
    stale = AnsatzParams(lam=0.7770004, n_b=1, mode="full_unitary",
                         angles=tuple(np.zeros(15)), energy=-1.0)
    with open(path, "w") as fh:
        json.dump({"0.777|1|full_unitary": stale.to_json()}, fh)
    with pytest.raises(BondsimError):
        get_params(0.777, 1, cache_path=path, optimize_if_missing=False)


def test_params_cache_write_keeps_other_entries(tmp_path, monkeypatch):
    """A fresh optimum is merged into the cache as it is on disk when the
    optimizer returns, and no temporary file is left behind."""
    path = tmp_path / "cache.json"
    earlier = AnsatzParams(lam=0.5, n_b=1, mode="full_unitary",
                           angles=tuple(np.ones(15)), energy=-1.1)
    fresh = AnsatzParams(lam=0.777, n_b=1, mode="full_unitary",
                         angles=tuple(np.zeros(15)), energy=-1.0)

    def optimize(lam, n_b, mode="ansatz", config=None):
        # another process stores its entry while this one optimizes
        path.write_text(json.dumps({"0.5|1|full_unitary": earlier.to_json()}))
        return fresh, None

    monkeypatch.setattr(sweeps, "variational_optimize", optimize)
    assert get_params(0.777, 1, cache_path=str(path)) == fresh
    assert get_params(0.5, 1, cache_path=str(path),
                      optimize_if_missing=False) == earlier
    assert get_params(0.777, 1, cache_path=str(path),
                      optimize_if_missing=False) == fresh
    assert os.listdir(tmp_path) == ["cache.json"]


def test_prepare_point_burn_in():
    p = get_params(1.2, 1)
    tensor, channel, spec, boundary, prep, j = prepare_point(p, 1e-6)
    assert j >= 3
    assert spec is not None
    assert abs(np.linalg.norm(boundary.vector) - 1) < 1e-12
    # tighter tolerance cannot shorten the burn-in
    _, _, _, _, _, j2 = prepare_point(p, 1e-10)
    assert j2 >= j


def test_energy_sweep_noiseless_statistics():
    cfg = SweepConfig(lambda_grid=(1.0, 1.2), shots=4000, seed=5)
    rows = run_energy_sweep(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row["retention"] == 1.0
        assert abs(row["e"] - row["e_mps"]) < 4 * row["e_sigma"]
        assert row["e_mps"] >= row["e_exact"] - 1e-9


def test_energy_sweep_deterministic():
    cfg = SweepConfig(lambda_grid=(1.2,), shots=500, seed=1)
    assert run_energy_sweep(cfg) == run_energy_sweep(cfg)


def test_entropy_sweep_noiseless():
    cfg = SweepConfig(lambda_grid=(1.2,), shots=3000, seed=2,
                      bootstrap_b=150, entropy_oracle=False)
    rows = run_entropy_sweep(cfg)
    row = rows[0]
    assert row["entropy_sigma"] > 0
    assert abs(row["entropy"] - row["entropy_mps"]) < 5 * row["entropy_sigma"] + 0.01
    assert row["entropy_exact"] == ""


def test_entropy_sweep_with_noise_and_postselection():
    nm = NoiseModel(p2=0.002, p1=0.0, p_leak=0.001, eps_meas=0.0,
                    eps_reset=0.0)
    cfg = SweepConfig(lambda_grid=(1.2,), shots=2000, seed=3, noise=nm,
                      postselect=True, bootstrap_b=150, entropy_oracle=False)
    row = run_entropy_sweep(cfg)[0]
    assert 0.0 < row["retention"] < 1.0
    assert row["entropy"] > 0


def test_entropy_retention_is_pooled_over_settings(monkeypatch):
    """The row reports kept / attempted over every setting, not the rate of
    the last setting."""
    counts = []
    draw = sweeps.sample_shots

    def recording(circuit, noise, n_shots, seed, postselect):
        kept = draw(circuit, noise, n_shots, seed, postselect)
        counts.append((len(kept), n_shots))
        return kept

    monkeypatch.setattr(sweeps, "sample_shots", recording)
    nm = NoiseModel(p2=0.0, p1=0.0, p_leak=0.01, eps_meas=0.0, eps_reset=0.0)
    cfg = SweepConfig(lambda_grid=(1.2,), shots=400, seed=3, noise=nm,
                      postselect=True, bootstrap_b=100, entropy_oracle=False)
    row = run_entropy_sweep(cfg)[0]
    assert len(counts) == 3
    assert len({kept for kept, _ in counts}) > 1
    assert row["retention"] == (sum(k for k, _ in counts)
                                / sum(n for _, n in counts))


def _full_draw_then_postselect(circuit, noise, n_shots, seed, postselect):
    """A sweep draw as the full leak-register engine makes it, filtered by
    the leak column afterwards."""
    shots = simulator.sample_shots(circuit, noise, n_shots, seed)
    return leakage_postselect(shots)[0] if postselect else shots


@pytest.mark.parametrize("sweep,cfg", [
    (run_energy_sweep,
     SweepConfig(lambda_grid=(0.4, 1.2, 2.0), shots=500, seed=7,
                 noise=NoiseModel(), zne=True, postselect=True)),
    (run_entropy_sweep,
     SweepConfig(lambda_grid=(1.15, 1.2), n_b=2, shots=300, seed=7,
                 noise=NoiseModel(), zne=True, postselect=True,
                 restricted_tomography=True, bootstrap_b=100,
                 entropy_oracle=False)),
])
def test_postselected_rows_equal_the_filtered_full_draw(sweep, cfg,
                                                         monkeypatch):
    """Drawing the kept shots from the clean branch changes no row."""
    monkeypatch.setenv(WORKER_ENV, "1")
    rows = sweep(cfg)
    assert all("error" not in row for row in rows)
    monkeypatch.setattr(sweeps, "sample_shots", _full_draw_then_postselect)
    assert sweep(cfg) == rows


def _grid_with_failing_point(tmp_path):
    """lambda=0.6 reads a cached chi=4 full unitary under a chi=2 key: its
    8x8 site gate cannot be compiled, so that point raises BondsimError."""
    bad = AnsatzParams(lam=0.6, n_b=2, mode="full_unitary",
                       angles=tuple(0.3 * np.cos(np.arange(63))), energy=-1.0)
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"0.6|1|full_unitary": bad.to_json()}))
    return SweepConfig(lambda_grid=(0.6, 1.2), shots=200, zne=True,
                       cache_path=str(path))


def test_parallel_sweep_records_errors_like_serial(tmp_path, monkeypatch):
    cfg = _grid_with_failing_point(tmp_path)
    monkeypatch.setenv(WORKER_ENV, "1")
    serial = run_energy_sweep(cfg)
    monkeypatch.setenv(WORKER_ENV, "2")
    parallel = run_energy_sweep(cfg)
    assert parallel == serial
    assert "three-qubit" in serial[0]["error"]
    assert "error" not in serial[1]


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
def test_bad_worker_count_rejected(monkeypatch, value):
    monkeypatch.setenv(WORKER_ENV, value)
    with pytest.raises(ValueError, match=WORKER_ENV):
        run_energy_sweep(SweepConfig(lambda_grid=(1.2,), shots=10))


def test_run_validation_passes():
    report = run_validation()
    assert report["passed"], report
    names = {c["check"] for c in report["checks"]}
    assert {"isometry", "channel-consistency", "deferred-measurement",
            "folding-identity", "zne-quadratic-scaling"} <= names


def test_run_validation_passes_at_chi4():
    """The chi=4 spectrum has near-zero eigenvalues, where the entropy is not
    analytic; the ZNE check extrapolates the bond state instead."""
    report = run_validation(SweepConfig(lambda_grid=(1.2,), n_b=2))
    assert report["passed"], report


def test_write_table_formats(tmp_path):
    rows = [{"lambda": 1.0, "e": -1.27}, {"lambda": 1.2, "e": -1.41,
                                          "extra": "x"}]
    csv_path = tmp_path / "t.csv"
    write_table(rows, str(csv_path), "csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,e,extra"
    assert len(lines) == 3
    json_path = tmp_path / "t.json"
    write_table(rows, str(json_path), "json")
    assert json.loads(json_path.read_text()) == rows
    with pytest.raises(ValueError):
        write_table(rows, str(tmp_path / "t.xml"), "xml")
