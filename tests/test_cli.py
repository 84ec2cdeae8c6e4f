import re
from pathlib import Path

import numpy as np
import pytest

from stochmap.cli import main
from stochmap.fldio import read_field

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """
[grid]
points = 24 24

[noise]
mode = {k = [1, 0], amp = [0.0, 0.2]}

[run]
model = perturbation_only
dt = 1e-3
n_steps = 3
seed = 5

[scalar]
tensor_class = n_form

[output]
directory = PLACEHOLDER
"""


def write_cfg(tmp_path, outname="cli_out"):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG.replace("PLACEHOLDER", str(tmp_path / outname)))
    return path


def test_simulate_and_inspect(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["simulate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    snap = tmp_path / "cli_out" / "f_000003.fld"
    assert snap.exists()
    assert main(["inspect", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "24 x 24" in out
    f = read_field(snap)
    assert np.all(np.isfinite(f.values))


def test_simulate_missing_config_is_config_error(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.cfg")]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_bad_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    for overrides, key in (
        (["run.model=warp"], "[run] model"),
        (["run.n_steps=2.7"], "[run] n_steps"),
        (["grid.points=64.9 64"], "[grid] points"),
        (["run.seed=-1"], "[run] seed"),
        (["run.dt=abc"], "[run] dt"),
        (["noise.safety=0"], "[noise] safety"),
        (["noise.safety=-1"], "[noise] safety"),
        (["noise.drift={k = [1.5, 0], amp = [0.1, 0]}"], "[noise] drift"),
        (["noise.drift={k = [1, 0], amp = [0.1, 0], bogus = 3}"], "[noise] drift"),
        # values that only the grid shows to be wrong
        (["noise.mode={k = [1, 0, 0], amp = [0, 1, 0]}"], "[noise] mode"),
        (["noise.mode={k = [1, 0], amp = [0.3, 0.0]}"], "[noise] mode"),   # solenoidal, amp parallel to k
        (["noise.drift_mode={k = [1, 0], amp = [0.1]}"], "[noise] drift"),
        (["grid.points=2 2"], "[grid] points"),
        (["grid.extents=1 2 3"], "[grid] extents"),
        (["grid.extents=1 -2"], "[grid] extents"),
        (["run.model=tsw", "grid.points=16 16 16"], "[grid] points"),
        (["run.model=advection", "advection.velocity=1 0 0"], "[advection] velocity"),
        (["scalar.tensor_class=one_form"], "[scalar] tensor_class"),
        (["scalar.tensor_class=volume_form"], "[scalar] tensor_class"),
        (["scalar.tensor_class=mixed_pair"], "[scalar] tensor_class"),
    ):
        args = [arg for ov in overrides for arg in ("--set", ov)]
        assert main(["simulate", str(cfg), *args]) == 1, overrides
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}: "), err
        assert not (tmp_path / "cli_out" / "manifest.txt").exists(), overrides


def test_simulate_rhs_off_ignores_the_advection_velocity(tmp_path, capsys):
    # nothing is advected, so the velocity must not enter the stability bound
    cfg = ROOT / "configs" / "advection.cfg"
    code = main(["simulate", str(cfg), "--set", "run.rhs=off", "--set", "advection.velocity=100 0",
                 "--set", "run.ensemble=1", "--set", "run.n_steps=2",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "out" / "f_000002.fld").exists()


def test_simulate_runtime_abort_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    # amplitude pushed far past the displacement bound for this grid
    code = main(["simulate", str(cfg), "--set", "run.dt=1.0",
                 "--set", "run.model=tsw", "--set", "tsw.ic=rest"])
    assert code == 2
    assert "abort" in capsys.readouterr().err


def test_converge_requires_three_dts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["converge", str(cfg), "--dts", "1e-2,5e-3"]) == 1


def test_converge_unknown_metric(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["converge", str(cfg), "--metrics", "bogus"]) == 1


@pytest.mark.parametrize("dts, message", [
    ("1e-2,0,5e-3", "dt must be finite and > 0, got 0.0"),
    ("1e-2,-5e-3,2.5e-3", "dt must be finite and > 0, got -0.005"),
    ("1e-2,nan,2.5e-3", "dt must be finite and > 0, got nan"),
    ("1e-2,inf,2.5e-3", "dt must be finite and > 0, got inf"),
    ("1e-2,1e-2,1e-2", r"at least 3 distinct dt values, got \[0.01\]"),
    ("1e-2,5e-3,1e-2", r"at least 3 distinct dt values, got \[0.005, 0.01\]"),
])
def test_converge_rejects_a_bad_dt_ladder_before_the_study(tmp_path, capsys, dts, message):
    cfg = write_cfg(tmp_path, "conv_out")
    assert main(["converge", str(cfg), "--dts", dts, "--metrics", "composition_residual"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(message, err), err
    assert not (tmp_path / "conv_out").exists()


def test_converge_rejects_an_empty_metric_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "conv_out")
    assert main(["converge", str(cfg), "--dts", "1e-2,5e-3,2.5e-3", "--metrics", ","]) == 1
    assert capsys.readouterr().err == "error: a convergence study needs at least one metric\n"
    assert not (tmp_path / "conv_out").exists()


def test_converge_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "conv_out")
    code = main(["converge", str(cfg), "--dts", "1e-2,5e-3,2.5e-3",
                 "--metrics", "composition_residual"])
    assert code == 0
    csv = (tmp_path / "conv_out" / "convergence.csv").read_text().splitlines()
    assert csv[0] == "dt,metric,value,slope"
    assert len(csv) == 4
    assert "composition_residual" in capsys.readouterr().out


def test_verify_fast_passes_on_healthy_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["verify", str(cfg), "--fast"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_fast_fails_on_corrupted_lu_claim(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["verify", str(cfg), "--fast",
                 "--set", "run.convention=lu",
                 "--set", "noise.drift=zero",
                 "--set", "noise.mode={k = [1, 1], amp = [0.1, 0.1], solenoidal = false}"])
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
