from pathlib import Path

import numpy as np
import pytest

from stochmap.cli import EXIT_RUNTIME, main
from stochmap.config import ConfigError, RunConfig, load_config, parse_config_text, config_from_sections
from stochmap.fldio import describe_field, read_field, write_field
from stochmap.forms import NFormMode
from stochmap.grid import Grid, NonFiniteError, ScalarField
from stochmap.maps import Convention
from stochmap.runner import RuntimeAbort, run_simulation, resolve_output_dir
from stochmap.runner_support import build_basis

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CONFIG_TEXT = """
# shallow-water demo
[grid]
points = 32 32

[noise]
mode = {k = [1, 0], amp = [0.0, 0.2], solenoidal = true, wave = sin}
mode = {k = [0, 2], amp = [0.15, 0.0]}
drift = lu
safety = 1.0

[run]
model = tsw
dt = 1e-3
n_steps = 5
ensemble = 1
seed = 42
convention = lu
nform_mode = flux
rhs = off

[tsw]
kappa = 0.0
h0 = 1.0
theta0 = 1.0
ic = gentle
ic_amplitude = 0.02

[output]
directory = out
"""


def write_config(tmp_path, text=CONFIG_TEXT):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_full_config(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.model == "tsw"
    assert cfg.grid_points == (32, 32)
    assert len(cfg.modes) == 2
    assert cfg.modes[0].k == (1, 0)
    assert cfg.modes[0].amplitude == (0.0, 0.2)
    assert cfg.modes[1].solenoidal is True
    assert cfg.drift == "lu"
    assert cfg.convention is Convention.LU
    assert cfg.nform_mode is NFormMode.FLUX
    assert cfg.rhs_enabled is False
    assert cfg.dt == 1e-3


def test_cli_style_overrides(tmp_path):
    cfg = load_config(write_config(tmp_path), overrides=["run.dt=5e-4", "run.seed=7"])
    assert cfg.dt == 5e-4
    assert cfg.seed == 7
    assert "overrides" in cfg.raw_text


def test_duplicate_scalar_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[run]\ndt = 1\ndt = 2\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("dt = 1\n")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        config_from_sections(parse_config_text("[nope]\nx = 1\n"))
    # a misspelt key of a known section, in the text and as an override
    with pytest.raises(ConfigError, match=r"^\[run\] unknown keys \['n_step'\]$"):
        config_from_sections(parse_config_text("[run]\nn_step = 3\n"))
    with pytest.raises(ConfigError, match=r"^\[run\] unknown keys \['n_step'\]$"):
        load_config(write_config(tmp_path), ["run.n_step=3"])


def test_bad_model_rejected():
    with pytest.raises(ConfigError):
        RunConfig(model="frobnicate")


def test_bad_mode_table_rejected():
    with pytest.raises(ConfigError):
        config_from_sections(parse_config_text("[noise]\nmode = {k = [1, 0]}\n"))
    with pytest.raises(ConfigError):
        config_from_sections(
            parse_config_text("[noise]\nmode = {k = [1.5, 0], amp = [1, 0]}\n")
        )


def test_explicit_drift_modes(tmp_path):
    text = CONFIG_TEXT.replace("drift = lu", "drift = {k = [0, 0], amp = [0.1, 0.0]}")
    cfg = load_config(write_config(tmp_path, text))
    grid = cfg.make_grid()
    basis = build_basis(grid, cfg)
    assert np.allclose(basis.drift.components[0].values, 0.1, atol=1e-15)


def test_invalid_drift_string():
    with pytest.raises(ConfigError):
        config_from_sections(parse_config_text("[noise]\ndrift = sideways\n"))


# --- field snapshots ---------------------------------------------------------

def test_fld_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    g = Grid((8, 12), (1.0, 2.5))
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "snap.fld"
    write_field(path, f)
    back = read_field(path)
    assert back.grid.shape == g.shape
    assert back.grid.extents == g.extents
    assert np.array_equal(back.values, f.values)


def test_fld_header_layout(tmp_path):
    g = Grid((4, 6), (1.0, 2.0))
    path = tmp_path / "snap.fld"
    write_field(path, ScalarField.constant(g, 1.0))
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    assert header == b"2"
    line2, rest = rest.split(b"\n", 1)
    assert line2 == b"4 6"
    line3, payload = rest.split(b"\n", 1)
    assert line3.split() == [b"1.0", b"2.0"]
    assert len(payload) == 4 * 6 * 8


def test_fld_truncated_file_rejected(tmp_path):
    g = Grid((4, 4), (1.0, 1.0))
    path = tmp_path / "snap.fld"
    write_field(path, ScalarField.constant(g, 1.0))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_field(path)


def test_describe_field_mentions_shape(tmp_path):
    g = Grid((8, 8), (1.0, 1.0))
    path = tmp_path / "snap.fld"
    write_field(path, ScalarField.constant(g, 2.0))
    text = describe_field(path)
    assert "8 x 8" in text
    assert "integral" in text


# --- runner ------------------------------------------------------------------

def test_run_simulation_outputs(tmp_path):
    cfg = load_config_with_outdir(tmp_path, "runA")
    result = run_simulation(cfg)
    out = result.output_dir
    assert (out / "manifest.txt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 42" in manifest
    for name in ("energy", "mass", "momentum_x", "momentum_y"):
        csv = (out / f"{name}.csv").read_text().splitlines()
        assert csv[0] == f"time,{name}"
        assert len(csv) == cfg.n_steps + 2  # header + t=0 + n_steps rows
    assert (out / f"h_{cfg.n_steps:06d}.fld").exists()


def load_config_with_outdir(tmp_path, name, text=CONFIG_TEXT):
    text = text.replace("directory = out", f"directory = {tmp_path / name}")
    return load_config(write_config(tmp_path, text))


def test_run_simulation_reproducible_bytes(tmp_path, monkeypatch):
    # identical config and seed; only the out-of-band output dir differs
    cfg = load_config(write_config(tmp_path))
    monkeypatch.setenv("STOCHMAP_OUTDIR", str(tmp_path / "runA"))
    out_a = run_simulation(cfg).output_dir
    monkeypatch.setenv("STOCHMAP_OUTDIR", str(tmp_path / "runB"))
    out_b = run_simulation(cfg).output_dir
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_simulation_ensemble_members_differ(tmp_path):
    text = CONFIG_TEXT.replace("ensemble = 1", "ensemble = 2")
    cfg = load_config_with_outdir(tmp_path, "runE", text)
    out = run_simulation(cfg).output_dir
    assert (out / "member_000").is_dir()
    assert (out / "member_001").is_dir()
    a = (out / "member_000" / "energy.csv").read_text()
    b = (out / "member_001" / "energy.csv").read_text()
    assert a != b  # independent noise streams


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = load_config_with_outdir(tmp_path, "ignored")
    monkeypatch.setenv("STOCHMAP_OUTDIR", str(tmp_path / "envdir"))
    assert resolve_output_dir(cfg) == tmp_path / "envdir"


def test_run_simulation_advection_diagnostics(tmp_path):
    text = CONFIG_TEXT.replace("model = tsw", "model = advection").replace(
        "rhs = off", "rhs = on"
    )
    text += "\n[advection]\nvelocity = 0.5 0.0\ndiffusivity = 0.0\n"
    cfg = load_config_with_outdir(tmp_path, "runAdv", text)
    out = run_simulation(cfg).output_dir
    assert (out / "total_integral.csv").exists()
    assert (out / "l2_norm.csv").exists()


def test_run_simulation_3d_perturbation_only(tmp_path):
    text = """
[grid]
points = 12 12 12

[noise]
mode = {k = [1, 0, 0], amp = [0.0, 0.2, 0.0]}

[run]
model = perturbation_only
dt = 1e-3
n_steps = 2
seed = 3

[scalar]
tensor_class = n_form

[output]
directory = PLACE
"""
    text = text.replace("PLACE", str(tmp_path / "run3d"))
    cfg = load_config(write_config(tmp_path, text))
    out = run_simulation(cfg).output_dir
    rows = (out / "total_integral.csv").read_text().splitlines()[1:]
    totals = np.array([float(r.split(",")[1]) for r in rows])
    # flux-form density transport conserves the integral in 3D too
    assert np.abs(totals - totals[0]).max() < 1e-12 * abs(totals[0])


def test_run_simulation_1d_flux_conservation(tmp_path):
    text = """
[grid]
points = 48

[noise]
mode = {k = [2], amp = [0.1], solenoidal = false}

[run]
model = perturbation_only
dt = 1e-3
n_steps = 5
seed = 4

[scalar]
tensor_class = n_form

[output]
directory = PLACE
"""
    text = text.replace("PLACE", str(tmp_path / "run1d"))
    cfg = load_config(write_config(tmp_path, text))
    out = run_simulation(cfg).output_dir
    rows = (out / "total_integral.csv").read_text().splitlines()[1:]
    totals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.abs(totals - totals[0]).max() < 1e-12 * abs(totals[0])


def test_aborted_run_keeps_step_and_diagnostics(tmp_path):
    # at 256^2 the shipped config's displacement outgrows the guard at step 4
    cfg = load_config(CONFIGS / "tsw.cfg", ["grid.points=256 256", f"output.directory={tmp_path}"])
    with pytest.raises(RuntimeAbort, match="step 4"):
        run_simulation(cfg)
    rows = (tmp_path / "mass.csv").read_text().splitlines()
    assert rows[0] == "time,mass"
    assert [float(r.split(",")[0]) for r in rows[1:]] == [k * cfg.dt for k in range(4)]
    for name in ("energy", "momentum_x", "momentum_y"):
        assert len((tmp_path / f"{name}.csv").read_text().splitlines()) == 5


BLOWUP_CONFIG = """
[grid]
points = 32 32

[run]
model = advection
dt = 0.05
n_steps = 3000
c_stab = 1e12

[advection]
diffusivity = 1.0

[output]
directory = OUT
"""


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nonfinite_state_aborts_with_step(tmp_path):
    # explicit diffusion at five times its stability limit, with the guard
    # switched off by a huge c_stab, overflows after some 1500 steps
    path = tmp_path / "blowup.cfg"
    path.write_text(BLOWUP_CONFIG.replace("OUT", str(tmp_path / "out")))
    with pytest.raises(RuntimeAbort, match=r"^step \d+: field values must be finite") as info:
        run_simulation(load_config(path))
    assert isinstance(info.value.__cause__, NonFiniteError)
    assert (tmp_path / "out" / "total_integral.csv").exists()
    assert main(["simulate", str(path)]) == EXIT_RUNTIME


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nonfinite_initial_state_aborts_at_step_0(tmp_path):
    # the energy density of h0 = 1e200 overflows as the initial state is recorded
    overrides = ["tsw.h0=1e200", "run.n_steps=3", f"output.directory={tmp_path / 'out'}"]
    with pytest.raises(RuntimeAbort, match=r"^step 0: field values must be finite") as info:
        run_simulation(load_config(CONFIGS / "tsw.cfg", overrides))
    assert isinstance(info.value.__cause__, NonFiniteError)
    argv = ["simulate", str(CONFIGS / "tsw.cfg")]
    for ov in overrides:
        argv += ["--set", ov]
    assert main(argv) == EXIT_RUNTIME
