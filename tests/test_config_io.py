import platform
from pathlib import Path

import numpy as np
import pytest

from stochmap import config as config_module, runner
from stochmap.cli import EXIT_RUNTIME, main
from stochmap.config import ConfigError, RunConfig, load_config, parse_config_text, config_from_sections
from stochmap.fldio import describe_field, read_field, write_field
from stochmap.forms import NFormMode
from stochmap.grid import Grid, NonFiniteError, ScalarField, TensorClass
from stochmap.maps import Convention
from stochmap.models import PositivityError
from stochmap.noise import ModeSpec
from stochmap.runner import RuntimeAbort, run_simulation, resolve_output_dir
from stochmap.runner_support import build_basis

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

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
    # and a misspelt key of a drift table
    with pytest.raises(ConfigError, match=r"^\[noise\] drift: unknown keys \['bogus'\]$"):
        load_config(write_config(tmp_path), ["noise.drift={k = [1, 0], amp = [0.1, 0], bogus = 3}"])


def test_bad_model_rejected():
    with pytest.raises(ConfigError):
        RunConfig(model="frobnicate")


def test_bad_mode_table_rejected():
    with pytest.raises(ConfigError):
        config_from_sections(parse_config_text("[noise]\nmode = {k = [1, 0]}\n"))
    for key in ("mode", "drift", "drift_mode"):
        with pytest.raises(ConfigError, match=rf"^\[noise\] {key}: wavevector entries must be integers"):
            config_from_sections(
                parse_config_text(f"[noise]\n{key} = {{k = [1.5, 0], amp = [1, 0]}}\n")
            )


def test_explicit_drift_modes(tmp_path):
    text = CONFIG_TEXT.replace("drift = lu", "drift = {k = [0, 0], amp = [0.1, 0.0]}")
    cfg = load_config(write_config(tmp_path, text))
    grid = cfg.make_grid()
    assert cfg.drift == [ModeSpec((0, 0), (0.1, 0.0), solenoidal=False, wave="cos")]
    basis = build_basis(grid, cfg)
    assert np.allclose(basis.drift.components[0].values, 0.1, atol=1e-15)


def test_invalid_drift_string():
    with pytest.raises(ConfigError):
        config_from_sections(parse_config_text("[noise]\ndrift = sideways\n"))


@pytest.mark.parametrize("override, key", [
    ("run.n_steps=2.7", "[run] n_steps"),        # int() would truncate these
    ("grid.points=64.9 64", "[grid] points"),
    ("run.seed=-1", "[run] seed"),
    ("run.dt=abc", "[run] dt"),
    ("noise.safety=0", "[noise] safety"),      # the step-size guard's bound would be 0
    ("noise.safety=-1", "[noise] safety"),
    ("tsw.ic=cold", "[tsw] ic"),
    ("tsw.kappa=-1", "[tsw] kappa"),           # TSWParams or the rhs would raise in the run
    ("tsw.h0=0", "[tsw] h0"),
    ("tsw.theta0=-1", "[tsw] theta0"),
    ("advection.diffusivity=-1", "[advection] diffusivity"),
    ("run.c_stab=0", "[run] c_stab"),          # would abort at step 1
    ("run.snapshot_interval=-5", "[run] snapshot_interval"),   # would silently mean none
    # values that only the grid shows to be wrong; ";" separates overrides
    ("noise.mode={k = [1, 0, 0], amp = [0, 1, 0]}", "[noise] mode"),
    ("grid.points=2 2", "[grid] points"),
    ("grid.extents=1 2 3", "[grid] extents"),
    ("grid.points=16 16 16", "[grid] points"),
    ("run.model=advection;advection.velocity=1 0 0", "[advection] velocity"),
    ("run.model=perturbation_only;scalar.tensor_class=one_form", "[scalar] tensor_class"),
    ("run.model=perturbation_only;scalar.tensor_class=volume_form", "[scalar] tensor_class"),
    ("run.model=perturbation_only;scalar.tensor_class=mixed_pair", "[scalar] tensor_class"),
    # true and false are not numbers, and a non-finite size or step fails only in the run
    ("run.n_steps=true", "[run] n_steps"),
    ("run.snapshot_interval=false", "[run] snapshot_interval"),
    ("run.dt=true", "[run] dt"),
    ("run.model=advection;advection.velocity=true false", "[advection] velocity"),
    ("grid.extents=nan 1", "[grid] extents"),
    ("grid.extents=1 inf", "[grid] extents"),
    ("run.dt=inf", "[run] dt"),
    ("run.dt=nan", "[run] dt"),
    ("noise.mode={k = [1, 0], amp = [0, true]}", "[noise] mode"),
    ("noise.mode={k = [1, 0], amp = [0, inf]}", "[noise] mode"),
    ("noise.drift_mode={k = [1, 0], amp = [nan, 0]}", "[noise] drift_mode"),
])
def test_bad_value_is_config_error_naming_its_key(tmp_path, override, key):
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path), override.split(";"))
    assert str(info.value).startswith(key + ": ")


@pytest.mark.parametrize("extents", [(np.nan, 1.0), (1.0, np.inf), (0.0, 1.0)])
def test_grid_rejects_an_extent_that_is_not_positive_and_finite(extents):
    with pytest.raises(ValueError, match="extents must be positive and finite"):
        Grid((8, 8), extents)


# one non-default value per row of the key table, and the field it lands on
EVERY_KEY_TEXT = """
[grid]
points = 16 24
extents = 1.5 2.5
[noise]
mode = {k = [1, 2], amp = [0.1, 0.2], solenoidal = false, wave = both}
drift = salt
drift_mode = {k = [0, 1], amp = [0.3, 0.0]}
drift_mode = {k = [2, 0], amp = [0.0, 0.1], solenoidal = true, wave = sin}
safety = 2.5
[run]
model = advection
dt = 2e-3
n_steps = 7
ensemble = 3
seed = 9
snapshot_interval = 4
c_stab = 0.5
convention = salt
nform_mode = pointwise
rhs = off
[tsw]
kappa = 0.3
h0 = 2.0
theta0 = 3.0
fcor = 0.7
ic = rest
ic_amplitude = 0.05
[advection]
velocity = 0.25 -0.5
diffusivity = 0.01
ic_amplitude = 0.4
[scalar]
tensor_class = n_vector
ic_amplitude = 0.6
[output]
directory = elsewhere
"""


def test_every_key_lands_on_its_field(tmp_path):
    sections = parse_config_text(EVERY_KEY_TEXT)
    assert {(sec, key) for sec, table in sections.items() for key in table} == set(config_module._TABLE)
    cfg = load_config(write_config(tmp_path, EVERY_KEY_TEXT))
    expected = dict(
        grid_points=(16, 24), grid_extents=(1.5, 2.5),
        modes=[ModeSpec((1, 2), (0.1, 0.2), solenoidal=False, wave="both")],
        # drift_mode entries take the drift defaults and win over drift
        drift=[ModeSpec((0, 1), (0.3, 0.0), solenoidal=False, wave="cos"),
               ModeSpec((2, 0), (0.0, 0.1), solenoidal=True, wave="sin")],
        safety=2.5, model="advection", dt=2e-3, n_steps=7, ensemble=3, seed=9,
        snapshot_interval=4, c_stab=0.5, convention=Convention.SALT,
        nform_mode=NFormMode.POINTWISE, rhs_enabled=False,
        tsw_kappa=0.3, tsw_h0=2.0, tsw_theta0=3.0, tsw_fcor=0.7, tsw_ic="rest",
        tsw_ic_amplitude=0.05, adv_velocity=(0.25, -0.5), adv_diffusivity=0.01,
        adv_ic_amplitude=0.4, scalar_tensor_class=TensorClass.N_VECTOR,
        scalar_ic_amplitude=0.6, output_dir="elsewhere",
    )
    for name, value in expected.items():
        assert getattr(cfg, name) == value, name
        assert value != getattr(RunConfig(), name), name
    # the drift row, which drift_mode overrides above
    cfg = load_config(write_config(tmp_path, EVERY_KEY_TEXT.replace("drift_mode", "#")))
    assert cfg.drift == "salt"


def test_shipped_configs_and_readme_block_load(tmp_path):
    # each one loads, and runs two steps: load-time checks cannot see every run-time failure
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```", 2)[1]
    paths = sorted(CONFIGS.glob("*.cfg")) + [write_config(tmp_path, block)]
    for path in paths:
        name = path.stem if path.parent == CONFIGS else "readme"
        cfg = load_config(path, ["run.n_steps=2", "run.ensemble=1",
                                 f"output.directory={tmp_path / name}"])
        assert run_simulation(cfg).n_steps == 2, name
        assert len(list((tmp_path / name).glob("*_000002.fld"))) >= 1, name
    assert cfg.model == "tsw" and len(cfg.modes) == 2


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
    head = manifest.splitlines()[:6]
    assert head[2] == f"model = {cfg.model}"
    assert head[3] == f"python = {platform.python_version()}"
    assert head[4] == f"numpy = {np.__version__}"
    assert head[5] == "--- config echo ---"
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


def test_run_simulation_ensemble_members_differ(tmp_path, monkeypatch):
    text = CONFIG_TEXT.replace("ensemble = 1", "ensemble = 2")
    cfg = load_config_with_outdir(tmp_path, "runE", text)
    bases = []

    def counted_build_basis(*args):
        bases.append(build_basis(*args))
        return bases[-1]

    monkeypatch.setattr(runner, "build_basis", counted_build_basis)
    out = run_simulation(cfg).output_dir
    assert len(bases) == 1   # the members share one basis, its geometry and its inverse
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
    with pytest.raises(RuntimeAbort, match=r"^step 4: max displacement") as info:
        run_simulation(cfg)
    assert "member" not in str(info.value)   # a single-member run names no member
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


def test_nonfinite_state_aborts_with_step(tmp_path):
    # explicit diffusion at five times its stability limit, with the guard
    # switched off by a huge c_stab, overflows after some 1500 steps
    path = tmp_path / "blowup.cfg"
    path.write_text(BLOWUP_CONFIG.replace("OUT", str(tmp_path / "out")))
    with pytest.raises(RuntimeAbort, match=r"^step \d+: f: field values must be finite") as info:
        run_simulation(load_config(path))
    assert isinstance(info.value.__cause__, NonFiniteError)
    assert (tmp_path / "out" / "total_integral.csv").exists()
    assert main(["simulate", str(path)]) == EXIT_RUNTIME


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


def test_nonpositive_initial_state_aborts_at_step_0(tmp_path, capsys):
    # the seeded initial height dips below zero at this amplitude
    overrides = ["tsw.ic_amplitude=5", f"output.directory={tmp_path / 'out'}"]
    with pytest.raises(RuntimeAbort, match=r"^step 0: layer height lost positivity") as info:
        run_simulation(load_config(CONFIGS / "tsw.cfg", overrides))
    assert isinstance(info.value.__cause__, PositivityError)
    assert (tmp_path / "out" / "mass.csv").read_text() == "time,mass\n"
    argv = ["simulate", str(CONFIGS / "tsw.cfg")]
    for ov in overrides:
        argv += ["--set", ov]
    assert main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("runtime abort: step 0: ")
