"""Reference-output regression for refactors that must not change results.

Fixed inputs go through a short thermal shallow-water run, every closed-form
tensor-class operator on the 2D study scene, the Ito drift correction and the
inverse increment's drift.  The operators run twice: with the scene's own
basis, and with a compressive mode added that is a sum of two waves (a
single plane wave makes the Jacobian wedge and e div e - (e . grad) e vanish,
so it would leave those terms unchecked).  Each output array is stored as a
fingerprint: its L1 and L2 norms plus eight fixed random projections, which
a change of any entry moves.  Values are compared at rtol 1e-12, with an
absolute floor of 1e-12 times the array's L2 norm for entries that cancel to
round-off.

After a deliberate change of results, regenerate the stored values with

    PYTHONPATH=src python tests/test_reference_outputs.py
"""
import json
from pathlib import Path

import numpy as np
import pytest

from stochmap.config import load_config
from stochmap.convergence import make_scene_2d
from stochmap.fldio import read_field
from stochmap.forms import (
    NFormMode,
    perturb_0form,
    perturb_1form,
    perturb_mixed_pair,
    perturb_nform,
    perturb_volume_multiplier,
    pushforward_nvector,
    volume_jacobian_coefficient,
)
from stochmap.grid import VectorField
from stochmap.maps import DiffeoIncrement, inverse_increment
from stochmap.noise import (
    BrownianIncrements,
    ModeSpec,
    NoiseBasis,
    fourier_mode_field,
    ito_drift_correction,
)
from stochmap.runner import run_simulation

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "data" / "reference_outputs.json"
RTOL = 1e-12
N_PROJECTIONS = 8


def fingerprint(values) -> list[float]:
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    weights = np.random.default_rng(a.size).uniform(-1.0, 1.0, (N_PROJECTIONS, a.size))
    return [float(np.abs(a).sum()), float(np.sqrt((a * a).sum())), *map(float, weights @ a)]


def _field_arrays(name: str, field) -> dict[str, np.ndarray]:
    if isinstance(field, VectorField):
        field = [c.values for c in field.components]
    if isinstance(field, list):
        return {f"{name}[{p}]": c for p, c in enumerate(field)}
    return {name: field if isinstance(field, np.ndarray) else field.values}


def _result_arrays(name: str, result) -> dict[str, np.ndarray]:
    out = _field_arrays(f"{name}.drift", result.drift)
    for i, noise in enumerate(result.noise):
        out.update(_field_arrays(f"{name}.noise{i}", noise))
    out.update(_field_arrays(f"{name}.realized", result.realized))
    return out


def operator_arrays() -> dict[str, np.ndarray]:
    scene = make_scene_2d(32)
    g = scene.grid
    two_wave = (
        fourier_mode_field(g, ModeSpec(k=(1, 1), amplitude=(0.08, 0.05), solenoidal=False), "sin")
        + fourier_mode_field(g, ModeSpec(k=(2, 0), amplitude=(0.03, 0.06), solenoidal=False), "cos")
    )
    bases = {
        "scene": (scene.basis, [0.03, -0.02]),
        "compressive": (NoiseBasis(g, scene.basis.modes + (two_wave,), scene.basis.drift),
                        [0.03, -0.02, 0.025]),
    }
    out: dict[str, np.ndarray] = {}
    for label, (basis, eta) in bases.items():
        d = DiffeoIncrement(basis, BrownianIncrements(dt=1e-3, eta=np.array(eta)))
        parts = {
            "0form": perturb_0form(scene.f0, d),
            "nform_flux": perturb_nform(scene.fn, d, NFormMode.FLUX),
            "nform_pointwise": perturb_nform(scene.fn, d, NFormMode.POINTWISE),
            "1form": perturb_1form(scene.u, d),
            "nvector": pushforward_nvector(scene.gv, d),
            "volume": perturb_volume_multiplier(d),
        }
        parts["pair_nform"], parts["pair_nvector"] = perturb_mixed_pair(scene.fn, scene.gv, d)
        for name, result in parts.items():
            out.update(_result_arrays(f"{label}.{name}", result))
        for i, e in enumerate(basis.modes):
            out.update(_field_arrays(f"{label}.jacobian_wedge{i}", volume_jacobian_coefficient(e)))
        out.update(_field_arrays(f"{label}.ito_drift", ito_drift_correction(basis, 1.0)))
        out.update(_field_arrays(f"{label}.salt_drift", ito_drift_correction(basis, 0.5)))
        out.update(_field_arrays(f"{label}.inverse_drift", inverse_increment(d).basis.drift))
    return out


def tsw_run_arrays(out_dir: Path) -> dict[str, np.ndarray]:
    config = load_config(ROOT / "configs" / "tsw.cfg", [
        "grid.points=32 32", "run.n_steps=10", "run.snapshot_interval=5",
        f"output.directory={out_dir}",
    ])
    run_simulation(config)
    out: dict[str, np.ndarray] = {}
    for series in ("energy", "mass", "momentum_x", "momentum_y"):
        rows = (out_dir / f"{series}.csv").read_text().splitlines()[1:]
        out[f"tsw.{series}"] = np.array([float(r.split(",")[1]) for r in rows])
    for step in (5, 10):
        for name in ("h", "theta", "u_x", "u_y"):
            out[f"tsw.{name}_{step}"] = read_field(out_dir / f"{name}_{step:06d}.fld").values
    return out


def _check(got: dict[str, np.ndarray], expected: dict[str, list[float]]) -> None:
    assert sorted(got) == sorted(expected)
    for name, values in got.items():
        fp = np.array(fingerprint(values))
        ref = np.array(expected[name])
        np.testing.assert_allclose(fp, ref, rtol=RTOL, atol=RTOL * ref[1], err_msg=name)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_operators_match_reference(reference):
    _check(operator_arrays(), reference["operators"])


def test_tsw_run_matches_reference(reference, tmp_path):
    _check(tsw_run_arrays(tmp_path / "tsw"), reference["tsw"])


def test_reference_file_is_small():
    assert REFERENCE.stat().st_size <= 64 * 1024


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {
            "operators": {k: fingerprint(v) for k, v in operator_arrays().items()},
            "tsw": {k: fingerprint(v) for k, v in tsw_run_arrays(Path(tmp) / "tsw").items()},
        }
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes)")
