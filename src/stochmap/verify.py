"""Machine-checkable verification suite.

`verify_suite` runs one catalog of checks against a run configuration and
returns per-check records (name, measured, threshold, pass).  Exit handling
and printing live in the CLI.  Checks use the configured grid, seed, basis
and convention; where a check needs a special basis (the incompressible
volume check, the degeneracy check) it builds its own and says so.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import integrate
from .config import RunConfig
from .convergence import (
    DEFAULT_DTS,
    fit_loglog_slope,
    run_study,
    STUDY_METRICS,
    vorticity_fixed_h_study,
    weak_advection_study,
)
from .forms import NFormMode, perturb_nform, perturb_volume_multiplier
from .grid import Grid, ScalarField, TensorClass, VectorField
from .maps import Convention, inverse_map, make_increment
from .models import (
    advection_diffusion_rhs,
    lu_basis,
    lu_discrepancy_0form,
    lu_discrepancy_nform,
    two_step_forecast,
)
from .noise import ModeSpec, NoiseBasis, build_fourier_basis, ito_drift_correction
from .runner_support import build_basis, smooth_scalar

SLOPE_THRESHOLD = 1.4


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    comparison: str = "<"   # "<" measured below threshold, ">" above
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:34s} measured={self.measured:12.4e} "
            f"{self.comparison} threshold={self.threshold:.4e}  {status}"
            + (f"  [{self.note}]" if self.note else "")
        )


def _below(name, measured, threshold, note=""):
    return CheckResult(name, float(measured), float(threshold), float(measured) < threshold, "<", note)


def _above(name, measured, threshold, note=""):
    return CheckResult(name, float(measured), float(threshold), float(measured) > threshold, ">", note)


def _test_scalar(grid: Grid, seed: int) -> ScalarField:
    return smooth_scalar(grid, np.random.default_rng(seed), offset=1.2, amplitude=0.4)


def verify_suite(config: RunConfig, *, include_slow: bool = True) -> list[CheckResult]:
    checks: list[CheckResult] = []
    grid = config.make_grid()
    basis = build_basis(grid, config)
    f = _test_scalar(grid, config.seed + 17)

    # --- transport-noise correspondences on the configured basis -----------
    # When the config claims the LU convention, the configured drift itself is
    # under test; otherwise the checks install the required drift and verify
    # the algebra.
    if config.convention is Convention.LU:
        lu_b = basis
    else:
        lu_b = lu_basis(basis)
    d_lu = make_increment(lu_b, config.dt, np.random.default_rng(config.seed + 1), safety=config.safety)
    # The 0-form check also covers the closed-form inverse collapsing to a
    # pure noise shift under this drift; both break together if the installed
    # drift is wrong.
    disc0 = lu_discrepancy_0form(d_lu, f)
    pts = grid.points()
    inv = inverse_map(d_lu, pts)
    expect = pts.copy()
    for e, eta in zip(d_lu.basis.modes, d_lu.increments.eta):
        expect = expect - float(eta) * np.stack(
            [c.values.reshape(-1) for c in e.components], axis=-1
        )
    inv_gap = float(np.abs(grid.wrap_displacement(inv - grid.wrap(expect))).max())
    checks.append(_below("lu_correspondence_0form", max(disc0, inv_gap), 1e-10))
    checks.append(_below("lu_nform_reynolds_form", lu_discrepancy_nform(d_lu, f), 1e-10))

    # SALT drift is exactly half the LU drift
    a_lu = ito_drift_correction(basis, 1.0)
    a_salt = ito_drift_correction(basis, 0.5)
    half_gap = max(
        float(np.abs(2.0 * s.values - l.values).max())
        for s, l in zip(a_salt.components, a_lu.components)
    )
    checks.append(_below("salt_drift_is_half_lu_drift", half_gap, 1e-15))

    # --- incompressible basis leaves the volume form alone -----------------
    vol_basis = build_fourier_basis(
        grid if grid.dim == 2 else Grid((32, 32), (2 * np.pi, 2 * np.pi)),
        [ModeSpec(k=(1, 0), amplitude=(0.0, 0.2)), ModeSpec(k=(0, 2), amplitude=(0.15, 0.0))],
    )
    d_vol = make_increment(lu_basis(vol_basis), config.dt, np.random.default_rng(config.seed + 2))
    vol = perturb_volume_multiplier(d_vol)
    checks.append(_below("volume_multiplier_incompressible", float(np.abs(vol.realized.values).max()), 1e-10,
                         note="shear-mode basis"))

    # --- exact flux conservation -------------------------------------------
    d_any = make_increment(basis, config.dt, np.random.default_rng(config.seed + 3), safety=config.safety)
    r = perturb_nform(f, d_any, NFormMode.FLUX)
    mass_rel = abs(integrate(r.realized)) / max(abs(integrate(f)), 1e-30)
    checks.append(_below("nform_flux_integral", mass_rel, 1e-12))

    # --- scheme degeneracy --------------------------------------------------
    checks.append(_degeneracy_check(grid, config))

    if include_slow:
        # --- order-of-accuracy ladder ---------------------------------------
        rows = run_study(metrics=STUDY_METRICS, dts=DEFAULT_DTS, seed=config.seed)
        seen = set()
        for row in rows:
            if row.metric in seen:
                continue
            seen.add(row.metric)
            checks.append(_above(f"slope_{row.metric}", row.slope, SLOPE_THRESHOLD))

        # --- vorticity commutation at fixed fine grid -----------------------
        _, slope = vorticity_fixed_h_study(dts=DEFAULT_DTS, n=128, seed=config.seed)
        checks.append(
            _above("slope_vorticity_fixed_h", slope, SLOPE_THRESHOLD,
                   note="expected red: defect is h^2 * (linear increment), slope 1; "
                        "see convergence.vorticity_fixed_h_study")
        )

        # --- weak convergence of the mean -----------------------------------
        weak = weak_advection_study(seed=config.seed)
        checks.append(_below("weak_advection_mean_l2", max(weak["errors"]), 0.02))
        dratio = fit_loglog_slope(weak["dts"][:-1], weak["coupled_diffs"])
        checks.append(_above("weak_advection_order", dratio, 0.8,
                             note="coupled-refinement slope; sampling noise fails 38 of seeds 0-999"))

    return checks


def _degeneracy_check(grid: Grid, config: RunConfig) -> CheckResult:
    """Empty basis: stochastic path must be bit-identical to plain Euler."""
    rng_a = np.random.default_rng(config.seed + 5)
    f = _test_scalar(grid, config.seed + 23)
    u = VectorField.constant(grid, tuple(0.3 if p == 0 else -0.2 for p in range(grid.dim)))
    null_basis = NoiseBasis(grid, (), VectorField.zeros(grid))
    rhs = lambda s: {"f": advection_diffusion_rhs(s["f"], u, 0.01)}
    assign = {"f": TensorClass.ZERO_FORM}
    state_s = {"f": f}
    state_d = {"f": f}
    dt = 1e-3
    for _ in range(100):
        state_s = two_step_forecast(state_s, rhs, assign, null_basis, dt, rng_a)
        state_d = {"f": state_d["f"] + rhs(state_d)["f"] * dt}
    identical = np.array_equal(state_s["f"].values, state_d["f"].values)
    return CheckResult("degeneracy_bitwise", 0.0 if identical else 1.0, 0.5, identical, "<")


def report_lines(checks: list[CheckResult]) -> list[str]:
    lines = [c.line() for c in checks]
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return lines
