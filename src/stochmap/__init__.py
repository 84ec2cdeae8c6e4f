"""stochmap: random diffeomorphism perturbations for PDE fields.

Turns a deterministic PDE solver into a stochastic one by perturbing the
location of its state fields once per step with a near-identity random map,
transporting each field according to the tensor object it represents, and
ships the diagnostics that verify which integrals the scheme conserves.
"""

__version__ = "0.1.0"

from .grid import Grid, ScalarField, TensorClass, VectorField
from .calculus import (
    curl,
    derivative,
    divergence,
    dot,
    gradient,
    integrate,
    sample_at,
    second_derivative,
)
from .noise import (
    BrownianIncrements,
    ModeSpec,
    NoiseBasis,
    build_fourier_basis,
    ito_drift_correction,
    sample_increments,
)
from .maps import (
    Convention,
    DiffeoIncrement,
    StepSizeError,
    composition_residual,
    forward_map,
    inverse_increment,
    inverse_map,
    make_increment,
)
from .forms import (
    NFormMode,
    PerturbationResult,
    oracle_remap,
    perturb_0form,
    perturb_1form,
    perturb_mixed_pair,
    perturb_nform,
    perturb_volume_multiplier,
    pushforward_nvector,
)
from .invariants import (
    DiagnosticSeries,
    helicity,
    pairing_integral,
    product_integral,
    total_integral,
    tsw_invariants,
)
from .models import (
    PositivityError,
    StabilityError,
    TSWParams,
    TSWState,
    advection_diffusion_rhs,
    lu_basis,
    lu_correspondence_check,
    lu_nform_check,
    salt_increment,
    tsw_deterministic_rhs,
    tsw_spde_step,
    two_step_forecast,
)

__all__ = [name for name in dir() if not name.startswith("_")]
