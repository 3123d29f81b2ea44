"""Closed-form wave packets for a particle driven by a time-dependent linear
potential, with two independent numerical propagators for cross-validation."""

from .classical import kinetic_action, p_c, x_c
from .errors import (
    AcceptanceViolation,
    AliasingError,
    ConfigError,
    DegenerateFieldError,
    InstabilityError,
    InvalidInvariantError,
    LrwpError,
    ModeMismatchError,
    OutOfDomainError,
)
from .fields import Grid1D, Space, WaveField, conjugate_momentum_grid
from .forcing import ConstantForce, ForceProfile, PiecewiseLinearForce, SinusoidalForce
from .invariant import InvariantSpec, PacketState, apply_invariant, coeffs_at, eigenvalue
from .oracle import (
    GridSpec,
    ObservableRecord,
    observables,
    propagate_cranknicolson,
    propagate_splitstep,
)
from .wavepacket import (
    analytic_norm_sq,
    delta_p,
    delta_x,
    fourier_bridge,
    gaussian_phi0,
    gtwp_psi,
    matched_packet,
    min_uncertainty_time,
    momentum_solution,
    sample_gaussian_momentum,
    sample_gtwp,
    uncertainty_product,
)

__version__ = "0.1.0"
