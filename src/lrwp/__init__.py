"""Closed-form wave packets for a particle driven by a time-dependent linear
potential, with two independent numerical propagators for cross-validation."""

from .classical import ClassicalState, kinetic_action, p_c, x_c
from .errors import (
    AcceptanceViolation,
    AliasingError,
    ConfigError,
    ContainmentError,
    DegenerateFieldError,
    DivergentDensityError,
    InstabilityError,
    LrwpError,
    ModeMismatchError,
    OutOfDomainError,
    PositionBranchError,
    UnphysicalInvariantError,
)
from .fields import Grid1D, Space, WaveField, conjugate_momentum_grid
from .forcing import ConstantForce, ForceProfile, PiecewiseLinearForce, SinusoidalForce
from .invariant import (
    InvariantCoefficients,
    InvariantSpec,
    PacketMode,
    apply_invariant,
    coeffs_at,
    eigenvalue,
    phase_alpha,
)
from .oracle import (
    GridSpec,
    ObservableRecord,
    observables,
    propagate_cranknicolson,
    propagate_splitstep,
)
from .wavepacket import (
    GaussianMomentumParams,
    PacketState,
    analytic_norm_sq,
    delta_p,
    delta_x,
    fourier_bridge,
    gaussian_phi0,
    gtwp_psi,
    matched_packet,
    min_uncertainty_time,
    momentum_solution,
    plane_wave_psi,
    sample_gaussian_momentum,
    sample_gtwp,
    spreading_time,
    uncertainty_product,
)

__version__ = "0.1.0"
