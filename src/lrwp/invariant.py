"""Linear dynamical invariant I(t) = A(t)·p̂ + B(t)·x̂ + C(t).

The coefficients evolve as

    A(t) = A0 − (B0/m)·t,   B(t) = B0,
    C(t) = C0 − A(t)·G(t) − (B0/m)·G1(t),

so that I(t) equals A0·p̂(0) + B0·x̂(0) + C0 for all times. The complex ratio
F0 = B0/A0 classifies the eigenfunctions: Im(F0) < 0 gives normalizable
Gaussian packets, F0 = 0 gives driven plane waves, and Im(F0) = 0 with
F0 ≠ 0 is rejected because the density would collapse and diverge at
t = m/F0. The operator is deliberately allowed to be non-Hermitian; no
Hermiticity is ever assumed or enforced.

An eigenfunction φ_λ of I(t) times e^{iα(t)} solves the Schrödinger equation;
:func:`phase_alpha` is this Lewis–Riesenfeld phase α(t), in closed form.
"""

import cmath
import enum
from dataclasses import dataclass

from .classical import ClassicalState, kinetic_action
from .errors import DivergentDensityError, PositionBranchError, UnphysicalInvariantError
from .fields import WaveField, boundary_amplitude, spectral_derivative
from .forcing import ForceProfile

__all__ = [
    "PacketMode",
    "InvariantSpec",
    "InvariantCoefficients",
    "coeffs_at",
    "eigenvalue",
    "apply_invariant",
    "phase_alpha",
]

BOUNDARY_SUPPORT_TOL = 1e-12


class PacketMode(enum.Enum):
    GTWP = "gtwp"
    PLANE_WAVE = "plane_wave"


@dataclass(frozen=True)
class InvariantSpec:
    """Complex constants (A0, B0, C0); validated at construction."""

    A0: complex
    B0: complex
    C0: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "A0", complex(self.A0))
        object.__setattr__(self, "B0", complex(self.B0))
        object.__setattr__(self, "C0", complex(self.C0))
        if self.A0 == 0:
            raise PositionBranchError(
                "A0 = 0 selects position eigenfunctions; not supported"
            )
        f0 = self.F0
        if f0.imag > 0:
            raise UnphysicalInvariantError("unphysical invariant: Im(F0) > 0")
        if f0.imag == 0 and f0 != 0:
            raise DivergentDensityError(
                "divergent density: Im(F0) = 0 with F0 != 0 "
                "(width collapses at t = m/F0)"
            )

    @property
    def F0(self) -> complex:
        return self.B0 / self.A0

    @property
    def mode(self) -> PacketMode:
        return PacketMode.GTWP if self.F0.imag < 0 else PacketMode.PLANE_WAVE


@dataclass(frozen=True)
class InvariantCoefficients:
    A: complex
    B: complex
    C: complex
    t: float


def coeffs_at(
    spec: InvariantSpec, m: float, profile: ForceProfile, t: float
) -> InvariantCoefficients:
    """Coefficients of the invariant at time t."""
    a = spec.A0 - spec.B0 / m * t
    c = spec.C0 - a * profile.g(t) - spec.B0 / m * profile.g1(t)
    return InvariantCoefficients(A=a, B=spec.B0, C=c, t=t)


def eigenvalue(spec: InvariantSpec, state: ClassicalState) -> complex:
    """λ = A0·p0 + B0·x0 + C0, equal to A(t)·p_c(t) + B·x_c(t) + C(t) for all t."""
    return spec.A0 * state.p0 + spec.B0 * state.x0 + spec.C0


def apply_invariant(coeffs: InvariantCoefficients, field: WaveField, hbar: float) -> WaveField:
    """Sample A·(−iħ ∂ₓψ) + B·x·ψ + C·ψ on the grid of ``field``.

    The derivative is spectral, so the field must vanish at the box edges;
    if it does not, the result is flagged ``boundary_contamination`` rather
    than rejected (periodic inputs such as plane waves stay exact).
    """
    if field.space.name != "POSITION":
        raise ValueError("apply_invariant expects a position-space field")
    x = field.grid.points
    dpsi = spectral_derivative(field.values, field.grid)
    values = coeffs.A * (-1j * hbar * dpsi) + coeffs.B * x * field.values + coeffs.C * field.values
    flags = field.flags
    if boundary_amplitude(field) >= BOUNDARY_SUPPORT_TOL and "boundary_contamination" not in flags:
        flags = flags + ("boundary_contamination",)
    return WaveField(grid=field.grid, t=field.t, values=values, space=field.space, flags=flags)


def phase_alpha(
    spec: InvariantSpec,
    state: ClassicalState,
    profile: ForceProfile,
    lam: complex,
    hbar: float,
    t: float,
    alpha0: complex = 0j,
) -> complex:
    """Time-dependent phase α(t) of the evolving eigenfunction, in closed form.

    α(t) = α(0) − ∫₀ᵗ [(λ − C(τ))² + iħ·B0·A(τ)] / (2mħ·A(τ)²) dτ.

    With u = (λ − C0)/A0 and a = A(t)/A0 = 1 − F0·t/m, λ − C(τ) equals
    A(τ)·p̃ + B0·x̃ along the classical path p̃ = u + G, x̃ = (u·τ + G1)/m.
    The integrand then splits into p̃²/(2mħ), (B0/2ħ)·d/dτ[x̃²/A] and
    iB0/(2mA); the first integrates to :func:`kinetic_action` at p = u over ħ:

    α(t) = α(0) − (u²t + 2u·G1 + G2)/(2mħ) − F0·(u·t + G1)²/(2m²ħ·a)
           + (i/2)·ln a.

    Im F0 ≤ 0 keeps a in the closed upper half plane, where the principal
    logarithm is the continuous branch from ln 1 = 0; and a ≠ 0 because a
    real F0 ≠ 0 is rejected. At F0 = 0 the last two terms vanish. In
    general α(t) is complex.
    """
    m = state.m
    u = (lam - spec.C0) / spec.A0
    a = 1.0 - spec.F0 * t / m
    return (
        alpha0
        - kinetic_action(m, u, profile, t) / hbar
        - spec.F0 * (u * t + profile.g1(t)) ** 2 / (2.0 * m * m * hbar * a)
        + 0.5j * cmath.log(a)
    )
