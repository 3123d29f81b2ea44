"""Closed-form solutions for a particle driven by a spatially linear force.

Configuration space: eigenfunctions of the linear invariant, dressed with
their time-dependent phase, give the Gaussian-type wave packet

    ψ(x,t) = e^{iα(0)} / √(A(t)/A0)
             · exp[−(i/ħ)·S(t)]
             · exp[−i·B0·(x−x_c)² / (2ħ·A(t)) + (i/ħ)·p_c·x]

with S(t) the kinetic action of the packet center. Its width follows
Δx(t) = √(ħ/2)·|A(t)/A0|/√(−Im F0) while Δp stays constant, and the
uncertainty product dips to exactly ħ/2 at t* = Re(m/F0). At F0 = 0 the
width is infinite: A(t) = A0, and the same formula is the driven plane wave
e^{iα(0)}·e^{−iS(t)/ħ}·e^{i·p_c·x/ħ}, so :func:`gtwp_psi` samples both
packet modes. The width, norm and uncertainty figures need Im F0 < 0.

Momentum space: the same dynamics is a shift p → p − G(t) plus a phase,

    φ(p,t) = φ0(p−G(t)) · exp{−(i/ħ)∫₀ᵗ [p−G(t)+G(τ)]²/(2m) dτ},

and a Gaussian φ0 reproduces the packet above once F0 = −i·m/T and
e^{iα(0)} = (2πσ²)^{−1/4}, where T = 2mσ²/ħ is the spreading time.
:func:`momentum_solution` is that one route for any φ0; momentum mode feeds
it the Gaussian :func:`gaussian_phi0`.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import ClassicalState, kinetic_action, p_c, x_c
from .errors import ModeMismatchError
from .fields import Grid1D, Space, WaveField, boundary_amplitude
from .forcing import ForceProfile
from .invariant import InvariantSpec, PacketMode

__all__ = [
    "PacketState",
    "GaussianMomentumParams",
    "gtwp_psi",
    "analytic_norm_sq",
    "delta_x",
    "delta_p",
    "uncertainty_product",
    "min_uncertainty_time",
    "gaussian_phi0",
    "momentum_solution",
    "fourier_bridge",
    "matched_packet",
    "spreading_time",
    "sample_gtwp",
    "sample_gaussian_momentum",
]

ALIASING_TOL = 1e-10


@dataclass(frozen=True)
class PacketState:
    """Everything that pins down one packet solution.

    ``alpha0`` defaults to the purely imaginary value that normalizes the
    packet to unit probability (it is a free constant otherwise).
    """

    m: float
    hbar: float
    x0: float
    p0: float
    spec: InvariantSpec
    alpha0: complex | None = None

    def __post_init__(self):
        if self.m <= 0 or self.hbar <= 0:
            raise ValueError("m and hbar must be positive")
        if self.alpha0 is None:
            if self.spec.mode is PacketMode.GTWP:
                a0 = 0.25j * math.log(math.pi * self.hbar / (-self.spec.F0.imag))
            else:
                a0 = 0j
            object.__setattr__(self, "alpha0", a0)
        else:
            object.__setattr__(self, "alpha0", complex(self.alpha0))

    @property
    def classical(self) -> ClassicalState:
        return ClassicalState(m=self.m, x0=self.x0, p0=self.p0)

    @property
    def mode(self) -> PacketMode:
        return self.spec.mode


@dataclass(frozen=True)
class GaussianMomentumParams:
    """Width and phase-space center of the initial momentum-space Gaussian."""

    sigma: float
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def spreading_time(params: GaussianMomentumParams, m: float, hbar: float) -> float:
    """T = 2mσ²/ħ, the timescale of free width growth."""
    return 2.0 * m * params.sigma**2 / hbar


def _require_gtwp(state: PacketState):
    if state.mode is not PacketMode.GTWP:
        raise ModeMismatchError("plane-wave packet (F0 = 0): it has no finite width or norm")


def _ratio_a(state: PacketState, t: float) -> complex:
    """A(t)/A0 = 1 − F0·t/m."""
    return 1.0 - state.spec.F0 * t / state.m


def _branch_sqrt(z: complex) -> complex:
    # z(t) = 1 − F0·t/m stays in the closed upper half plane (Im F0 ≤ 0),
    # so the continuous branch starting at √1 = +1 keeps Re ≥ 0; pick it
    # explicitly so roundoff just below the real axis cannot flip the sign.
    w = cmath.sqrt(complex(z))
    return -w if w.real < 0 else w


def gtwp_psi(state: PacketState, profile: ForceProfile, x, t: float):
    """Packet at position(s) x and time t, for both packet modes.

    At F0 = 0 (B0 = 0) the Gaussian factor is dropped rather than formed as
    0·(x − x_c)², which would turn nan where (x − x_c)² overflows; what is
    left is the driven plane wave.
    """
    cl = state.classical
    action = kinetic_action(state.m, state.p0, profile, t)
    pc = p_c(cl, profile, t)
    hbar = state.hbar
    pref = cmath.exp(1j * state.alpha0) / _branch_sqrt(_ratio_a(state, t))
    pref *= cmath.exp(-1j * action / hbar)
    x = np.asarray(x, dtype=float)
    arg = 1j * pc * x / hbar
    if state.spec.B0 != 0:
        xc = x_c(cl, profile, t)
        at = state.spec.A0 * _ratio_a(state, t)
        arg = -1j * state.spec.B0 * (x - xc) ** 2 / (2.0 * hbar * at) + arg
    out = pref * np.exp(arg)
    return out if out.ndim else complex(out)


def analytic_norm_sq(state: PacketState) -> float:
    """∫|ψ|²dx of the packet (time-independent)."""
    _require_gtwp(state)
    return math.exp(-2.0 * state.alpha0.imag) * math.sqrt(
        math.pi * state.hbar / (-state.spec.F0.imag)
    )


def delta_x(state: PacketState, t: float) -> float:
    """Δx(t) = √(ħ/2)·|A(t)/A0| / √(−Im F0)."""
    _require_gtwp(state)
    return math.sqrt(state.hbar / 2.0) * abs(_ratio_a(state, t)) / math.sqrt(
        -state.spec.F0.imag
    )


def delta_p(state: PacketState) -> float:
    """Δp = √(ħ/2)·|F0| / √(−Im F0); constant in time."""
    _require_gtwp(state)
    f0 = state.spec.F0
    return math.sqrt(state.hbar / 2.0) * abs(f0) / math.sqrt(-f0.imag)


def uncertainty_product(state: PacketState, t: float) -> float:
    """Δx·Δp = (ħ/2)·|F0·(1 − F0·t/m)| / (−Im F0) ≥ ħ/2."""
    _require_gtwp(state)
    f0 = state.spec.F0
    return 0.5 * state.hbar * abs(f0 * _ratio_a(state, t)) / (-f0.imag)


def min_uncertainty_time(state: PacketState, t_hi: float) -> float:
    """argmin over [0, t_hi] of the uncertainty product, in closed form.

    |1 − F0·t/m| = |F0/m|·|m/F0 − t| is smallest over real t at
    t* = Re(m/F0), so the answer is t* clamped to [0, t_hi].
    """
    _require_gtwp(state)
    return min(max(0.0, (state.m / state.spec.F0).real), float(t_hi))


def gaussian_phi0(params: GaussianMomentumParams, hbar: float, p):
    """Initial momentum-space Gaussian

    φ0(p) = (2σ²/πħ²)^{1/4} · exp[−σ²(p−p0)²/ħ² − i(p−p0)x0/ħ].
    """
    s, x0, p0 = params.sigma, params.x0, params.p0
    p = np.asarray(p, dtype=float)
    out = (2.0 * s * s / (math.pi * hbar * hbar)) ** 0.25 * np.exp(
        -(s * s) * (p - p0) ** 2 / hbar**2 - 1j * (p - p0) * x0 / hbar
    )
    return out if out.ndim else complex(out)


def momentum_solution(
    phi0: Callable,
    profile: ForceProfile,
    m: float,
    hbar: float,
    p,
    t: float,
):
    """General momentum-space solution for an arbitrary initial φ0:

    φ(p,t) = φ0(p−G(t)) · exp{−(i/ħ)∫₀ᵗ [p−G(t)+G(τ)]²/(2m) dτ}.

    With u = p−G(t) the inner integral is :func:`kinetic_action` at p = u.
    """
    u = np.asarray(p, dtype=float) - profile.g(t)
    out = np.asarray(phi0(u)) * np.exp(-1j * kinetic_action(m, u, profile, t) / hbar)
    return out if out.ndim else complex(out)


def fourier_bridge(field: WaveField, hbar: float, position_grid: Grid1D) -> WaveField:
    """Transform a momentum-space field to position space:

    ψ(x) = (2πħ)^{−1/2} ∫ φ(p) e^{ipx/ħ} dp,

    realized as a DFT onto ``position_grid``, with phase factors for the grid
    offsets. The field's grid must be Fourier-conjugate to it, as
    ``conjugate_momentum_grid(position_grid, hbar)`` is. The transform is
    exactly unitary on the grid (Σ|ψ|²Δx = Σ|φ|²Δp). If the momentum samples
    do not vanish at the grid edges the result carries an ``aliasing`` flag.
    """
    if field.space is not Space.MOMENTUM:
        raise ValueError("fourier_bridge expects a momentum-space field")
    pgrid = field.grid
    n, dp, p_lo = pgrid.n, pgrid.spacing, pgrid.lo
    if position_grid.n != n:
        raise ValueError("position grid size must match the momentum grid")
    if abs(position_grid.spacing * dp * n / (2.0 * np.pi * hbar) - 1.0) > 1e-9:
        raise ValueError("grids are not Fourier-conjugate: Δp·Δx must equal 2πħ/n")
    x = position_grid.points
    twisted = field.values * np.exp(1j * np.arange(n) * dp * position_grid.lo / hbar)
    psi = (n * dp / np.sqrt(2.0 * np.pi * hbar)) * np.exp(1j * p_lo * x / hbar) * np.fft.ifft(
        twisted
    )
    flags = field.flags
    if boundary_amplitude(field) > ALIASING_TOL and "aliasing" not in flags:
        flags = flags + ("aliasing",)
    return WaveField(grid=position_grid, t=field.t, values=psi, space=Space.POSITION, flags=flags)


def matched_packet(params: GaussianMomentumParams, m: float, hbar: float) -> PacketState:
    """Packet state equal to the transformed momentum-space Gaussian: the invariant
    ratio F0 = −i·m/T and the initial phase e^{iα(0)} = (2πσ²)^{−1/4}."""
    try:
        t_spread = spreading_time(params, m, hbar)
    except OverflowError:  # σ² beyond the float range
        t_spread = math.inf
    if not 0.0 < t_spread < math.inf:
        raise ValueError(f"spreading time 2m*sigma^2/hbar = {t_spread:g}, not finite and positive")
    if not math.isfinite(m / t_spread):
        raise ValueError(f"spreading time 2m*sigma^2/hbar = {t_spread:g}: F0 = -i*m/T overflows")
    f0 = -1j * m / t_spread
    spec = InvariantSpec(A0=1.0 + 0j, B0=f0, C0=0j)
    alpha0 = 0.25j * math.log(2.0 * math.pi * params.sigma**2)
    return PacketState(m=m, hbar=hbar, x0=params.x0, p0=params.p0, spec=spec, alpha0=alpha0)


def sample_gtwp(state: PacketState, profile: ForceProfile, grid: Grid1D, t: float) -> WaveField:
    """:func:`gtwp_psi` on a position grid: the packet, or at F0 = 0 the plane wave."""
    values = gtwp_psi(state, profile, grid.points, t)
    return WaveField(grid=grid, t=t, values=values, space=Space.POSITION)


def sample_gaussian_momentum(
    params: GaussianMomentumParams,
    m: float,
    hbar: float,
    profile: ForceProfile,
    grid: Grid1D,
    t: float,
) -> WaveField:
    """φ(p,t) of the Gaussian φ0 on a momentum grid, by the general route
    :func:`momentum_solution`."""
    values = momentum_solution(
        lambda p: gaussian_phi0(params, hbar, p), profile, m, hbar, grid.points, t
    )
    return WaveField(grid=grid, t=t, values=values, space=Space.MOMENTUM)
