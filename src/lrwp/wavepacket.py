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
(``InvariantSpec.is_packet`` tells them apart). The width, norm and
uncertainty figures need a packet, Im F0 < 0.

Momentum space: the same dynamics is a shift p → p − G(t) plus a phase,

    φ(p,t) = φ0(p−G(t)) · exp{−(i/ħ)∫₀ᵗ [p−G(t)+G(τ)]²/(2m) dτ},

and a Gaussian φ0 of width σ, centered at the packet's (x0, p0), reproduces
the packet above once F0 = −i·m/T and e^{iα(0)} = (2πσ²)^{−1/4}, where
T = 2mσ²/ħ is the spreading time. :func:`matched_packet` builds that packet
from σ, and :func:`momentum_solution` is the one route for any φ0; momentum
mode feeds it the Gaussian :func:`gaussian_phi0`, reading m, ħ, x0 and p0
from the same :class:`PacketState` the position route samples.
"""

import cmath
import functools
import math
from typing import Callable

import numpy as np

from .classical import kinetic_action, p_c, x_c
from .errors import AliasingError, ModeMismatchError
from .fields import Grid1D, WaveField, boundary_amplitude, conjugate_momentum_grid
from .forcing import ForceProfile
from .invariant import InvariantSpec, PacketState

__all__ = [
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
    "sample_gtwp",
    "sample_gaussian_momentum",
]

ALIASING_TOL = 1e-10


def _require_gtwp(state: PacketState):
    if not state.spec.is_packet:
        raise ModeMismatchError("plane-wave packet (F0 = 0): it has no finite width or norm")


def gtwp_psi(state: PacketState, profile: ForceProfile, x, t: float):
    """Packet at position(s) x and time t (a plane wave at F0 = 0).

    At F0 = 0 (B0 = 0) the Gaussian factor is dropped rather than formed as
    0·(x − x_c)², which would turn nan where (x − x_c)² overflows; what is
    left is the driven plane wave.
    """
    ratio = state.spec.a_ratio(state.m, t)
    action = kinetic_action(state.m, state.p0, profile, t)
    pc = p_c(state, profile, t)
    hbar = state.hbar
    pref = cmath.exp(1j * state.alpha0) / cmath.sqrt(complex(ratio))
    pref *= cmath.exp(-1j * action / hbar)
    x = np.asarray(x, dtype=float)
    arg = 1j * pc * x / hbar
    if state.spec.B0 != 0:
        xc = x_c(state, profile, t)
        at = state.spec.A0 * ratio
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
    return math.sqrt(state.hbar / 2.0) * abs(state.spec.a_ratio(state.m, t)) / math.sqrt(
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
    return 0.5 * state.hbar * abs(f0 * state.spec.a_ratio(state.m, t)) / (-f0.imag)


def min_uncertainty_time(state: PacketState, t_hi: float) -> float:
    """argmin over [0, t_hi] of the uncertainty product, in closed form.

    |1 − F0·t/m| = |F0/m|·|m/F0 − t| is smallest over real t at
    t* = Re(m/F0), so the answer is t* clamped to [0, t_hi].
    """
    _require_gtwp(state)
    return min(max(0.0, (state.m / state.spec.F0).real), float(t_hi))


def gaussian_phi0(sigma: float, x0: float, p0: float, hbar: float, p):
    """Initial momentum-space Gaussian

    φ0(p) = (2σ²/πħ²)^{1/4} · exp[−σ²(p−p0)²/ħ² − i(p−p0)x0/ħ].
    """
    p = np.asarray(p, dtype=float)
    out = (2.0 * sigma * sigma / (math.pi * hbar * hbar)) ** 0.25 * np.exp(
        -(sigma * sigma) * (p - p0) ** 2 / hbar**2 - 1j * (p - p0) * x0 / hbar
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


@functools.lru_cache(maxsize=1)
def _bridge_phases(position_grid: Grid1D, hbar: float) -> tuple[Grid1D, np.ndarray, np.ndarray]:
    """The momentum grid conjugate to ``position_grid``, and the two arrays of
    :func:`fourier_bridge` that depend on the grids alone: e^{i·k·Δp·x_lo/ħ}, taken
    before the DFT, and (n·Δp/√(2πħ))·e^{i·p_lo·x/ħ}, after it. Kept for the last
    grid, so a run computes them once for all of its snapshots; read-only."""
    pgrid = conjugate_momentum_grid(position_grid, hbar)
    n, dp, p_lo = pgrid.n, pgrid.spacing, pgrid.lo
    twist = np.exp(1j * np.arange(n) * dp * position_grid.lo / hbar)
    lift = (n * dp / np.sqrt(2.0 * np.pi * hbar)) * np.exp(1j * p_lo * position_grid.points / hbar)
    twist.flags.writeable = lift.flags.writeable = False
    return pgrid, twist, lift


def fourier_bridge(field: WaveField, hbar: float, position_grid: Grid1D) -> WaveField:
    """Transform a momentum-space field to position space:

    ψ(x) = (2πħ)^{−1/2} ∫ φ(p) e^{ipx/ħ} dp,

    realized as a DFT onto ``position_grid``, with phase factors for the grid
    offsets; those depend on the grids alone, and are computed once for a run of
    snapshots on one grid (``_bridge_phases``). The field's grid must be exactly
    ``conjugate_momentum_grid(position_grid, hbar)``. The transform is exactly
    unitary on the grid (Σ|ψ|²Δx = Σ|φ|²Δp). It raises :class:`AliasingError` when
    an edge sample of φ exceeds ``ALIASING_TOL`` times max|φ|: relative, as φ
    scales as ħ^(−1/2).
    """
    pgrid, twist, lift = _bridge_phases(position_grid, hbar)
    if field.grid != pgrid:
        raise ValueError("the field's grid is not conjugate_momentum_grid(position_grid, hbar)")
    if boundary_amplitude(field) > ALIASING_TOL * np.max(np.abs(field.values)):
        raise AliasingError(f"momentum samples not contained on the grid at t={field.t:g}")
    psi = lift * np.fft.ifft(field.values * twist)
    return WaveField(grid=position_grid, t=field.t, values=psi)


def matched_packet(
    sigma: float, m: float, hbar: float, x0: float = 0.0, p0: float = 0.0
) -> PacketState:
    """Packet state equal to the transformed momentum-space Gaussian of width σ
    centered at (x0, p0): the invariant ratio F0 = −i·m/T, with T = 2mσ²/ħ the
    spreading time, and the initial phase e^{iα(0)} = (2πσ²)^{−1/4}."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    try:
        t_spread = 2.0 * m * sigma**2 / hbar
    except OverflowError:  # σ² beyond the float range
        t_spread = math.inf
    if not 0.0 < t_spread < math.inf:
        raise ValueError(f"spreading time 2m*sigma^2/hbar = {t_spread:g}, not finite and positive")
    if not math.isfinite(m / t_spread):
        raise ValueError(f"spreading time 2m*sigma^2/hbar = {t_spread:g}: F0 = -i*m/T overflows")
    f0 = -1j * m / t_spread
    spec = InvariantSpec(A0=1.0 + 0j, B0=f0, C0=0j)
    alpha0 = 0.25j * math.log(2.0 * math.pi * sigma**2)
    return PacketState(m=m, hbar=hbar, x0=x0, p0=p0, spec=spec, alpha0=alpha0)


def sample_gtwp(state: PacketState, profile: ForceProfile, grid: Grid1D, t: float) -> WaveField:
    """:func:`gtwp_psi` on a position grid: the packet, or at F0 = 0 the plane wave."""
    values = gtwp_psi(state, profile, grid.points, t)
    return WaveField(grid=grid, t=t, values=values)


def sample_gaussian_momentum(
    packet: PacketState, sigma: float, profile: ForceProfile, grid: Grid1D, t: float
) -> WaveField:
    """φ(p,t) of the Gaussian φ0 of width σ, centered at the packet's (x0, p0), on a
    momentum grid, by the general route :func:`momentum_solution`."""
    values = momentum_solution(
        lambda p: gaussian_phi0(sigma, packet.x0, packet.p0, packet.hbar, p),
        profile, packet.m, packet.hbar, grid.points, t,
    )
    return WaveField(grid=grid, t=t, values=values)
