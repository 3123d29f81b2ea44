"""Closed forms that only cross-check the package: the tests compare against them.

* ``gaussian_phi_pt``: the momentum-space Gaussian in its own three-factor
  form, against ``lrwp.wavepacket.momentum_solution`` with a Gaussian φ0.
* ``density_closed_form``: |ψ|² written directly, against ``|gtwp_psi|²``.
* ``plane_wave_superposition``: driven plane waves summed over launch momenta,
  against the packet they rebuild.
* ``phase_alpha``: the Lewis–Riesenfeld phase α(t) in closed form, against its
  adaptive integral and, times the invariant's eigenfunction, against the packet.
* ``eigen_residual``: how far a sampled field is from an eigenfunction of the
  invariant.
* ``ehrenfest_check``: Ehrenfest's theorem on a run's observable records.
"""

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from lrwp.classical import kinetic_action, p_c, x_c
from lrwp.errors import ModeMismatchError
from lrwp.fields import WaveField, spectral_derivative
from lrwp.forcing import ForceProfile
from lrwp.invariant import InvariantSpec, PacketState, apply_invariant
from lrwp.oracle import ObservableRecord
from lrwp.wavepacket import gtwp_psi


def gaussian_phi_pt(packet: PacketState, sigma: float, profile: ForceProfile, p, t: float):
    """Momentum-space Gaussian of width σ, centered at the packet's (x0, p0), at
    time t (closed three-factor form)."""
    if t < 0:
        raise ValueError("negative time")
    m, hbar = packet.m, packet.hbar
    action = kinetic_action(m, packet.p0, profile, t)
    bigT = 2.0 * m * sigma**2 / hbar  # the spreading time
    pc = p_c(packet, profile, t)
    xc = x_c(packet, profile, t)
    s = sigma
    p = np.asarray(p, dtype=float)
    out = (
        (2.0 * s * s / (math.pi * hbar * hbar)) ** 0.25
        * cmath.exp(-1j * action / hbar)
        * np.exp(-(s * s) * (1.0 + 1j * t / bigT) * (p - pc) ** 2 / hbar**2)
        * np.exp(-1j * (p - pc) * xc / hbar)
    )
    return out if out.ndim else complex(out)


def density_closed_form(state: PacketState, profile: ForceProfile, x, t: float):
    """Modulus-squared of the packet written directly:

    |ψ|² = e^{−2 Im α(0)} · exp[Im(F0)·(x−x_c)²/(ħ·|A/A0|²)] / |A/A0|.
    """
    if not state.spec.is_packet:
        raise ModeMismatchError("plane-wave packet (F0 = 0): its density is flat")
    xc = x_c(state, profile, t)
    r = abs(1.0 - state.spec.F0 * t / state.m)
    x = np.asarray(x, dtype=float)
    out = (
        math.exp(-2.0 * state.alpha0.imag)
        * np.exp(state.spec.F0.imag * (x - xc) ** 2 / (state.hbar * r * r))
        / r
    )
    return out if out.ndim else float(out)


def plane_wave_superposition(
    m: float,
    hbar: float,
    profile: ForceProfile,
    phi0: Callable,
    p0_values: np.ndarray,
    x,
    t: float,
):
    """Finite weighted sum of plane-wave solutions over launch momenta.

    Discretizes ψ = (2πħ)^{−1/2} ∫ φ0(p0)·ψ_{p0}(x,t) dp0 on a uniform p0
    grid; with a Gaussian weight this rebuilds the packet solution.
    """
    p0_values = np.asarray(p0_values, dtype=float)
    dp = np.diff(p0_values)
    if len(dp) < 1 or not np.allclose(dp, dp[0], rtol=1e-12, atol=0.0):
        raise ValueError("p0_values must be a uniform grid")
    plane = PacketState(m=m, hbar=hbar, x0=0.0, p0=0.0, spec=InvariantSpec(1.0, 0j), alpha0=0j)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape if x.ndim else (), dtype=complex)
    for p0 in p0_values:
        state = replace(plane, p0=float(p0))
        out = out + complex(phi0(p0)) * gtwp_psi(state, profile, x, t)
    out = out * dp[0] / np.sqrt(2.0 * np.pi * hbar)
    return out if np.ndim(out) else complex(out)


def phase_alpha(
    spec: InvariantSpec,
    m: float,
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
    iB0/(2mA); the first integrates to ``kinetic_action`` at p = u over ħ:

    α(t) = α(0) − (u²t + 2u·G1 + G2)/(2mħ) − F0·(u·t + G1)²/(2m²ħ·a)
           + (i/2)·ln a.

    Im F0 ≤ 0 keeps a in the closed upper half plane, where the principal
    logarithm is the continuous branch from ln 1 = 0; and a ≠ 0 because a
    real F0 ≠ 0 is rejected. At F0 = 0 the last two terms vanish. In
    general α(t) is complex.
    """
    u = (lam - spec.C0) / spec.A0
    a = 1.0 - spec.F0 * t / m
    return (
        alpha0
        - kinetic_action(m, u, profile, t) / hbar
        - spec.F0 * (u * t + profile.g1(t)) ** 2 / (2.0 * m * m * hbar * a)
        + 0.5j * cmath.log(a)
    )


def eigen_residual(
    coeffs: tuple[complex, complex, complex], field: WaveField, lam: complex, hbar: float
) -> float:
    """Relative eigen-equation residual ‖Iψ − λψ‖ / scale.

    The scale is max(‖λψ‖, ‖A·p̂ψ‖ + ‖B·x̂ψ‖ + |C|·‖ψ‖) so the measure stays
    meaningful when λ = 0 (which happens for packets launched from the
    phase-space origin with C0 = 0).
    """
    a, b, c = coeffs
    dx = field.grid.spacing
    x = field.grid.points
    dpsi = spectral_derivative(field.values, field.grid)

    def l2(v):
        return float(np.sqrt(np.sum(np.abs(v) ** 2) * dx))

    norm_psi = l2(field.values)
    term_p = abs(a) * hbar * l2(dpsi)
    term_x = abs(b) * l2(x * field.values)
    scale = max(abs(lam) * norm_psi, term_p + term_x + abs(c) * norm_psi)
    iv = apply_invariant(coeffs, field, hbar)
    return l2(iv.values - lam * field.values) / scale


@dataclass(frozen=True)
class EhrenfestReport:
    max_dev_x: float  # max |d⟨x⟩/dt − ⟨p⟩/m|
    max_dev_p: float  # max |d⟨p⟩/dt − F(t)|


def ehrenfest_check(
    records: list[ObservableRecord], profile: ForceProfile, m: float
) -> EhrenfestReport:
    """Central-difference check of d⟨x⟩/dt = ⟨p⟩/m and d⟨p⟩/dt = F(t)."""
    if len(records) < 3:
        raise ValueError("need at least three records")
    t = np.array([r.t for r in records])
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("records must be uniformly spaced in time")
    xm = np.array([r.x_mean for r in records])
    pm = np.array([r.p_mean for r in records])
    h = dts[0]
    dxdt = (xm[2:] - xm[:-2]) / (2.0 * h)
    dpdt = (pm[2:] - pm[:-2]) / (2.0 * h)
    f_mid = np.asarray(profile.force(t[1:-1]), dtype=float)
    return EhrenfestReport(
        max_dev_x=float(np.max(np.abs(dxdt - pm[1:-1] / m))),
        max_dev_p=float(np.max(np.abs(dpdt - f_mid))),
    )
