"""Closed forms that only cross-check the package: the tests compare against them.

* ``gaussian_phi_pt``: the momentum-space Gaussian in its own three-factor
  form, against ``lrwp.wavepacket.momentum_solution`` with a Gaussian φ0.
* ``density_closed_form``: |ψ|² written directly, against ``|gtwp_psi|²``.
* ``plane_wave_superposition``: driven plane waves summed over launch momenta,
  against the packet they rebuild.
* ``eigen_residual``: how far a sampled field is from an eigenfunction of the
  invariant.
* ``ehrenfest_check``: Ehrenfest's theorem on a run's observable records.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lrwp.classical import ClassicalState, kinetic_action, p_c, x_c
from lrwp.errors import ModeMismatchError
from lrwp.fields import WaveField, spectral_derivative
from lrwp.forcing import ForceProfile
from lrwp.invariant import InvariantCoefficients, InvariantSpec, PacketMode, apply_invariant
from lrwp.oracle import ObservableRecord
from lrwp.wavepacket import (
    GaussianMomentumParams,
    PacketState,
    plane_wave_psi,
    spreading_time,
)


def gaussian_phi_pt(
    params: GaussianMomentumParams,
    m: float,
    hbar: float,
    profile: ForceProfile,
    p,
    t: float,
):
    """Momentum-space Gaussian at time t (closed three-factor form)."""
    if t < 0:
        raise ValueError("negative time")
    cl = ClassicalState(m=m, x0=params.x0, p0=params.p0)
    action = kinetic_action(m, params.p0, profile, t)
    bigT = spreading_time(params, m, hbar)
    pc = p_c(cl, profile, t)
    xc = x_c(cl, profile, t)
    s = params.sigma
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
    if state.mode is not PacketMode.GTWP:
        raise ModeMismatchError("plane-wave-mode packet: use plane_wave_psi")
    xc = x_c(state.classical, profile, t)
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
    spec = InvariantSpec(A0=1.0 + 0j, B0=0j, C0=0j)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape if x.ndim else (), dtype=complex)
    for p0 in p0_values:
        state = PacketState(m=m, hbar=hbar, x0=0.0, p0=float(p0), spec=spec, alpha0=0j)
        out = out + complex(phi0(p0)) * plane_wave_psi(state, profile, complex(p0), x, t)
    out = out * dp[0] / np.sqrt(2.0 * np.pi * hbar)
    return out if np.ndim(out) else complex(out)


def eigen_residual(
    coeffs: InvariantCoefficients, field: WaveField, lam: complex, hbar: float
) -> float:
    """Relative eigen-equation residual ‖Iψ − λψ‖ / scale.

    The scale is max(‖λψ‖, ‖A·p̂ψ‖ + ‖B·x̂ψ‖ + |C|·‖ψ‖) so the measure stays
    meaningful when λ = 0 (which happens for packets launched from the
    phase-space origin with C0 = 0).
    """
    dx = field.grid.spacing
    x = field.grid.points
    dpsi = spectral_derivative(field.values, field.grid)

    def l2(v):
        return float(np.sqrt(np.sum(np.abs(v) ** 2) * dx))

    norm_psi = l2(field.values)
    term_p = abs(coeffs.A) * hbar * l2(dpsi)
    term_x = abs(coeffs.B) * l2(x * field.values)
    scale = max(abs(lam) * norm_psi, term_p + term_x + abs(coeffs.C) * norm_psi)
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
