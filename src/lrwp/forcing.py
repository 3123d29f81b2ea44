"""Driving forces F(t) and their first three time antiderivatives.

Every closed-form result downstream is built from the three quadratures

    G(t)  = ∫₀ᵗ F(τ) dτ          (momentum delivered by the force)
    G1(t) = ∫₀ᵗ G(τ) dτ          (enters the drift of the packet center)
    G2(t) = ∫₀ᵗ G(τ)² dτ         (enters every phase: packet action and
                                  momentum route)

so each profile kind carries exact antiderivatives. Piecewise-linear profiles
(the config kind ``tabulated`` builds one too) integrate segment-by-segment to
piecewise-quadratic G, piecewise-cubic G1 and piecewise-quintic G2; nothing
needs nested numeric quadrature. The tests cross-check all three against
adaptive Simpson.

All evaluations accept a scalar or an ndarray of times. Negative times are
rejected here, and only here: every closed form downstream evaluates its
profile at its own t. The lower integration limit is always 0. F ≡ 0 is
``ConstantForce(0.0)``, which the config kind ``zero`` builds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError

__all__ = [
    "ForceProfile",
    "ConstantForce",
    "SinusoidalForce",
    "PiecewiseLinearForce",
]


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("negative time: force quadratures start at t = 0")
    return t if t.ndim else float(t)


class ForceProfile:
    """Base class; subclasses provide force(t), g(t) = ∫F, g1(t) = ∫G and
    g2(t) = ∫G²."""


@dataclass(frozen=True)
class ConstantForce(ForceProfile):
    amplitude: float

    def force(self, t):
        return _check_time(t) * 0.0 + self.amplitude

    def g(self, t):
        return self.amplitude * _check_time(t)

    def g1(self, t):
        t = _check_time(t)
        return 0.5 * self.amplitude * t * t

    def g2(self, t):
        t = _check_time(t)
        return self.amplitude * self.amplitude * t**3 / 3.0


@dataclass(frozen=True)
class SinusoidalForce(ForceProfile):
    """F(t) = amplitude · sin(omega·t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        a, w = self.amplitude, self.omega
        try:  # the prefactors of G, G1 and G2, as they compute them; ω = 0 is ConstantForce
            scales = (a / w, a / w**2, a**2 / w**3)
        except (OverflowError, ZeroDivisionError):
            scales = (math.inf,)
        if not all(math.isfinite(k) for k in scales):
            raise ValueError(
                f"amplitude = {a:g}, omega = {w:g}: "
                "a/omega, a/omega^2 and a^2/omega^3 must be finite"
            )

    def force(self, t):
        return self.amplitude * np.sin(self.omega * _check_time(t) + self.phase)

    # At x = ωt, with c, s = cos φ, sin φ, G = (a/ω)·[c·(1 − cos x) + s·sin x].
    # Written as cos φ − cos(x + φ), its terms cancel when x is small, so each
    # antiderivative is built from 1 − cos x = 2·sin²(x/2) and the moments below.

    def g(self, t):
        x = self.omega * _check_time(t)
        c, s = np.cos(self.phase), np.sin(self.phase)
        return (self.amplitude / self.omega) * (2.0 * c * np.sin(0.5 * x) ** 2 + s * np.sin(x))

    def g1(self, t):
        # G1 = (a/ω²)·[c·(x − sin x) + s·(1 − cos x)], where x − sin x = 4·f3(x/2)
        t = _check_time(t)
        x = self.omega * t
        c, s = np.cos(self.phase), np.sin(self.phase)
        f3, _ = _sin_moments(0.5 * x)
        out = (self.amplitude / self.omega**2) * (4.0 * c * f3 + 2.0 * s * np.sin(0.5 * x) ** 2)
        return out if np.ndim(t) else float(out)

    def g2(self, t):
        # G² integrates to (a²/ω³)·[c²·f5 + c·s·(1 − cos x)² + s²·f3],
        # where (1 − cos x)² = 4·sin⁴(x/2)
        t = _check_time(t)
        x = self.omega * t
        c, s = np.cos(self.phase), np.sin(self.phase)
        f3, f5 = _sin_moments(x)
        out = (self.amplitude**2 / self.omega**3) * (
            c * c * f5 + 4.0 * c * s * np.sin(0.5 * x) ** 4 + s * s * f3
        )
        return out if np.ndim(t) else float(out)


# Taylor coefficients of f3/x³ and f5/x³ in powers of x², one column each: with
# h(y) = y − sin y = Σₖ (−1)^(k+1)·y^(2k+1)/(2k+1)!, f3 = h(2x)/4, f5 = 2h(x) − h(2x)/4
_MOMENT_SERIES = np.array([[2.0 ** (2 * k - 1), 2.0 - 2.0 ** (2 * k - 1)] for k in range(1, 14)])
_MOMENT_SERIES *= [[(-1) ** (k + 1) / math.factorial(2 * k + 1)] for k in range(1, 14)]


def _sin_moments(x):
    """f3 = ∫₀ˣ sin²δ dδ and f5 = ∫₀ˣ (1 − cos δ)² dδ.

    Below |x| = 1 the closed forms (2x − sin 2x)/4 and 3x/2 − 2 sin x + sin(2x)/4
    cancel down to x³/3 and x⁵/20, so there the Taylor series is summed instead.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1.0
    xs = np.where(small, x, 0.0)  # the series only where it is used: large x overflows it
    series = xs**3 * np.polynomial.polynomial.polyval(xs * xs, _MOMENT_SERIES)
    f3 = np.where(small, series[0], (2.0 * x - np.sin(2.0 * x)) / 4.0)
    f5 = np.where(small, series[1], 1.5 * x - 2.0 * np.sin(x) + np.sin(2.0 * x) / 4.0)
    return f3, f5


@dataclass(frozen=True)
class PiecewiseLinearForce(ForceProfile):
    """Linear interpolation between (t, F) knots; exact segment integrals.

    The first knot must sit at t = 0 and knot times must increase strictly.
    Evaluation outside [0, last knot] raises OutOfDomainError.
    """

    knots: tuple[tuple[float, float], ...]
    _ts: np.ndarray = field(init=False, repr=False, compare=False)
    _fs: np.ndarray = field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)
    _g_knots: np.ndarray = field(init=False, repr=False, compare=False)
    _g1_knots: np.ndarray = field(init=False, repr=False, compare=False)
    _g2_knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = tuple((float(t), float(f)) for t, f in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        ts = np.array([t for t, _ in knots])
        fs = np.array([f for _, f in knots])
        if ts[0] != 0.0:
            raise ValueError("first knot must be at t = 0")
        dts = np.diff(ts)
        if np.any(dts <= 0):
            raise ValueError("knot times must be strictly increasing")
        slopes = np.diff(fs) / dts
        # cumulative exact integrals at the knots; one that overflows stays inf
        # or nan, and the runners refuse the non-finite samples it leads to
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.concatenate(([0.0], np.cumsum(0.5 * (fs[:-1] + fs[1:]) * dts)))
            seg_g1 = g[:-1] * dts + 0.5 * fs[:-1] * dts**2 + slopes * dts**3 / 6.0
            g1 = np.concatenate(([0.0], np.cumsum(seg_g1)))
            g2 = np.concatenate(([0.0], np.cumsum(_g2_segment(g[:-1], fs[:-1], slopes, dts))))
        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_fs", fs)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_g_knots", g)
        object.__setattr__(self, "_g1_knots", g1)
        object.__setattr__(self, "_g2_knots", g2)

    def _segment(self, t):
        t = _check_time(t)
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        limit = self._ts[-1]
        # tolerate accumulated float fuzz from stepping t = k*dt up to t_max
        tol = 1e-9 * max(1.0, limit)
        if np.any(arr > limit + tol):
            raise OutOfDomainError(f"t beyond the last knot at {limit:g}")
        arr = np.minimum(arr, limit)
        idx = np.clip(np.searchsorted(self._ts, arr, side="right") - 1, 0, len(self._ts) - 2)
        return t, arr, idx

    def force(self, t):
        t, arr, i = self._segment(t)
        out = self._fs[i] + self._slopes[i] * (arr - self._ts[i])
        return out if np.ndim(t) else float(out[0])

    def g(self, t):
        t, arr, i = self._segment(t)
        tau = arr - self._ts[i]
        out = self._g_knots[i] + self._fs[i] * tau + 0.5 * self._slopes[i] * tau**2
        return out if np.ndim(t) else float(out[0])

    def g1(self, t):
        t, arr, i = self._segment(t)
        tau = arr - self._ts[i]
        out = (
            self._g1_knots[i]
            + self._g_knots[i] * tau
            + 0.5 * self._fs[i] * tau**2
            + self._slopes[i] * tau**3 / 6.0
        )
        return out if np.ndim(t) else float(out[0])

    def g2(self, t):
        t, arr, i = self._segment(t)
        out = self._g2_knots[i] + _g2_segment(
            self._g_knots[i], self._fs[i], self._slopes[i], arr - self._ts[i]
        )
        return out if np.ndim(t) else float(out[0])


def _g2_segment(g, f, k, s):
    """∫₀ˢ G² on a segment where G = g + f·s + k·s²/2."""
    return (
        g * g * s
        + g * f * s**2
        + (f * f + g * k) * s**3 / 3.0
        + f * k * s**4 / 4.0
        + k * k * s**5 / 20.0
    )

