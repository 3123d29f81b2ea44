"""Adaptive-Simpson reference values of G, G1, G2 and the phase α(t).

The closed forms in ``lrwp.forcing`` and ``cross_checks.phase_alpha`` are
checked against these; the package itself never integrates numerically.
"""

import numpy as np

from lrwp.invariant import coeffs_at


class QuadratureError(Exception):
    """Adaptive quadrature could not reach the requested tolerance.

    ``residual`` holds the error estimate that was actually achieved.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=48):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Uses recursive panel bisection with the standard 1/15 Richardson error
    estimate, and returns the extrapolated value. Complex integrands are
    handled natively: the real and imaginary parts share one subdivision
    tree, with the panel error measured as the modulus of the complex
    Richardson estimate. ``b < a`` flips the sign.

    Raises:
        QuadratureError: If panels at ``max_depth`` still exceed their error
            budget; the achieved residual is attached to the exception.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    unresolved = 0.0

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        nonlocal unresolved
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        err = (left + right - whole) / 15.0
        if abs(err) <= eps or depth >= max_depth:
            if abs(err) > eps:
                unresolved += abs(err)
            return left + right + err
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * eps, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(fa, fm, fb, b - a)
    value = recurse(a, b, fa, fm, fb, whole, tol, 0)
    if unresolved > tol:
        raise QuadratureError(
            f"adaptive Simpson stalled at depth {max_depth}: "
            f"residual {unresolved:.3e} > tol {tol:.3e}",
            residual=unresolved,
        )
    return value


def _paneled_simpson(integrand, profile, t):
    # Simpson's error estimate trusts the first five samples of a panel. Those
    # can all sit on zeros of the integrand: across a knot, or once per period
    # of a fast drive. So the integral starts from 32 panels, split at knots.
    knots = [k for k, _ in getattr(profile, "knots", ()) if 0.0 < k < t]
    edges = sorted({*np.linspace(0.0, t, 33).tolist(), *knots})
    tol = 1e-12 / max(1, len(edges) - 1)
    return sum(adaptive_simpson(integrand, lo, hi, tol) for lo, hi in zip(edges, edges[1:]))


def simpson_reference(profile, name, t):
    """``profile.<name>(t)`` for name "g", "g1" or "g2", by adaptive Simpson
    to an absolute tolerance of 1e-12.

    Integration by parts collapses G1's double integral to one pass,
    G1(t) = ∫₀ᵗ (t − τ)·F(τ) dτ. G2 squares the closed-form G, which the
    "g" reference checks on its own: Simpson over a Simpson-computed G
    would nest two adaptive quadratures.
    """
    integrand = {
        "g": profile.force,
        "g1": lambda tau: (t - tau) * profile.force(tau),
        "g2": lambda tau: profile.g(tau) ** 2,
    }[name]
    return _paneled_simpson(integrand, profile, t)


def phase_reference(spec, state, profile, lam, hbar, t, alpha0=0j):
    """α(t) = α(0) − ∫₀ᵗ [(λ − C(τ))² + iħ·B0·A(τ)] / (2mħ·A(τ)²) dτ by
    adaptive Simpson to an absolute tolerance of 1e-12, with A(τ) and C(τ)
    from ``coeffs_at``. Same arguments as ``cross_checks.phase_alpha``.
    """
    m = state.m

    def integrand(tau):
        c = coeffs_at(spec, m, profile, tau)
        return ((lam - c.C) ** 2 + 1j * hbar * spec.B0 * c.A) / (2.0 * m * hbar * c.A**2)

    return alpha0 - _paneled_simpson(integrand, profile, t)
