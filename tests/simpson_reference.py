"""Adaptive-Simpson reference values of the antiderivatives G, G1 and G2.

The closed forms in ``lrwp.forcing`` are checked against these; the package
itself never integrates a force numerically.
"""

import numpy as np

from lrwp.quadrature import adaptive_simpson


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
    # Simpson's error estimate trusts the first five samples of a panel. Those
    # can all sit on zeros of the integrand: across a knot, or once per period
    # of a fast drive. So the integral starts from 32 panels, split at knots.
    knots = [k for k, _ in getattr(profile, "knots", ()) if 0.0 < k < t]
    edges = sorted({*np.linspace(0.0, t, 33).tolist(), *knots})
    tol = 1e-12 / max(1, len(edges) - 1)
    return sum(adaptive_simpson(integrand, lo, hi, tol) for lo, hi in zip(edges, edges[1:]))
