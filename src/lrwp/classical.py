"""Classical trajectory of the packet center and its kinetic action.

The center of the packet follows Newton's equations for the driving force:

    x_c(t) = x0 + (p0·t + G1(t)) / m
    p_c(t) = p0 + G(t)

with the launch point (x0, p0) and mass m read from the packet state, and
the accumulated kinetic phase uses S(t) = ∫₀ᵗ p_c(τ)²/(2m) dτ, which
expands into the exact quadratures G1 and G2 = ∫₀ᵗ G² dτ of the force.
:func:`kinetic_action` is that expansion's one source, for any momentum p:
the packet (and with it the plane wave) and the momentum route both call it.
The force profile, which every function here calls, rejects negative times.
"""

import numpy as np

from .forcing import ForceProfile
from .invariant import PacketState

__all__ = ["x_c", "p_c", "kinetic_action"]


def x_c(state: PacketState, profile: ForceProfile, t):
    return state.x0 + (state.p0 * np.asarray(t, dtype=float) + profile.g1(t)) / state.m


def p_c(state: PacketState, profile: ForceProfile, t):
    return state.p0 + profile.g(t)


def kinetic_action(m: float, p, profile: ForceProfile, t: float):
    """∫₀ᵗ (p + G(τ))²/(2m) dτ = (p²·t + 2·p·G1(t) + G2(t)) / (2m), for a scalar
    or an array of momenta p (real or complex)."""
    return (p * p * t + 2.0 * p * profile.g1(t) + profile.g2(t)) / (2.0 * m)
