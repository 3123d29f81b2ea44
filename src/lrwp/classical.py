"""Classical trajectory of the packet center and its kinetic action.

The center of the packet follows Newton's equations for the driving force:

    x_c(t) = x0 + (p0·t + G1(t)) / m
    p_c(t) = p0 + G(t)

and the accumulated kinetic phase uses S(t) = ∫₀ᵗ p_c(τ)²/(2m) dτ, which
expands into the exact quadratures G1 and G2 = ∫₀ᵗ G² dτ of the force.
"""

from dataclasses import dataclass

import numpy as np

from .forcing import ForceProfile

__all__ = ["ClassicalState", "x_c", "p_c", "kinetic_action"]


@dataclass(frozen=True)
class ClassicalState:
    m: float
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")


def x_c(state: ClassicalState, profile: ForceProfile, t):
    return state.x0 + (state.p0 * np.asarray(t, dtype=float) + profile.g1(t)) / state.m


def p_c(state: ClassicalState, profile: ForceProfile, t):
    return state.p0 + profile.g(t)


def kinetic_action(state: ClassicalState, profile: ForceProfile, t: float) -> float:
    """S(t) = ∫₀ᵗ p_c²/(2m) dτ = (p0²·t + 2·p0·G1(t) + G2(t)) / (2m)."""
    if t < 0:
        raise ValueError("negative time")
    p0 = state.p0
    return (p0 * p0 * t + 2.0 * p0 * profile.g1(t) + profile.g2(t)) / (2.0 * state.m)
