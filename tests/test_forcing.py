import math
from fractions import Fraction

import numpy as np
import pytest

from lrwp.errors import OutOfDomainError
from lrwp.forcing import ConstantForce, PiecewiseLinearForce, SinusoidalForce
from simpson_reference import simpson_reference

# frozen from the adaptive-Simpson oracles (see test_closed_matches_numeric)
G_SIN_1 = 0.7080734182735712  # (1 - cos 2)/2
G1_SIN_1 = 0.2726756432935796  # (1 - sin(2)/2)/2

PROFILES = [
    ConstantForce(0.0),
    ConstantForce(1.0),
    ConstantForce(-2.5),
    SinusoidalForce(1.0, 2.0),
    SinusoidalForce(2.0, 3.0, 0.4),
    PiecewiseLinearForce(((0.0, 0.0), (1.0, 1.0), (2.5, -0.5), (6.0, 2.0), (12.0, 2.0))),
    PiecewiseLinearForce(((0.0, 0.3), (0.7, 0.3), (1.9, -1.1), (12.0, 0.0))),
]


def test_eval_force_trivia():
    assert ConstantForce(1.0).force(0.7) == 1.0
    assert ConstantForce(0.0).force(3.1) == 0.0
    assert SinusoidalForce(2.0, 3.0).force(math.pi / 6) == pytest.approx(2.0, abs=1e-14)


def test_quad_G_trivia():
    assert ConstantForce(1.0).g(2.0) == 2.0
    assert ConstantForce(0.0).g(5.0) == 0.0


def test_quad_G_sinusoidal_frozen():
    assert SinusoidalForce(1.0, 2.0).g(1.0) == pytest.approx(G_SIN_1, abs=1e-14)


def test_quad_G1_trivia():
    assert ConstantForce(1.0).g1(2.0) == pytest.approx(2.0, abs=1e-14)
    assert ConstantForce(0.0).g1(3.0) == 0.0


def test_quad_G1_sinusoidal_frozen():
    assert SinusoidalForce(1.0, 2.0).g1(1.0) == pytest.approx(G1_SIN_1, abs=1e-14)


@pytest.mark.parametrize("profile", PROFILES)
def test_zero_at_zero(profile):
    assert profile.g(0.0) == 0.0
    assert profile.g1(0.0) == 0.0
    assert profile.g2(0.0) == 0.0


@pytest.mark.parametrize("profile", PROFILES)
def test_derivative_consistency(profile):
    # d/dt G = F, d/dt G1 = G and d/dt G2 = G² by central differences, scaled by max|F|
    ts = np.linspace(0.05, 9.5, 23)
    h = 1e-5
    fmax = max(1.0, float(np.max(np.abs(profile.force(ts)))))
    for t in ts:
        dg = (profile.g(t + h) - profile.g(t - h)) / (2 * h)
        assert abs(dg - profile.force(t)) < 1e-8 * fmax
        dg1 = (profile.g1(t + h) - profile.g1(t - h)) / (2 * h)
        assert abs(dg1 - profile.g(t)) < 1e-8 * fmax
        dg2 = (profile.g2(t + h) - profile.g2(t - h)) / (2 * h)
        assert abs(dg2 - profile.g(t) ** 2) < 1e-8 * fmax * max(1.0, abs(profile.g(t)))


@pytest.mark.parametrize(
    "profile",
    [
        ConstantForce(1.7),
        SinusoidalForce(1.3, 2.0, 0.2),
        PiecewiseLinearForce(((0.0, 0.5), (1.5, -1.0), (4.0, 2.0), (10.0, 0.25))),
    ],
)
def test_closed_matches_numeric(profile):
    for t in np.linspace(0.25, 10.0, 12):
        for name, rel in (("g", 1e-10), ("g1", 1e-10), ("g2", 1e-12)):
            closed = getattr(profile, name)(t)
            assert abs(closed - simpson_reference(profile, name, t)) <= rel * max(1.0, abs(closed))


@pytest.mark.parametrize(
    "amplitude, omega, phase, t",
    [(3.0, -0.1, math.pi, 0.1), (1.0, 2.0, 0.4, 7.5e-5), (-2.0, 0.3, -1.2, 1e-3)],
)
def test_sinusoidal_small_omega_t_is_relatively_accurate(amplitude, omega, phase, t):
    # cos φ − cos(ωt+φ) and its integral cancel to ωt of their terms here, which
    # costs those forms up to 1e-9 relative; against exact rational Taylor sums of
    # 1 − cos x, sin x and x − sin x, G and G1 must keep full relative accuracy
    x = Fraction(omega) * Fraction(t)
    terms = [x ** (k + 2) * (-1) ** (k // 2) / math.factorial(k + 2) for k in range(20)]
    one_minus_cos, x_minus_sin = sum(terms[0::2]), sum(terms[1::2])
    c, s = Fraction(math.cos(phase)), Fraction(math.sin(phase))
    a, w = Fraction(amplitude), Fraction(omega)
    g = a / w * (c * one_minus_cos + s * (x - x_minus_sin))
    g1 = a / w**2 * (c * x_minus_sin + s * one_minus_cos)
    profile = SinusoidalForce(amplitude, omega, phase)
    assert abs(profile.g(t) / float(g) - 1.0) <= 1e-14
    assert abs(profile.g1(t) / float(g1) - 1.0) <= 1e-14


def test_negative_time_rejected():
    for profile in PROFILES:
        with pytest.raises(ValueError):
            profile.force(-0.1)
        with pytest.raises(ValueError):
            profile.g(-1.0)
        with pytest.raises(ValueError):
            profile.g1(np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            profile.g2(-2.0)


def test_tabulated_out_of_domain():
    prof = PiecewiseLinearForce(((0.0, 1.0), (2.0, 0.0)))
    with pytest.raises(OutOfDomainError):
        prof.force(2.5)
    with pytest.raises(OutOfDomainError):
        prof.g1(3.0)


def test_domain_end_tolerates_step_accumulation_fuzz():
    # t accumulated as k*dt can land a few ulp past the last knot
    prof = PiecewiseLinearForce(((0.0, 1.0), (2.0, 3.0)))
    t = float(np.nextafter(2.0, 3.0))
    assert t > 2.0
    assert prof.force(t) == pytest.approx(3.0, abs=1e-12)
    assert prof.g1(t) == pytest.approx(prof.g1(2.0), rel=1e-12)
    with pytest.raises(OutOfDomainError):
        prof.force(2.0 + 1e-6)


@pytest.mark.parametrize("last", [1e-6, 1.0, 1000.0])
def test_domain_end_tolerance_is_1e_9_of_the_last_knot_time_or_of_1(last):
    # the edge t_last + 1e-9·max(1, t_last) is inside the domain, the next float is not
    prof = PiecewiseLinearForce(((0.0, 1.0), (last, 3.0)))
    edge = last + 1e-9 * max(1.0, last)
    assert prof.force(edge) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(OutOfDomainError):
        prof.force(float(np.nextafter(edge, np.inf)))


@pytest.mark.parametrize("amplitude, omega", [(1e154, 1e102), (1.0, 2e-103), (1.0, 1e30)])
def test_sinusoidal_with_finite_prefactors_is_accepted(amplitude, omega):
    # a/ω, a/ω² and a²/ω³ are finite here, though a·ω² and 2a/ω³ would overflow;
    # at a large ωt the unused Taylor series of f3 and f5 must not overflow either
    prof = SinusoidalForce(amplitude, omega)
    assert prof.omega == omega
    assert all(math.isfinite(quadrature(0.1)) for quadrature in (prof.g, prof.g1, prof.g2))


def test_piecewise_interpolates_linearly():
    prof = PiecewiseLinearForce(((0.0, 0.0), (2.0, 4.0)))
    assert prof.force(0.5) == pytest.approx(1.0)
    assert prof.g(2.0) == pytest.approx(4.0)  # triangle area
    assert prof.g1(2.0) == pytest.approx(8.0 / 3.0)  # int of t^2 dt
    assert prof.g2(2.0) == pytest.approx(32.0 / 5.0)  # int of t^4 dt


def test_knot_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearForce(((0.0, 1.0),))
    with pytest.raises(ValueError):
        PiecewiseLinearForce(((0.5, 1.0), (1.0, 2.0)))  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseLinearForce(((0.0, 1.0), (1.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        SinusoidalForce(1.0, 0.0)


def test_vectorized_matches_scalar():
    ts = np.array([0.0, 0.3, 1.1, 2.4, 5.5])
    for profile in PROFILES:
        for g in (profile.g, profile.g1, profile.g2):
            np.testing.assert_allclose(g(ts), [g(float(t)) for t in ts], rtol=0, atol=0)
        np.testing.assert_allclose(
            profile.force(ts), [profile.force(float(t)) for t in ts], rtol=0, atol=0
        )
