import math

import numpy as np
import pytest

from lrwp.errors import OutOfDomainError
from lrwp.forcing import (
    ConstantForce,
    PiecewiseLinearForce,
    Quadratures,
    SinusoidalForce,
    ZeroForce,
)

# frozen from the adaptive-Simpson oracles (see test_closed_matches_numeric)
G_SIN_1 = 0.7080734182735712  # (1 - cos 2)/2
G1_SIN_1 = 0.2726756432935796  # (1 - sin(2)/2)/2

PROFILES = [
    ZeroForce(),
    ConstantForce(1.0),
    ConstantForce(-2.5),
    SinusoidalForce(1.0, 2.0),
    SinusoidalForce(2.0, 3.0, 0.4),
    PiecewiseLinearForce(((0.0, 0.0), (1.0, 1.0), (2.5, -0.5), (6.0, 2.0), (12.0, 2.0))),
    PiecewiseLinearForce(((0.0, 0.3), (0.7, 0.3), (1.9, -1.1), (12.0, 0.0))),
]


def test_eval_force_trivia():
    assert ConstantForce(1.0).force(0.7) == 1.0
    assert ZeroForce().force(3.1) == 0.0
    assert SinusoidalForce(2.0, 3.0).force(math.pi / 6) == pytest.approx(2.0, abs=1e-14)


def test_quad_G_trivia():
    q = Quadratures.closed_form(ConstantForce(1.0))
    assert q.G(2.0) == 2.0
    assert Quadratures.closed_form(ZeroForce()).G(5.0) == 0.0


def test_quad_G_sinusoidal_frozen():
    q = Quadratures.closed_form(SinusoidalForce(1.0, 2.0))
    assert q.G(1.0) == pytest.approx(G_SIN_1, abs=1e-14)


def test_quad_G1_trivia():
    q = Quadratures.closed_form(ConstantForce(1.0))
    assert q.G1(2.0) == pytest.approx(2.0, abs=1e-14)
    assert Quadratures.closed_form(ZeroForce()).G1(3.0) == 0.0


def test_quad_G1_sinusoidal_frozen():
    q = Quadratures.closed_form(SinusoidalForce(1.0, 2.0))
    assert q.G1(1.0) == pytest.approx(G1_SIN_1, abs=1e-14)


@pytest.mark.parametrize("profile", PROFILES)
def test_zero_at_zero(profile):
    q = Quadratures.closed_form(profile)
    assert q.G(0.0) == 0.0
    assert q.G1(0.0) == 0.0
    assert q.G2(0.0) == 0.0


@pytest.mark.parametrize("profile", PROFILES)
def test_derivative_consistency(profile):
    # d/dt G = F, d/dt G1 = G and d/dt G2 = G² by central differences, scaled by max|F|
    q = Quadratures.closed_form(profile)
    ts = np.linspace(0.05, 9.5, 23)
    h = 1e-5
    fmax = max(1.0, float(np.max(np.abs(profile.force(ts)))))
    for t in ts:
        dg = (q.G(t + h) - q.G(t - h)) / (2 * h)
        assert abs(dg - profile.force(t)) < 1e-8 * fmax
        dg1 = (q.G1(t + h) - q.G1(t - h)) / (2 * h)
        assert abs(dg1 - q.G(t)) < 1e-8 * fmax
        dg2 = (q.G2(t + h) - q.G2(t - h)) / (2 * h)
        assert abs(dg2 - q.G(t) ** 2) < 1e-8 * fmax * max(1.0, abs(q.G(t)))


@pytest.mark.parametrize(
    "profile",
    [
        ConstantForce(1.7),
        SinusoidalForce(1.3, 2.0, 0.2),
        PiecewiseLinearForce(((0.0, 0.5), (1.5, -1.0), (4.0, 2.0), (10.0, 0.25))),
    ],
)
def test_closed_matches_numeric(profile):
    closed = Quadratures.closed_form(profile)
    numeric = Quadratures.numeric(profile)
    for t in np.linspace(0.25, 10.0, 12):
        g_c, g_n = closed.G(t), numeric.G(t)
        assert abs(g_c - g_n) <= 1e-10 * max(1.0, abs(g_c))
        g1_c, g1_n = closed.G1(t), numeric.G1(t)
        assert abs(g1_c - g1_n) <= 1e-10 * max(1.0, abs(g1_c))
        g2_c, g2_n = closed.G2(t), numeric.G2(t)
        assert abs(g2_c - g2_n) <= 1e-12 * max(1.0, abs(g2_c))


def test_negative_time_rejected():
    for profile in PROFILES:
        with pytest.raises(ValueError):
            profile.force(-0.1)
        q = Quadratures.closed_form(profile)
        with pytest.raises(ValueError):
            q.G(-1.0)
        with pytest.raises(ValueError):
            q.G1(np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            q.G2(-2.0)


def test_tabulated_out_of_domain():
    prof = PiecewiseLinearForce(((0.0, 1.0), (2.0, 0.0)))
    with pytest.raises(OutOfDomainError):
        prof.force(2.5)
    with pytest.raises(OutOfDomainError):
        Quadratures.closed_form(prof).G1(3.0)


def test_domain_end_tolerates_step_accumulation_fuzz():
    # t accumulated as k*dt can land a few ulp past the last knot
    prof = PiecewiseLinearForce(((0.0, 1.0), (2.0, 3.0)))
    t = float(np.nextafter(2.0, 3.0))
    assert t > 2.0
    assert prof.force(t) == pytest.approx(3.0, abs=1e-12)
    assert Quadratures.closed_form(prof).G1(t) == pytest.approx(prof.g1(2.0), rel=1e-12)
    with pytest.raises(OutOfDomainError):
        prof.force(2.0 + 1e-6)


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
        q = Quadratures.closed_form(profile)
        np.testing.assert_allclose(q.G(ts), [q.G(float(t)) for t in ts], rtol=0, atol=0)
        np.testing.assert_allclose(q.G1(ts), [q.G1(float(t)) for t in ts], rtol=0, atol=0)
        np.testing.assert_allclose(q.G2(ts), [q.G2(float(t)) for t in ts], rtol=0, atol=0)
        np.testing.assert_allclose(
            profile.force(ts), [profile.force(float(t)) for t in ts], rtol=0, atol=0
        )
