"""Property tests over randomly drawn force profiles."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lrwp.forcing import (  # noqa: E402
    ConstantForce,
    PiecewiseLinearForce,
    Quadratures,
    SinusoidalForce,
    ZeroForce,
)

amplitudes = st.floats(-3.0, 3.0)


@st.composite
def sinusoidal(draw):
    omega = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return SinusoidalForce(draw(amplitudes), omega, draw(st.floats(-math.pi, math.pi)))


@st.composite
def piecewise(draw):
    count = draw(st.integers(2, 6))
    steps = draw(st.lists(st.floats(0.1, 3.0), min_size=count - 1, max_size=count - 1))
    times = [0.0]
    for step in steps:
        times.append(times[-1] + step)
    forces = draw(st.lists(amplitudes, min_size=count, max_size=count))
    return PiecewiseLinearForce(tuple(zip(times, forces)))


profiles = st.one_of(
    st.just(ZeroForce()),
    amplitudes.map(ConstantForce),
    sinusoidal(),
    piecewise(),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(profile=profiles, fraction=st.floats(0.0, 1.0))
# ω = 0.1, φ = π, t = 3: expanding (cos φ − cos(ωt+φ))² term by term loses 2.7e-12 here
@example(profile=SinusoidalForce(3.0, 0.1, math.pi), fraction=0.3)
def test_g2_closed_form_matches_simpson(profile, fraction):
    # piecewise profiles end at their last knot; the others run to t = 10
    end = profile.knots[-1][0] if isinstance(profile, PiecewiseLinearForce) else 10.0
    t = fraction * end
    closed = Quadratures.closed_form(profile).G2(t)
    numeric = Quadratures.numeric(profile).G2(t)
    assert abs(closed - numeric) <= 1e-12 * max(1.0, abs(closed))
