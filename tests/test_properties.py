"""Property tests over randomly drawn force profiles and packets."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lrwp.forcing import (  # noqa: E402
    ConstantForce,
    PiecewiseLinearForce,
    SinusoidalForce,
    ZeroForce,
)
from lrwp.invariant import InvariantSpec  # noqa: E402
from lrwp.wavepacket import (  # noqa: E402
    PacketState,
    min_uncertainty_time,
    uncertainty_product,
)
from simpson_reference import simpson_reference  # noqa: E402

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


def _time(profile, fraction):
    # piecewise profiles end at their last knot; the others run to t = 10
    end = profile.knots[-1][0] if isinstance(profile, PiecewiseLinearForce) else 10.0
    return fraction * end


@settings(max_examples=100, deadline=None, derandomize=True)
@given(profile=profiles, fraction=st.floats(0.0, 1.0))
# ω = 0.1, φ = π, t = 3: expanding (cos φ − cos(ωt+φ))² term by term loses 2.7e-12 here
@example(profile=SinusoidalForce(3.0, 0.1, math.pi), fraction=0.3)
def test_g2_closed_form_matches_simpson(profile, fraction):
    t = _time(profile, fraction)
    closed = profile.g2(t)
    numeric = simpson_reference(profile, "g2", t)
    assert abs(closed - numeric) <= 1e-12 * max(1.0, abs(closed))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(profile=profiles, fraction=st.floats(0.0, 1.0))
# ω = −0.1, φ = π, t = 0.1: cos φ − cos(ωt+φ) and its integral cancel to 1e-4 of a term
@example(profile=SinusoidalForce(3.0, -0.1, math.pi), fraction=0.01)
def test_g_and_g1_closed_forms_match_simpson(profile, fraction):
    t = _time(profile, fraction)
    for name in ("g", "g1"):
        closed = getattr(profile, name)(t)
        assert abs(closed - simpson_reference(profile, name, t)) <= 1e-12 * max(1.0, abs(closed))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    m=st.floats(0.1, 10.0),
    hbar=st.floats(0.1, 10.0),
    f0_re=st.floats(-3.0, 3.0),
    f0_im=st.floats(0.01, 10.0),
    x0=st.floats(-5.0, 5.0),
    p0=st.floats(-5.0, 5.0),
)
def test_uncertainty_product_is_minimal_at_re_m_over_f0(m, hbar, f0_re, f0_im, x0, p0):
    # Δx·Δp ≥ ħ/2 for all t ≥ 0, with equality at Re(m/F0) when that is not negative
    f0 = complex(f0_re, -f0_im)
    packet = PacketState(m, hbar, x0, p0, InvariantSpec(A0=1.0, B0=f0))
    t_star = max(0.0, (m / f0).real)
    t_hi = 2.0 * t_star + 1.0
    for t in np.linspace(0.0, t_hi, 41):
        # at equality (Re F0 = 0, t = 0) four roundings can land an ulp below ħ/2
        assert uncertainty_product(packet, float(t)) >= 0.5 * hbar * (1.0 - 1e-15)
    assert abs(min_uncertainty_time(packet, t_hi) - t_star) <= 1e-9 * t_hi
    if (m / f0).real >= 0.0:
        assert abs(uncertainty_product(packet, t_star) / (0.5 * hbar) - 1.0) <= 1e-12
