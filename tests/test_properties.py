"""Property tests over randomly drawn force profiles and packets.

``conftest.py`` loads the Hypothesis profile: derandomized, no deadline, and
no examples drawn from literals in the loaded modules.
"""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lrwp.forcing import (  # noqa: E402
    ConstantForce,
    PiecewiseLinearForce,
    SinusoidalForce,
)
from lrwp.classical import ClassicalState, p_c, x_c  # noqa: E402
from lrwp.invariant import InvariantSpec, coeffs_at, eigenvalue  # noqa: E402
from lrwp.wavepacket import (  # noqa: E402
    GaussianMomentumParams,
    PacketState,
    delta_x,
    gaussian_phi0,
    gtwp_psi,
    min_uncertainty_time,
    momentum_solution,
    uncertainty_product,
)
from cross_checks import gaussian_phi_pt, phase_alpha  # noqa: E402
from simpson_reference import phase_reference, simpson_reference  # noqa: E402

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
    st.just(ConstantForce(0.0)),
    amplitudes.map(ConstantForce),
    sinusoidal(),
    piecewise(),
)


# invariant constants: A0 ≠ 0 anywhere in the plane, F0 = B0/A0 with Im F0 ≤ 0
a0s = st.builds(cmath.rect, st.floats(0.3, 3.0), st.floats(-math.pi, math.pi))
c0s = st.complex_numbers(max_magnitude=2.0)
packet_f0s = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, -0.01, exclude_max=True))
f0s = st.one_of(st.just(0j), packet_f0s)
positive = st.floats(0.1, 10.0)


def _time(profile, fraction):
    # piecewise profiles end at their last knot; the others run to t = 10
    end = profile.knots[-1][0] if isinstance(profile, PiecewiseLinearForce) else 10.0
    return fraction * end


@settings(max_examples=100)
@given(profile=profiles, fraction=st.floats(0.0, 1.0))
# ω = 0.1, φ = π, t = 3: expanding (cos φ − cos(ωt+φ))² term by term loses 2.7e-12 here
@example(profile=SinusoidalForce(3.0, 0.1, math.pi), fraction=0.3)
def test_g2_closed_form_matches_simpson(profile, fraction):
    t = _time(profile, fraction)
    closed = profile.g2(t)
    numeric = simpson_reference(profile, "g2", t)
    assert abs(closed - numeric) <= 1e-12 * max(1.0, abs(closed))


@settings(max_examples=100)
@given(profile=profiles, fraction=st.floats(0.0, 1.0))
# ω = −0.1, φ = π, t = 0.1: cos φ − cos(ωt+φ) and its integral cancel to 1e-4 of a term
@example(profile=SinusoidalForce(3.0, -0.1, math.pi), fraction=0.01)
def test_g_and_g1_closed_forms_match_simpson(profile, fraction):
    t = _time(profile, fraction)
    for name in ("g", "g1"):
        closed = getattr(profile, name)(t)
        assert abs(closed - simpson_reference(profile, name, t)) <= 1e-12 * max(1.0, abs(closed))


@settings(max_examples=100)
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


# The Simpson reference costs about 0.2 s an example: 15 keep the test near 5 s,
# and shrinking a failure would run it for minutes, so a failure is reported as drawn.
@settings(max_examples=15, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    profile=profiles,
    fraction=st.floats(0.0, 1.0),
    a0=a0s,
    c0=c0s,
    f0=f0s,
    lam=st.complex_numbers(max_magnitude=5.0),
    m=positive,
    hbar=positive,
)
# the plane-wave branch, where the F0 and logarithm terms are exact zeros
@example(profile=SinusoidalForce(1.0, 2.0), fraction=0.3, a0=1.0, c0=0j, f0=0j, lam=0.8,
         m=1.0, hbar=1.0)
def test_phase_alpha_matches_simpson(profile, fraction, a0, c0, f0, lam, m, hbar):
    spec = InvariantSpec(a0, f0 * a0, c0)
    state = ClassicalState(m)
    t = _time(profile, fraction)
    alpha = phase_alpha(spec, state, profile, lam, hbar, t, 0.3 - 0.2j)
    reference = phase_reference(spec, state, profile, lam, hbar, t, 0.3 - 0.2j)
    assert abs(alpha - reference) <= 1e-12 * max(1.0, abs(alpha))


@settings(max_examples=100)
@given(
    profile=profiles,
    fraction=st.floats(0.0, 1.0),
    a0=a0s,
    c0=c0s,
    f0=packet_f0s,
    m=positive,
    hbar=positive,
    x0=st.floats(-5.0, 5.0),
    p0=st.floats(-5.0, 5.0),
)
def test_lr_phase_times_eigenfunction_is_the_packet(profile, fraction, a0, c0, f0, m, hbar,
                                                    x0, p0):
    # e^{iα(t)}·φ_λ(x,t) with φ_λ = exp[i(2(λ − C)x − B·x²)/(2ħA)] is the packet,
    # once α(0) absorbs the square-completion constant B0·x0²/(2ħA0)
    spec = InvariantSpec(a0, f0 * a0, c0)
    packet = PacketState(m, hbar, x0, p0, spec)
    t = _time(profile, fraction)
    lam = eigenvalue(spec, packet.classical)
    offset = spec.B0 * x0**2 / (2.0 * hbar * spec.A0)
    alpha = phase_alpha(spec, packet.classical, profile, lam, hbar, t, packet.alpha0 - offset)
    c = coeffs_at(spec, m, profile, t)
    x = x_c(packet.classical, profile, t) + delta_x(packet, t) * np.linspace(-3.0, 3.0, 13)
    arg = (2.0 * (lam - c.C) * x - c.B * x**2) / (2.0 * hbar * c.A)
    psi = gtwp_psi(packet, profile, x, t)
    # each phase term carries a rounding of relative size ~1e-16
    scale = max(1.0, abs(alpha), float(np.max(np.abs(arg))))
    error = np.max(np.abs(np.exp(1j * alpha) * np.exp(1j * arg) - psi))
    assert error <= 1e-12 * scale * np.max(np.abs(psi))


@settings(max_examples=100)
@given(
    profile=profiles,
    fraction=st.floats(0.0, 1.0),
    sigma=positive,
    x0=st.floats(-5.0, 5.0),
    p0=st.floats(-5.0, 5.0),
    m=positive,
    hbar=positive,
)
def test_momentum_route_matches_gaussian_closed_form(profile, fraction, sigma, x0, p0, m, hbar):
    # φ0(p − G)·e^{−iΦ/ħ} with a Gaussian φ0 is the three-factor Gaussian φ(p,t)
    params = GaussianMomentumParams(sigma, x0, p0)
    t = _time(profile, fraction)
    g, g1 = profile.g(t), profile.g1(t)
    p = p_c(ClassicalState(m, x0, p0), profile, t) + hbar / sigma * np.linspace(-3.0, 3.0, 13)
    phi = momentum_solution(lambda q: gaussian_phi0(params, hbar, q), profile, m, hbar, p, t)
    reference = gaussian_phi_pt(params, m, hbar, profile, p, t)
    # Both routes round p − G − p0 at the size w of its largest operand, which moves
    # each exponent by its slope in p times w·1e-16; the phase itself rounds at its size.
    u = p - g
    phase = np.abs(u * u * t / (2.0 * m) + u * g1 / m + profile.g2(t) / (2.0 * m)) / hbar
    w = np.max(np.abs(p)) + abs(g) + abs(p0)
    slope = (2.0 * sigma**2 * np.max(np.abs(u - p0)) / hbar + abs(x0)
             + (np.max(np.abs(u)) * t + abs(g1)) / m) / hbar
    scale = max(1.0, float(np.max(phase)), w * slope)
    # the ratio measured at most 7.3e-17 over 60 000 random draws, 1.6e-17 over these 100
    assert np.max(np.abs(phi - reference)) <= 1e-14 * scale * np.max(np.abs(reference))
