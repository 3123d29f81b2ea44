"""Property tests over randomly drawn force profiles and packets.

``conftest.py`` loads the Hypothesis profile: derandomized, no deadline, and
no examples drawn from literals in the loaded modules.
"""

import cmath
import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lrwp.forcing import (  # noqa: E402
    ConstantForce,
    PiecewiseLinearForce,
    SinusoidalForce,
)
from lrwp.classical import p_c, x_c  # noqa: E402
from lrwp.config import RunConfig, parse_config  # noqa: E402
from lrwp.errors import ConfigError  # noqa: E402
from lrwp.fields import (  # noqa: E402
    Grid1D, Space, WaveField, conjugate_momentum_grid, wavenumbers,
)
from lrwp.invariant import InvariantSpec, PacketState, coeffs_at, eigenvalue  # noqa: E402
from lrwp.oracle import GridSpec, propagate_cranknicolson, propagate_splitstep  # noqa: E402
from lrwp.runner import run_analytic  # noqa: E402
from lrwp.wavepacket import (  # noqa: E402
    analytic_norm_sq,
    delta_p,
    delta_x,
    fourier_bridge,
    gaussian_phi0,
    gtwp_psi,
    matched_packet,
    min_uncertainty_time,
    momentum_solution,
    sample_gaussian_momentum,
    sample_gtwp,
    uncertainty_product,
)
from batch_of_one import propagate_one  # noqa: E402
from cayley_reference import cayley_reference  # noqa: E402
from cross_checks import eigen_residual, gaussian_phi_pt, phase_alpha  # noqa: E402
from kick_train import KickTrainProfile  # noqa: E402
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


def _box(packet, profile, t):
    """A grid over x_c ± 12·Δx whose momenta reach p_c ± 12·Δp, where ψ is below 1e-15."""
    half = 12.0 * delta_x(packet, t)
    p_span = abs(float(p_c(packet, profile, t))) + 12.0 * delta_p(packet)
    n = 1 << max(6, math.ceil(math.log2(2.0 * half * p_span / (math.pi * packet.hbar))))
    xc = float(x_c(packet, profile, t))
    return Grid1D(xc - half, xc + half, n)


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
    t = _time(profile, fraction)
    alpha = phase_alpha(spec, m, profile, lam, hbar, t, 0.3 - 0.2j)
    reference = phase_reference(spec, m, profile, lam, hbar, t, 0.3 - 0.2j)
    assert abs(alpha - reference) <= 1e-12 * max(1.0, abs(alpha))


@settings(max_examples=100)
@given(sigma=positive, m=positive, hbar=positive, x0=st.floats(-5.0, 5.0),
       p0=st.floats(-5.0, 5.0))
def test_matched_packet_has_the_gaussian_widths(sigma, m, hbar, x0, p0):
    # the packet that the width-σ momentum Gaussian transforms into, at any m and ħ:
    # unit norm, Δx(0) = σ, Δp = ħ/(2σ) and Δx(T) = σ·√2 at T = 2mσ²/ħ
    packet = matched_packet(sigma, m, hbar, x0, p0)
    big_t = 2.0 * m * sigma**2 / hbar
    assert (packet.m, packet.hbar, packet.x0, packet.p0) == (m, hbar, x0, p0)
    assert abs(analytic_norm_sq(packet) - 1.0) <= 1e-14
    assert delta_x(packet, 0.0) == pytest.approx(sigma, rel=1e-14)
    assert delta_p(packet) == pytest.approx(hbar / (2.0 * sigma), rel=1e-14)
    assert delta_x(packet, big_t) == pytest.approx(sigma * math.sqrt(2.0), rel=1e-14)


@settings(max_examples=100)
@given(a0=a0s, f0=packet_f0s, m=positive, hbar=positive)
def test_default_alpha0_normalizes_the_packet(a0, f0, m, hbar):
    # Im α0 = ¼·ln(πħ/(−Im F0)) cancels the Gaussian's ∫|ψ|² = √(πħ/(−Im F0)) to rounding
    packet = PacketState(m, hbar, 0.0, 0.0, InvariantSpec(a0, f0 * a0))
    assert abs(analytic_norm_sq(packet) - 1.0) <= 1e-14


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
    lam = eigenvalue(packet)
    offset = spec.B0 * x0**2 / (2.0 * hbar * spec.A0)
    alpha = phase_alpha(spec, m, profile, lam, hbar, t, packet.alpha0 - offset)
    a, b, c = coeffs_at(spec, m, profile, t)
    x = x_c(packet, profile, t) + delta_x(packet, t) * np.linspace(-3.0, 3.0, 13)
    arg = (2.0 * (lam - c) * x - b * x**2) / (2.0 * hbar * a)
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
    packet = PacketState(m, hbar, x0, p0, InvariantSpec(1.0, 0j))
    t = _time(profile, fraction)
    g, g1 = profile.g(t), profile.g1(t)
    center = p_c(packet, profile, t)
    p = center + hbar / sigma * np.linspace(-3.0, 3.0, 13)
    phi0 = lambda q: gaussian_phi0(sigma, x0, p0, hbar, q)
    phi = momentum_solution(phi0, profile, m, hbar, p, t)
    reference = gaussian_phi_pt(packet, sigma, profile, p, t)
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


@settings(max_examples=30)
@given(
    profile=profiles,
    fraction=st.floats(0.0, 1.0),
    a0=a0s,
    c0=c0s,
    f0=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-2.0, -0.25)),
    m=st.floats(0.5, 5.0),
    hbar=st.floats(0.2, 5.0),
    x0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
)
@example(profile=ConstantForce(1.0), fraction=0.5, a0=1.0, c0=0j, f0=-0.5j, m=1.0, hbar=0.5,
         x0=0.5, p0=-0.3)
def test_sampled_packet_is_an_eigenfunction_of_the_invariant(profile, fraction, a0, c0, f0,
                                                             m, hbar, x0, p0):
    # I(t)ψ = λψ on the grid: A(t)·(−iħ∂ₓ) + B0·x + C(t) applied to the sampled packet
    # returns it times its launch-point eigenvalue, at any ħ
    packet = PacketState(m, hbar, x0, p0, InvariantSpec(a0, f0 * a0, c0))
    t = fraction * min(2.0, _time(profile, 1.0))
    field = sample_gtwp(packet, profile, _box(packet, profile, t), t)
    coeffs = coeffs_at(packet.spec, m, profile, t)
    assert eigen_residual(coeffs, field, eigenvalue(packet), hbar) <= 1e-12


# Each example propagates at most 500 steps on at most 1024 points: 25 take about 0.5 s.
@settings(max_examples=25, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    profile=profiles,
    f0=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-2.0, -0.25)),
    m=st.floats(0.5, 5.0),
    hbar=st.floats(0.2, 5.0),
    x0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
    dt=st.floats(1e-3, 1e-2),
    steps=st.integers(1, 500),
)
# a kinetic phase p²t/(2mħ) near 1 over the packet: a relative error of 1e-9 in the
# split step's kinetic factor moves ψ by some 1e-9 here
@example(profile=SinusoidalForce(1.0, 3.0), f0=0.1 - 0.6j, m=1.5, hbar=0.7, x0=0.5, p0=2.0,
         dt=1e-3, steps=500)
def test_splitstep_is_the_packet_under_its_kick_train(profile, f0, m, hbar, x0, p0, dt, steps):
    # the Strang step is exact for the impulse train it applies, so the split-step field
    # is the closed form fed that train's G, G1 and G2, to rounding: centre, action,
    # width and Lewis–Riesenfeld prefactor, at any m, ħ and force
    steps = max(1, min(steps, int(min(1.0, _time(profile, 1.0)) / dt)))
    packet = PacketState(m, hbar, x0, p0, InvariantSpec(1.0, f0))
    kicks = KickTrainProfile.sampling(profile, dt, steps)
    # the box holds x_c ± 12·Δx and the grid's momenta p_c ± 12·Δp at every step, where
    # ψ is below 1e-15 of its peak; the half kicks move p by at most max|F|·dt/2
    ts = dt * np.arange(steps + 1)
    xc = x_c(packet, profile, ts)
    widths = 12.0 * delta_x(packet, ts)
    lo, hi = float(np.min(xc - widths)), float(np.max(xc + widths))
    p_max = (float(np.max(np.abs(p_c(packet, profile, ts)))) + 12.0 * delta_p(packet)
             + float(np.max(np.abs(kicks.forces))) * dt)
    n = 1 << max(6, math.ceil(math.log2((hi - lo) * p_max / (math.pi * hbar))))
    assume(n <= 1024)
    spec = GridSpec(lo, hi, n, dt, steps * dt, output_every=1)
    initial = sample_gtwp(packet, profile, spec.grid, 0.0)
    for field in propagate_one(propagate_splitstep, initial, profile, m, hbar, spec):
        closed = gtwp_psi(packet, kicks, spec.grid.points, field.t)
        gap = np.max(np.abs(field.values - closed)) / np.max(np.abs(closed))
        assert gap <= 1e-11, f"gap {gap:.3e} at t = {field.t:g}"


@settings(max_examples=30)
@given(
    profile=profiles,
    m=st.floats(0.5, 5.0),
    hbar=st.floats(0.2, 5.0),
    dt=st.floats(1e-3, 2e-2),
    steps=st.integers(1, 40),
    n=st.sampled_from([64, 128, 256]),
    packets=st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.8, 1.5)),
        min_size=1, max_size=3,
    ),
)
def test_cranknicolson_is_the_dense_cayley_step(profile, m, hbar, dt, steps, n, packets):
    # the banded solve, the right-hand band and their rebuilds at each force change are
    # the dense Cayley step of the 5-point Hamiltonian, to rounding, row by row
    steps = max(1, min(steps, int(min(1.0, _time(profile, 1.0)) / dt)))
    spec = GridSpec(-24.0, 24.0, n, dt, steps * dt, output_every=1)
    x = spec.grid.points
    rows = np.array([np.exp(-(((x - x0) / (2.0 * sigma)) ** 2) + 1j * p0 * x / hbar)
                     for x0, p0, sigma in packets])
    rows /= np.sqrt(np.sum(np.abs(rows) ** 2, axis=1, keepdims=True) * spec.grid.spacing)
    initials = [WaveField(spec.grid, 0.0, row, Space.POSITION) for row in rows]
    snapshots = propagate_cranknicolson(initials, profile, m, hbar, spec)
    for step, (fields, expected) in enumerate(
        zip(snapshots, cayley_reference(rows, profile, m, hbar, spec), strict=True)
    ):
        for field, want in zip(fields, expected, strict=True):
            gap = np.max(np.abs(field.values - want)) / np.max(np.abs(want))
            assert gap <= 1e-12, f"gap {gap:.3e} at step {step}"


@settings(max_examples=50)
@given(
    profile=profiles,
    fraction=st.floats(0.0, 1.0),
    sigma=st.floats(0.3, 3.0),
    m=st.floats(0.5, 5.0),
    hbar=st.floats(0.2, 5.0),
    x0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
)
def test_momentum_route_rebuilds_the_matched_packet(profile, fraction, sigma, m, hbar, x0, p0):
    # the paper's equality at any m and ħ: the momentum-space Gaussian of width σ,
    # shifted by G and transformed to position space, is the packet matched to σ
    packet = matched_packet(sigma, m, hbar, x0, p0)
    t = fraction * min(2.0, _time(profile, 1.0))
    grid = _box(packet, profile, t)  # its conjugate grid holds the momenta p_c ± 12·Δp
    pgrid = conjugate_momentum_grid(grid, hbar)
    phi = sample_gaussian_momentum(packet, sigma, profile, pgrid, t)
    bridged = fourier_bridge(phi, hbar, grid)
    direct = sample_gtwp(packet, profile, grid, t)
    gap = np.max(np.abs(bridged.values - direct.values)) / np.max(np.abs(direct.values))
    # measured at most 8.0e-13 over these 50 examples, from rounding in phases of size ≫ 1
    assert gap <= 1e-10


def _scaled(profile, s):
    """The same force shape with every force value times s."""
    if isinstance(profile, PiecewiseLinearForce):
        return PiecewiseLinearForce(tuple((t, s * f) for t, f in profile.knots))
    return dataclasses.replace(profile, amplitude=s * profile.amplitude)


# the packets of the laws below: any invariant with Im F0 < 0, and any α0, at any m and ħ
packet_laws = dict(
    profile=profiles,
    fraction=st.floats(0.0, 1.0),
    a0=a0s,
    c0=c0s,
    f0=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-2.0, -0.25)),
    alpha0=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    m=st.floats(0.5, 5.0),
    hbar=st.floats(0.2, 5.0),
    x0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
)


def _packet_at(profile, fraction, a0, c0, f0, alpha0, m, hbar, x0, p0):
    packet = PacketState(m, hbar, x0, p0, InvariantSpec(a0, f0 * a0, c0), alpha0)
    return packet, fraction * min(2.0, _time(profile, 1.0))


@settings(max_examples=50)
@given(**packet_laws)
def test_grid_norm_and_spectral_width_are_the_closed_forms(**draw):
    # ∫|ψ|² and Δp do not change in time: on the grid, Σ|ψ|²Δx is analytic_norm_sq and
    # the spread of ħk under |FFT ψ|² is delta_p, at any t
    packet, t = _packet_at(**draw)
    grid = _box(packet, draw["profile"], t)
    psi = sample_gtwp(packet, draw["profile"], grid, t).values
    norm = float(np.sum(np.abs(psi) ** 2) * grid.spacing)
    weight = np.abs(np.fft.fft(psi)) ** 2
    weight /= np.sum(weight)
    p = packet.hbar * wavenumbers(grid)
    spread = math.sqrt(float(np.sum(weight * (p - np.sum(weight * p)) ** 2)))
    # both measured at most 1.3e-15 relative over 3000 random draws
    assert norm == pytest.approx(analytic_norm_sq(packet), rel=1e-12, abs=0.0)
    assert spread == pytest.approx(delta_p(packet), rel=1e-12, abs=0.0)


@settings(max_examples=100)
@given(profile=profiles, fraction=st.floats(0.0, 1.0), s=st.floats(-3.0, 3.0),
       m=positive, hbar=positive, x0=st.floats(-5.0, 5.0), p0=st.floats(-5.0, 5.0))
def test_center_moves_linearly_in_the_force(profile, fraction, s, m, hbar, x0, p0):
    # x_c − x0 − p0·t/m = G1/m and p_c − p0 = G are linear in F: scaling the force
    # by s scales both by s
    packet = PacketState(m, hbar, x0, p0, InvariantSpec(1.0, -1j))
    t = _time(profile, fraction)
    free = x0 + p0 * t / m
    drift = float(x_c(packet, profile, t)) - free
    kick = float(p_c(packet, profile, t)) - p0
    drift_s = float(x_c(packet, _scaled(profile, s), t)) - free
    kick_s = float(p_c(packet, _scaled(profile, s), t)) - p0
    # each difference rounds at the size of its operands; measured at most 5.1e-16 of that
    assert abs(drift_s - s * drift) <= 1e-13 * max(1.0, abs(free) + abs(drift_s) + abs(s * drift))
    assert abs(kick_s - s * kick) <= 1e-13 * max(1.0, abs(p0) + abs(kick_s) + abs(s * kick))


@settings(max_examples=50)
@given(d=st.floats(-3.0, 3.0), **packet_laws)
def test_shifting_x0_translates_the_packet(d, **draw):
    # x0 → x0 + d: ψ′(x + d) = ψ(x)·e^{i·p_c·d/ħ}; only the center and the phase move
    packet, t = _packet_at(**draw)
    shifted = dataclasses.replace(packet, x0=packet.x0 + d)
    x = _box(packet, draw["profile"], t).points
    psi = gtwp_psi(packet, draw["profile"], x, t)
    moved = gtwp_psi(shifted, draw["profile"], x + d, t)
    phase = np.exp(1j * float(p_c(packet, draw["profile"], t)) * d / packet.hbar)
    # measured at most 1.5e-14 of max|ψ| over 3000 random draws
    assert np.max(np.abs(moved - psi * phase)) <= 1e-11 * np.max(np.abs(psi))


@settings(max_examples=50)
@given(q=st.floats(-3.0, 3.0), **packet_laws)
def test_shifting_p0_boosts_the_packet(q, **draw):
    # p0 → p0 + q: |ψ′(x + q·t/m)| = |ψ(x)|, and ψ′(x + q·t/m)/ψ(x) is e^{iqx/ħ} times
    # a factor that does not depend on x
    packet, t = _packet_at(**draw)
    boosted = dataclasses.replace(packet, p0=packet.p0 + q)
    x = _box(packet, draw["profile"], t).points
    psi = gtwp_psi(packet, draw["profile"], x, t)
    moved = gtwp_psi(boosted, draw["profile"], x + q * t / packet.m, t)
    peak = np.max(np.abs(psi))
    # measured at most 1.2e-15 (moduli) and 2.8e-14 (ratio) of max|ψ| over 3000 draws
    assert np.max(np.abs(np.abs(moved) - np.abs(psi))) <= 1e-12 * peak
    unboosted = moved * np.exp(-1j * q * x / packet.hbar)
    top = np.argmax(np.abs(psi))
    factor = unboosted[top] / psi[top]
    assert np.max(np.abs(unboosted - factor * psi)) <= 1e-11 * peak


@st.composite
def snapshot_clocks(draw):
    """(dt, step count, output_every): dt includes values such as 0.3, for which
    dt·output_every·k and (output_every·k)·dt differ in the last bit."""
    dt = draw(st.one_of(st.sampled_from([0.1, 0.3, 1 / 3]), st.floats(1e-3, 1.0)))
    steps = draw(st.integers(1, 60))
    every = draw(st.sampled_from([k for k in range(1, steps + 1) if steps % k == 0]))
    return dt, steps, every


@settings(max_examples=50)
@given(clock=snapshot_clocks())
# (dt·output_every)·k misses step·dt at k = 3, 5, 6, 7, 10; 7, 11, 14, 15; and 9
@example(clock=(0.1, 30, 3))
@example(clock=(0.3, 60, 3))
@example(clock=(1 / 3, 60, 5))
def test_every_mode_takes_snapshots_at_step_times_dt(clock):
    # one clock: both oracles and the closed form stamp snapshot s as s·dt, and the
    # row count bounded at parse time is the count analytic writes
    dt, steps, every = clock
    cfg = parse_config(
        f"[system]\nm = 1000\n[packet]\nsigma = 2\n[grid]\nx_min = -20\nx_max = 20\n"
        f"n = 64\ndt = {dt!r}\nt_max = {steps * dt!r}\noutput_every = {every}\n"
    )
    spec = cfg.grid
    assert spec.n_steps == steps
    times = [s * dt for s in spec.snapshot_steps]
    packet = cfg.packet
    initial = sample_gtwp(packet, cfg.profile, spec.grid, 0.0)
    for propagator in (propagate_splitstep, propagate_cranknicolson):
        fields = propagate_one(propagator, initial, cfg.profile, packet.m, packet.hbar, spec)
        assert [field.t for field in fields] == times
    with tempfile.TemporaryDirectory() as out:
        run_analytic(cfg, out)
        rows = Path(out, "observables.csv").read_text().splitlines()[1:]
    assert len(rows) == len(spec.snapshot_steps)
    assert [float(row.split(",")[0]) for row in rows] == times


@st.composite
def validate_documents(draw):
    """A [packet] and a 64-point [grid] that may break any validate case rule: a σ, or an
    F0 (0 is the plane wave) with no α0 or one that may leave the packet unnormalized,
    and a launch point, box and t_max for which the box may not contain the packet."""
    kind = draw(st.sampled_from(["sigma", "F0", "F0", "plane wave"]))
    if kind == "sigma":
        packet = f"sigma = {draw(st.floats(0.05, 2.0))!r}\n"
    else:
        f0 = draw(st.floats(-5.0, -0.01)) if kind == "F0" else 0.0
        packet = f"F0 = 0{f0:+.17g}i\n" if f0 else "F0 = 0\n"
        if draw(st.booleans()):
            # Im α0 = ¼·ln(π/(−Im F0)) normalizes the packet; 4e-9 off passes, 6e-9 does not
            im = 0.25 * math.log(math.pi / -f0) if f0 else 0.0
            im += draw(st.sampled_from([0.0, 4e-9, -6e-9, 0.5]))
            packet += f"alpha0 = {draw(st.floats(-3.0, 3.0)):.17g}{im:+.17g}i\n"
    x0, p0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    lo, hi = draw(st.floats(-30.0, -5.0)), draw(st.floats(5.0, 30.0))
    t_max = draw(st.integers(1, 200)) * 0.01
    return (f"[packet]\n{packet}x0 = {x0!r}\np0 = {p0!r}\n[grid]\nx_min = {lo!r}\n"
            f"x_max = {hi!r}\nn = 64\ndt = 0.01\nt_max = {t_max!r}\noutput_every = 1\n")


_GRID = "[grid]\nn = 256\ndt = 0.01\nt_max = 0.1\noutput_every = 5\n"


@settings(max_examples=100)
@given(doc=validate_documents())
@example(doc="[packet]\nF0 = 0\n" + _GRID)  # a plane wave
@example(doc="[packet]\nF0 = 0-0.5i\nalpha0 = 0\n" + _GRID)  # norm √(2π)
def test_a_validate_case_is_refused_alone_exactly_when_in_a_sweep(doc):
    # the case rules are one: a lone validate run and the one case of a dt sweep of the
    # same document, at its own dt, are refused alike and with the same message
    try:
        parse_config(doc, mode_override="validate")
        alone = None
    except ConfigError as exc:
        alone = str(exc)
    sweep = "[run]\nmode = sweep\nsweep_axis = dt\nsweep_values = 0.01\nsweep_mode = validate\n"
    [(_, case)] = parse_config(doc + sweep).sweep
    if alone is None:
        assert isinstance(case, RunConfig)
    else:
        assert isinstance(case, ConfigError) and str(case) == alone
