import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from lrwp.classical import kinetic_action, p_c, x_c
from lrwp.config import parse_config
from lrwp.errors import AliasingError
from lrwp.fields import (
    Grid1D,
    Space,
    WaveField,
    conjugate_momentum_grid,
    field_norm,
    grid_moments,
    l2_error,
)
from lrwp.forcing import ConstantForce, SinusoidalForce
from lrwp.invariant import InvariantSpec, PacketState, coeffs_at, eigenvalue
from lrwp.oracle import GridSpec, propagate_cranknicolson
from lrwp.wavepacket import (
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
from batch_of_one import propagate_one
from cross_checks import (
    density_closed_form,
    gaussian_phi_pt,
    phase_alpha,
    plane_wave_superposition,
)
from simpson_reference import adaptive_simpson, phase_reference

F_ZERO = ConstantForce(0.0)
F_CONST = ConstantForce(1.0)
F_SIN = SinusoidalForce(1.0, 2.0)

MATCHED = matched_packet(1.0, 1.0, 1.0)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestGtwpPsi:
    def test_prefactor_takes_the_upper_limit_on_the_negative_axis(self):
        # z = 1 − F0·t/m approaches the negative real axis from above (Im F0 < 0); where
        # Im z underflows to +0 there (F0 = 10 − 5e-324i at t/m = 0.5), the continuous
        # branch of √z is +i·√|z|, so at the packet's center ψ = e^{iα0}/(2i)
        pk = PacketState(1.0, 1.0, 0.0, 0.0, InvariantSpec(1.0, 10.0 - 5e-324j), alpha0=0.0)
        assert pk.spec.a_ratio(pk.m, 0.5) == complex(-4.0, 0.0)
        assert gtwp_psi(pk, F_ZERO, 0.0, 0.5) == -0.5j

    def test_peak_normalization(self):
        assert gtwp_psi(MATCHED, F_ZERO, 0.0, 0.0) == pytest.approx(
            (2 * math.pi) ** -0.25, abs=1e-14
        )

    def test_standard_normal_density(self):
        val = abs(gtwp_psi(MATCHED, F_ZERO, 1.0, 0.0)) ** 2
        assert val == pytest.approx((2 * math.pi) ** -0.5 * math.exp(-0.5), abs=1e-14)

    def test_matches_crank_nicolson_oracle(self):
        spec = GridSpec(-15.0, 15.0, 1024, 5e-4, 1.0, output_every=2000)
        grid = spec.grid
        initial = sample_gtwp(MATCHED, F_CONST, grid, 0.0)
        frames = propagate_one(propagate_cranknicolson, initial, ConstantForce(1.0), 1.0, 1.0, spec)
        final = list(frames)[-1]
        analytic = sample_gtwp(MATCHED, F_CONST, grid, 1.0)
        assert l2_error(final, analytic) < 1e-6

    def test_packet_formula_at_f0_zero_is_the_free_plane_wave(self):
        # F0 = 0: no width, A(t) = A0, and ψ = exp[i(p0·x − p0²t/2m)/ħ]
        m, hbar, p0 = 1.5, 0.7, -0.9
        plane = PacketState(m, hbar, 0.4, p0, InvariantSpec(0.8 + 0.3j, 0j, 0.2 - 0.1j))
        x = np.linspace(-5.0, 5.0, 21)
        for t in (0.0, 0.6, 2.5):
            expected = np.exp(1j * (p0 * x - p0 * p0 * t / (2.0 * m)) / hbar)
            np.testing.assert_allclose(gtwp_psi(plane, F_ZERO, x, t), expected, atol=1e-13)

    def test_branch_continuity_in_time(self):
        # drive Re(A/A0) through zero; psi must stay continuous
        spec = InvariantSpec(1.0, 2.0 - 0.5j)
        pk = PacketState(1.0, 1.0, 0.0, 0.0, spec=spec)
        ts = np.linspace(0.0, 2.0, 4001)
        vals = np.array([gtwp_psi(pk, F_ZERO, 0.3, float(t)) for t in ts])
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.01  # a branch flip would jump by O(|psi|)


class TestDensity:
    def test_peak_value(self):
        assert abs(gtwp_psi(MATCHED, F_CONST, 0.0, 0.0)) ** 2 == pytest.approx(
            (2 * math.pi) ** -0.5, abs=1e-14
        )

    def test_closed_form_agrees(self):
        pk = PacketState(1.0, 1.0, 0.4, -0.6, InvariantSpec(0.8 + 0.3j, 0.5 - 0.9j, 0.1j))
        x = np.linspace(-6, 6, 41)
        for t in (0.0, 0.9, 2.2):
            np.testing.assert_allclose(
                abs(gtwp_psi(pk, F_SIN, x, t)) ** 2,
                density_closed_form(pk, F_SIN, x, t),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_unit_norm_on_grid(self):
        grid = Grid1D(-20.0, 20.0, 2048)
        for t in (0.0, 1.0, 2.0):
            rho = abs(gtwp_psi(MATCHED, F_CONST, grid.points, t)) ** 2
            assert np.sum(rho) * grid.spacing == pytest.approx(1.0, abs=1e-10)

    def test_peak_tracks_classical_center(self):
        grid = Grid1D(-20.0, 20.0, 2048)
        t = 1.3
        rho = abs(gtwp_psi(MATCHED, F_CONST, grid.points, t)) ** 2
        x_peak = grid.points[int(np.argmax(rho))]
        xc = float(x_c(MATCHED, F_CONST, t))
        assert abs(x_peak - xc) <= grid.spacing


class TestWidths:
    def test_delta_x_trivia(self):
        assert delta_x(MATCHED, 0.0) == pytest.approx(1.0, abs=1e-14)
        T = 2.0  # the spreading time 2mσ²/ħ at m = σ = ħ = 1
        assert delta_x(MATCHED, T) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_delta_x_matches_grid_moment(self):
        grid = Grid1D(-20.0, 20.0, 2048)
        f = sample_gtwp(MATCHED, F_CONST, grid, 1.3)
        _, dx = grid_moments(f)
        assert abs(dx - delta_x(MATCHED, 1.3)) < 1e-6

    def test_delta_p_trivia(self):
        assert delta_p(MATCHED) == pytest.approx(0.5, abs=1e-14)
        pk = PacketState(1.0, 1.0, 0.0, 0.0, InvariantSpec(1.0, -0.7j))
        assert delta_p(pk) == pytest.approx(math.sqrt(0.7 / 2.0), abs=1e-14)

    def test_delta_p_matches_momentum_grid_moment(self):
        grid = Grid1D(-20.0, 20.0, 2048)
        pgrid = conjugate_momentum_grid(grid, 1.0)
        phi = sample_gaussian_momentum(MATCHED, 1.0, F_CONST, pgrid, 0.8)
        _, dp = grid_moments(phi)  # second moment on the momentum axis
        assert abs(dp - delta_p(MATCHED)) < 1e-6

    def test_uncertainty_product_trivia(self):
        assert uncertainty_product(MATCHED, 0.0) == pytest.approx(0.5, abs=1e-14)
        T = 2.0
        assert uncertainty_product(MATCHED, T) == pytest.approx(0.5 * math.sqrt(2), abs=1e-14)

    def test_minimum_location_oracle(self):
        spec = InvariantSpec(1.0, complex(0.5, -0.5))  # F0 = (1-i)/2, t* = 1
        pk = PacketState(1.0, 1.0, 0.0, 0.0, spec=spec)
        t_star = min_uncertainty_time(pk, 3.0)
        assert abs(t_star - 1.0) < 1e-8
        assert uncertainty_product(pk, t_star) == pytest.approx(0.5, abs=1e-12)
        # t* = Re(m/F0) = 1 is exact here, and clamped to [0, t_hi]
        assert (t_star, min_uncertainty_time(pk, 0.5)) == (1.0, 0.5)
        assert min_uncertainty_time(MATCHED, 3.0) == 0.0

    def test_lower_bound(self):
        for t in np.linspace(0.0, 5.0, 64):
            assert uncertainty_product(MATCHED, float(t)) >= 0.5 - 1e-12


class TestPlaneWave:
    PK = PacketState(1.0, 1.0, 0.0, 2.0, InvariantSpec(1.0, 0j), alpha0=0j)

    def test_free_plane_wave(self):
        val = gtwp_psi(self.PK, F_ZERO, 1.3, 0.7)
        assert val == pytest.approx(cmath.exp(1j * (2 * 1.3 - 4 * 0.7 / 2)), abs=1e-12)

    def test_initial_condition_any_force(self):
        for profile in (F_CONST, F_SIN):
            val = gtwp_psi(self.PK, profile, 0.9, 0.0)
            assert val == pytest.approx(cmath.exp(1j * 2.0 * 0.9), abs=1e-14)

    def test_phase_gradient_equals_momentum(self):
        pk = PacketState(1.0, 1.0, 0.0, 0.0, InvariantSpec(1.0, 0j), alpha0=0j)
        h = 1e-6
        a = gtwp_psi(pk, F_CONST, 0.5 + h, 1.0)
        b = gtwp_psi(pk, F_CONST, 0.5 - h, 1.0)
        grad = cmath.phase(a / b) / (2 * h)
        assert grad == pytest.approx(float(F_CONST.g(1.0)), abs=1e-8)

    def test_unit_modulus(self):
        for t in (0.0, 0.7, 2.0):
            assert abs(gtwp_psi(self.PK, F_SIN, -1.1, t)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_phase_matches_phase_alpha(self):
        # the plane wave's closed-form phase against the adaptive integral of
        # the LR phase, at the snapshot times of driven_plane_wave.ini and for
        # a complex A0, C0; the closed-form LR phase for a complex λ too
        cfg = parse_config((CONFIGS / "driven_plane_wave.ini").read_text())
        profile = cfg.profile
        general = PacketState(
            1.0, 1.0, 0.0, 0.0, InvariantSpec(0.8 + 0.3j, 0j, 0.2 - 0.1j), alpha0=0.3 + 0.1j
        )
        g = cfg.grid
        for step in g.snapshot_steps:
            t = step * g.dt
            for pk in (cfg.packet, general):
                lam = eigenvalue(pk)
                alpha = phase_reference(
                    pk.spec, pk.m, profile, lam, pk.hbar, t, alpha0=pk.alpha0
                )
                # at x = 0 the plane wave is e^{iα(t)}
                psi = gtwp_psi(pk, profile, 0.0, t)
                assert abs(psi - cmath.exp(1j * alpha)) <= 1e-13
            lam = 1.1 + 0.05j
            args = (general.spec, general.m, profile, lam, general.hbar, t, general.alpha0)
            alpha = phase_alpha(*args)
            assert abs(cmath.exp(1j * alpha) - cmath.exp(1j * phase_reference(*args))) <= 1e-13


class TestMomentumSpace:
    def test_phi0_peak(self):
        assert gaussian_phi0(1.0, 0.3, 0.9, 1.0, 0.9) == pytest.approx(
            (2 / math.pi) ** 0.25, abs=1e-14
        )

    def test_phi0_direct_value(self):
        assert gaussian_phi0(1.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(
            (2 / math.pi) ** 0.25 * math.exp(-1.0), abs=1e-14
        )

    def test_phi0_unit_norm_by_quadrature(self):
        val = adaptive_simpson(
            lambda p: abs(gaussian_phi0(0.8, 0.2, -0.4, 1.0, p)) ** 2, -12.0, 12.0, 1e-13
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_free_evolution(self):
        phi0 = lambda p: gaussian_phi0(1.0, 0.0, 0.0, 1.0, p)
        p, t = 0.7, 1.9
        val = momentum_solution(phi0, F_ZERO, 1.0, 1.0, p, t)
        assert val == pytest.approx(phi0(p) * cmath.exp(-1j * p * p * t / 2), abs=1e-13)

    def test_initial_time(self):
        phi0 = lambda p: 1.0 / (1.0 + p * p)
        assert momentum_solution(phi0, F_SIN, 1.0, 1.0, 0.4, 0.0) == pytest.approx(
            phi0(0.4), abs=1e-14
        )

    def test_matches_closed_gaussian_form(self):
        packet = matched_packet(0.8, 1.0, 1.0, x0=0.4, p0=-0.3)
        phi0 = lambda p: gaussian_phi0(0.8, 0.4, -0.3, 1.0, p)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = float(rng.uniform(-4, 4))
            t = float(rng.uniform(0, 2))
            a = momentum_solution(phi0, F_CONST, 1.0, 1.0, p, t)
            b = gaussian_phi_pt(packet, 0.8, F_CONST, p, t)
            assert abs(a - b) < 1e-9

    def test_phi_pt_reduces_to_phi0(self):
        packet = matched_packet(1.2, 1.0, 1.0, x0=-0.5, p0=0.6)
        p = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(
            gaussian_phi_pt(packet, 1.2, F_SIN, p, 0.0),
            gaussian_phi0(1.2, -0.5, 0.6, 1.0, p),
            atol=1e-14,
        )

    def test_phi_pt_center_modulus(self):
        packet = matched_packet(1.0, 1.0, 1.0, p0=0.9)
        val = gaussian_phi_pt(packet, 1.0, F_ZERO, 0.9, 1.7)
        assert abs(val) == pytest.approx((2 / math.pi) ** 0.25, abs=1e-13)


class TestFourierBridge:
    def test_known_transform_pair(self):
        sigma = 1.4
        packet = matched_packet(sigma, 1.0, 1.0, x0=0.8, p0=-0.2)
        grid = Grid1D(-25.0, 25.0, 2048)
        pgrid = conjugate_momentum_grid(grid, 1.0)
        phi = sample_gaussian_momentum(packet, sigma, F_ZERO, pgrid, 0.0)
        psi = fourier_bridge(phi, 1.0, position_grid=grid)
        x = grid.points
        expected = (2 * math.pi * sigma**2) ** -0.25 * np.exp(
            -((x - 0.8) ** 2) / (4 * sigma**2) - 1j * 0.2 * x
        )
        np.testing.assert_allclose(psi.values, expected, atol=1e-12)

    def test_unitarity(self):
        grid = Grid1D(-20.0, 20.0, 1024)
        pgrid = conjugate_momentum_grid(grid, 1.0)
        phi = sample_gaussian_momentum(matched_packet(0.7, 1.0, 1.0), 0.7, F_CONST, pgrid, 1.1)
        psi = fourier_bridge(phi, 1.0, position_grid=grid)
        norm_p = np.sum(np.abs(phi.values) ** 2) * pgrid.spacing
        norm_x = np.sum(np.abs(psi.values) ** 2) * grid.spacing
        assert abs(norm_x - norm_p) < 1e-12

    def test_matches_packet_with_offset_center(self):
        packet = matched_packet(0.9, 1.0, 1.0, x0=1.2, p0=0.8)
        grid = Grid1D(-20.0, 20.0, 2048)
        pgrid = conjugate_momentum_grid(grid, 1.0)
        for t in (0.0, 1.0):
            phi = sample_gaussian_momentum(packet, 0.9, F_CONST, pgrid, t)
            bridged = fourier_bridge(phi, 1.0, position_grid=grid)
            direct = sample_gtwp(packet, F_CONST, grid, t)
            assert np.max(np.abs(bridged.values - direct.values)) < 1e-8

    def test_aliasing_flag(self):
        # sigma so small the momentum Gaussian no longer fits the box
        grid = Grid1D(-20.0, 20.0, 2048)
        pgrid = conjugate_momentum_grid(grid, 1.0)
        phi = sample_gaussian_momentum(matched_packet(0.02, 1.0, 1.0), 0.02, F_ZERO, pgrid, 0.0)
        with pytest.raises(AliasingError, match="not contained on the grid at t=0"):
            fourier_bridge(phi, 1.0, position_grid=grid)

    @pytest.mark.parametrize("sigma, aliased", [(1.0, False), (0.05, True)])
    def test_aliasing_decision_does_not_depend_on_hbar(self, sigma, aliased):
        # φ scales as ħ^(−1/2) and its grid as ħ, so the edge samples relative to
        # max|φ| are the same at every ħ; the default box at n = 64
        grid = Grid1D(-20.0, 20.0, 64)
        for k in range(-100, 101):
            hbar = 10.0**k
            pgrid = conjugate_momentum_grid(grid, hbar)
            packet = matched_packet(sigma, 1.0, hbar)
            phi = sample_gaussian_momentum(packet, sigma, F_ZERO, pgrid, 0.0)
            try:
                fourier_bridge(phi, hbar, position_grid=grid)
            except AliasingError:
                assert aliased, f"aliasing reported at hbar = {hbar:g}"
            else:
                assert not aliased, f"no aliasing reported at hbar = {hbar:g}"

    def test_rejects_mismatched_grids(self):
        grid = Grid1D(-20.0, 20.0, 512)
        pgrid = conjugate_momentum_grid(grid, 1.0)
        phi = sample_gaussian_momentum(MATCHED, 1.0, F_ZERO, pgrid, 0.0)
        with pytest.raises(ValueError):
            fourier_bridge(phi, 1.0, position_grid=Grid1D(-10.0, 10.0, 512))

    def test_zero_field_is_not_aliased(self):
        # aliasing is an edge sample that exceeds ALIASING_TOL·max|φ|; 0 does not exceed 0
        grid = Grid1D(-20.0, 20.0, 64)
        pgrid = conjugate_momentum_grid(grid, 1.0)
        phi = WaveField(grid=pgrid, t=0.0, values=np.zeros(64, complex), space=Space.MOMENTUM)
        assert not fourier_bridge(phi, 1.0, position_grid=grid).values.any()


class TestMatching:
    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            matched_packet(sigma, 1.0, 1.0)

    def test_direct_substitution(self):
        packet = matched_packet(1.0, 1.0, 1.0)
        assert packet.spec.F0 == pytest.approx(-0.5j, abs=1e-15)
        assert packet.alpha0 == pytest.approx(0.25j * math.log(2 * math.pi), abs=1e-15)

    def test_position_space_gaussian_at_t0(self):
        sigma = 0.7
        packet = matched_packet(sigma, 1.0, 1.0, x0=-0.4, p0=1.1)
        x = np.linspace(-4, 4, 33)
        expected = (2 * math.pi * sigma**2) ** -0.25 * np.exp(
            -((x + 0.4) ** 2) / (4 * sigma**2) + 1j * 1.1 * x
        )
        np.testing.assert_allclose(gtwp_psi(packet, F_SIN, x, 0.0), expected, atol=1e-12)

    def test_width_at_t0_is_sigma(self):
        for sigma in (0.5, 1.0, 2.3):
            packet = matched_packet(sigma, 1.0, 1.0)
            assert delta_x(packet, 0.0) == pytest.approx(sigma, abs=1e-13)

    def test_free_spreading_law(self):
        sigma = 0.8
        packet = matched_packet(sigma, 1.0, 1.0)
        T = 2.0 * 1.0 * sigma**2 / 1.0  # the spreading time 2mσ²/ħ
        for t in np.linspace(0.0, 3.0, 16):
            expected = sigma * math.sqrt(1.0 + (t / T) ** 2)
            assert abs(delta_x(packet, float(t)) - expected) < 1e-8


def test_alpha_route_reproduces_packet():
    # e^{i alpha(t)} phi_lambda equals the packet once alpha(0) absorbs the
    # square-completion constant B0·x0²/(2ħA0)
    spec = InvariantSpec(1.0 + 0.2j, complex(0.3, -0.6), complex(0.1, 0.05))
    pk = PacketState(1.0, 1.0, x0=0.5, p0=-0.2, spec=spec)
    lam = eigenvalue(pk)
    offset = spec.B0 * pk.x0**2 / (2.0 * pk.hbar * spec.A0)
    x = np.linspace(-3, 3, 11)
    for t in (0.0, 0.7, 1.9):
        alpha = phase_alpha(spec, pk.m, F_CONST, lam, 1.0, t, pk.alpha0 - offset)
        a, _, c = coeffs_at(spec, 1.0, F_CONST, t)
        phi = np.exp(1j * ((2 * (lam - c) * x - spec.B0 * x**2) / (2 * a)))
        np.testing.assert_allclose(
            np.exp(1j * alpha) * phi, gtwp_psi(pk, F_CONST, x, t), atol=1e-12
        )


def test_plane_wave_superposition_rebuilds_packet():
    packet = matched_packet(1.0, 1.0, 1.0, x0=0.5, p0=0.4)
    p0s = np.linspace(-6.0 + 0.4, 6.0 + 0.4, 257)
    x = np.linspace(-15.0, 15.0, 101)
    t = 1.5
    total = plane_wave_superposition(
        1.0, 1.0, F_ZERO, lambda p: gaussian_phi0(1.0, 0.5, 0.4, 1.0, p), p0s, x, t
    )
    direct = gtwp_psi(packet, F_ZERO, x, t)
    rel = np.linalg.norm(total - direct) / np.linalg.norm(direct)
    assert rel < 1e-6


def test_analytic_norm():
    assert analytic_norm_sq(MATCHED) == pytest.approx(1.0, abs=1e-14)
    dimmer = PacketState(
        1.0, 1.0, 0.0, 0.0, MATCHED.spec, alpha0=MATCHED.alpha0 + 0.5j
    )
    assert analytic_norm_sq(dimmer) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        gtwp_psi(MATCHED, F_ZERO, 0.0, -0.5)
    with pytest.raises(ValueError):
        momentum_solution(lambda p: p, F_ZERO, 1.0, 1.0, 0.0, -1.0)


PLANE = PacketState(1.0, 1.0, 0.0, 0.5, InvariantSpec(1.0, 0j))
# each closed form reaches the force profile at its own t, and only the profile checks t ≥ 0
AT_TIME = {
    "x_c": lambda t: x_c(MATCHED, F_CONST, t),
    "p_c": lambda t: p_c(MATCHED, F_CONST, t),
    "kinetic_action": lambda t: kinetic_action(1.0, 0.5, F_CONST, t),
    "coeffs_at": lambda t: coeffs_at(MATCHED.spec, 1.0, F_CONST, t),
    "phase_alpha": lambda t: phase_alpha(PLANE.spec, PLANE.m, F_CONST, 0.5, 1.0, t),
    "gtwp_psi": lambda t: gtwp_psi(MATCHED, F_CONST, 0.3, t),
    "gtwp_psi_plane_wave": lambda t: gtwp_psi(PLANE, F_CONST, 0.3, t),
    "momentum_solution": lambda t: momentum_solution(np.exp, F_CONST, 1.0, 1.0, 0.3, t),
}


@pytest.mark.parametrize("name", list(AT_TIME))
def test_closed_forms_reject_the_smallest_negative_time(name):
    AT_TIME[name](0.0)  # defined at t = 0
    with pytest.raises(ValueError, match="negative time"):
        AT_TIME[name](-1e-300)
