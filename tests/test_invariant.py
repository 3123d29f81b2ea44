import cmath

import numpy as np
import pytest

from lrwp.classical import p_c, x_c
from lrwp.errors import (
    InvalidInvariantError,
)
from lrwp.fields import Grid1D, WaveField
from lrwp.forcing import ConstantForce, SinusoidalForce
from lrwp.invariant import InvariantSpec, PacketState, apply_invariant, coeffs_at, eigenvalue
from cross_checks import eigen_residual, phase_alpha

# frozen: trapezoid oracle of the alpha integrand for A0=1, B0=-i, zero force,
# lam=0, m=hbar=1; equals (i/2)·log(1+it) at t=1
ALPHA_1 = complex(-0.39269908169872414, 0.17328679513998632)

F_ZERO = ConstantForce(0.0)
F_CONST = ConstantForce(1.0)
F_SIN = SinusoidalForce(1.0, 2.0)


def _packet(spec, m=1.0, x0=0.0, p0=0.0):
    return PacketState(m=m, hbar=1.0, x0=x0, p0=p0, spec=spec)


class TestSpecValidation:
    def test_gtwp_mode(self):
        spec = InvariantSpec(1.0, -0.5j)
        assert spec.is_packet
        assert spec.F0 == -0.5j

    def test_plane_wave_mode(self):
        assert not InvariantSpec(1.0, 0j).is_packet

    def test_rejects_positive_imag(self):
        with pytest.raises(InvalidInvariantError, match=r"unphysical invariant: Im\(F0\) > 0"):
            InvariantSpec(1.0, 1j)

    def test_rejects_real_nonzero_ratio(self):
        with pytest.raises(InvalidInvariantError, match="divergent density"):
            InvariantSpec(1.0, 0.5 + 0j)

    def test_rejects_zero_A0(self):
        with pytest.raises(InvalidInvariantError, match="A0 = 0 selects position eigenfunctions"):
            InvariantSpec(0.0, 1.0)

    def test_nontrivial_A0_phase(self):
        # Im(F0) is what matters, not Im(B0)
        spec = InvariantSpec(1j, 1.0)  # F0 = 1/i = -i
        assert spec.is_packet


class TestCoefficients:
    def test_initial_condition(self):
        spec = InvariantSpec(0.7 + 0.1j, -0.3j, 0.4 + 0j)
        assert coeffs_at(spec, 1.0, F_SIN, 0.0) == (spec.A0, spec.B0, spec.C0)

    def test_zero_force(self):
        spec = InvariantSpec(1.0, -1j, 0.0)
        a, b, c = coeffs_at(spec, 1.0, F_ZERO, 2.0)
        assert a == 1 + 2j
        assert b == -1j
        assert c == 0

    def test_constant_force_derived(self):
        # C cross-checked against C0 − A0·∫F + (B0/m)·∫F·τ dτ by quadrature
        spec = InvariantSpec(1.0, -1j, 0.0)
        a, _, c = coeffs_at(spec, 1.0, F_CONST, 2.0)
        assert a == 1 + 2j
        assert c == pytest.approx(-2 - 2j, abs=1e-14)
        int_f = 2.0
        int_ft = 2.0
        assert c == pytest.approx(spec.C0 - spec.A0 * int_f + spec.B0 * int_ft, abs=1e-14)

    def test_a_over_a0(self):
        # A(t) = A0·(1 − F0·t/m) is the textbook A0 − (B0/m)·t
        spec = InvariantSpec(0.7 + 0.1j, 0.2 - 0.3j, 0.4 + 0j)
        for t in (0.0, 0.5, 3.0):
            a, _, _ = coeffs_at(spec, 1.5, F_SIN, t)
            assert a == spec.A0 * spec.a_ratio(1.5, t)
            assert a == pytest.approx(spec.A0 - spec.B0 / 1.5 * t, abs=1e-15)

    def test_B_constant_for_zero_B0(self):
        spec = InvariantSpec(2.0 + 1j, 0j)
        for t in (0.0, 0.5, 3.0):
            a, b, _ = coeffs_at(spec, 1.3, F_SIN, t)
            assert a == spec.A0  # plane-wave branch keeps A frozen
            assert b == 0


class TestEigenvalue:
    def test_momentum_eigenvalue(self):
        assert eigenvalue(_packet(InvariantSpec(1.0, 0j), p0=2.0)) == 2.0

    def test_direct_substitution(self):
        spec = InvariantSpec(1.0, -1j)
        assert eigenvalue(_packet(spec, x0=1.0, p0=2.0)) == 2 - 1j

    @pytest.mark.parametrize("q", [F_ZERO, F_CONST, F_SIN])
    def test_time_independence(self, q):
        spec = InvariantSpec(1.0 + 0.2j, 0.4 - 0.8j, 0.1 + 0.3j)
        state = _packet(spec, m=1.4, x0=0.6, p0=-0.8)
        lam = eigenvalue(state)
        for t in (0.0, 0.31, 1.7, 4.0):
            a, b, c = coeffs_at(spec, state.m, q, t)
            moving = a * p_c(state, q, t) + b * x_c(state, q, t) + c
            assert abs(moving - lam) < 1e-10 * max(1.0, abs(lam))


def test_derivation_identities():
    rng = np.random.default_rng(7)
    spec = InvariantSpec(0.9 - 0.2j, 0.5 - 0.7j, 0.2j)
    state = _packet(spec, m=1.8, x0=0.3, p0=0.9)
    lam = eigenvalue(state)
    h = 1e-5
    for t in rng.uniform(0.1, 5.0, size=20):
        a, _, c = coeffs_at(spec, state.m, F_SIN, t)
        pc = p_c(state, F_SIN, t)
        xc = x_c(state, F_SIN, t)
        assert abs((lam - c) / a - (pc + spec.B0 / a * xc)) < 1e-8

        ratio = lambda tt: spec.B0 / coeffs_at(spec, state.m, F_SIN, tt)[0]
        d_ratio = (ratio(t + h) - ratio(t - h)) / (2 * h)
        assert abs(d_ratio - spec.B0**2 / (state.m * a**2)) < 1e-8

        xc2 = lambda tt: float(x_c(state, F_SIN, tt)) ** 2
        d_xc2 = (xc2(t + h) - xc2(t - h)) / (2 * h)
        assert abs(d_xc2 - 2.0 / state.m * pc * xc) < 1e-8


def _gaussian_field(grid, k0=0.0):
    x = grid.points
    psi = np.exp(-(x**2) / 4.0 + 1j * k0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.spacing)
    return WaveField(grid=grid, t=0.0, values=psi)


class TestApplyInvariant:
    def test_plane_wave_momentum_operator(self):
        grid = Grid1D(-16.0, 16.0, 256)
        k0 = 2.0 * np.pi * 8 / 32.0  # exact grid wavenumber
        psi = np.exp(1j * k0 * grid.points)
        field = WaveField(grid=grid, t=0.0, values=psi)
        out = apply_invariant((1.0, 0.0, 0.0), field, hbar=1.0)
        np.testing.assert_allclose(out.values, k0 * psi, atol=1e-12)

    def test_gaussian_eigen_residual(self):
        from lrwp.wavepacket import matched_packet, sample_gtwp

        grid = Grid1D(-20.0, 20.0, 1024)
        packet = matched_packet(1.0, 1.0, 1.0)
        field = sample_gtwp(packet, F_ZERO, grid, 0.0)
        coeffs = coeffs_at(packet.spec, 1.0, F_ZERO, 0.0)
        lam = eigenvalue(packet)
        assert eigen_residual(coeffs, field, lam, 1.0) < 1e-6

    def test_against_finite_difference_oracle(self):
        # coeffs (A0=1, B0=1 is invalid: real ratio) -> use A=1, B=-i on a
        # non-eigenfunction x·gaussian and compare to a 4th-order stencil
        grid = Grid1D(-18.0, 18.0, 2048)
        x = grid.points
        psi = x * np.exp(-(x**2) / 2.0)
        field = WaveField(grid=grid, t=0.0, values=psi.astype(complex))
        out = apply_invariant((1.0, -1j, 0.0), field, hbar=1.0)
        dx = grid.spacing
        dpsi = (
            -np.roll(psi, -2) + 8 * np.roll(psi, -1) - 8 * np.roll(psi, 1) + np.roll(psi, 2)
        ) / (12 * dx)
        expected = -1j * dpsi + (-1j) * x * psi
        assert np.max(np.abs(out.values - expected)) < 1e-6


class TestPhaseAlpha:
    def test_free_plane_wave_phase(self):
        spec = InvariantSpec(1.0, 0j)
        state = _packet(spec, m=1.5, p0=0.8)
        lam = eigenvalue(state)  # = p0
        for t in (0.4, 2.0):
            val = phase_alpha(spec, state.m, F_ZERO, lam, 1.0, t)
            assert val == pytest.approx(-(0.8**2) * t / (2 * 1.5), abs=1e-12)

    def test_initial_value(self):
        spec = InvariantSpec(1.0, -0.3j, 0.2)
        val = phase_alpha(spec, 1.0, F_SIN, 0.5j, 1.0, 0.0, alpha0=1.25 - 0.5j)
        assert val == 1.25 - 0.5j

    def test_frozen_derived_value(self):
        spec = InvariantSpec(1.0, -1j)
        val = phase_alpha(spec, 1.0, F_ZERO, 0j, 1.0, 1.0)
        assert val == pytest.approx(ALPHA_1, abs=1e-9)
        assert val == pytest.approx(0.5j * cmath.log(1 + 1j), abs=1e-12)

    def test_against_trapezoid_oracle(self):
        spec = InvariantSpec(1.0, 0.4 - 0.9j, 0.1 - 0.2j)
        state = _packet(spec, m=1.3, x0=0.4, p0=0.6)
        lam = eigenvalue(state)
        t = 1.4
        val = phase_alpha(spec, state.m, F_CONST, lam, 1.0, t)
        tau = np.linspace(0.0, t, 200_001)
        a = spec.A0 - spec.B0 / state.m * tau
        g = F_CONST.g(tau)
        g1 = F_CONST.g1(tau)
        c = spec.C0 - a * g - spec.B0 / state.m * g1
        integrand = ((lam - c) ** 2 + 1j * spec.B0 * a) / (2.0 * state.m * a**2)
        oracle = -np.trapezoid(integrand, tau)
        assert abs(val - oracle) < 1e-9
