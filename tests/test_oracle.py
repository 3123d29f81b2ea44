import numpy as np
import pytest

from lrwp import oracle
from lrwp.errors import AliasingError, DegenerateFieldError, InstabilityError
from lrwp.fields import Grid1D, Space, WaveField, l2_error
from lrwp.forcing import (
    ConstantForce,
    ForceProfile,
    PiecewiseLinearForce,
    SinusoidalForce,
)
from lrwp.invariant import coeffs_at
from lrwp.oracle import (
    MAX_POINTS,
    MAX_STEPS,
    GridSpec,
    observables,
    propagate_cranknicolson,
    propagate_splitstep,
)
# exercised directly: unreachable via unitary runs
from lrwp.oracle import _check_boundary, _checked
from lrwp.wavepacket import matched_packet, sample_gtwp
from cross_checks import ehrenfest_check

M = HBAR = 1.0
PACKET = matched_packet(1.0, M, HBAR)


def _run(propagator, profile, spec, **kw):
    initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
    return list(propagator(initial, profile, M, HBAR, spec, **kw))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 128, 1e-3, 1.0)
        with pytest.raises(ValueError):
            GridSpec(-10.0, 10.0, 100, 1e-3, 1.0)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(-10.0, 10.0, 32, 1e-3, 1.0)  # too small
        with pytest.raises(ValueError):
            GridSpec(-10.0, 10.0, 128, 1e-3, 1.0005)  # not whole steps
        with pytest.raises(ValueError):
            GridSpec(-10.0, 10.0, 128, 1e-3, 1.0, output_every=3)  # 1000 % 3 != 0
        for dt in (1e-300, 1e-12, 1.0 / (MAX_STEPS + 1)):
            with pytest.raises(ValueError, match="above the limit"):
                GridSpec(-10.0, 10.0, 128, dt, 1.0)  # too many steps

    def test_point_limit(self):
        # constructing a GridSpec allocates nothing, so the limit itself is cheap to check
        assert GridSpec(-10.0, 10.0, MAX_POINTS, 1e-3, 1.0).n == MAX_POINTS
        with pytest.raises(ValueError):
            GridSpec(-10.0, 10.0, MAX_POINTS + 1, 1e-3, 1.0)
        with pytest.raises(ValueError, match=f"n = {2 * MAX_POINTS} points, above the limit"):
            GridSpec(-10.0, 10.0, 2 * MAX_POINTS, 1e-3, 1.0)  # the next power of two

    def test_n_steps(self):
        assert GridSpec(-10.0, 10.0, 128, 1e-3, 2.0).n_steps == 2000
        assert GridSpec(-10.0, 10.0, 128, 1e-7, 1.0).n_steps == MAX_STEPS


class TestSplitStep:
    def test_free_packet_error(self):
        # spectral kinetic step is exact for V = 0: only roundoff remains
        spec = GridSpec(-20.0, 20.0, 2048, 1e-3, 1.0, output_every=1000)
        frames = _run(propagate_splitstep, ConstantForce(0.0), spec)
        profile = ConstantForce(0.0)
        analytic = sample_gtwp(PACKET, profile, spec.grid, 1.0)
        assert l2_error(frames[-1], analytic) < 1e-6

    def test_second_order_in_dt(self):
        profile = SinusoidalForce(1.0, 2.0)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            spec = GridSpec(-20.0, 20.0, 1024, dt, 1.0, output_every=int(round(1.0 / dt)))
            frames = _run(propagate_splitstep, profile, spec)
            analytic = sample_gtwp(PACKET, profile, spec.grid, 1.0)
            errs.append(l2_error(frames[-1], analytic))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_norm_conserved(self):
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=100)
        for f in _run(propagate_splitstep, ConstantForce(1.0), spec):
            norm = np.sum(np.abs(f.values) ** 2) * f.grid.spacing
            assert abs(norm - 1.0) < 1e-12


class TestCrankNicolson:
    def test_cross_oracle_agreement(self):
        spec = GridSpec(-20.0, 20.0, 2048, 1e-3, 1.0, output_every=250)
        profile = ConstantForce(1.0)
        ss = _run(propagate_splitstep, profile, spec)
        cn = _run(propagate_cranknicolson, profile, spec)
        for a, b in zip(ss, cn):
            assert l2_error(b, a) < 1e-5

    def test_norm_conserved(self):
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=100)
        for f in _run(propagate_cranknicolson, ConstantForce(1.0), spec):
            norm = np.sum(np.abs(f.values) ** 2) * f.grid.spacing
            assert abs(norm - 1.0) < 1e-12

    def test_default_stencil_beats_classic(self):
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=1000)
        profile = ConstantForce(1.0)
        analytic = sample_gtwp(PACKET, profile, spec.grid, 1.0)
        err5 = l2_error(_run(propagate_cranknicolson, profile, spec)[-1], analytic)
        assert err5 < 1e-5


class TestGuards:
    def test_initial_must_be_normalized(self):
        spec = GridSpec(-20.0, 20.0, 256, 1e-3, 1e-3)
        profile = ConstantForce(0.0)
        bad = sample_gtwp(PACKET, profile, spec.grid, 0.0)
        bad = WaveField(grid=bad.grid, t=0.0, values=2.0 * bad.values, space=Space.POSITION)
        with pytest.raises(ValueError, match="normalized"):
            next(propagate_splitstep(bad, ConstantForce(0.0), M, HBAR, spec))

    def test_grid_mismatch(self):
        spec = GridSpec(-20.0, 20.0, 256, 1e-3, 1e-3)
        profile = ConstantForce(0.0)
        other = sample_gtwp(PACKET, profile, Grid1D(-10.0, 10.0, 256), 0.0)
        with pytest.raises(ValueError, match="grid"):
            next(propagate_splitstep(other, ConstantForce(0.0), M, HBAR, spec))

    def test_aliasing_error_when_packet_escapes(self):
        # strong constant force marches the packet into the wall
        profile = ConstantForce(4.0)
        spec = GridSpec(-8.0, 8.0, 256, 1e-3, 2.0, output_every=100)
        initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
        with pytest.raises(AliasingError):
            for _ in propagate_splitstep(initial, profile, M, HBAR, spec):
                pass

    def test_instability_guard_trips_on_norm_drift(self):
        grid = Grid1D(-10.0, 10.0, 256)
        x = grid.points
        psi = np.exp(-(x**2)) * 1.01
        field = WaveField(grid=grid, t=0.5, values=psi, space=Space.POSITION)
        with pytest.raises(InstabilityError):
            _checked(field, norm0=1.0)


class NanAfter(ForceProfile):
    """F = 1 up to t = 0.004, nan after it."""

    def force(self, t):
        return np.where(np.asarray(t, dtype=float) > 0.004, np.nan, 1.0)


class TestNonFinite:
    @pytest.mark.parametrize("propagator", [propagate_splitstep, propagate_cranknicolson])
    def test_nan_force_raises_at_the_step_it_appears(self, propagator):
        # split-step kicks with F(0.005) at the end of step 5, CN samples F(0.0045) in it
        spec = GridSpec(-20.0, 20.0, 256, 1e-3, 0.01)
        initial = sample_gtwp(PACKET, ConstantForce(1.0), spec.grid, 0.0)
        frames = propagator(initial, NanAfter(), M, HBAR, spec)
        with pytest.raises(InstabilityError, match=r"^non-finite field at t=0\.005$"):
            for f in frames:
                assert f.t < 0.0045

    def test_guards_reject_nan(self):
        with pytest.raises(InstabilityError, match="non-finite"):
            _check_boundary(np.array([0.0, np.nan]), 0.5)
        with pytest.raises(InstabilityError, match="non-finite"):
            _check_boundary(np.array([np.inf, 1.0]), 0.5)  # not an aliasing report
        grid = Grid1D(-10.0, 10.0, 256)
        psi = np.exp(-(grid.points**2)).astype(complex)
        psi[128] = np.nan  # the boundary is clean, the norm is not
        field = WaveField(grid=grid, t=0.5, values=psi, space=Space.POSITION)
        with pytest.raises(InstabilityError, match="norm drift nan"):
            _checked(field, norm0=1.0)


class TestFactorOnChange:
    SPEC = GridSpec(-20.0, 20.0, 256, 1e-3, 0.5, output_every=100)

    def _factorizations(self, monkeypatch, profile):
        calls = []
        factor = oracle.zgbtrf

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(oracle, "zgbtrf", counting)
        _run(propagate_cranknicolson, profile, self.SPEC)
        return len(calls)

    @pytest.mark.parametrize("profile", [ConstantForce(1.0), ConstantForce(0.0)], ids=repr)
    def test_constant_force_factors_once(self, monkeypatch, profile):
        assert self._factorizations(monkeypatch, profile) == 1

    def test_sinusoidal_force_factors_every_step(self, monkeypatch):
        count = self._factorizations(monkeypatch, SinusoidalForce(1.0, 2.0, 0.3))
        assert count == self.SPEC.n_steps

    @pytest.mark.parametrize("block", [oracle.FORCE_BLOCK, 7])
    def test_flat_then_sloped_force_factors_once_per_sloped_step(self, monkeypatch, block):
        monkeypatch.setattr(oracle, "FORCE_BLOCK", block)
        profile = PiecewiseLinearForce(((0.0, 1.0), (0.25, 1.0), (0.5, 0.5)))
        t_mid = (np.arange(self.SPEC.n_steps) + 0.5) * self.SPEC.dt
        sloped = int(np.sum(t_mid > 0.25))
        assert sloped == 250
        assert self._factorizations(monkeypatch, profile) == 1 + sloped

    @pytest.mark.parametrize("propagator", [propagate_splitstep, propagate_cranknicolson])
    def test_force_block_seams_change_nothing(self, monkeypatch, propagator):
        # blocks of 7 steps put seams inside both the flat and the sloped segment
        profile = PiecewiseLinearForce(((0.0, 1.0), (0.25, 1.0), (0.5, 0.5)))
        initial = sample_gtwp(PACKET, profile, self.SPEC.grid, 0.0)
        whole = list(propagator(initial, profile, M, HBAR, self.SPEC))
        monkeypatch.setattr(oracle, "FORCE_BLOCK", 7)
        blocks = list(propagator(initial, profile, M, HBAR, self.SPEC))
        assert [f.values.tobytes() for f in whole] == [f.values.tobytes() for f in blocks]

    @pytest.mark.parametrize("propagator", [propagate_splitstep, propagate_cranknicolson])
    def test_constant_and_flat_piecewise_give_the_same_bytes(self, propagator):
        initial = sample_gtwp(PACKET, ConstantForce(0.0), self.SPEC.grid, 0.0)
        flat = PiecewiseLinearForce(((0.0, 0.7), (self.SPEC.t_max, 0.7)))
        a = list(propagator(initial, ConstantForce(0.7), M, HBAR, self.SPEC))
        b = list(propagator(initial, flat, M, HBAR, self.SPEC))
        assert len(a) == len(b) == 6
        for fa, fb in zip(a, b):
            assert fa.t == fb.t
            assert fa.values.tobytes() == fb.values.tobytes()


class TestObservables:
    def test_matched_gaussian_moments(self):
        packet = matched_packet(1.0, M, HBAR, x0=1.5, p0=0.7)
        profile = ConstantForce(0.0)
        grid = Grid1D(-20.0, 20.0, 2048)
        field = sample_gtwp(packet, profile, grid, 0.0)
        rec = observables(field, M, HBAR, coeffs_at(packet.spec, M, profile, 0.0))
        assert abs(rec.x_mean - 1.5) < 1e-8
        assert abs(rec.p_mean - 0.7) < 1e-8
        assert abs(rec.dx - 1.0) < 1e-8
        assert abs(rec.dp - 0.5) < 1e-8
        assert rec.norm == pytest.approx(1.0, abs=1e-12)

    def test_invariant_expectation_constant_over_run(self):
        profile = ConstantForce(1.0)
        packet = matched_packet(1.0, M, HBAR, x0=0.3, p0=-0.4)
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=200)
        initial = sample_gtwp(packet, profile, spec.grid, 0.0)
        recs = [
            observables(f, M, HBAR, coeffs_at(packet.spec, M, profile, f.t))
            for f in propagate_splitstep(initial, profile, M, HBAR, spec)
        ]
        lam = recs[0].inv_expect
        scale = max(1.0, abs(lam))
        for r in recs[1:]:
            assert abs(r.inv_expect - lam) / scale < 1e-6

    def test_center_follows_classical_trajectory(self):
        profile = SinusoidalForce(1.0, 2.0)
        packet = matched_packet(1.0, M, HBAR, x0=0.5, p0=-0.3)
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=100)
        initial = sample_gtwp(packet, profile, spec.grid, 0.0)
        from lrwp.classical import p_c, x_c

        for f in propagate_splitstep(initial, profile, M, HBAR, spec):
            rec = observables(f, M, HBAR, coeffs_at(packet.spec, M, profile, f.t))
            assert abs(rec.x_mean - float(x_c(packet, profile, f.t))) < 1e-6
            assert abs(rec.p_mean - float(p_c(packet, profile, f.t))) < 1e-6

    def test_uncertainty_floor(self):
        profile = ConstantForce(1.0)
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=200)
        initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
        for f in propagate_splitstep(initial, profile, M, HBAR, spec):
            rec = observables(f, M, HBAR, coeffs_at(PACKET.spec, M, profile, f.t))
            assert rec.dxdp >= 0.5 - 1e-9

    def test_degenerate_field(self):
        grid = Grid1D(-10.0, 10.0, 128)
        zero = WaveField(grid=grid, t=0.0, values=np.zeros(128), space=Space.POSITION)
        with pytest.raises(DegenerateFieldError):
            observables(zero, M, HBAR, (1.0, 0.0, 0.0))


class TestEhrenfest:
    def _records(self, profile, output_every=10, t_max=1.0, n=1024):
        spec = GridSpec(-20.0, 20.0, n, 1e-3, t_max, output_every=output_every)
        initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
        return [
            observables(f, M, HBAR, coeffs_at(PACKET.spec, M, profile, f.t))
            for f in propagate_splitstep(initial, profile, M, HBAR, spec)
        ]

    def test_zero_force(self):
        rep = ehrenfest_check(self._records(ConstantForce(0.0)), ConstantForce(0.0), M)
        assert rep.max_dev_x < 1e-8
        assert rep.max_dev_p < 1e-8

    def test_constant_force(self):
        profile = ConstantForce(1.0)
        rep = ehrenfest_check(self._records(profile), profile, M)
        assert rep.max_dev_p < 1e-8

    def test_sinusoidal_force(self):
        profile = SinusoidalForce(1.0, 2.0)
        rep = ehrenfest_check(self._records(profile, output_every=2), profile, M)
        assert rep.max_dev_p < 1e-5
        assert rep.max_dev_x < 1e-5

    def test_needs_uniform_records(self):
        recs = self._records(ConstantForce(0.0), output_every=250)
        with pytest.raises(ValueError):
            ehrenfest_check(recs[:2], ConstantForce(0.0), M)
