import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from lrwp import oracle
from lrwp.errors import AliasingError, DegenerateFieldError, InstabilityError
from lrwp.fields import Grid1D, WaveField, field_norm, l2_error
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
from batch_of_one import propagate_one
from cross_checks import ehrenfest_check

M = HBAR = 1.0
PACKET = matched_packet(1.0, M, HBAR)


def _run(propagator, profile, spec, **kw):
    initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
    return list(propagate_one(propagator, initial, profile, M, HBAR, spec, **kw))


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

    def test_step_count_need_be_whole_only_to_rounding(self):
        # 0.3 / 0.1 and 2.2 / 1e-6 miss a whole number by 4.4e-16 and 4.7e-10
        assert GridSpec(-10.0, 10.0, 128, 0.1, 0.3).n_steps == 3
        assert GridSpec(-10.0, 10.0, 128, 1e-6, 2.2).n_steps == 2_200_000

    def test_step_count_off_by_its_tolerance_is_refused(self):
        # 19050.999980949 misses 19051 by 1.9051e-5, a hair over 1e-9 of the step count
        with pytest.raises(ValueError, match="integer number of steps"):
            GridSpec(-10.0, 10.0, 128, 1.0, 19050.999980949)
        assert GridSpec(-10.0, 10.0, 128, 1.0, 19050.99998096).n_steps == 19051

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

    @pytest.mark.parametrize("m, hbar", [(1.5, 0.7), (0.8, 2.0)])
    def test_matches_the_packet_at_any_m_and_hbar(self, m, hbar):
        # every other oracle test runs at m = ħ = 1, where ħ, 1/ħ and 2^ħ agree
        profile = SinusoidalForce(1.0, 2.0, 0.3)
        packet = matched_packet(1.0, m, hbar, x0=0.4, p0=-0.3)
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=500)
        initial = sample_gtwp(packet, profile, spec.grid, 0.0)
        for f in propagate_one(propagate_cranknicolson, initial, profile, m, hbar, spec):
            assert l2_error(f, sample_gtwp(packet, profile, spec.grid, f.t)) < 1e-5

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
        bad = WaveField(grid=bad.grid, t=0.0, values=2.0 * bad.values)
        with pytest.raises(InstabilityError, match="normalized"):
            next(propagate_one(propagate_splitstep, bad, ConstantForce(0.0), M, HBAR, spec))

    @pytest.mark.parametrize("excess", [0.995e-8, -0.995e-8, 1.005e-8, -1.005e-8])
    def test_initial_norm_window(self, excess):
        spec = GridSpec(-20.0, 20.0, 256, 1e-3, 1e-3)
        field = sample_gtwp(PACKET, ConstantForce(0.0), spec.grid, 0.0)
        values = field.values * np.sqrt((1.0 + excess) / field_norm(field) ** 2)
        scaled = WaveField(grid=spec.grid, t=0.0, values=values)
        frames = propagate_one(propagate_splitstep, scaled, ConstantForce(0.0), M, HBAR, spec)
        if abs(excess) < oracle.INITIAL_NORM_TOL:
            assert len(list(frames)) == 2
        else:
            with pytest.raises(InstabilityError, match="normalized"):
                next(frames)

    def test_grid_mismatch(self):
        spec = GridSpec(-20.0, 20.0, 256, 1e-3, 1e-3)
        profile = ConstantForce(0.0)
        other = sample_gtwp(PACKET, profile, Grid1D(-10.0, 10.0, 256), 0.0)
        with pytest.raises(ValueError, match="grid"):
            next(propagate_one(propagate_splitstep, other, ConstantForce(0.0), M, HBAR, spec))

    def test_aliasing_error_when_packet_escapes(self):
        # strong constant force marches the packet into the wall
        profile = ConstantForce(4.0)
        spec = GridSpec(-8.0, 8.0, 256, 1e-3, 2.0, output_every=100)
        initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
        with pytest.raises(AliasingError):
            for _ in propagate_one(propagate_splitstep, initial, profile, M, HBAR, spec):
                pass

    def test_drift_is_measured_from_the_initial_norm_whatever_it_is(self):
        grid = Grid1D(-10.0, 10.0, 256)
        field = WaveField(grid=grid, t=0.5, values=1e3 * np.exp(-(grid.points**2)))
        assert _checked(field, norm0=field_norm(field) ** 2) is field

    def test_instability_guard_trips_on_norm_drift(self):
        grid = Grid1D(-10.0, 10.0, 256)
        x = grid.points
        psi = np.exp(-(x**2)) * 1.01
        field = WaveField(grid=grid, t=0.5, values=psi)
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
        frames = propagate_one(propagator, initial, NanAfter(), M, HBAR, spec)
        with pytest.raises(InstabilityError, match=r"^non-finite field at t=0\.005$"):
            for f in frames:
                assert f.t < 0.0045

    def test_an_edge_of_exactly_the_tolerance_passes(self):
        _check_boundary(np.array([oracle.BOUNDARY_TOL, 0.0, oracle.BOUNDARY_TOL]), 0.5)
        with pytest.raises(AliasingError):
            _check_boundary(np.array([0.0, np.nextafter(oracle.BOUNDARY_TOL, 1.0)]), 0.5)

    def test_huge_finite_edges_are_aliasing_not_non_finite(self):
        # |ψ| = 1e308 at both edges: the sum of the two overflows, the edges do not
        with pytest.raises(AliasingError, match=r"boundary amplitude 1\.000e\+308"):
            _check_boundary(np.array([1e308, 0.0, 1e308]), 0.5)

    def test_guards_reject_nan(self):
        with pytest.raises(InstabilityError, match="non-finite"):
            _check_boundary(np.array([0.0, np.nan]), 0.5)
        with pytest.raises(InstabilityError, match="non-finite"):
            _check_boundary(np.array([np.inf, 1.0]), 0.5)  # not an aliasing report
        grid = Grid1D(-10.0, 10.0, 256)
        psi = np.exp(-(grid.points**2)).astype(complex)
        psi[128] = np.nan  # the boundary is clean, the norm is not
        field = WaveField(grid=grid, t=0.5, values=psi)
        with pytest.raises(InstabilityError, match="norm drift nan"):
            _checked(field, norm0=1.0)


class TestFactorOnChange:
    SPEC = GridSpec(-20.0, 20.0, 256, 1e-3, 0.5, output_every=100)

    def _factorizations(self, monkeypatch, profile):
        calls = []
        factor = lapack.zgbtrf

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(lapack, "zgbtrf", counting)
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
        whole = list(propagate_one(propagator, initial, profile, M, HBAR, self.SPEC))
        monkeypatch.setattr(oracle, "FORCE_BLOCK", 7)
        blocks = list(propagate_one(propagator, initial, profile, M, HBAR, self.SPEC))
        assert [f.values.tobytes() for f in whole] == [f.values.tobytes() for f in blocks]

    @pytest.mark.parametrize("propagator", [propagate_splitstep, propagate_cranknicolson])
    def test_constant_and_flat_piecewise_give_the_same_bytes(self, propagator):
        initial = sample_gtwp(PACKET, ConstantForce(0.0), self.SPEC.grid, 0.0)
        flat = PiecewiseLinearForce(((0.0, 0.7), (self.SPEC.t_max, 0.7)))
        a = list(propagate_one(propagator, initial, ConstantForce(0.7), M, HBAR, self.SPEC))
        b = list(propagate_one(propagator, initial, flat, M, HBAR, self.SPEC))
        assert len(a) == len(b) == 6
        for fa, fb in zip(a, b):
            assert fa.t == fb.t
            assert fa.values.tobytes() == fb.values.tobytes()


def _random_fields(rng, grid, k):
    """k normalized Gaussian-enveloped fields with random centers, momenta, widths and a
    random smooth ripple (smooth, so that no grid momentum runs into the wall)."""
    x = grid.points
    fields = []
    for _ in range(k):
        x0, p0, width = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(0.7, 1.5)
        ripple = 0.3 * np.exp(2j * np.pi * rng.uniform()) * np.cos(rng.uniform(0.5, 2.0) * x)
        values = (1.0 + ripple) * np.exp(-((x - x0) ** 2) / (4.0 * width**2) + 1j * p0 * x)
        values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.spacing)
        fields.append(WaveField(grid=grid, t=0.0, values=values))
    return fields


def _same(a, b):
    """Two snapshot entries are one field to the bit, or one error with one message."""
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a.t == b.t and a.values.tobytes() == b.values.tobytes()


class TestBatch:
    SPEC = GridSpec(-30.0, 30.0, 256, 1e-3, 0.2, output_every=50)

    @pytest.mark.parametrize("propagator", [propagate_splitstep, propagate_cranknicolson])
    @pytest.mark.parametrize("profile", [SinusoidalForce(1.0, 2.0, 0.3), ConstantForce(0.7)],
                             ids=repr)
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_a_batch_is_its_single_propagations_bit_for_bit(self, propagator, profile, k):
        fields = _random_fields(np.random.default_rng(k), self.SPEC.grid, k)
        batch = list(propagator(fields, profile, M, HBAR, self.SPEC))
        alone = [list(propagator([f], profile, M, HBAR, self.SPEC)) for f in fields]
        assert len(batch) == len(self.SPEC.snapshot_steps)
        for s, entries in enumerate(batch):
            assert len(entries) == k
            for i, entry in enumerate(entries):
                assert isinstance(entry, WaveField)
                assert _same(entry, alone[i][s][0])

    def test_one_factorization_per_force_change_for_the_whole_batch(self, monkeypatch):
        calls = []
        factor = lapack.zgbtrf
        monkeypatch.setattr(lapack, "zgbtrf", lambda *a, **kw: calls.append(1) or factor(*a, **kw))
        fields = _random_fields(np.random.default_rng(0), self.SPEC.grid, 4)
        list(propagate_cranknicolson(fields, SinusoidalForce(1.0, 2.0), M, HBAR, self.SPEC))
        assert len(calls) == self.SPEC.n_steps

    @pytest.mark.parametrize("propagator", [propagate_splitstep, propagate_cranknicolson])
    def test_a_failing_row_stops_alone(self, propagator):
        grid = self.SPEC.grid
        good, other = _random_fields(np.random.default_rng(7), grid, 2)
        # launched at x = 23 with p = 5, it reaches the wall at x = 30 mid-run
        escaping = sample_gtwp(matched_packet(0.7, M, HBAR, x0=23.0, p0=5.0),
                               ConstantForce(0.0), grid, 0.0)
        unnormalized = WaveField(grid=grid, t=0.0, values=2.0 * good.values)
        nan_edge = good.values.copy()
        nan_edge[0] = np.nan
        nan_inside = good.values.copy()
        nan_inside[128] = np.nan  # the edges are clean, the norm is not
        fields = [good, escaping, unnormalized,
                  WaveField(grid=grid, t=0.0, values=nan_edge),
                  WaveField(grid=grid, t=0.0, values=nan_inside), other]
        profile = SinusoidalForce(1.0, 2.0, 0.3)
        batch = list(propagator(fields, profile, M, HBAR, self.SPEC))
        alone = [list(propagator([f], profile, M, HBAR, self.SPEC)) for f in fields]
        for s, entries in enumerate(batch):
            for i, entry in enumerate(entries):
                assert _same(entry, alone[i][s][0])
        final = batch[-1]
        assert [type(e).__name__ for e in final] == [
            "WaveField", "AliasingError", "InstabilityError", "InstabilityError",
            "InstabilityError", "WaveField",
        ]
        assert isinstance(batch[1][1], AliasingError)  # stopped between two snapshots
        assert isinstance(batch[0][1], WaveField)
        assert str(final[2]) == "initial field must be normalized, its norm is 4"
        assert str(final[3]) == "non-finite field at t=0"
        assert str(final[4]) == "norm drift nan at t=0"

    def test_a_singular_matrix_stops_every_row(self, monkeypatch):
        factor = lapack.zgbtrf

        def singular_at_step_3(*args, **kwargs):
            lu, piv, info = factor(*args, **kwargs)
            singular_at_step_3.calls += 1
            return lu, piv, (1 if singular_at_step_3.calls == 3 else info)

        singular_at_step_3.calls = 0
        monkeypatch.setattr(lapack, "zgbtrf", singular_at_step_3)
        fields = _random_fields(np.random.default_rng(3), self.SPEC.grid, 3)
        spec = GridSpec(-30.0, 30.0, 256, 1e-3, 0.01, output_every=1)
        batch = list(propagate_cranknicolson(fields, SinusoidalForce(1.0, 2.0), M, HBAR, spec))
        assert len(batch) == 11
        assert all(isinstance(e, WaveField) for entries in batch[:3] for e in entries)
        for entries in batch[3:]:
            assert [str(e) for e in entries] == ["singular Crank–Nicolson matrix at t=0.003"] * 3
        assert singular_at_step_3.calls == 3  # a stopped batch factors no more


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
            for f in propagate_one(propagate_splitstep, initial, profile, M, HBAR, spec)
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

        for f in propagate_one(propagate_splitstep, initial, profile, M, HBAR, spec):
            rec = observables(f, M, HBAR, coeffs_at(packet.spec, M, profile, f.t))
            assert abs(rec.x_mean - float(x_c(packet, profile, f.t))) < 1e-6
            assert abs(rec.p_mean - float(p_c(packet, profile, f.t))) < 1e-6

    def test_uncertainty_floor(self):
        profile = ConstantForce(1.0)
        spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=200)
        initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
        for f in propagate_one(propagate_splitstep, initial, profile, M, HBAR, spec):
            rec = observables(f, M, HBAR, coeffs_at(PACKET.spec, M, profile, f.t))
            assert rec.dxdp >= 0.5 - 1e-9

    def test_norm_of_an_unnormalized_field(self):
        grid = Grid1D(-10.0, 10.0, 256)
        values = 2.0 * np.exp(-(grid.points**2) / 2.0).astype(complex)
        field = WaveField(grid=grid, t=0.0, values=values)
        rec = observables(field, M, HBAR, (1.0, 0.0, 0.0))
        assert rec.norm == pytest.approx(np.sum(np.abs(values) ** 2) * grid.spacing, rel=1e-14)
        assert rec.norm == pytest.approx(4.0 * np.sqrt(np.pi), rel=1e-12)

    def test_record_needs_a_positive_norm_and_allows_zero_widths(self):
        record = dict(t=0.0, norm=1.0, x_mean=0.0, p_mean=0.0, dx=0.0, dp=0.0, dxdp=0.0,
                      inv_expect=0j)
        assert oracle.ObservableRecord(**record).dx == 0.0
        with pytest.raises(DegenerateFieldError):
            oracle.ObservableRecord(**{**record, "norm": 0.0})
        for key in ("dx", "dp"):
            with pytest.raises(ValueError, match="negative"):
                oracle.ObservableRecord(**{**record, key: -1e-300})

    def test_degenerate_field(self):
        grid = Grid1D(-10.0, 10.0, 128)
        zero = WaveField(grid=grid, t=0.0, values=np.zeros(128))
        with pytest.raises(DegenerateFieldError):
            observables(zero, M, HBAR, (1.0, 0.0, 0.0))


class TestEhrenfest:
    def _records(self, profile, output_every=10, t_max=1.0, n=1024):
        spec = GridSpec(-20.0, 20.0, n, 1e-3, t_max, output_every=output_every)
        initial = sample_gtwp(PACKET, profile, spec.grid, 0.0)
        return [
            observables(f, M, HBAR, coeffs_at(PACKET.spec, M, profile, f.t))
            for f in propagate_one(propagate_splitstep, initial, profile, M, HBAR, spec)
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
