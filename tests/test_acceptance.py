"""Acceptance suite: every exit criterion at its stated tolerance.

Benchmark B1: m = hbar = 1, constant force 1, matched Gaussian sigma = 1
(F0 = -i/2), x0 = p0 = 0, box [-20, 20], n = 2048, dt = 1e-3, t_max = 2.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time

import numpy as np
import pytest

from lrwp.classical import p_c, x_c
from lrwp.config import parse_config
from lrwp.errors import ConfigError
from lrwp.fields import field_norm, l2_error
from lrwp.forcing import ConstantForce, SinusoidalForce
from lrwp.invariant import PacketState, coeffs_at, eigenvalue
from lrwp.oracle import (
    GridSpec,
    observables,
    propagate_cranknicolson,
    propagate_splitstep,
)
from lrwp.runner import run_validate
from lrwp.wavepacket import (
    InvariantSpec,
    delta_p,
    delta_x,
    fourier_bridge,
    gaussian_phi0,
    gtwp_psi,
    matched_packet,
    min_uncertainty_time,
    sample_gaussian_momentum,
    sample_gtwp,
    uncertainty_product,
)
from lrwp.fields import conjugate_momentum_grid
from batch_of_one import propagate_one
from cross_checks import eigen_residual, ehrenfest_check, plane_wave_superposition

M = HBAR = 1.0
B1_FORCE = ConstantForce(1.0)
B1_GRID = GridSpec(-20.0, 20.0, 2048, 1e-3, 2.0, output_every=10)
B1_PACKET = matched_packet(1.0, M, HBAR)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


class B1Run:
    """Both oracles on B1, with per-snapshot records against the closed form."""

    def __init__(self, dt: float, output_every: int):
        grid_spec = GridSpec(-20.0, 20.0, 2048, dt, 2.0, output_every=output_every)
        self.grid_spec = grid_spec
        grid = grid_spec.grid
        initial = sample_gtwp(B1_PACKET, B1_FORCE, grid, 0.0)
        start = time.perf_counter()
        ss = propagate_one(propagate_splitstep, initial, B1_FORCE, M, HBAR, grid_spec)
        cn = propagate_one(propagate_cranknicolson, initial, B1_FORCE, M, HBAR, grid_spec)
        self.records = []
        self.l2_ss = []
        self.l2_cn = []
        self.cross = []
        self.norms_ss = []
        self.norms_cn = []
        self.times = []
        for f_ss, f_cn in zip(ss, cn):
            t = f_ss.t
            analytic = sample_gtwp(B1_PACKET, B1_FORCE, grid, t)
            coeffs = coeffs_at(B1_PACKET.spec, M, B1_FORCE, t)
            self.records.append(observables(f_ss, M, HBAR, coeffs))
            self.l2_ss.append(l2_error(f_ss, analytic))
            self.l2_cn.append(l2_error(f_cn, analytic))
            self.cross.append(l2_error(f_cn, f_ss))
            self.norms_ss.append(field_norm(f_ss) ** 2)
            self.norms_cn.append(field_norm(f_cn) ** 2)
            self.times.append(t)
        self.elapsed = time.perf_counter() - start


@pytest.fixture(scope="module")
def b1():
    return B1Run(dt=1e-3, output_every=10)


@pytest.fixture(scope="module")
def b1_coarse():
    return B1Run(dt=2e-3, output_every=1000)


def test_criterion_01_analytic_vs_numeric(b1):
    worst_ss = max(b1.l2_ss)
    worst_cn = max(b1.l2_cn)
    ok = worst_ss < 1e-4 and worst_cn < 1e-4 and b1.elapsed < 60.0
    _report(
        1,
        "analytic-vs-numeric equivalence on B1",
        ok,
        f"max L2 split-step {worst_ss:.3e}, crank-nicolson {worst_cn:.3e}, "
        f"runtime {b1.elapsed:.1f}s",
    )


def test_criterion_02_invariant_constancy(b1):
    lam = eigenvalue(B1_PACKET)
    spec = B1_PACKET.spec
    scale = max(
        abs(lam), abs(spec.A0) * delta_p(B1_PACKET) + abs(spec.B0) * delta_x(B1_PACKET, 0.0)
    )
    inv0 = b1.records[0].inv_expect
    drift = max(abs(r.inv_expect - inv0) for r in b1.records) / scale

    pk = B1_PACKET
    worst_identity = 0.0
    for t in np.linspace(0.0, 2.0, 100):
        a, b, c = coeffs_at(spec, M, B1_FORCE, float(t))
        moving = a * p_c(pk, B1_FORCE, float(t)) + b * x_c(pk, B1_FORCE, float(t)) + c
        worst_identity = max(worst_identity, abs(moving - lam))
    ok = drift < 1e-6 and worst_identity <= 1e-10 * max(1.0, abs(lam))
    _report(
        2,
        "invariant constancy",
        ok,
        f"numeric <I> drift {drift:.3e}, analytic identity residual {worst_identity:.3e}",
    )


def test_criterion_03_eigenfunction_residual(b1):
    # stated at 10 times in [0, 2]; checked here at every output time of the
    # validation run, which subsumes that
    lam = eigenvalue(B1_PACKET)
    grid = B1_GRID.grid
    worst = 0.0
    for t in b1.times:
        field = sample_gtwp(B1_PACKET, B1_FORCE, grid, float(t))
        coeffs = coeffs_at(B1_PACKET.spec, M, B1_FORCE, float(t))
        worst = max(worst, eigen_residual(coeffs, field, lam, HBAR))
    _report(
        3,
        "eigenfunction residual",
        worst < 1e-6,
        f"max residual {worst:.3e} over {len(b1.times)} output times",
    )


def test_criterion_04_uncertainty_laws(b1):
    worst_dx = max(
        abs(r.dx - delta_x(B1_PACKET, r.t)) for r in b1.records
    )
    worst_dp = max(abs(r.dp - delta_p(B1_PACKET)) for r in b1.records)
    floor_ok = all(r.dxdp >= 0.5 * HBAR - 1e-9 for r in b1.records)
    spec = InvariantSpec(1.0, complex(0.5, -0.5))  # F0 = (1-i)/2, t* = Re(m/F0) = 1
    pk = PacketState(M, HBAR, 0.0, 0.0, spec=spec)
    t_star = min_uncertainty_time(pk, 3.0)
    ok = worst_dx < 1e-6 and worst_dp < 1e-6 and floor_ok and abs(t_star - 1.0) < 1e-8
    _report(
        4,
        "uncertainty laws",
        ok,
        f"grid dx dev {worst_dx:.3e}, dp dev {worst_dp:.3e}, "
        f"floor {'held' if floor_ok else 'broken'}, t* dev {abs(t_star - 1.0):.3e}",
    )


def test_criterion_05_momentum_route_equality(b1):
    grid = B1_GRID.grid
    pgrid = conjugate_momentum_grid(grid, HBAR)
    worst = 0.0
    for t in (0.0, 0.5, 1.0, 2.0):
        phi = sample_gaussian_momentum(B1_PACKET, 1.0, B1_FORCE, pgrid, t)
        bridged = fourier_bridge(phi, HBAR, position_grid=grid)
        direct = sample_gtwp(B1_PACKET, B1_FORCE, grid, t)
        worst = max(worst, float(np.max(np.abs(bridged.values - direct.values))))
    _report(5, "momentum-route equality", worst < 1e-8, f"max pointwise gap {worst:.3e}")


def test_criterion_06_ehrenfest(b1):
    rep_b1 = ehrenfest_check(b1.records, B1_FORCE, M)
    profile = SinusoidalForce(1.0, 2.0)
    spec = GridSpec(-20.0, 20.0, 1024, 1e-3, 1.0, output_every=2)
    initial = sample_gtwp(B1_PACKET, profile, spec.grid, 0.0)
    records = [
        observables(f, M, HBAR, coeffs_at(B1_PACKET.spec, M, profile, f.t))
        for f in propagate_one(propagate_splitstep, initial, profile, M, HBAR, spec)
    ]
    rep_sin = ehrenfest_check(records, profile, M)
    worst = max(rep_b1.max_dev_x, rep_b1.max_dev_p, rep_sin.max_dev_x, rep_sin.max_dev_p)
    _report(
        6,
        "ehrenfest consistency",
        worst < 1e-5,
        f"B1 devs ({rep_b1.max_dev_x:.2e}, {rep_b1.max_dev_p:.2e}), "
        f"sinusoidal ({rep_sin.max_dev_x:.2e}, {rep_sin.max_dev_p:.2e})",
    )


def test_criterion_07_free_particle_reduction():
    sigma, bigT = 1.0, 2.0
    packet = B1_PACKET
    profile = ConstantForce(0.0)
    worst_analytic = max(
        abs(delta_x(packet, float(t)) - sigma * np.sqrt(1 + (t / bigT) ** 2))
        for t in np.linspace(0.0, 2.0, 41)
    )
    spec = GridSpec(-20.0, 20.0, 2048, 1e-3, 2.0, output_every=200)
    initial = sample_gtwp(packet, profile, spec.grid, 0.0)
    worst_grid = 0.0
    for f in propagate_one(propagate_splitstep, initial, ConstantForce(0.0), M, HBAR, spec):
        rec = observables(f, M, HBAR, coeffs_at(packet.spec, M, profile, f.t))
        law = sigma * np.sqrt(1 + (f.t / bigT) ** 2)
        worst_grid = max(worst_grid, abs(rec.dx - law))
    ok = worst_analytic < 1e-8 and worst_grid < 1e-6
    _report(
        7,
        "free-particle spreading law",
        ok,
        f"analytic dev {worst_analytic:.3e}, grid dev {worst_grid:.3e}",
    )


def test_criterion_08_physicality_gate():
    rejected_pos = rejected_real = False
    msg_pos = msg_real = ""
    try:
        parse_config("[packet]\nF0 = +i\n")
    except ConfigError as exc:
        rejected_pos = "unphysical invariant: Im(F0) > 0" in str(exc)
        msg_pos = str(exc)
    try:
        parse_config("[packet]\nF0 = 0.5\n")
    except ConfigError as exc:
        rejected_real = "divergent density" in str(exc)
        msg_real = str(exc)
    ok = rejected_pos and rejected_real
    _report(8, "physicality gate", ok, f"{msg_pos!r}; {msg_real!r}")


def test_criterion_09_superposition_consistency():
    packet = B1_PACKET
    profile = ConstantForce(0.0)
    x = B1_GRID.grid.points
    p0s = np.linspace(-6.0, 6.0, 257)
    worst = 0.0
    for t in (0.0, 1.0, 2.0):
        total = plane_wave_superposition(
            M, HBAR, profile, lambda p: gaussian_phi0(1.0, 0.0, 0.0, HBAR, p), p0s, x, t
        )
        direct = gtwp_psi(packet, profile, x, t)
        worst = max(worst, np.linalg.norm(total - direct) / np.linalg.norm(direct))
    _report(9, "plane-wave superposition rebuilds the packet", worst < 1e-6, f"L2 {worst:.3e}")


def test_criterion_10_oracle_quality(b1, b1_coarse):
    ratio_ss = b1_coarse.l2_ss[-1] / b1.l2_ss[-1]
    ratio_cn = b1_coarse.l2_cn[-1] / b1.l2_cn[-1]
    cross = max(b1.cross)
    drift = max(
        max(abs(n - 1.0) for n in b1.norms_ss), max(abs(n - 1.0) for n in b1.norms_cn)
    )
    ok = (
        3.6 <= ratio_ss <= 4.4
        and 3.6 <= ratio_cn <= 4.4
        and cross < 1e-5
        and drift < 1e-10
    )
    _report(
        10,
        "oracle quality",
        ok,
        f"Richardson ratios split-step {ratio_ss:.2f}, crank-nicolson {ratio_cn:.2f}; "
        f"cross-oracle L2 {cross:.3e}; norm drift {drift:.3e}",
    )


def test_b1_validate_run_passes_thresholds(tmp_path):
    # the CLI-level gate on B1 must agree with the criteria above
    cfg = parse_config(
        "[force]\nkind = constant\namplitude = 1\n[run]\nmode = validate\n"
    )
    summary = run_validate(cfg, tmp_path)
    assert summary.violations == []
