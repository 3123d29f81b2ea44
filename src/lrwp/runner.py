"""Run orchestration and deterministic CSV serialization.

Output files are written atomically (temp file + rename) with LF line
endings and a fixed 17-significant-digit scientific format, so identical
configurations produce byte-identical files. Their permissions follow the
process umask (0644 under umask 022). Each sweep case writes into its own
directory, named by ``config.sweep_case_name``; the parser rejects sweep
values that would share one. Column orders are frozen:

    observables.csv   t,norm,x_mean,p_mean,dx,dp,dxdp,inv_re,inv_im,l2_err_ss,l2_err_cn
    snapshots.csv     t,x,psi_re,psi_im,prob
    comparison.csv    t,max_abs_diff
    sweep_summary.csv param,value,final_l2_err_ss,final_l2_err_cn,min_dxdp,t_star,status
"""

import concurrent.futures
import os
import secrets
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import p_c, x_c
from .config import RunConfig, RunMode, apply_sweep_value, check_containment, sweep_case_name
from .errors import AcceptanceViolation, AliasingError, LrwpError
from .fields import conjugate_momentum_grid, l2_error
from .invariant import PacketMode, coeffs_at, eigenvalue
from .oracle import observables, propagate_cranknicolson, propagate_splitstep
from .wavepacket import (
    analytic_norm_sq,
    delta_p,
    delta_x,
    fourier_bridge,
    min_uncertainty_time,
    sample_gaussian_momentum,
    sample_gtwp,
    uncertainty_product,
)

__all__ = [
    "OBSERVABLES_HEADER",
    "SNAPSHOTS_HEADER",
    "COMPARISON_HEADER",
    "SWEEP_HEADER",
    "run_analytic",
    "run_validate",
    "run_momentum",
    "run_sweep",
    "write_csv_atomic",
]

OBSERVABLES_HEADER = [
    "t", "norm", "x_mean", "p_mean", "dx", "dp", "dxdp",
    "inv_re", "inv_im", "l2_err_ss", "l2_err_cn",
]
SNAPSHOTS_HEADER = ["t", "x", "psi_re", "psi_im", "prob"]
COMPARISON_HEADER = ["t", "max_abs_diff"]
SWEEP_HEADER = [
    "param", "value", "final_l2_err_ss", "final_l2_err_cn", "min_dxdp", "t_star", "status",
]

L2_THRESHOLD = 1e-4
INV_DRIFT_THRESHOLD = 1e-6
NORM_THRESHOLD = 1e-10


_CHUNK_ROWS = 4096


def write_csv_atomic(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` atomically.

    ``rows`` is one 2-D table (array or nested list) with one column per
    header name, or an iterator of such blocks, written one after another.
    Float cells print as ``%.16e``, with -0.0 as 0.0 and nan as ``nan``;
    a column whose first cell is a ``str`` prints as text. Each block is
    formatted in chunks of ``_CHUNK_ROWS`` rows with one line template.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = rows if isinstance(rows, Iterator) else (rows,)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mode minus the umask
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                if not isinstance(block, np.ndarray):
                    block = np.array(block, dtype=object)  # keeps str and float cells apart
                if block.ndim != 2:
                    raise ValueError(f"a CSV block must be 2-D, got shape {block.shape}")
                if not len(block):
                    continue
                text = np.array([isinstance(cell, str) for cell in block[0]])
                line = ",".join(np.where(text, "%s", "%.16e")) + "\n"
                for start in range(0, len(block), _CHUNK_ROWS):
                    chunk = block[start:start + _CHUNK_ROWS].copy()
                    chunk[:, ~text] = chunk[:, ~text].astype(float) + 0.0  # -0.0 + 0.0 is 0.0
                    fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _snapshot_times(cfg: RunConfig) -> np.ndarray:
    g = cfg.grid
    count = g.n_steps // g.output_every
    return g.dt * g.output_every * np.arange(count + 1)


def run_analytic(cfg: RunConfig, out_dir) -> dict:
    """Closed-form observables and snapshots, no propagation."""
    out = Path(out_dir)
    packet = cfg.packet
    cl = packet.classical
    lam = eigenvalue(packet.spec, cl)
    times = _snapshot_times(cfg)
    grid = cfg.grid.grid
    gtwp = packet.mode is PacketMode.GTWP

    obs_rows = []
    nan = float("nan")
    for t in times:
        t = float(t)
        xc = float(x_c(cl, cfg.profile, t))
        pc = float(p_c(cl, cfg.profile, t))
        if gtwp:
            row = [t, analytic_norm_sq(packet), xc, pc, delta_x(packet, t),
                   delta_p(packet), uncertainty_product(packet, t), lam.real, lam.imag, nan, nan]
        else:
            row = [t, nan, nan, pc, nan, nan, nan, lam.real, lam.imag, nan, nan]
        obs_rows.append(row)

    x = grid.points

    def snapshots():
        for t in times:
            t = float(t)
            values = sample_gtwp(packet, cfg.profile, grid, t).values
            yield np.column_stack(
                [np.full(len(x), t), x, values.real, values.imag, np.abs(values) ** 2]
            )

    write_csv_atomic(out / "observables.csv", OBSERVABLES_HEADER, obs_rows)
    write_csv_atomic(out / "snapshots.csv", SNAPSHOTS_HEADER, snapshots())
    return {"times": times, "lambda": lam}


@dataclass
class ValidateSummary:
    max_l2_ss: float
    max_l2_cn: float
    inv_drift: float
    max_norm_dev: float
    violations: list[str]


def run_validate(cfg: RunConfig, out_dir) -> ValidateSummary:
    """Propagate the packet with both oracles and compare to the closed form.

    Observables are measured on the split-step field (the sharper oracle);
    the Crank–Nicolson field contributes its own L2-error column. Raises
    AcceptanceViolation (after writing the full file) if any quality
    threshold fails.
    """
    out = Path(out_dir)
    check_containment(cfg)
    packet = cfg.packet
    lam = eigenvalue(packet.spec, packet.classical)
    # invariant drift is relative to |lambda| or, when that vanishes, to the
    # natural operator scale |A0|·dp + |B0|·dx at t = 0; a plane wave has no
    # dp or dx, so it is rejected here, before any propagation
    spec = packet.spec
    scale = max(
        abs(lam), abs(spec.A0) * delta_p(packet) + abs(spec.B0) * delta_x(packet, 0.0)
    )
    grid = cfg.grid.grid
    initial = sample_gtwp(packet, cfg.profile, grid, 0.0)

    rows = []
    records = []
    max_l2_cn = 0.0
    stream_ss = propagate_splitstep(initial, cfg.profile, cfg.m, cfg.hbar, cfg.grid)
    stream_cn = propagate_cranknicolson(initial, cfg.profile, cfg.m, cfg.hbar, cfg.grid)
    for f_ss, f_cn in zip(stream_ss, stream_cn):
        t = f_ss.t
        analytic = sample_gtwp(packet, cfg.profile, grid, t)
        coeffs = coeffs_at(packet.spec, cfg.m, cfg.profile, t)
        rec = observables(f_ss, cfg.m, cfg.hbar, coeffs, analytic=analytic)
        l2_cn = l2_error(f_cn, analytic)
        max_l2_cn = max(max_l2_cn, l2_cn)
        records.append(rec)
        rows.append([
            t, rec.norm, rec.x_mean, rec.p_mean, rec.dx, rec.dp, rec.dxdp,
            rec.inv_expect.real, rec.inv_expect.imag, rec.l2_err_vs_analytic, l2_cn,
        ])
    write_csv_atomic(out / "observables.csv", OBSERVABLES_HEADER, rows)

    max_l2_ss = max(r.l2_err_vs_analytic for r in records)
    inv0 = records[0].inv_expect
    inv_drift = max(abs(r.inv_expect - inv0) for r in records) / scale
    max_norm_dev = max(abs(r.norm - 1.0) for r in records)

    violations = []
    if max_l2_ss >= L2_THRESHOLD:
        violations.append(f"split-step L2 error {max_l2_ss:.3e} >= {L2_THRESHOLD:g}")
    if max_l2_cn >= L2_THRESHOLD:
        violations.append(f"crank-nicolson L2 error {max_l2_cn:.3e} >= {L2_THRESHOLD:g}")
    if inv_drift >= INV_DRIFT_THRESHOLD:
        violations.append(f"invariant drift {inv_drift:.3e} >= {INV_DRIFT_THRESHOLD:g}")
    if max_norm_dev >= NORM_THRESHOLD:
        violations.append(f"norm deviation {max_norm_dev:.3e} >= {NORM_THRESHOLD:g}")
    summary = ValidateSummary(max_l2_ss, max_l2_cn, inv_drift, max_norm_dev, violations)
    if violations:
        raise AcceptanceViolation("; ".join(violations), summary=summary)
    return summary


def run_momentum(cfg: RunConfig, out_dir) -> dict:
    """Momentum-route comparison: transform the momentum-space Gaussian and
    measure the pointwise gap to the packet closed form per output time."""
    out = Path(out_dir)
    params = cfg.gaussian
    packet = cfg.packet
    grid = cfg.grid.grid
    pgrid = conjugate_momentum_grid(grid, cfg.hbar)
    rows = []
    worst = 0.0
    for t in _snapshot_times(cfg):
        t = float(t)
        phi = sample_gaussian_momentum(params, cfg.m, cfg.hbar, cfg.profile, pgrid, t)
        bridged = fourier_bridge(phi, cfg.hbar, position_grid=grid)
        if "aliasing" in bridged.flags:
            raise AliasingError(f"momentum samples not contained on the grid at t={t:g}")
        direct = sample_gtwp(packet, cfg.profile, grid, t)
        diff = float(np.max(np.abs(bridged.values - direct.values)))
        worst = max(worst, diff)
        rows.append([t, diff])
    write_csv_atomic(out / "comparison.csv", COMPARISON_HEADER, rows)
    return {"max_abs_diff": worst}


def _packet_metrics(cfg: RunConfig) -> tuple[float, float]:
    if cfg.packet.mode is not PacketMode.GTWP:
        return float("nan"), float("nan")
    t_star = min_uncertainty_time(cfg.packet, cfg.grid.t_max)
    return uncertainty_product(cfg.packet, t_star), t_star


def _error_row(axis: str, value: float, kind: str) -> list:
    nan = float("nan")
    return [axis, value, nan, nan, nan, nan, f"error:{kind}"]


def _run_sweep_case(args) -> list:
    axis, value, cfg, case_dir = args
    nan = float("nan")
    try:
        case = apply_sweep_value(cfg, axis, value)
        min_dxdp, t_star = _packet_metrics(case)
        l2_ss = l2_cn = nan
        if case.mode is RunMode.VALIDATE:
            summary = run_validate(case, case_dir)
            l2_ss, l2_cn = summary.max_l2_ss, summary.max_l2_cn
        elif case.mode is RunMode.ANALYTIC:
            run_analytic(case, case_dir)
        elif case.mode is RunMode.MOMENTUM:
            run_momentum(case, case_dir)
        return [axis, value, l2_ss, l2_cn, min_dxdp, t_star, "ok"]
    except AcceptanceViolation as exc:
        # the run completed and wrote its file; keep the measured figures
        s = exc.summary
        return [axis, value, s.max_l2_ss, s.max_l2_cn, min_dxdp, t_star, "acceptance_violation"]
    except (LrwpError, ValueError) as exc:
        return _error_row(axis, value, type(exc).__name__)


def run_sweep(cfg: RunConfig, out_dir, jobs: int | None = None) -> list[list]:
    """Repeat the configured sweep_mode once per axis value, concurrently.

    Each case writes into its own subdirectory; per-case failures are
    recorded in the summary and do not abort the sweep. A case whose worker
    process died, or that was still pending when another worker died, is
    recorded as ``error:BrokenProcessPool``.
    """
    out = Path(out_dir)
    axis = cfg.sweep_axis
    tasks = [(axis, value, cfg, str(out / sweep_case_name(axis, value)))
             for value in cfg.sweep_values]
    # the pool forks all of its workers up front, so never ask for more than cases
    jobs = min(jobs or os.cpu_count() or 1, len(tasks))
    if jobs <= 1:
        results = [_run_sweep_case(t) for t in tasks]
    else:
        results = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_sweep_case, t) for t in tasks]
            for value, future in zip(cfg.sweep_values, futures):
                try:
                    results.append(future.result())
                except concurrent.futures.BrokenExecutor as exc:  # BrokenProcessPool
                    results.append(_error_row(axis, value, type(exc).__name__))
    write_csv_atomic(out / "sweep_summary.csv", SWEEP_HEADER, results)
    return results
