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

A float cell holds exactly the bytes of CPython's ``"%.16e" % (v + 0.0)``,
formatted a chunk of rows at a time in NumPy: each value is rounded exactly to
17 digits in double-double arithmetic and rendered through a table of 4-digit
strings. The cells that path leaves (nan, inf, subnormals, |v| outside
[1e-280, 1e281) and near-ties of the rounding) go to Python's own ``%.16e``,
and text cells print as ``%s``.

A case arrives vetted by the parser (a validate case is a normalized packet
its box contains), and a sweep case it refused is an error row that never runs.
A validate case has one outcome: its ``ValidateSummary``, whose ``violations``
name the quality thresholds it broke, or the exception that stopped it.
``run_validate`` raises that exception, or an AcceptanceViolation built from the
violations; a sweep records either in the case's summary row.
"""

import concurrent.futures
import functools
import os
import secrets
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import p_c, x_c
from .config import RunConfig, RunMode, sweep_case_name
from .errors import AcceptanceViolation, InstabilityError, LrwpError
from .fields import WaveField, conjugate_momentum_grid, l2_error
from .invariant import coeffs_at, eigenvalue
from .oracle import MAX_POINTS, observables, propagate_cranknicolson, propagate_splitstep
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


_CHUNK_ROWS = 1024  # a 5-column chunk's temporaries peak near 0.7 MB
_PAD = 0  # fills each cell out to the widest; no cell holds it, and the join drops it
_CELL = 24  # bytes of the widest table cell, "-d.dddddddddddddddde-ddd"
_E_MAX = 280  # the table takes 1e-280 <= |x| < 1e281: no Dekker product leaves the normals
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter: a double is the sum of two 26-bit halves


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4-digit strings of 0..9999 as uint32, and 10^(16−e) for |e| <= _E_MAX + 2.

    The second is a (4, N) array indexed by e + _E_MAX + 2: each power as hi + lo,
    its nearest double and the exact remainder's, then hi as Dekker's halves. Both
    come from exact rational arithmetic on Python ints, whose true division rounds
    correctly.
    """
    digit = np.frombuffer(b"0123456789", np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1)
    powers = []
    for e in range(-_E_MAX - 2, _E_MAX + 3):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)  # 10^(16−e) = num/den
        hi = num / den
        n, d = hi.as_integer_ratio()
        powers.append((hi, (num * d - n * den) / (den * d)))  # num/den − n/d, rounded once
    hi, lo = np.array(powers).T
    split = _SPLIT * hi
    head = split - (split - hi)
    return quads.reshape(-1, 4).view(np.uint32).ravel(), np.array([hi, lo, head, hi - head])


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a·10^(16−e) as a double-double hi + lo, by Dekker's exact product.

    hi is the rounded product of a and the power's nearest double, and lo its
    exact error plus a times the power's remainder: about 1e-15 from exact.
    """
    p_hi, p_lo, p_head, p_tail = (np.take(row, e + _E_MAX + 2) for row in _tables()[1])
    split = _SPLIT * a
    head = split - (split - a)
    tail = a - head
    hi = a * p_hi
    lo = ((head * p_head - hi) + head * p_tail + tail * p_head) + tail * p_tail + a * p_lo
    return hi, lo


def _digits(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a rounded to 17 digits D·10^(e−16), 10^16 <= D < 10^17, from an exponent
    estimate e off by at most one either way; and where the rounding is within
    1e-9 of a tie, which the double-double cannot decide."""
    hi, lo = _scaled(a, e)
    shift = (hi - 1e17 + lo >= 0).astype(np.int64) - (hi - 1e16 + lo < 0)
    e = e + shift
    moved = np.flatnonzero(shift)
    hi[moved], lo[moved] = _scaled(a[moved], e[moved])
    whole = np.floor(lo)
    rest = lo - whole
    d = hi.astype(np.int64) + whole.astype(np.int64) + (rest > 0.5)
    carry = d == 10**17  # 9.99…95 and up rounds to the next power of ten
    return np.where(carry, 10**16, d), e + carry, np.abs(rest - 0.5) < 1e-9


def _format_chunk(chunk: np.ndarray, text: np.ndarray) -> np.ndarray:
    """The CSV lines of a 2-D chunk as uint8, byte for byte those of ``"%.16e" % (v + 0.0)``
    for a float cell and ``"%s"`` for a cell of a ``text`` column.

    Finite cells with 1e-280 <= |v| < 1e281, and zeros, are rounded exactly in
    double-double arithmetic (``_digits``) and rendered by table into a padded
    byte matrix, one row per cell. Text cells, nan, inf, subnormals and the rest
    of the exponent range, and near-ties go to Python's own ``%.16e``, into the
    same matrix.
    """
    quads = _tables()[0]
    x = np.zeros(chunk.shape)
    x[:, ~text] = chunk[:, ~text]
    x = x.ravel()
    a = np.abs(x)
    table = (a >= 10.0**-_E_MAX) & (a < 10.0 ** (_E_MAX + 1))
    a[~table] = 1.0  # zeros and fallback cells are rendered from 1.0, then replaced
    d, e, tie = _digits(a, np.floor(np.log10(a)).astype(np.int64))
    d[x == 0] = 0
    fallback = np.flatnonzero(~table & (x != 0) | tie | np.tile(text, len(chunk)))
    cols = len(text)
    cells = [(f"{chunk[i // cols, i % cols]}" if text[i % cols] else "%.16e" % v).encode()
             for i, v in zip(fallback.tolist(), x[fallback].tolist())]  # never a zero
    width = max([_CELL, *map(len, cells)])

    lead, rest = np.divmod(d, 10**16)
    m = np.full((len(x), width + 1), _PAD, np.uint8)
    m[:, 0] = (x < 0) * np.uint8(ord("-"))  # or _PAD, which is 0
    m[:, 1] = lead + ord("0")
    m[:, 2] = ord(".")
    for col, half in ((3, rest // 10**8), (11, rest % 10**8)):  # 8 digits as two quads
        pair = np.stack(np.divmod(half, 10**4), -1)
        m[:, col:col + 8] = quads[pair].view(np.uint8).reshape(-1, 8)
    m[:, 19] = ord("e")
    m[:, 20] = ord("+") + (ord("-") - ord("+")) * (e < 0)
    m[:, 21:24] = quads[np.abs(e)].view(np.uint8).reshape(-1, 4)[:, 1:]
    m[:, 21] *= np.abs(e) >= 100  # two exponent digits below 100, as %e
    m[:, -1] = ord(",")
    m[cols - 1 :: cols, -1] = ord("\n")
    m[fallback, :width] = _PAD
    for i, cell in zip(fallback, cells):
        m[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    flat = m.ravel()
    return flat[flat != _PAD]


def write_csv_atomic(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` atomically.

    ``rows`` is one 2-D table (array or nested list) with one column per
    header name, or an iterator of such blocks, written one after another.
    Float cells print as ``%.16e``, with -0.0 as 0.0 and nan as ``nan``;
    a column whose first cell is a ``str`` prints as text. Each block is
    formatted in chunks of ``_CHUNK_ROWS`` rows (``_format_chunk``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = rows if isinstance(rows, Iterator) else (rows,)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mode minus the umask
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for block in blocks:
                if not isinstance(block, np.ndarray):
                    block = np.array(block, dtype=object)  # keeps str and float cells apart
                if block.ndim != 2:
                    raise ValueError(f"a CSV block must be 2-D, got shape {block.shape}")
                if not len(block):
                    continue
                text = np.array([isinstance(cell, str) for cell in block[0]])
                for start in range(0, len(block), _CHUNK_ROWS):
                    fh.write(_format_chunk(block[start:start + _CHUNK_ROWS], text))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite(sample, *args) -> WaveField:
    """``sample(*args)``, a closed form on a grid, refused if any value overflowed."""
    with np.errstate(all="ignore"):
        field = sample(*args)
    if not np.isfinite(field.values).all():
        raise InstabilityError(f"non-finite field at t={field.t:g}")
    return field


def run_analytic(cfg: RunConfig, out_dir) -> None:
    """Closed-form observables and snapshots, no propagation."""
    out = Path(out_dir)
    packet = cfg.packet
    lam = eigenvalue(packet)
    steps, dt = cfg.grid.snapshot_steps, cfg.grid.dt
    grid = cfg.grid.grid

    obs_rows = []
    nan = float("nan")
    for step in steps:
        t = step * dt
        xc = float(x_c(packet, cfg.profile, t))
        pc = float(p_c(packet, cfg.profile, t))
        if packet.spec.is_packet:
            row = [t, analytic_norm_sq(packet), xc, pc, delta_x(packet, t),
                   delta_p(packet), uncertainty_product(packet, t), lam.real, lam.imag, nan, nan]
        else:
            row = [t, nan, nan, pc, nan, nan, nan, lam.real, lam.imag, nan, nan]
        obs_rows.append(row)

    x = grid.points

    def snapshots():
        for step in steps:
            t = step * dt
            values = _finite(sample_gtwp, packet, cfg.profile, grid, t).values
            yield np.column_stack(
                [np.full(len(x), t), x, values.real, values.imag, np.abs(values) ** 2]
            )

    # snapshots first: a sample that _finite refuses then leaves no CSV behind
    write_csv_atomic(out / "snapshots.csv", SNAPSHOTS_HEADER, snapshots())
    write_csv_atomic(out / "observables.csv", OBSERVABLES_HEADER, obs_rows)


@dataclass
class ValidateSummary:
    max_l2_ss: float
    max_l2_cn: float
    inv_drift: float
    max_norm_dev: float
    violations: list[str]  # the quality thresholds the case broke; empty when it passed


def _validate(cases: list[tuple[RunConfig, Path]]) -> list[ValidateSummary | Exception]:
    """Propagate validate cases that share grid, dt, force, m and ħ as one batch.

    Each case gets one outcome: its summary, or the exception that stopped it.
    Each case is a normalized packet that its box contains, as the parser vets it;
    one whose t = 0 sample is refused is not propagated. Observables are measured
    on the split-step field (the sharper oracle), and each oracle's field meets the
    closed form through ``l2_error``. A case stops at the first snapshot where the
    split step, then Crank–Nicolson, then its own comparison fails.
    """
    outcomes: list = [None] * len(cases)
    scales, initials = {}, {}
    for i, (cfg, _) in enumerate(cases):
        packet, spec = cfg.packet, cfg.packet.spec
        # invariant drift is relative to |lambda| or, when that vanishes, to |A0|·dp + |B0|·dx(0)
        scales[i] = max(abs(eigenvalue(packet)),
                        abs(spec.A0) * delta_p(packet) + abs(spec.B0) * delta_x(packet, 0.0))
        try:
            initials[i] = _finite(sample_gtwp, packet, cfg.profile, cfg.grid.grid, 0.0)
        except (LrwpError, ValueError) as exc:
            outcomes[i] = exc
    if not initials:
        return outcomes
    cfg = cases[0][0]
    m, hbar, profile, grid = cfg.packet.m, cfg.packet.hbar, cfg.profile, cfg.grid.grid
    streams = [propagate(list(initials.values()), profile, m, hbar, cfg.grid)
               for propagate in (propagate_splitstep, propagate_cranknicolson)]
    measured = {i: [] for i in initials}
    for fields_ss, fields_cn in zip(*streams):
        for i, f_ss, f_cn in zip(initials, fields_ss, fields_cn):
            if outcomes[i] is not None:
                continue
            try:
                for entry in (f_ss, f_cn):
                    if isinstance(entry, Exception):
                        raise entry
                packet = cases[i][0].packet
                analytic = _finite(sample_gtwp, packet, profile, grid, f_ss.t)
                coeffs = coeffs_at(packet.spec, m, profile, f_ss.t)
                rec = observables(f_ss, m, hbar, coeffs)
                measured[i].append((rec, *(l2_error(f, analytic) for f in (f_ss, f_cn))))
            except (LrwpError, ValueError) as exc:
                outcomes[i] = exc
        if None not in outcomes:
            break
    return [_judge(cases[i][1], scales[i], measured[i]) if outcome is None else outcome
            for i, outcome in enumerate(outcomes)]


def _judge(out_dir, scale: float, measured: list) -> ValidateSummary:
    """Write a finished case's observables and hold them to the quality thresholds."""
    rows = [[
        rec.t, rec.norm, rec.x_mean, rec.p_mean, rec.dx, rec.dp, rec.dxdp,
        rec.inv_expect.real, rec.inv_expect.imag, *l2,
    ] for rec, *l2 in measured]
    write_csv_atomic(Path(out_dir) / "observables.csv", OBSERVABLES_HEADER, rows)

    records, l2_ss, l2_cn = zip(*measured)
    inv0 = records[0].inv_expect
    figures = [  # (name, value, limit), in the summary's field order
        ("split-step L2 error", max(l2_ss), L2_THRESHOLD),
        ("crank-nicolson L2 error", max(l2_cn), L2_THRESHOLD),
        ("invariant drift", max(abs(r.inv_expect - inv0) for r in records) / scale,
         INV_DRIFT_THRESHOLD),
        ("norm deviation", max(abs(r.norm - 1.0) for r in records), NORM_THRESHOLD),
    ]
    violations = [f"{name} {value:.3e} >= {limit:g}" for name, value, limit in figures
                  if value >= limit]
    return ValidateSummary(*(value for _, value, _ in figures), violations)


def run_validate(cfg: RunConfig, out_dir) -> ValidateSummary:
    """Propagate the packet with both oracles and compare to the closed form:
    the batch of one. Raises the error that stopped the run, or, once the full
    file is written, AcceptanceViolation if any quality threshold fails."""
    [outcome] = _validate([(cfg, out_dir)])
    if isinstance(outcome, Exception):
        raise outcome
    if outcome.violations:
        raise AcceptanceViolation("; ".join(outcome.violations))
    return outcome


def run_momentum(cfg: RunConfig, out_dir) -> float:
    """Momentum-route comparison: transform the momentum-space Gaussian and
    measure the pointwise gap to the packet closed form per output time.
    Returns the largest gap."""
    out = Path(out_dir)
    packet = cfg.packet
    grid = cfg.grid.grid
    pgrid = conjugate_momentum_grid(grid, packet.hbar)
    rows = []
    worst = 0.0
    for step in cfg.grid.snapshot_steps:
        t = step * cfg.grid.dt
        phi = _finite(sample_gaussian_momentum, packet, cfg.sigma, cfg.profile, pgrid, t)
        bridged = fourier_bridge(phi, packet.hbar, position_grid=grid)
        direct = _finite(sample_gtwp, packet, cfg.profile, grid, t)
        diff = float(np.max(np.abs(bridged.values - direct.values)))
        worst = max(worst, diff)
        rows.append([t, diff])
    write_csv_atomic(out / "comparison.csv", COMPARISON_HEADER, rows)
    return worst


def _packet_metrics(cfg: RunConfig) -> tuple[float, float]:
    if not cfg.packet.spec.is_packet:
        return float("nan"), float("nan")
    t_star = min_uncertainty_time(cfg.packet, cfg.grid.t_max)
    return uncertainty_product(cfg.packet, t_star), t_star


def _error_row(axis: str, value: float, error: Exception) -> list:
    nan = float("nan")
    return [axis, value, nan, nan, nan, nan, f"error:{type(error).__name__}"]


def _run_sweep_case(task) -> list[list]:
    """Summary rows of one batch of ``(value, case, case_dir)``, in batch order.

    A batch of validate cases propagates as one (``_validate``). Every other
    case, and every case the parser refused, is a batch of its own (``_batches``).
    """
    axis, batch = task
    nan = float("nan")
    value, case, case_dir = batch[0]
    if isinstance(case, Exception):  # refused at parse: nothing to run
        return [_error_row(axis, value, case)]
    try:
        if case.mode is RunMode.ANALYTIC:
            run_analytic(case, case_dir)
        elif case.mode is RunMode.MOMENTUM:
            run_momentum(case, case_dir)
    except (LrwpError, ValueError) as exc:
        return [_error_row(axis, value, exc)]
    cases = [(case, case_dir) for _, case, case_dir in batch]
    outcomes = _validate(cases) if case.mode is RunMode.VALIDATE else [None]
    rows = []
    for (value, case, _), outcome in zip(batch, outcomes):
        metrics = _packet_metrics(case)
        if isinstance(outcome, Exception):
            rows.append(_error_row(axis, value, outcome))
        elif outcome is None:  # analytic or momentum
            rows.append([axis, value, nan, nan, *metrics, "ok"])
        else:  # a case that broke a threshold still wrote its file; keep its figures
            status = "acceptance_violation" if outcome.violations else "ok"
            rows.append([axis, value, outcome.max_l2_ss, outcome.max_l2_cn, *metrics, status])
    return rows


def _batches(cfg: RunConfig, jobs: int) -> list[list[int]]:
    """Indices into ``cfg.sweep``, one list per task, in sweep order.

    Validate cases that share grid, dt, force, m and ħ form a group, which is
    cut in sweep order into at most ``jobs`` contiguous batches of near-equal
    size, none above MAX_POINTS // n cases. Every other case is a batch of one.
    """
    batches, groups = [], {}
    for i, (_, case) in enumerate(cfg.sweep):
        if isinstance(case, Exception) or case.mode is not RunMode.VALIDATE:
            batches.append([i])
            continue
        key = (case.grid, case.profile, case.packet.m, case.packet.hbar)
        groups.setdefault(key, []).append(i)
    for (spec, *_), members in groups.items():
        cap = MAX_POINTS // spec.n  # cases per batch
        count = max(min(jobs, len(members)), -(-len(members) // cap))
        size, extra = divmod(len(members), count)
        start = 0
        for b in range(count):
            stop = start + size + (b < extra)
            batches.append(members[start:stop])
            start = stop
    return sorted(batches)


def run_sweep(cfg: RunConfig, out_dir, jobs: int | None = None) -> list[list]:
    """Run each case of the sweep plan (``cfg.sweep``) in its mode, concurrently.

    Validate cases that share grid, dt, force, m and ħ propagate as batches
    (``_batches``); each batch, or each case of another kind, is one task of a
    pool of at most ``jobs`` workers. Each case writes into its own
    subdirectory; per-case failures are recorded in the summary and do not
    abort the sweep. Every case of a batch whose worker process died, or that
    was still pending when another worker died, is recorded as
    ``error:BrokenProcessPool``. Summary rows follow the plan's order.
    """
    out = Path(out_dir)
    axis = cfg.sweep_axis
    jobs = jobs or os.cpu_count() or 1
    batches = _batches(cfg, jobs)
    plan = [(value, case, str(out / sweep_case_name(axis, value))) for value, case in cfg.sweep]
    tasks = [(axis, [plan[i] for i in batch]) for batch in batches]
    # the pool forks all of its workers up front, so never ask for more than tasks
    workers = min(jobs, len(tasks))
    if workers <= 1:
        done = [_run_sweep_case(task) for task in tasks]
    else:
        done = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_sweep_case, task) for task in tasks]
            for (_, batch), future in zip(tasks, futures):
                try:
                    done.append(future.result())
                except concurrent.futures.BrokenExecutor as exc:  # BrokenProcessPool
                    done.append([_error_row(axis, value, exc) for value, _, _ in batch])
    results = [None] * len(plan)
    for batch, rows in zip(batches, done):
        for i, row in zip(batch, rows):
            results[i] = row
    write_csv_atomic(out / "sweep_summary.csv", SWEEP_HEADER, results)
    return results
