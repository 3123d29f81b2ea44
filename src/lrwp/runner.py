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
and text cells print as ``%s``. A cell that repeats is formatted once: in
``snapshots.csv`` each x cell once per run and each t cell once per snapshot,
so only ``psi_re``, ``psi_im`` and ``prob`` are formatted row by row.

A case arrives vetted by the parser (a validate case is a normalized packet
its box contains), and a sweep case it refused is an error row that never runs.
A validate case has one outcome: its ``ValidateSummary``, whose ``violations``
name the quality thresholds it broke, or the exception that stopped it.
``run_validate`` raises that exception, or an AcceptanceViolation built from the
violations; a sweep records either in the case's summary row.

``--jobs N`` bounds the processes a run keeps busy; each one but the calling
process is forked by ``_in_child``, which streams the child's items through a
pipe and joins it as its block is left. At more than one job a validate batch
runs Crank–Nicolson in such a child, at the same time as the split step, so a
validate task is two processes and a sweep of them runs ``N // 2`` tasks (at
least one) at once. A sweep deals its tasks in turn to the calling process and
a child for each other worker.
"""

import contextlib
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
from .oracle import (MAX_POINTS, load_lapack, observables, propagate_cranknicolson,
                     propagate_splitstep)
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


def _cells(table: np.ndarray, text: np.ndarray | None = None) -> np.ndarray:
    """The cells of a 2-D table as a (rows, columns, width) uint8 array, each cell
    left-aligned and padded with _PAD: byte for byte ``"%.16e" % (v + 0.0)`` for a
    float cell and ``"%s"`` for a cell of a ``text`` column (none by default).

    Finite cells with 1e-280 <= |v| < 1e281, and zeros, are rounded exactly in
    double-double arithmetic (``_digits``) and rendered by table. Text cells, nan,
    inf, subnormals and the rest of the exponent range, and near-ties go to
    Python's own ``%.16e``, into the same array.
    """
    quads = _tables()[0]
    rows, cols = table.shape
    text = np.zeros(cols, bool) if text is None else text
    x = np.zeros(table.shape)
    x[:, ~text] = table[:, ~text]
    x = x.ravel()
    a = np.abs(x)
    in_table = (a >= 10.0**-_E_MAX) & (a < 10.0 ** (_E_MAX + 1))
    a[~in_table] = 1.0  # zeros and fallback cells are rendered from 1.0, then replaced
    d, e, tie = _digits(a, np.floor(np.log10(a)).astype(np.int64))
    d[x == 0] = 0
    fallback = np.flatnonzero(~in_table & (x != 0) | tie | np.tile(text, rows))
    cells = [(f"{table[i // cols, i % cols]}" if text[i % cols] else "%.16e" % v).encode()
             for i, v in zip(fallback.tolist(), x[fallback].tolist())]  # never a zero
    width = max([_CELL, *map(len, cells)])

    # d is a lead digit and four quads; by floor division, as NumPy's % is far slower
    top = d // 10**8
    lead = top // 10**8
    halves = np.stack([top - lead * 10**8, d - top * 10**8], -1)
    high = halves // 10**4
    quad = np.stack([high, halves - high * 10**4], -1)
    m = np.full((len(x), width), _PAD, np.uint8)
    m[:, 0] = (x < 0) * np.uint8(ord("-"))  # or _PAD, which is 0
    m[:, 1] = lead + ord("0")
    m[:, 2] = ord(".")
    m[:, 3:19] = quads[quad].view(np.uint8).reshape(-1, 16)
    m[:, 19] = ord("e")
    m[:, 20] = ord("+") + (ord("-") - ord("+")) * (e < 0)
    m[:, 21:24] = quads[np.abs(e)].view(np.uint8).reshape(-1, 4)[:, 1:]
    m[:, 21] *= np.abs(e) >= 100  # two exponent digits below 100, as %e
    m[fallback] = _PAD
    for i, cell in zip(fallback, cells):
        m[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return m.reshape(rows, cols, width)


def _lines(parts: list[np.ndarray]) -> np.ndarray:
    """The CSV lines of cell arrays (``_cells``) of equal row count laid side by side,
    as uint8: a comma after each cell but the last of a row, a newline after that."""
    cols, width = sum(part.shape[1] for part in parts), max(part.shape[2] for part in parts)
    m = np.full((len(parts[0]), cols, width + 1), _PAD, np.uint8)
    col = 0
    for part in parts:
        m[:, col:col + part.shape[1], :part.shape[2]] = part
        col += part.shape[1]
    m[..., -1] = ord(",")
    m[:, -1, -1] = ord("\n")
    flat = m.ravel()
    return flat[flat != _PAD]


@dataclass(frozen=True)
class _Cells:
    """Cells formatted once (``_cells``), as a part of a ``write_csv_atomic`` block:
    a column that repeats from block to block is then formatted once per file."""

    cells: np.ndarray


def _part(part) -> tuple[np.ndarray, np.ndarray | None]:
    """A part of a block: the cells of a ``_Cells``, with None; or a 2-D table, with
    which of its columns are text (those whose first cell is a ``str``)."""
    if isinstance(part, _Cells):
        return part.cells, None
    if not isinstance(part, np.ndarray):
        part = np.array(part, dtype=object)  # keeps str and float cells apart
    if part.ndim != 2:
        raise ValueError(f"a CSV block must be 2-D, got shape {part.shape}")
    return part, np.array([isinstance(cell, str) for row in part[:1] for cell in row])


def write_csv_atomic(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` atomically.

    ``rows`` is one block or an iterator of blocks, written one after another. A
    block is a 2-D table (array or nested list), or a tuple of parts laid side by
    side, each a 2-D table or ``_Cells``, all with one row count; it has one
    column per header name. Float cells print as ``%.16e``, with -0.0 as 0.0 and
    nan as ``nan``; a column whose first cell is a ``str`` prints as text. A
    table is formatted ``_CHUNK_ROWS`` rows at a time (``_cells``), and ``_Cells``
    are laid in as they are (``_lines``).
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
                parts = [_part(part) for part in (block if isinstance(block, tuple) else (block,))]
                for start in range(0, max(len(table) for table, _ in parts), _CHUNK_ROWS):
                    chunk = slice(start, start + _CHUNK_ROWS)
                    fh.write(_lines([table[chunk] if text is None else _cells(table[chunk], text)
                                     for table, text in parts]))
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


def _snapshot_blocks(times, x: np.ndarray, values) -> Iterator[tuple]:
    """The blocks of ``snapshots.csv``: per time, its t cell in every row, the x cells
    and that snapshot's table of value columns. Every snapshot repeats the x cells, and
    each of its rows the t cell, so each is formatted once."""
    x_cells = _Cells(_cells(x[:, None]))
    for t_cell, table in zip(_cells(np.array(times)[:, None]), values):
        yield _Cells(np.broadcast_to(t_cell, (len(x), *t_cell.shape))), x_cells, table


def run_analytic(cfg: RunConfig, out_dir) -> None:
    """Closed-form observables and snapshots, no propagation."""
    out = Path(out_dir)
    packet = cfg.packet
    lam = eigenvalue(packet)
    steps, dt = cfg.grid.snapshot_steps, cfg.grid.dt
    grid = cfg.grid.grid

    times = [step * dt for step in steps]
    obs_rows = []
    nan = float("nan")
    for t in times:
        xc = float(x_c(packet, cfg.profile, t))
        pc = float(p_c(packet, cfg.profile, t))
        if packet.spec.is_packet:
            row = [t, analytic_norm_sq(packet), xc, pc, delta_x(packet, t),
                   delta_p(packet), uncertainty_product(packet, t), lam.real, lam.imag, nan, nan]
        else:
            row = [t, nan, nan, pc, nan, nan, nan, lam.real, lam.imag, nan, nan]
        obs_rows.append(row)

    def values():
        for t in times:
            psi = _finite(sample_gtwp, packet, cfg.profile, grid, t).values
            yield np.column_stack([psi.real, psi.imag, np.abs(psi) ** 2])

    # snapshots first: a sample that _finite refuses then leaves no CSV behind
    write_csv_atomic(out / "snapshots.csv", SNAPSHOTS_HEADER,
                     _snapshot_blocks(times, grid.points, values()))
    write_csv_atomic(out / "observables.csv", OBSERVABLES_HEADER, obs_rows)


@dataclass
class ValidateSummary:
    max_l2_ss: float
    max_l2_cn: float
    inv_drift: float
    max_norm_dev: float
    violations: list[str]  # the quality thresholds the case broke; empty when it passed


def _feed(stream: Iterator, receiver, sender) -> None:
    """The child's side of ``_in_child``: send each item of ``stream``, then the end
    or the exception that stopped it. A parent that stopped reading ends it quietly."""
    receiver.close()  # else the pipe keeps a reader, and a send to a closed parent blocks
    try:
        for item in stream:
            sender.send(("item", item))
        sender.send(("end", None))
    except BrokenPipeError:
        pass
    except Exception as exc:
        with contextlib.suppress(BrokenPipeError):
            sender.send(("raise", exc))


@contextlib.contextmanager
def _in_child(stream: Iterator, name: str, item: str) -> Iterator[Iterator]:
    """Iterate ``stream`` in a child process forked as the block is entered; the
    block reads the child's items from the iterator it is given.

    The child sends each item through a one-way pipe as it is made and blocks while
    the pipe is full, so no more than a pipe's buffer and one item are in flight
    (one b1 snapshot fills half of it). An exception that stops ``stream`` is raised
    by the iterator with its type and message; a child that dies before its end
    raises LrwpError with its exit code, naming it the ``name`` process and its
    items each an ``item``. Leaving the block closes the pipe and joins the child,
    which stops at its next send.
    """
    import multiprocessing  # here, not at the top: importing the package does not load it

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_feed, args=(stream, receiver, sender))
    child.start()
    sender.close()

    def items():
        while True:
            try:
                kind, payload = receiver.recv()
            except EOFError:
                child.join()
                raise LrwpError(f"the {name} process exited with code {child.exitcode} "
                                f"before its last {item}") from None
            if kind == "end":
                return
            if kind == "raise":
                raise payload
            yield payload

    try:
        yield items()
    finally:
        receiver.close()
        child.join()


def _validate(cases: list[tuple[RunConfig, Path]], fork: bool) -> list[ValidateSummary | Exception]:
    """Propagate validate cases that share grid, dt, force, m and ħ as one batch.

    Each case gets one outcome: its ValidateSummary, or the exception that stopped it.
    Each case is a normalized packet that its box contains, as the parser vets it;
    one whose t = 0 sample is refused is not propagated. The split step runs here,
    and so does Crank–Nicolson, in step with it; or, if ``fork``, at the same time
    in a forked child (``_in_child``), joined before this returns or raises.
    Observables are measured on the split-step field (the sharper oracle), and each
    oracle's field meets the closed form through ``l2_error``. A case stops at the
    first snapshot where the split step, then Crank–Nicolson, then its own
    comparison fails; an error that stops a stream stops every running case.
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
    args = (list(initials.values()), profile, m, hbar, cfg.grid)
    cn = propagate_cranknicolson(*args)
    measured = {i: [] for i in initials}
    streaming = _in_child(cn, "Crank–Nicolson", "snapshot") if fork else contextlib.nullcontext(cn)
    with streaming as cn:
        try:
            for fields_ss, fields_cn in zip(propagate_splitstep(*args), cn):
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
        except (LrwpError, ValueError) as exc:
            outcomes = [exc if outcome is None else outcome for outcome in outcomes]
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


def run_validate(cfg: RunConfig, out_dir, jobs: int | None = None) -> ValidateSummary:
    """Propagate the packet with both oracles and compare to the closed form:
    the batch of one, with Crank–Nicolson in a forked child at more than one of
    ``jobs`` (by default the CPU count). Raises the error that stopped the run, or,
    once the full file is written, AcceptanceViolation if any quality threshold fails."""
    [outcome] = _validate([(cfg, out_dir)], (jobs or os.cpu_count() or 1) > 1)
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


def _run_sweep_case(axis: str, batch: list[tuple], fork: bool) -> list[list]:
    """Summary rows of one batch of ``(value, case, case_dir)``, in batch order.

    A batch of validate cases propagates as one (``_validate``, which forks if
    ``fork``). Every other case is a batch of its own (``_batches``).
    """
    nan = float("nan")
    value, case, case_dir = batch[0]
    try:
        if case.mode is RunMode.ANALYTIC:
            run_analytic(case, case_dir)
        elif case.mode is RunMode.MOMENTUM:
            run_momentum(case, case_dir)
    except (LrwpError, ValueError) as exc:
        return [_error_row(axis, value, exc)]
    cases = [(case, case_dir) for _, case, case_dir in batch]
    outcomes = _validate(cases, fork) if case.mode is RunMode.VALIDATE else [None]
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


def _slots(jobs: int) -> int:
    """Validate tasks that ``jobs`` processes run at once: each is two processes."""
    return max(1, jobs // 2)


def _batches(cfg: RunConfig, jobs: int) -> list[list[int]]:
    """Indices into ``cfg.sweep``, one list per task, in sweep order.

    Validate cases that share grid, dt, force, m and ħ form a group, which is
    cut in sweep order into at most ``_slots(jobs)`` contiguous batches of
    near-equal size, none above MAX_POINTS // n cases. Every other case is a
    batch of one.
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
        count = max(min(_slots(jobs), len(members)), -(-len(members) // cap))
        size, extra = divmod(len(members), count)
        start = 0
        for b in range(count):
            stop = start + size + (b < extra)
            batches.append(members[start:stop])
            start = stop
    return sorted(batches)


def run_sweep(cfg: RunConfig, out_dir, jobs: int | None = None) -> list[list]:
    """Run each case of the sweep plan (``cfg.sweep``) in its mode, in at most ``jobs``
    processes (by default the CPU count).

    A case the parser refused runs nothing; its error row is made here. Validate
    cases that share grid, dt, force, m and ħ propagate as batches (``_batches``);
    each batch, or each other case, is a task. Tasks are dealt in turn to at most
    ``jobs`` workers, or ``_slots(jobs)`` in a validate sweep: the calling process,
    and a child forked by ``_in_child`` for each other worker. Each case writes into
    its own subdirectory; per-case failures are recorded in the summary and do not
    abort the sweep, and each task a dead worker had not finished reads
    ``error:LrwpError``. Summary rows follow the plan's order.
    """
    out = Path(out_dir)
    axis = cfg.sweep_axis
    jobs = jobs or os.cpu_count() or 1
    plan = [(value, case, str(out / sweep_case_name(axis, value))) for value, case in cfg.sweep]
    results = [_error_row(axis, value, case) if isinstance(case, Exception) else None
               for value, case, _ in plan]
    tasks = [batch for batch in _batches(cfg, jobs) if results[batch[0]] is None]
    validates = any(plan[batch[0]][1].mode is RunMode.VALIDATE for batch in tasks)
    workers = min(_slots(jobs) if validates else jobs, len(tasks))
    if validates:  # here, once: every process forked after this inherits it loaded
        load_lapack()
    shares = [tasks[k::workers] for k in range(workers)]

    def work(share):
        return (_run_sweep_case(axis, [plan[i] for i in batch], jobs > 1) for batch in share)

    with contextlib.ExitStack() as children:
        # the others first, so that they run while the calling process works its share
        forked = [(share, children.enter_context(_in_child(work(share), "sweep worker", "batch")))
                  for share in shares[1:]]
        for share, rows in [(share, work(share)) for share in shares[:1]] + forked:
            try:
                for batch in share:
                    for i, row in zip(batch, next(rows)):
                        results[i] = row
            except LrwpError as exc:  # the worker died: each task of its share not yet done
                for i in (i for batch in share for i in batch):
                    results[i] = results[i] or _error_row(axis, plan[i][0], exc)
    write_csv_atomic(out / "sweep_summary.csv", SWEEP_HEADER, results)
    return results
