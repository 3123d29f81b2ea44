"""Correctness checks on the CSVs one CLI call wrote.

The checker reads the files, not the exit code, and keeps its own copy of
the acceptance thresholds so that it does not take its gate from the
program under test. Every check returns a ``Check``: whether it passed, why
not, the accuracy figures it measured, and the sha256 of every file it read
(information for byte-identity refactors, not a gate).
"""

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Same values as lrwp.runner's validate thresholds.
L2_THRESHOLD = 1e-4
INV_DRIFT_THRESHOLD = 1e-6
NORM_THRESHOLD = 1e-10
ANALYTIC_NORM_TOL = 1e-12
MOMENTUM_GAP_TOL = 1e-10
PLANE_WAVE_MODULUS_TOL = 1e-12


@dataclass
class Check:
    failures: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def _digest(path: Path) -> tuple[str, int]:
    """sha256 and line count, streamed so a 48 MB file costs no memory."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def _table(path: Path, chk: Check) -> dict[str, np.ndarray]:
    """Columns of a small numeric CSV by header name, plus the file's hash."""
    chk.hashes[path.name], _ = _digest(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def _files(out: Path, names: list[str], chk: Check) -> bool:
    missing = [n for n in names if not (out / n).is_file()]
    chk.require(not missing, f"{out.name}: missing {', '.join(missing)}")
    return not missing


def check_validate(out: Path, expect: dict, chk: Check | None = None) -> Check:
    """Max L2 per oracle, invariant drift and norm deviation vs thresholds."""
    chk = chk or Check()
    if not _files(out, ["observables.csv"], chk):
        return chk
    obs = _table(out / "observables.csv", chk)
    chk.require(len(obs["t"]) == expect["snapshots"],
                f"observables.csv has {len(obs['t'])} rows, expected {expect['snapshots']}")
    l2_ss, l2_cn = float(np.max(obs["l2_err_ss"])), float(np.max(obs["l2_err_cn"]))
    inv = obs["inv_re"] + 1j * obs["inv_im"]
    # runner's drift scale max(|lambda|, |A0|*dp + |B0|*dx(0)); for a matched
    # Gaussian A0 = 1 and |B0| = |F0| = hbar/(2 sigma^2) = 2 dp^2/hbar
    dp0, hbar = obs["dp"][0], expect["hbar"]
    scale = max(abs(inv[0]), dp0 + 2.0 * dp0 * dp0 / hbar * obs["dx"][0])
    drift = float(np.max(np.abs(inv - inv[0]))) / scale
    norm_dev = float(np.max(np.abs(obs["norm"] - 1.0)))
    for name, value, limit in (("l2_err_ss", l2_ss, L2_THRESHOLD),
                               ("l2_err_cn", l2_cn, L2_THRESHOLD),
                               ("inv_drift", drift, INV_DRIFT_THRESHOLD),
                               ("norm_dev", norm_dev, NORM_THRESHOLD)):
        chk.require(value < limit, f"{name} {value:.3e} not below {limit:g}")
        chk.figures[name] = max(chk.figures.get(name, 0.0), value)
    return chk


def check_analytic(out: Path, expect: dict) -> Check:
    """Row count, unit norm and dx*dp >= hbar/2 (unit modulus for plane waves)."""
    chk = Check()
    if not _files(out, ["observables.csv", "snapshots.csv"], chk):
        return chk
    obs = _table(out / "observables.csv", chk)
    chk.require(len(obs["t"]) == expect["snapshots"],
                f"observables.csv has {len(obs['t'])} rows, expected {expect['snapshots']}")
    want = expect["snapshots"] * expect["n"]
    if expect.get("plane_wave"):
        snaps = _table(out / "snapshots.csv", chk)
        rows = len(snaps["t"])
        dev = float(np.max(np.abs(snaps["prob"] - 1.0))) if rows else np.inf
        chk.require(dev <= PLANE_WAVE_MODULUS_TOL, f"plane-wave |psi|^2 off 1 by {dev:.3e}")
    else:
        chk.hashes["snapshots.csv"], lines = _digest(out / "snapshots.csv")
        rows = lines - 1
        dev = float(np.max(np.abs(obs["norm"] - 1.0)))
        chk.require(dev <= ANALYTIC_NORM_TOL, f"norm off 1 by {dev:.3e}")
        floor = 0.5 * expect["hbar"] * (1.0 - 1e-12)
        low = float(np.min(obs["dxdp"]))
        chk.require(low >= floor, f"dxdp {low!r} below hbar/2")
    chk.require(rows == want, f"snapshots.csv has {rows} rows, expected {want}")
    return chk


def check_momentum(out: Path, expect: dict) -> Check:
    """The momentum-route gap stays at machine precision."""
    chk = Check()
    if not _files(out, ["comparison.csv"], chk):
        return chk
    cmp = _table(out / "comparison.csv", chk)
    chk.require(len(cmp["t"]) == expect["snapshots"],
                f"comparison.csv has {len(cmp['t'])} rows, expected {expect['snapshots']}")
    gap = float(np.max(cmp["max_abs_diff"]))
    chk.require(gap <= MOMENTUM_GAP_TOL, f"momentum gap {gap:.3e} above {MOMENTUM_GAP_TOL:g}")
    chk.figures["momentum_gap"] = gap
    return chk


def check_sweep(out: Path, expect: dict) -> list[Check]:
    """One check per case: its summary status is ``ok`` and a case directory
    passes the validate check. Directories are not matched by name, so a
    change in how the runner names them does not matter."""
    values = expect["values"]
    summary = Check()
    if not _files(out, ["sweep_summary.csv"], summary):
        return [summary for _ in values]
    summary.hashes["sweep_summary.csv"], _ = _digest(out / "sweep_summary.csv")
    with open(out / "sweep_summary.csv", newline="") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    dirs = sorted(p for p in out.iterdir() if p.is_dir())
    summary.require(len(statuses) == len(values),
                    f"sweep_summary.csv has {len(statuses)} rows for {len(values)} values")
    summary.require(len(dirs) == len(values),
                    f"{len(dirs)} case directories for {len(values)} values")
    checks = []
    for i, value in enumerate(values):
        chk = Check(failures=list(summary.failures))
        status = statuses[i] if i < len(statuses) else None
        chk.require(status == "ok", f"case {value}: status {status!r}")
        if i < len(dirs):
            check_validate(dirs[i], expect, chk)
            chk.hashes = {f"{dirs[i].name}/{k}": v for k, v in chk.hashes.items()}
        if i == 0:
            chk.hashes.update(summary.hashes)
        checks.append(chk)
    return checks
