"""Benchmark for lrwp: seeded workloads through ``lrwp.cli.main``, in process.

    python3 perfbench/run.py --workload closed-form-io --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else. One run:

1. generates the workload's INI files from ``--seed`` (``workloads.py``);
2. set-up: starts a fresh interpreter that imports ``lrwp.cli`` and parses
   those files, several times, and keeps the median (``setup_s``);
3. runs one warm-up pass, then passes back to back as long as they fit in
   ``--seconds`` from the start of the warm-up: a closed loop with one client,
   each CLI call starting when the previous one returned. Every pass
   writes its configs to a fresh directory under ``.perfbench_out/work``,
   checks every output (``check.py``) and then deletes the directory;
4. prints a table of every metric by name and unit, writes a record with
   the environment and output hashes to ``.perfbench_out/results``, and
   ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
timed passes. With ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones from the traced passes (``tracing.py``),
plus the tracing overhead measured against the untraced passes.

An operation is one CLI call, or one case of a sweep. It fails on a nonzero
exit, a sweep case whose status is not ``ok``, or an output that fails its
check.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median wall time of a fresh interpreter importing
  ``lrwp.cli`` and parsing the workload's configs.
* ``pass_s``, ``cpu_s``: median wall and CPU seconds (this process plus its
  children, so sweep workers count) of one pass.
* ``peak_rss_mb``: median over passes of the peak resident memory of this
  process plus its live children, sampled every 20 ms during the pass.
* ``ok_frac``: operations that passed over operations attempted, i.e.
  1 - failed_frac (a result metric may not read 0).
* ``xcheck_digits``: -log10 of the largest disagreement between a closed
  form and its independent cross-check in a pass: the L2 error of either
  oracle, or the momentum-route gap. It applies to every workload; the
  table also prints failed_frac and the raw ``l2_err_ss``, ``l2_err_cn``
  and ``momentum_gap`` wherever they apply, and the traced run reports them
  as per-layer figures.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, START  # noqa: E402

SETUP_REPEATS = 5
WARMUP_PASSES = 1
MIN_PASSES = 3
RSS_INTERVAL_S = 0.02
FIGURE_FLOOR = 1e-17  # digits of agreement are capped at 17

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import lrwp.cli
from lrwp.config import parse_config
from lrwp.errors import LrwpError
for item in sys.argv[2:]:
    mode, path = item.split(":", 1)
    with open(path) as fh:
        try:
            parse_config(fh.read(), mode_override=mode)
        except LrwpError:  # a rejected config fails its call in the passes
            pass
"""

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "share",
    "xcheck_digits": "digits",
}

TIMES = [
    "config.parse_s", "classical.action_table_s", "invariant.phase_alpha_s",
    "wavepacket.sample_gtwp_s", "wavepacket.momentum_route_s", "wavepacket.plane_wave_s",
    "oracle.ss_s", "oracle.cn_s", "oracle.observables_s", "fields.l2_error_s",
    "runner.csv_write_s", "runner.sweep_case_s", "runner.sweep_queue_wait_s",
    "runner.sweep_overhead_s", "cli.overhead_s",
]
LAYERS = ["config", "classical", "quadrature", "invariant", "wavepacket", "oracle",
          "fields", "runner", "cli", "bench"]
PER_LAYER = {
    **{name: "s" for name in TIMES},
    **{f"layer.{layer}_s": "s" for layer in LAYERS},
    **{name[:-2] + "_share": "share" for name in TIMES},
    **{f"layer.{layer}_share": "share" for layer in LAYERS},
    "quadrature.simpson_calls": "count",
    "wavepacket.sample_gtwp_calls": "count",
    "oracle.steps": "count",
    "oracle.ss_step_us": "us",
    "oracle.cn_step_us": "us",
    "runner.csv_rows": "count",
    "runner.csv_bytes": "B",
    "runner.csv_mb_per_s": "MB/s",
    "runner.sweep_busy_frac": "share",
    "oracle.l2_err_ss": "1",
    "oracle.l2_err_cn": "1",
    "wavepacket.momentum_gap": "1",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Import lrwp from this checkout's ``src/``; refuse any other copy."""
    if not (SRC / "lrwp" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/lrwp")
    sys.path.insert(0, str(SRC))
    import lrwp.cli

    if Path(lrwp.cli.__file__).resolve().parent != SRC / "lrwp":
        raise SystemExit(f"perfbench: imported lrwp from {lrwp.cli.__file__}, not {SRC}")
    return lrwp.cli


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in blas},
        "git_commit": git_commit(),
        "seed": seed,
    }


class PeakRss:
    """Samples resident memory of this process plus its children."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _rss_kb(pid) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except OSError:  # the child exited between listing and reading
            pass
        return 0

    def _sample(self) -> None:
        total = self._rss_kb("self")
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children") as fh:
                    total += sum(self._rss_kb(pid) for pid in fh.read().split())
            except OSError:
                pass
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(configs: dict[str, str], calls) -> list[float]:
    """Wall seconds for a fresh interpreter to import lrwp.cli and parse the
    workload's configs, once per repeat."""
    tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT / "work"))
    try:
        for name, text in configs.items():
            (tmp / name).write_text(text)
        items = [f"{c.mode}:{tmp / c.config}" for c in calls]
        cmd = [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), *items]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            subprocess.run(cmd, check=True, capture_output=True, timeout=120, cwd=ROOT)
            times.append(perf_counter() - t0)
        return times
    finally:
        shutil.rmtree(tmp)


def check_call(call, out: Path, code) -> list[check.Check]:
    """Checks of one call's outputs: one per operation (sweep case or call)."""
    try:
        if call.mode == "sweep":
            checks = check.check_sweep(out, call.expect)
        elif call.mode == "validate":
            checks = [check.check_validate(out, call.expect)]
        elif call.mode == "analytic":
            checks = [check.check_analytic(out, call.expect)]
        else:
            checks = [check.check_momentum(out, call.expect)]
    except (ValueError, KeyError, IndexError) as exc:  # malformed CSV
        ops = len(call.expect.get("values", [None]))
        checks = [check.Check(failures=[f"{call.mode}: unreadable output: {exc!r}"])
                  for _ in range(ops)]
    for chk in checks:
        chk.hashes = {f"{out.name}/{name}": h for name, h in chk.hashes.items()}
        if code != 0:
            chk.failures.insert(0, f"{call.mode} exited with {code}")
    return checks


def run_pass(cli, configs, calls, tracer=None) -> dict:
    """One pass: every call of the workload, timed, then checked."""
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT / "work"))
    try:
        for name, text in configs.items():
            (tmp / name).write_text(text)
        argvs = [c.argv(str(tmp / c.config), str(tmp / f"out{i}")) for i, c in enumerate(calls)]
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), PeakRss() as rss:
            cpu0 = cpu_seconds()
            t0 = perf_counter()
            with span("pass"):
                for argv in argvs:
                    try:
                        with span("cli.main"):
                            codes.append(cli.main(argv))
                    except (Exception, SystemExit):  # a crash is a failed call, not the end
                        codes.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
            wall = perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        checks = [chk for i, c in enumerate(calls)
                  for chk in check_call(c, tmp / f"out{i}", codes[i])]
    finally:
        shutil.rmtree(tmp)
    return {"wall": wall, "cpu": cpu, "peak_rss_mb": rss.peak_kb / 1024.0,
            "traced": tracer is not None, "codes": codes, "checks": checks}


def figures(checks) -> dict[str, float]:
    out = {}
    for chk in checks:
        for name, value in chk.figures.items():
            out[name] = max(out.get(name, 0.0), value)
    return out


def xcheck_digits(figs: dict[str, float]) -> float:
    """Fewest digits of agreement between a closed form and its independent
    cross-check (oracle L2 error or momentum-route gap) in the pass."""
    worst = max(figs.get(k, 0.0) for k in ("l2_err_ss", "l2_err_cn", "momentum_gap"))
    return -math.log10(max(worst, FIGURE_FLOOR))


def traced_metrics(spans, jobs: int) -> dict[str, float]:
    """Per-layer figures of one traced pass; ``spans`` hold that pass only.

    ``<module>.<name>_s`` is busy time inside those calls, children
    included, summed over processes: on the sweep two workers are busy at
    once, so such a share of the pass can exceed 1. ``layer.<module>_s`` is
    the module's share of the pass wall time (``tracing.wall_attribution``);
    these add up to ``trace.pass_s``, with ``layer.bench_s`` the time the
    benchmark itself spent inside the pass.
    """
    root = next(i for i, rec in enumerate(spans) if rec[NAME] == "pass")
    wall = spans[root][END] - spans[root][START]
    incl, calls, attrs = defaultdict(float), defaultdict(int), defaultdict(float)
    for rec in spans:
        incl[rec[NAME]] += rec[END] - rec[START]
        calls[rec[NAME]] += 1
        for key, value in rec[tracing.ATTRS].items():
            attrs[f"{rec[NAME]}.{key}"] += value
    m = {
        "config.parse_s": incl["config.parse"],
        "classical.action_table_s": incl["classical.action_table"],
        "invariant.phase_alpha_s": incl["invariant.phase_alpha"],
        "wavepacket.sample_gtwp_s": incl["wavepacket.sample_gtwp"],
        "wavepacket.momentum_route_s": incl["wavepacket.momentum_route"],
        "wavepacket.plane_wave_s": incl["wavepacket.plane_wave"],
        "oracle.ss_s": incl["oracle.ss"],
        "oracle.cn_s": incl["oracle.cn"],
        "oracle.observables_s": incl["oracle.observables"],
        "fields.l2_error_s": incl["fields.l2_error"],
        "runner.csv_write_s": incl["runner.csv_write"],
        "quadrature.simpson_calls": calls["quadrature.simpson"],
        "wavepacket.sample_gtwp_calls": calls["wavepacket.sample_gtwp"],
        "oracle.steps": attrs["oracle.ss.steps"],
        "runner.csv_rows": attrs["runner.csv_write.rows"],
        "runner.csv_bytes": attrs["runner.csv_write.bytes"],
    }
    m["oracle.ss_step_us"] = 1e6 * incl["oracle.ss"] / max(attrs["oracle.ss.steps"], 1)
    m["oracle.cn_step_us"] = 1e6 * incl["oracle.cn"] / max(attrs["oracle.cn.steps"], 1)
    m["runner.csv_mb_per_s"] = (attrs["runner.csv_write.bytes"] / 1e6 / incl["runner.csv_write"]
                                if incl["runner.csv_write"] else 0.0)

    mains = {i: rec[END] - rec[START] for i, rec in enumerate(spans) if rec[NAME] == "cli.main"}
    for rec in spans:
        if rec[tracing.PARENT] in mains and rec[NAME].startswith("runner.run_"):
            mains[rec[tracing.PARENT]] -= rec[END] - rec[START]
    m["cli.overhead_s"] = sum(mains.values())

    sweeps = [rec for rec in spans if rec[NAME] == "runner.run_sweep"]
    cases = [rec for rec in spans if rec[NAME] == "runner.sweep_case"]
    m["runner.sweep_case_s"] = m["runner.sweep_queue_wait_s"] = 0.0
    m["runner.sweep_overhead_s"] = m["runner.sweep_busy_frac"] = 0.0
    if sweeps and cases:
        sweep_wall = sum(s[END] - s[START] for s in sweeps)
        busy = [c[END] - c[START] for c in cases]
        # each case waited from the start of the sweep that issued it
        starts = [max(s[START] for s in sweeps if s[START] <= c[START]) for c in cases]
        m["runner.sweep_case_s"] = statistics.fmean(busy)
        m["runner.sweep_queue_wait_s"] = statistics.fmean(
            c[START] - s for c, s in zip(cases, starts))
        m["runner.sweep_busy_frac"] = sum(busy) / (jobs * sweep_wall)
        m["runner.sweep_overhead_s"] = sweep_wall - max(busy)

    layers = dict.fromkeys(LAYERS, 0.0)
    for i, share in tracing.wall_attribution(spans, root).items():
        layer = spans[i][NAME].split(".")[0]
        layers["bench" if layer == "pass" else layer] += share
    for layer, value in layers.items():
        m[f"layer.{layer}_s"] = value
    for name in [*TIMES, *(f"layer.{layer}_s" for layer in LAYERS)]:
        m[name[:-2] + "_share"] = m[name] / wall
    m["trace.pass_s"] = wall
    return m


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    cli = import_program()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    configs, calls = workloads.generate(workload, seed)
    jobs = max((c.jobs or 1) for c in calls)
    setup = measure_setup(configs, calls)
    tracer = tracing.Tracer(Path(tempfile.mkdtemp(prefix="spool-", dir=OUT / "work")))

    def one(pass_id: int, with_trace: bool) -> dict:
        tracer.pass_id = pass_id
        if with_trace:
            tracer.install()
        try:
            result = run_pass(cli, configs, calls, tracer if with_trace else None)
        finally:
            tracer.uninstall()
        tracer.collect()
        return result

    # The warm-up counts towards --seconds, and no pass starts that the
    # last one's length says would end after them.
    t0 = perf_counter()
    warm = [one(i, False) for i in range(WARMUP_PASSES)]
    last = perf_counter() - t0
    passes = {False: [], True: []}
    pass_id = WARMUP_PASSES
    while perf_counter() - t0 + last <= seconds or min(
            len(passes[False]), len(passes[True]) if traced else MIN_PASSES) < MIN_PASSES:
        with_trace = traced and pass_id % 2 == 0
        start = perf_counter()
        passes[with_trace].append(one(pass_id, with_trace))
        last = perf_counter() - start
        pass_id += 1
    shutil.rmtree(tracer.spool)

    everything = [*warm, *passes[False], *passes[True]]
    all_checks = [chk for p in everything for chk in p["checks"]]
    attempted = len(all_checks)
    failed = sum(not chk.ok for chk in all_checks)
    timed = passes[False]
    wall = statistics.median(p["wall"] for p in timed)
    figs = figures(all_checks)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "pass_s": wall,
        "cpu_s": statistics.median(p["cpu"] for p in timed),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        "ok_frac": (attempted - failed) / attempted,
        "xcheck_digits": statistics.median(xcheck_digits(figures(p["checks"])) for p in everything),
    }
    per_layer = {}
    if traced:
        by_pass, local = defaultdict(list), {}
        for i, rec in enumerate(tracer.spans):  # parents become indices within the pass
            spans = by_pass[rec[tracing.PASS]]
            local[i] = len(spans)
            parent = rec[tracing.PARENT]
            spans.append([*rec[:tracing.PARENT], local.get(parent), *rec[tracing.PARENT + 1:]])
        rows = [traced_metrics(spans, jobs) for spans in by_pass.values()]
        per_layer = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        per_layer["trace.untraced_pass_s"] = wall
        per_layer["trace.overhead_ratio"] = per_layer["trace.pass_s"] / wall
        per_layer["oracle.l2_err_ss"] = figs.get("l2_err_ss", 0.0)
        per_layer["oracle.l2_err_cn"] = figs.get("l2_err_cn", 0.0)
        per_layer["wavepacket.momentum_gap"] = figs.get("momentum_gap", 0.0)

    hashes = {}
    for chk in everything[0]["checks"]:
        hashes.update(chk.hashes)
    changed = sorted({name for p in everything for chk in p["checks"]
                      for name, h in chk.hashes.items() if hashes.get(name) != h})
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(traced),
        "env": environment(seed),
        "configs": configs,
        "calls": [c.argv(c.config, f"out{i}") for i, c in enumerate(calls)],
        "setup_runs_s": setup,
        "passes": [{k: p[k] for k in ("wall", "cpu", "peak_rss_mb", "traced", "codes")}
                   for p in everything[WARMUP_PASSES:]],
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for chk in all_checks for f in chk.failures}),
        "figures": figs,
        "sha256": hashes,
        "sha256_changed_between_passes": changed,
        "untraced_names": tracer.missing,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": tracer.spans if traced else [],
    }
    return record, (per_layer if traced else end_to_end)


def print_table(record: dict) -> None:
    w = record["workload"]
    env = record["env"]
    print(f"# lrwp benchmark · workload {w} · seed {env['seed']} · trace {record['trace']}")
    print(f"# nproc {env['nproc']} · python {env['python']} · numpy {env['numpy']} · "
          f"scipy {env['scipy']} · commit {env['git_commit'][:12]}")
    walls = sorted(p["wall"] for p in record["passes"] if not p["traced"])
    timed = len(walls)
    e2e = record["end_to_end"]
    rows = [(name, e2e[name], unit) for name, unit in END_TO_END.items()]
    # a tail percentile only when at least ten passes lie beyond it
    for q in (99, 90):
        if timed * (100 - q) >= 1000:
            rows.append((f"pass_s_p{q}", statistics.quantiles(walls, n=100)[q - 1], "s"))
            break
    rows.append(("failed_frac", record["failed"] / record["attempted"], "share"))
    for name in ("l2_err_ss", "l2_err_cn", "momentum_gap"):
        if name in record["figures"]:
            rows.append((name, record["figures"][name], "1"))
    print(f"# end to end: medians over {timed} timed passes "
          f"({len(record['setup_runs_s'])} set-ups), closed loop, one client")
    for name, value, unit in rows:
        print(f"{w:18s} {name:32s} {value:14.6g} {unit}")
    if record["per_layer"]:
        print(f"# per layer: medians over {len(record['passes']) - timed} traced passes")
        for name, value in record["per_layer"].items():
            print(f"{w:18s} {name:32s} {value:14.6g} {PER_LAYER[name]}")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print_table(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
