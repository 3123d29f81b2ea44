"""Spans around the calls into each lrwp module, recorded from outside.

``Tracer.install`` replaces public names in the namespaces that call them
(``lrwp.runner`` binds ``sample_gtwp``, ``write_csv_atomic`` and the rest
with ``from ... import``, so those bindings are the ones wrapped) and
``uninstall`` restores them. Spans stay in memory as
``[name, start, end, parent, pass_id, pid, attrs]``.

Sweep workers are forked while the wrappers are installed, so they record
spans too. A worker appends each finished top-level span tree to
``spans-<pid>.jsonl`` in the spool directory; ``collect`` merges those files
into the parent's list after each pass. Span times are ``perf_counter``
readings (CLOCK_MONOTONIC on Linux), which are comparable across processes.

A target name the program no longer has is skipped and listed in
``Tracer.missing``; the figures built on it then read 0.
"""

import functools
import importlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, PASS, PID, ATTRS = range(7)


def _steps(args, kwargs) -> int:
    """Step count of a propagation: the argument that carries ``n_steps``."""
    for value in (*args, *kwargs.values()):
        steps = getattr(value, "n_steps", None)
        if isinstance(steps, int):
            return steps
    return 0


def _csv_attrs(args, kwargs, _result) -> dict:
    path = Path(kwargs.get("path", args[0] if args else ""))
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    attrs = {"bytes": path.stat().st_size if path.is_file() else 0}
    if hasattr(rows, "__len__"):
        attrs["rows"] = len(rows)
    elif path.is_file():
        with open(path, "rb") as fh:
            attrs["rows"] = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b"")) - 1
    return attrs


# (module, attribute, span name, kind); kind is "call", "gen", "class" or a
# function computing span attributes from (args, kwargs, result).
TARGETS = [
    ("lrwp.cli", "parse_config", "config.parse", "call"),
    *[(mod, f"run_{m}", f"runner.run_{m}", "call")
      for mod in ("lrwp.cli", "lrwp.runner") for m in ("analytic", "validate", "momentum")],
    ("lrwp.cli", "run_sweep", "runner.run_sweep", "call"),
    ("lrwp.runner", "_run_sweep_case", "runner.sweep_case", "call"),
    ("lrwp.runner", "apply_sweep_value", "config.sweep_value", "call"),
    ("lrwp.runner", "check_containment", "config.containment", "call"),
    ("lrwp.runner", "KineticActionTable", "classical.action_table", "class"),
    ("lrwp.runner", "x_c", "classical.center", "call"),
    ("lrwp.runner", "p_c", "classical.center", "call"),
    ("lrwp.wavepacket", "kinetic_action", "classical.kinetic_action", "call"),
    ("lrwp.classical", "adaptive_simpson", "quadrature.simpson", "call"),
    ("lrwp.forcing", "adaptive_simpson", "quadrature.simpson", "call"),
    ("lrwp.invariant", "adaptive_simpson", "quadrature.simpson", "call"),
    ("lrwp.runner", "eigenvalue", "invariant.eigenvalue", "call"),
    ("lrwp.runner", "coeffs_at", "invariant.coeffs", "call"),
    ("lrwp.wavepacket", "coeffs_at", "invariant.coeffs", "call"),
    ("lrwp.wavepacket", "phase_alpha", "invariant.phase_alpha", "call"),
    ("lrwp.oracle", "apply_invariant", "invariant.apply", "call"),
    ("lrwp.runner", "sample_gtwp", "wavepacket.sample_gtwp", "call"),
    ("lrwp.runner", "sample_gaussian_momentum", "wavepacket.momentum_route", "call"),
    ("lrwp.runner", "fourier_bridge", "wavepacket.momentum_route", "call"),
    ("lrwp.runner", "plane_wave_psi", "wavepacket.plane_wave", "call"),
    *[("lrwp.runner", f, "wavepacket.scalars", "call")
      for f in ("analytic_norm_sq", "delta_x", "delta_p", "uncertainty_product",
                "min_uncertainty_time")],
    ("lrwp.runner", "propagate_splitstep", "oracle.ss", "gen"),
    ("lrwp.runner", "propagate_cranknicolson", "oracle.cn", "gen"),
    ("lrwp.runner", "observables", "oracle.observables", "call"),
    ("lrwp.runner", "l2_error", "fields.l2_error", "call"),
    ("lrwp.oracle", "l2_error", "fields.l2_error", "call"),
    ("lrwp.runner", "conjugate_momentum_grid", "fields.grid", "call"),
    *[("lrwp.oracle", f, "fields.moments", "call")
      for f in ("field_norm", "grid_moments", "momentum_moments")],
    ("lrwp.runner", "write_csv_atomic", "runner.csv_write", _csv_attrs),
]


class Tracer:
    """Records spans for the process that created it and its forked workers."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.main_pid = self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = 0
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid, self.spans, self.stack = os.getpid(), [], []
        rec = [name, perf_counter(), None, self.stack[-1] if self.stack else None,
               self.pass_id, self.pid, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self.stack.pop()
            if self.pid != self.main_pid and not self.stack:
                with open(self.spool / f"spans-{self.pid}.jsonl", "a") as fh:
                    fh.write(json.dumps(self.spans) + "\n")
                self.spans = []

    def collect(self) -> None:
        """Merge and remove the span files workers wrote."""
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(self.spans)
                for rec in json.loads(line):
                    if rec[PARENT] is not None:
                        rec[PARENT] += base
                    self.spans.append(rec)
            path.unlink()

    def _call(self, name, fn, attrs_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                rec[ATTRS].update(attrs_fn(args, kwargs, result))
            return result
        return traced

    def _gen(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, steps=_steps(args, kwargs)):
                gen = fn(*args, **kwargs)
            return self._timed_iter(name, gen)
        return traced

    def _timed_iter(self, name, gen):
        while True:
            with self.span(name):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item

    def _class(self, name, cls):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                with tracer.span(name):
                    super().__init__(*args, **kwargs)

            def __call__(self, *args, **kwargs):
                with tracer.span(name):
                    return super().__call__(*args, **kwargs)

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if kind == "gen":
                wrapped = self._gen(name, fn)
            elif kind == "class":
                wrapped = self._class(name, fn)
            else:
                wrapped = self._call(name, fn, None if kind == "call" else kind)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def wall_attribution(spans: list[list], root: int) -> dict[int, float]:
    """Share out the wall time of span ``root`` among the spans doing work.

    At each instant the innermost open span of every process is working.
    When worker spans are open they share the instant equally and the
    waiting parent gets none of it; otherwise the parent's innermost span
    gets all of it. With one process this is each span's self time: its
    duration minus the time its children cover. The shares add up to the
    root's duration exactly.
    """
    events = []
    for i, rec in enumerate(spans):
        if rec[END] > rec[START]:  # an empty span covers no time
            events.append((rec[START], 1, i))
            events.append((rec[END], 0, i))
    events.sort()
    main_pid = spans[root][PID]
    stacks: dict[int, list[int]] = {}
    share: dict[int, float] = {}
    last = None
    for t, is_start, i in events:
        if last is not None and t > last:
            workers = [s[-1] for pid, s in stacks.items() if s and pid != main_pid]
            owners = workers or stacks.get(main_pid, [])[-1:]
            for j in owners:
                share[j] = share.get(j, 0.0) + (t - last) / len(owners)
        stack = stacks.setdefault(spans[i][PID], [])
        if is_start:
            stack.append(i)
        else:
            stack.remove(i)
        last = t
    return share
