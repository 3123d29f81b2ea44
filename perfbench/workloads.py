"""Seeded workload definitions: the configs each pass feeds to ``lrwp``.

A workload is a fixed list of CLI calls over generated INI files. The seed
jitters the packet (``x0``, ``p0``, ``sigma``) and the force (amplitude,
phase) but never the grid, so every seed asks for the same amount of work
and pass times from different seeds are comparable. The jitter is small
(1% on widths and amplitudes, 0.1 rad of force phase, 0.2 in x0, 0.04 in
p0) because the oracle errors depend on where the packet sits in the
linear potential and on its momentum content, and the accuracy figure
should compare across seeds. The program sees only
the INI files; the checker also gets the figures it needs to judge the
outputs (``Call.expect``).

Why these two workloads:

* ``closed-form-io`` evaluates closed forms and writes a 48 MB CSV with no
  propagation. The CSV writer, closed-form sampling and the momentum route
  are exercised; the oracle layer is bypassed.
* ``oracles`` propagates with both oracles. It first validates a
  constant-force packet at n=2048 and n=8192: the Hamiltonian is time
  independent (the CN factor-once case), the CSV is tiny, and the two grid
  sizes separate per-call from per-point cost. It then fans four validate
  cases out to two worker processes under a time-dependent force, whose
  kinetic action has no closed form, which bypasses factor-once.

The two oracle parts share one workload rather than being one each: on a
host whose speed drifts by tens of percent over minutes, two workloads
leave room in the benchmark's time budget for runs long enough to be steady.
"""

import random
from dataclasses import dataclass, field

WORKLOADS = ("closed-form-io", "oracles")
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Call:
    """One CLI call: ``lrwp <mode> --config <config> [--jobs N]``."""

    mode: str
    config: str  # file name inside the pass directory
    jobs: int | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        args = [self.mode, "--config", config_path, "--out", out_dir]
        if self.jobs is not None:
            args += ["--jobs", str(self.jobs)]
        return args


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _jitter(rng: random.Random, value: float, rel: float = 0.01) -> float:
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def _gaussian(rng: random.Random) -> dict[str, float]:
    return {"sigma": _jitter(rng, 1.0), "x0": rng.uniform(-0.1, 0.1),
            "p0": rng.uniform(-0.02, 0.02)}


def _sinusoidal(rng: random.Random) -> dict[str, object]:
    return {"kind": "sinusoidal", "amplitude": _jitter(rng, 1.0), "omega": 2.0,
            "phase": rng.uniform(0.25, 0.35)}


def _grid(n: int, t_max: float, output_every: int) -> dict[str, object]:
    return {"x_min": -20.0, "x_max": 20.0, "n": n, "dt": 1e-3,
            "t_max": t_max, "output_every": output_every}


def _snapshots(grid: dict) -> int:
    return round(grid["t_max"] / grid["dt"]) // grid["output_every"] + 1


def _expect(grid: dict) -> dict:
    return {"snapshots": _snapshots(grid), "n": grid["n"], "hbar": 1.0}


def generate(workload: str, seed: int) -> tuple[dict[str, str], list[Call]]:
    """Config texts by file name, and the calls of one pass, for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    constant = {"kind": "constant", "amplitude": _jitter(rng, 1.0)}
    packet = _gaussian(rng)
    if workload == "closed-form-io":
        grid = _grid(2048, 2.0, 10)
        plane_grid = _grid(1024, 1.0, 100)
        plane = {
            "force": _sinusoidal(rng),
            "packet": {"F0": 0, "p0": _jitter(rng, 1.0)},
            "grid": plane_grid,
        }
        configs = {
            "b1.ini": _ini({"force": constant, "packet": packet, "grid": grid}),
            "plane.ini": _ini(plane),
        }
        calls = [
            Call("analytic", "b1.ini", expect=_expect(grid)),
            Call("analytic", "plane.ini", expect={**_expect(plane_grid), "plane_wave": True}),
            Call("momentum", "b1.ini", expect=_expect(grid)),
        ]
    elif workload == "oracles":
        small = _grid(2048, 2.0, 100)
        large = _grid(8192, 1.0, 100)
        sigmas = [round(_jitter(rng, s), 4) for s in (0.9, 1.0, 1.1, 1.2)]
        run = {"mode": "sweep", "sweep_axis": "sigma",
               "sweep_values": ", ".join(repr(s) for s in sigmas),
               "sweep_mode": "validate"}
        configs = {
            "b1.ini": _ini({"force": constant, "packet": packet, "grid": small}),
            "b1_n8192.ini": _ini({"force": constant, "packet": packet, "grid": large}),
            "sweep.ini": _ini({"force": _sinusoidal(rng), "packet": packet,
                               "grid": small, "run": run}),
        }
        calls = [
            Call("validate", "b1.ini", expect=_expect(small)),
            Call("validate", "b1_n8192.ini", expect=_expect(large)),
            Call("sweep", "sweep.ini", jobs=SWEEP_JOBS,
                 expect={"values": sigmas, **_expect(small)}),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return configs, calls
