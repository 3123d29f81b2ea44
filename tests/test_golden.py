"""Golden sha256 hashes of sample-run CSVs: a refactor may not move a byte.

The hashes were taken with the per-cell CSV writer that the array writer
replaced, on x86-64 Linux with NumPy 2.4 and SciPy 1.17. They also pin the
last bit of NumPy's elementwise math and FFTs, so a different CPU or NumPy
build can move them without any change to this package.
"""

import hashlib
from pathlib import Path

import pytest

from lrwp.config import parse_config
from lrwp.runner import run_analytic, run_momentum, run_sweep, run_validate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# b1.ini on a coarser grid and a shorter run, so every mode runs in a second
SMALL_B1 = (
    (CONFIGS / "b1.ini")
    .read_text()
    .replace("n = 2048", "n = 512")
    .replace("t_max = 2.0", "t_max = 0.5")
    .replace("output_every = 10", "output_every = 50")
)
# -0.0 is an invalid dt: its row carries nan cells and a -0.0 value
SMALL_B1_SWEEP = SMALL_B1.replace(
    "mode = validate",
    "mode = sweep\nsweep_axis = dt\nsweep_values = 2e-3, -0.0, 1e-3\nsweep_mode = validate",
)

GOLDEN = {
    ("free_gaussian", "observables.csv"):
        "de45315b152bbb0b379835e80d262c88df510ffcb819f75496c3a7f4155ce70b",
    ("free_gaussian", "snapshots.csv"):
        "b522eda60370d1e06799f5328c3a69c750e460d8f2853d8317887840cbd9ebe3",
    ("driven_plane_wave", "observables.csv"):
        "a9366aadbc5e85a7ff7962475b21f37d97a3918ffdceb3ca14cb22274bbbda37",
    ("driven_plane_wave", "snapshots.csv"):
        "d8f49e944c6e8feba1e0b7d14d21b82aee0e31a8e7d0ecd6ac67887eb03e2166",
    ("small_b1_validate", "observables.csv"):
        "5a6fa3af057aa0e44842167418a73400b89290f32be908958dcb1b2250ce28f5",
    ("small_b1_momentum", "comparison.csv"):
        "5e412d4b20c531901eb6a11459d65f6075717e381973ef5cc61bedc777cc7e20",
    ("small_b1_sweep", "sweep_summary.csv"):
        "18181d1a58b3c2c1a540da798120a3f90606a699c40d691b2ff96570694533d2",
}


def _run(run: str, out: Path) -> None:
    if run in ("free_gaussian", "driven_plane_wave"):
        run_analytic(parse_config((CONFIGS / f"{run}.ini").read_text()), out)
    elif run == "small_b1_validate":
        run_validate(parse_config(SMALL_B1), out)
    elif run == "small_b1_momentum":
        run_momentum(parse_config(SMALL_B1, mode_override="momentum"), out)
    else:
        run_sweep(parse_config(SMALL_B1_SWEEP), out, jobs=1)


@pytest.mark.parametrize("run, name", sorted(GOLDEN), ids=lambda v: v)
def test_output_hash_is_golden(tmp_path, run, name):
    _run(run, tmp_path)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[run, name]
