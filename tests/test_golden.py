"""Golden sha256 hashes of sample-run CSVs: a refactor may not move a byte.

The hashes were taken with the per-cell CSV writer that the array writer
replaced, on x86-64 Linux with NumPy 2.4 and SciPy 1.17. They also pin the
last bit of NumPy's elementwise math and FFTs, so a different CPU or NumPy
build can move them without any change to this package.

Three hashes were retaken when every phase became exact in G2 = ∫₀ᵗG²: the
driven plane-wave snapshots (its phase was adaptive Simpson; 19130 cells
moved, by at most 2.2e-15), the small-b1 momentum comparison (1 cell,
3.5e-18) and the small-b1 sweep summary (2 cells, 2.1e-17). The last two
used a Simpson-summed kinetic-action table.

The driven plane-wave observables (1 cell, 2.2e-16) and snapshots (2523
cells, at most 7.1e-15) were retaken again when the sinusoidal G and G1
stopped cancelling at small ωt: they are now built from sin²(ωt/2) and
ωt − sin ωt directly.

The small-b1 momentum comparison was retaken again when momentum mode began
sampling φ(p,t) through the general route φ0(p − G)·exp{…}
(``momentum_solution``) instead of the Gaussian's three-factor closed form:
6 of its 22 cells moved, by at most 1.4e-17.

Two validate runs pin the oracles under a force that depends on time: a
sinusoidal one, whose Crank–Nicolson matrix changes every step, and a
tabulated one that is flat up to t = 0.25 and then slopes, so the run has
steps where the force stays the same and steps where it changes.

A sinusoidal σ sweep pins the batched propagation. Its three cases share one
Hamiltonian, so they propagate as one batch at ``--jobs 1``, as a batch of
two and one of one at ``--jobs 2``, and alone at ``--jobs 3``; each gives the
same bytes. The σ = 0.23 case passes the containment check and then reaches
the box edge mid-run, so it ends as ``error:AliasingError`` with no case
directory while the other two rows of its batch run on. These hashes were
taken when every case still propagated on its own.

Five hashes were retaken when every snapshot time became step·dt, the time
the oracles already used, in place of dt·output_every·k. Only rows whose t
moved by its last bit changed, and in them t and the cells computed from it.
Relative figures are to the column's max|cell|: the tails of ψ are near zero,
so ulps of a cell say little.

- free_gaussian observables: 4 of 21 rows, 8 cells (t, dx, dxdp). t moved
  at 0.3, 0.6, 1.2 and 1.7, by at most 2.2e-16; dx and dxdp by at most
  2.2e-16 (1.6e-16 relative).
- free_gaussian snapshots: the 4 snapshots at those t, 8192 of 43008 rows,
  26319 cells: t, plus ψ by at most 1.1e-16 (psi_im 4.1e-16 relative) and
  prob by at most 2.8e-16 (7.0e-16 relative).
- driven_plane_wave observables: 2 of 11 rows, only t, at 0.3 and 0.6
  (1.1e-16).
- driven_plane_wave snapshots: the 2 snapshots at those t, 2048 of 11264
  rows, 4537 cells: t, plus ψ by at most 1.1e-16 and prob by at most
  6.7e-16, all of max|cell| 1.
- small_b1_momentum comparison: 2 of 11 rows, 3 cells. t moved at 0.15 and
  0.3 (5.6e-17); one max_abs_diff cell by 3.5e-18, where the column, the
  rounding-level gap between two routes to one field, peaks at 2.0e-14.

The full b1 momentum comparison (``configs/b1.ini`` as it is: n = 2048, 201
snapshots) pins the closed forms' time arithmetic at many more times than the
runs above. Evaluating the closed forms on 0-d arrays in place of Python floats
moves none of the other hashes, yet NumPy's ``t**3`` rounds differently from
Python's at about 5% of times, and that moves cells of this file.

The full b1 analytic run (``configs/b1.ini`` as it is: 201 snapshots of 2048
points, a 411,648-row, 47,944,168-byte ``snapshots.csv``, and its
``observables.csv``) pins the array formatter on the largest file any
configuration writes. Both hashes were taken with the writer before it, which
formatted each chunk through one ``%``-template of CPython's ``%.16e``.

Seven hashes were retaken when a Crank–Nicolson step became one solve by the
Cayley identity, ψ' = 2(1 + iA)⁻¹ψ − ψ, in place of a banded product with
1 − iA followed by the solve. The scheme is the same; only its rounding moved,
and only in the ``l2_err_cn`` column (``final_l2_err_cn`` in a summary), one
cell per validate row after t = 0. The largest moves, absolute and relative to
the cell: small_b1_validate 2.2e-15 (6.8e-9), small_sinusoidal_validate
5.7e-16 (2.8e-9), small_tabulated_validate 7.5e-16 (4.2e-9), the small-b1
sweep summary 2.2e-15 (6.8e-9), and in the σ sweep its summary 1.1e-15
(3.8e-8), σ = 1 1.1e-15 (3.8e-8) and σ = 0.8 8.8e-16 (1.2e-8).
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
CONSTANT = "kind = constant\namplitude = 1.0"
SMALL_SINUSOIDAL = SMALL_B1.replace(
    CONSTANT, "kind = sinusoidal\namplitude = 1.0\nomega = 2.0\nphase = 0.3"
)
SMALL_TABULATED = SMALL_B1.replace(CONSTANT, "kind = tabulated\nsamples = 0:1, 0.25:1, 0.5:0.5")
# -0.0 is an invalid dt: its row carries nan cells and a -0.0 value
SMALL_B1_SWEEP = SMALL_B1.replace(
    "mode = validate",
    "mode = sweep\nsweep_axis = dt\nsweep_values = 2e-3, -0.0, 1e-3\nsweep_mode = validate",
)

# a sinusoidal σ sweep on a ±10 box: σ = 1 and 0.8 pass, σ = 0.23 spreads into the wall
SMALL_SIGMA_SWEEP = (
    SMALL_B1.replace(CONSTANT, "kind = sinusoidal\namplitude = 0.5\nomega = 2\nphase = 0.3")
    .replace("x_min = -20\nx_max = 20", "x_min = -10\nx_max = 10")
    .replace(
        "mode = validate",
        "mode = sweep\nsweep_axis = sigma\nsweep_values = 1.0, 0.23, 0.8\nsweep_mode = validate",
    )
)
SWEEP_GOLDEN = {
    "sweep_summary.csv": "ce6e7ac8e10e6d0c5dd40b2d5cdfb261070c11d5bdbc8d12a4dae2bc24a0d8ec",
    "sigma=1/observables.csv":
        "039edbdc3ae36f4e8374d33e08c212a2a5752fb09ad5fa9e0f306f0051004f0c",
    "sigma=0.8/observables.csv":
        "d348af9c88c36a5736caaa05664e6f41ba3f5b14882dd7b198c20e44bc7f5918",
}

GOLDEN = {
    ("free_gaussian", "observables.csv"):
        "4e1b15d1c4045c1b6c3ff4a826e2133bbb7fb1bdd136aa8843d967eafae11814",
    ("free_gaussian", "snapshots.csv"):
        "cd179933f8786d051bc3d71d7209c66856a2205be2650483d4847efc19ba5116",
    ("driven_plane_wave", "observables.csv"):
        "10302826629d0d0eed403b113d37f90a4581abf626af45c337ef5f8d81d906dc",
    ("driven_plane_wave", "snapshots.csv"):
        "d95ea991415017c12c39a61bfae669a9c2536432c319d5b809a652acede22768",
    ("small_b1_validate", "observables.csv"):
        "87a8f44dafba5fe4017cc4bfce6ebbc01dc8137c8ebbe04433f78b414b84fc38",
    ("small_sinusoidal_validate", "observables.csv"):
        "c253fe2da049634c5f7298697f21f250884ab2dca9884d119a10b504d94d4160",
    ("small_tabulated_validate", "observables.csv"):
        "574df6a2057aff8ab88df3b9a7493ceb64ab00d1bf66eeadb835d216bae5e516",
    ("small_b1_momentum", "comparison.csv"):
        "0686713c5f8047598b1067877f970318fd92b332a2cbeea9a4b47b21a92df1df",
    ("b1_momentum", "comparison.csv"):
        "de7a173648ece2ae89189b0dd8add5e642ae6a440c7c7d7349f8e58a3ad9db72",
    ("b1_analytic", "snapshots.csv"):
        "8654b66b758f4bd8cae4d82eb5d9f2594b7c689a967691f588c6e723dbd1bed8",
    ("b1_analytic", "observables.csv"):
        "aae4fbeb7bb2dd0c025004eda17c96d1e92e3951fd98b191b201e6a42f067c73",
    ("small_b1_sweep", "sweep_summary.csv"):
        "7253de0852dca90ca766e6740b47d042291347380366269ed6f4c392832d6329",
}


def _run(run: str, out: Path) -> None:
    if run in ("free_gaussian", "driven_plane_wave"):
        run_analytic(parse_config((CONFIGS / f"{run}.ini").read_text()), out)
    elif run == "small_b1_validate":
        run_validate(parse_config(SMALL_B1), out)
    elif run == "small_sinusoidal_validate":
        run_validate(parse_config(SMALL_SINUSOIDAL), out)
    elif run == "small_tabulated_validate":
        run_validate(parse_config(SMALL_TABULATED), out)
    elif run == "small_b1_momentum":
        run_momentum(parse_config(SMALL_B1, mode_override="momentum"), out)
    elif run == "b1_analytic":
        run_analytic(parse_config((CONFIGS / "b1.ini").read_text()), out)
    elif run == "b1_momentum":
        run_momentum(parse_config((CONFIGS / "b1.ini").read_text(), mode_override="momentum"), out)
    else:
        run_sweep(parse_config(SMALL_B1_SWEEP), out, jobs=1)


@pytest.mark.parametrize("run, name", sorted(GOLDEN), ids=lambda v: v)
def test_output_hash_is_golden(tmp_path, run, name):
    _run(run, tmp_path)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[run, name]


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_batched_sweep_hash_is_golden(tmp_path, jobs):
    cfg = parse_config(SMALL_SIGMA_SWEEP)
    assert cfg.grid.x_min == -10.0 and cfg.profile.amplitude == 0.5
    results = run_sweep(cfg, tmp_path, jobs=jobs)
    assert [r[-1] for r in results] == ["ok", "error:AliasingError", "ok"]
    assert not (tmp_path / "sigma=0.23").exists()
    for name, digest in SWEEP_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
