import concurrent.futures
import math
import os
import stat

import numpy as np
import pytest

from lrwp import runner
from lrwp.config import parse_config
from lrwp.errors import AcceptanceViolation, AliasingError
from lrwp.runner import (
    COMPARISON_HEADER,
    OBSERVABLES_HEADER,
    SNAPSHOTS_HEADER,
    SWEEP_HEADER,
    run_analytic,
    run_momentum,
    run_sweep,
    run_validate,
    write_csv_atomic,
)

SMALL_GRID = "[grid]\nx_min = -20\nx_max = 20\nn = 256\ndt = 1e-3\nt_max = 0.5\noutput_every = 50\n"


def _read(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _col(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


class TestFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        write_csv_atomic(tmp_path / "x.csv", ["a"], [[1.0 / 3.0]])
        cell = (tmp_path / "x.csv").read_text().splitlines()[1]
        assert cell == "3.3333333333333331e-01"

    def test_nan_and_negative_zero(self, tmp_path):
        write_csv_atomic(tmp_path / "x.csv", ["a", "b"], [[float("nan"), -0.0]])
        row = (tmp_path / "x.csv").read_text().splitlines()[1]
        assert row == "nan,0.0000000000000000e+00"

    def test_lf_endings(self, tmp_path):
        write_csv_atomic(tmp_path / "x.csv", ["a"], [[1.0], [2.0]])
        raw = (tmp_path / "x.csv").read_bytes()
        assert b"\r" not in raw

    @pytest.mark.parametrize(
        "table", ["streamed blocks", "one array", "text columns", "text columns, plain list"]
    )
    def test_bytes_equal_per_cell_reference(self, tmp_path, table):
        blocks = _special_blocks()
        if table == "streamed blocks":
            header, rows = SNAPSHOTS_HEADER, iter(blocks)
        elif table == "one array":
            header, rows = SNAPSHOTS_HEADER, np.concatenate(blocks)
        else:
            header = SWEEP_HEADER
            cells = np.concatenate(blocks).tolist()
            status = ["ok", "error:ValueError"] * len(cells)
            rows = [["sigma", *row, s] for row, s in zip(cells, status)]
            if table == "text columns":
                rows = np.array(rows, dtype=object)
        reference = np.concatenate(blocks).tolist() if header != SWEEP_HEADER else list(rows)
        _reference_write(tmp_path / "ref.csv", header, reference)
        signs = [np.signbit(block) for block in blocks]
        write_csv_atomic(tmp_path / "new.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        # the caller's blocks keep their -0.0
        assert all((np.signbit(b) == s).all() for b, s in zip(blocks, signs))

    @pytest.mark.parametrize(
        "rows", [[[[1.0]]], [np.zeros((2, 5)), np.zeros((2, 5))], [1.0, 2.0]],
        ids=["3-D list", "list of blocks", "1-D list"],
    )
    def test_rejects_block_not_2d(self, tmp_path, rows):
        with pytest.raises(ValueError, match="2-D"):
            write_csv_atomic(tmp_path / "x.csv", SNAPSHOTS_HEADER, rows)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_permissions_follow_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_csv_atomic(tmp_path / "x.csv", ["a"], [[1.0]])
        finally:
            in_effect = os.umask(previous)
        assert in_effect == umask
        assert stat.S_IMODE((tmp_path / "x.csv").stat().st_mode) == mode


def _reference_write(path, header, rows):
    """The per-cell writer the array writer replaced: the byte reference."""

    def fmt(value):
        if isinstance(value, str):
            return value
        v = float(value)
        if math.isnan(v):
            return "nan"
        if v == 0.0:
            v = 0.0  # normalize -0.0
        return f"{v:.16e}"

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


SPECIAL = [
    -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-310,
    2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0, -2.5,
]


def _special_blocks():
    """Snapshot-shaped blocks of special values.

    Per block: a constant first column (one of them -0.0), a second column
    repeated from the block before (once with the signs of its zeros
    flipped, once with one value moved by an ulp), special values in the
    middle columns, and a constant nan column. The last two blocks span
    more than two chunks; the last one moves an x value in its second chunk.
    """
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2048)
    x[: len(SPECIAL)] = SPECIAL
    blocks = []
    for k in range(6):
        n = 9000 if k >= 4 else 2048
        block = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-300, 300, (n, 5))
        block[:, 0] = -0.0 if k == 0 else 0.1 * k
        block[:, 1] = np.resize(x, n)
        block[k : k + len(SPECIAL), 2] = SPECIAL
        block[-len(SPECIAL) :, 3] = SPECIAL
        blocks.append(block)
    blocks[2][:, 1] = np.where(x == 0.0, -x, x)
    blocks[3][5, 1] = np.nextafter(x[5], math.inf)
    blocks[4][:, 4] = math.nan
    blocks[5][5000, 1] = np.nextafter(blocks[5][5000, 1], -math.inf)
    return blocks


class TestAnalytic:
    def test_free_gaussian_width_column(self, tmp_path):
        cfg = parse_config(SMALL_GRID)
        run_analytic(cfg, tmp_path)
        header, rows = _read(tmp_path / "observables.csv")
        assert header == OBSERVABLES_HEADER
        T = 2.0
        for row in rows:
            t = float(row[0])
            dx = float(row[header.index("dx")])
            assert dx == pytest.approx(1.0 * math.sqrt(1 + (t / T) ** 2), abs=1e-12)

    def test_constant_force_center_column(self, tmp_path):
        cfg = parse_config("[force]\nkind = constant\namplitude = 1\n" + SMALL_GRID)
        run_analytic(cfg, tmp_path)
        header, rows = _read(tmp_path / "observables.csv")
        for row in rows:
            t = float(row[0])
            assert float(row[header.index("x_mean")]) == pytest.approx(
                0.5 * t * t, abs=1e-12
            )

    def test_plane_wave_snapshots_unit_modulus(self, tmp_path):
        cfg = parse_config("[packet]\nF0 = 0\np0 = 1.5\n" + SMALL_GRID)
        run_analytic(cfg, tmp_path)
        header, rows = _read(tmp_path / "snapshots.csv")
        assert header == SNAPSHOTS_HEADER
        for row in rows[:512]:
            prob = float(row[header.index("prob")])
            assert prob == pytest.approx(1.0, abs=1e-12)
        oh, orows = _read(tmp_path / "observables.csv")
        assert _col(oh, orows, "dx")[0] == "nan"
        assert float(_col(oh, orows, "p_mean")[-1]) == pytest.approx(1.5, abs=1e-12)

    def test_plane_wave_on_a_huge_box_stays_finite(self, tmp_path):
        # (x − x_c)² overflows from |x| ≈ 1e154 on; the plane wave never forms it
        cfg = parse_config(
            "[packet]\nF0 = 0\np0 = 1\n[grid]\nx_min = -1e200\nx_max = 1e200\nn = 64\n"
            "dt = 1e-3\nt_max = 0.1\noutput_every = 50\n"
        )
        run_analytic(cfg, tmp_path)
        header, rows = _read(tmp_path / "snapshots.csv")
        assert len(rows) == 3 * 64
        assert "nan" not in (tmp_path / "snapshots.csv").read_text()
        prob = np.array(_col(header, rows, "prob"), dtype=float)
        np.testing.assert_allclose(prob, 1.0, atol=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config("[force]\nkind = constant\namplitude = 1\n" + SMALL_GRID)
        a, b = tmp_path / "a", tmp_path / "b"
        run_analytic(cfg, a)
        run_analytic(cfg, b)
        for name in ("observables.csv", "snapshots.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestValidate:
    CFG = "[force]\nkind = constant\namplitude = 1\n" + SMALL_GRID + "[run]\nmode = validate\n"

    def test_benchmark_passes(self, tmp_path):
        summary = run_validate(parse_config(self.CFG), tmp_path)
        assert summary.max_l2_ss < 1e-4
        assert summary.max_l2_cn < 1e-4
        assert summary.inv_drift < 1e-6
        assert summary.max_norm_dev < 1e-10
        header, rows = _read(tmp_path / "observables.csv")
        for cell in _col(header, rows, "norm"):
            assert abs(float(cell) - 1.0) < 1e-10

    def test_violation_still_writes_file(self, tmp_path):
        # a huge step makes the split-step global phase exceed the gate
        text = self.CFG.replace("dt = 1e-3", "dt = 5e-2").replace(
            "output_every = 50", "output_every = 5"
        )
        with pytest.raises(AcceptanceViolation, match="L2 error"):
            run_validate(parse_config(text), tmp_path)
        assert (tmp_path / "observables.csv").exists()


class TestMomentum:
    def test_constant_force_discrepancies(self, tmp_path):
        cfg = parse_config(
            "[force]\nkind = constant\namplitude = 1\n"
            "[grid]\nn = 1024\ndt = 1e-3\nt_max = 1.0\noutput_every = 500\n"
        )
        result = run_momentum(cfg, tmp_path)
        header, rows = _read(tmp_path / "comparison.csv")
        assert header == COMPARISON_HEADER
        assert float(rows[0][1]) < 1e-12  # t = 0: pure closed-form identity
        assert result["max_abs_diff"] < 1e-8

    def test_zero_force_discrepancies(self, tmp_path):
        cfg = parse_config("[grid]\nn = 1024\ndt = 1e-3\nt_max = 1.0\noutput_every = 250\n")
        result = run_momentum(cfg, tmp_path)
        assert result["max_abs_diff"] < 1e-10

    def test_aliasing_escalates_and_no_partial_file(self, tmp_path):
        cfg = parse_config("[packet]\nsigma = 0.02\n" + SMALL_GRID)
        with pytest.raises(AliasingError):
            run_momentum(cfg, tmp_path)
        assert not (tmp_path / "comparison.csv").exists()


class TestSweep:
    def test_dt_axis_order_two(self, tmp_path):
        cfg = parse_config(
            "[force]\nkind = constant\namplitude = 1\n"
            "[grid]\nn = 512\ndt = 1e-3\nt_max = 0.5\noutput_every = 50\n"
            "[run]\nmode = sweep\nsweep_axis = dt\nsweep_values = 2e-3, 1e-3, 5e-4\n"
            "sweep_mode = validate\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        header, rows = _read(tmp_path / "sweep_summary.csv")
        assert header == SWEEP_HEADER
        errs = [float(r[header.index("final_l2_err_ss")]) for r in rows]
        assert 3.4 < errs[0] / errs[1] < 4.6
        assert 3.4 < errs[1] / errs[2] < 4.6
        assert all(r[-1] == "ok" for r in rows)
        assert (tmp_path / "dt=0.002" / "observables.csv").exists()

    def test_sigma_axis_width_column(self, tmp_path):
        cfg = parse_config(
            SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 0.5, 1.0, 2.0\n"
            "sweep_mode = analytic\n"
        )
        run_sweep(cfg, tmp_path, jobs=2)
        for sigma in (0.5, 1.0, 2.0):
            header, rows = _read(tmp_path / f"sigma={sigma:g}" / "observables.csv")
            assert float(rows[0][header.index("dx")]) == pytest.approx(sigma, abs=1e-12)

    def test_f0_imag_axis_t_star_zeros(self, tmp_path):
        cfg = parse_config(
            "[packet]\nA0 = 1\nB0 = 0-1i\n" + SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = F0_imag\nsweep_values = -0.5, -1, -2\n"
            "sweep_mode = analytic\n"
        )
        run_sweep(cfg, tmp_path, jobs=1)
        header, rows = _read(tmp_path / "sweep_summary.csv")
        for row in rows:
            assert float(row[header.index("t_star")]) == 0.0

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        cfg = parse_config(
            SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = -1, 1\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert results[0][-1].startswith("error:")
        assert results[1][-1] == "ok"

    def test_n_above_point_limit_is_an_error_row(self, tmp_path):
        cfg = parse_config(
            SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = n\nsweep_values = 256, 2097152\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert [r[-1] for r in results] == ["ok", "error:ValueError"]

    def test_sigma_without_a_finite_spreading_time_is_an_error_row(self, tmp_path):
        # σ² overflows at 1e300 and underflows to 0 at 1e-300, so T = 2mσ²/ħ is not usable
        cfg = parse_config(
            SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 1e300, 1, 1e-300, 1e-160\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        # at 1e-160, T = 2e-320 is finite and positive but F0 = -i·m/T overflows
        assert [r[-1] for r in results] == [
            "error:ValueError", "ok", "error:ValueError", "error:ValueError"
        ]

    def test_plane_wave_case_of_a_validate_sweep_stops_before_propagating(self, tmp_path):
        # F0_imag = 0 makes the case a plane wave, which has no width to validate against
        cfg = parse_config(
            "[packet]\nF0 = 0-0.5i\n" + SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = F0_imag\nsweep_values = -0.5, 0\n"
            "sweep_mode = validate\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert results[1][-1] == "error:ModeMismatchError"
        assert results[0][-1] != "error:ModeMismatchError"
        assert not (tmp_path / "F0_imag=0" / "observables.csv").exists()

    def test_crashed_worker_keeps_the_summary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_run_sweep_case", _crash_on_sigma_one)
        cfg = parse_config(
            SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 0.5, 1.0, 2.0\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=2)
        header, rows = _read(tmp_path / "sweep_summary.csv")
        assert [float(r[1]) for r in rows] == [0.5, 1.0, 2.0]
        assert rows[1][-1] == "error:BrokenProcessPool"
        assert all(r[-1] in ("ok", "error:BrokenProcessPool") for r in rows)
        assert [r[-1] for r in results] == [r[-1] for r in rows]

    @pytest.mark.parametrize("jobs, cpus, workers", [(10_000, 1, 4), (None, 64, 4), (2, 1, 2)])
    def test_pool_never_outnumbers_the_cases(self, tmp_path, monkeypatch, jobs, cpus, workers):
        # the fake pool runs each case inline, so no process is ever started
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(runner.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        cfg = parse_config(
            SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 0.5, 1, 1.5, 2\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=jobs)
        assert started == [workers]
        assert [r[-1] for r in results] == ["ok"] * 4

    def test_threshold_violations_keep_their_metrics(self, tmp_path):
        # dt = 5e-2 completes but breaks the L2 gate; the sweep should still
        # report the measured errors instead of discarding the case
        cfg = parse_config(
            "[force]\nkind = constant\namplitude = 1\n"
            "[grid]\nn = 512\ndt = 1e-3\nt_max = 0.5\noutput_every = 10\n"
            "[run]\nmode = sweep\nsweep_axis = dt\nsweep_values = 5e-2, 1e-3\n"
            "sweep_mode = validate\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert results[0][-1] == "acceptance_violation"
        # the offending L2 figure is preserved (Crank-Nicolson breaks first)
        assert max(results[0][2], results[0][3]) > 1e-4
        assert results[1][-1] == "ok"


_RUN_SWEEP_CASE = runner._run_sweep_case


def _crash_on_sigma_one(args):
    if args[1] == 1.0:
        os._exit(1)  # the worker process dies without a result
    return _RUN_SWEEP_CASE(args)
