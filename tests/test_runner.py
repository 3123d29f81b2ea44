import concurrent.futures
import math
import os
import stat
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrwp import config, runner
from lrwp.config import parse_config
from lrwp.errors import AcceptanceViolation, AliasingError, ConfigError
from lrwp.oracle import ObservableRecord
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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SINUSOIDAL = "[force]\nkind = sinusoidal\namplitude = 0.5\nomega = 2\nphase = 0.3\n"
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
        if table == "streamed blocks":  # an empty block among them writes nothing
            header, rows = SNAPSHOTS_HEADER, iter([*blocks[:3], np.empty((0, 5)), *blocks[3:]])
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

    def test_fallback_cells_share_rows_and_chunks_with_table_cells(self, tmp_path):
        # every row holds text, table and fallback cells, and each kind of fallback
        # cell takes every float column in turn, the last one (before the newline) too
        kinds = [1234567890123456.25, 5e-324, math.nan, -math.inf, 1e300, 1e-281, 0.15, -0.0]
        rows = [["a status longer than any float cell", *np.roll(kinds, k)[:6], "ok"]
                for k in range(runner._CHUNK_ROWS + 9)]
        header = ["param", *"abcdef", "status"]
        _reference_write(tmp_path / "ref.csv", header, rows)
        write_csv_atomic(tmp_path / "new.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("off", [-1, 0, 1])
    def test_an_exponent_estimate_off_by_one_gives_the_same_digits(self, off):
        rng = np.random.default_rng(3)
        powers = 10.0 ** np.arange(-30, 31)
        a = np.concatenate([
            np.abs(rng.standard_normal(2000)) * 10.0 ** rng.integers(-270, 270, 2000),
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
            [9.999999999999999e22, 1e-14, 1e98, 0.15, 0.3],
        ])
        exact = np.array([Decimal(v).adjusted() for v in a.tolist()])  # floor(log10 a)
        d, e, tie = runner._digits(a, exact + off)
        a, d, e = a[~tie], d[~tie], e[~tie]  # a tie, such as 1e15's neighbour below, is %e's
        cells = [f"{di // 10**16}.{di % 10**16:016d}e{ei:+03d}"
                 for di, ei in zip(d.tolist(), e.tolist())]
        assert cells == ["%.16e" % v for v in a.tolist()]


_HARD_CASES = [
    0.15, 0.3, 0.1, 1 / 3, float(2**53 + 1), 2.0**53 + 2.0, 2.0**60,
    # the half-way values that %.16e rounds to even: 18 digits ending in 5
    1234567890123456.25, 2.0**50 + 0.25, 2.0**50 + 0.75, 999999999999999.875,
    1e16, 1e17, 9.999999999999999e22, np.nextafter(1e16, 0.0), np.nextafter(1e17, math.inf),
    # just below a power of ten, so 17 digits round up to it: 1.0000000000000000e-14
    1e-14, 1e98,
    # the last two-digit and the first three-digit exponents
    9.9e99, 1e100, 1e-99, 1e-100,
    # the table's ends, subnormals and the float limits
    1e-280, np.nextafter(1e-280, 0.0), 1e281, np.nextafter(1e281, 0.0),
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]


def _bit_patterns(*values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example(_bit_patterns(*_HARD_CASES))
@example(_bit_patterns(*(-v for v in _HARD_CASES)))
@example(_bit_patterns(0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan))
def test_each_float_cell_is_its_percent_e(bits):
    # over raw bit patterns: every finite double, ±0.0, ±inf and nan of any payload
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        write_csv_atomic(path, ["v"], values.reshape(-1, 1))
        cells = path.read_bytes().split(b"\n")[1:-1]
    assert cells == [("%.16e" % (v + 0.0)).encode() for v in values.tolist()]


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
    more than two chunks; the last one moves an x value in a later chunk.
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

    def test_drift_is_relative_to_the_operator_scale_when_lambda_vanishes(self, tmp_path):
        # x0 = p0 = C0 = 0 make λ = 0; σ = 2 gives Δp = 1/4, Δx(0) = 2 and |F0| = 1/8
        summary = run_validate(parse_config(self.CFG + "[packet]\nsigma = 2\n"), tmp_path)
        header, rows = _read(tmp_path / "observables.csv")
        inv = [complex(float(re), float(im))
               for re, im in zip(_col(header, rows, "inv_re"), _col(header, rows, "inv_im"))]
        drift = max(abs(z - inv[0]) for z in inv)
        assert drift > 0.0
        scale = 0.25 + 0.125 * 2.0  # |A0|·Δp + |B0|·Δx(0)
        assert summary.inv_drift == pytest.approx(drift / scale, rel=1e-12, abs=0.0)

    def test_a_figure_equal_to_its_limit_breaks_the_threshold(self, tmp_path, monkeypatch):
        # near 1, norm − 1 is a multiple of 2⁻⁵³ and never 1e-10; 2⁻³³ can be met exactly
        monkeypatch.setattr(runner, "NORM_THRESHOLD", 2.0 ** -33)

        def record(t, norm, inv):
            return ObservableRecord(t, norm, 0.0, 0.0, 1.0, 1.0, 1.0, inv)

        measured = [(record(0.0, 1.0, 0.5 + 0j), 0.0, 0.0),
                    (record(0.1, 1.0 + 2.0 ** -33, 0.5 + 2e-6j), 1e-4, 1e-4)]
        # the drift is |Δinv| over the scale: 2e-6 / 2
        summary = runner._judge(tmp_path, 2.0, measured)
        assert summary == runner.ValidateSummary(1e-4, 1e-4, 1e-6, 2.0 ** -33, [
            "split-step L2 error 1.000e-04 >= 0.0001",
            "crank-nicolson L2 error 1.000e-04 >= 0.0001",
            "invariant drift 1.000e-06 >= 1e-06",
            "norm deviation 1.164e-10 >= 1.16415e-10",
        ])
        assert len(_read(tmp_path / "observables.csv")[1]) == 2


class TestMomentum:
    def test_constant_force_discrepancies(self, tmp_path):
        cfg = parse_config(
            "[force]\nkind = constant\namplitude = 1\n"
            "[grid]\nn = 1024\ndt = 1e-3\nt_max = 1.0\noutput_every = 500\n"
        )
        worst = run_momentum(cfg, tmp_path)
        header, rows = _read(tmp_path / "comparison.csv")
        assert header == COMPARISON_HEADER
        assert float(rows[0][1]) < 1e-12  # t = 0: pure closed-form identity
        assert worst < 1e-8

    def test_zero_force_discrepancies(self, tmp_path):
        cfg = parse_config("[grid]\nn = 1024\ndt = 1e-3\nt_max = 1.0\noutput_every = 250\n")
        assert run_momentum(cfg, tmp_path) < 1e-10

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

    def test_case_the_box_cannot_contain_is_an_error_row(self, tmp_path):
        # at σ = 0.05 the packet spreads to Δx ≈ 5 by t_max, so x_c ± 8·Δx leaves the box
        cfg = parse_config(
            "[force]\nkind = constant\namplitude = 1\n"
            "[grid]\nx_min = -10\nx_max = 10\nn = 512\ndt = 1e-3\nt_max = 0.5\noutput_every = 50\n"
            "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 1, 0.05, 0.9\n"
            "sweep_mode = validate\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert [r[-1] for r in results] == ["ok", "error:ConfigError", "ok"]
        assert not (tmp_path / "sigma=0.05").exists()
        assert (tmp_path / "sigma=0.9" / "observables.csv").exists()

    def test_each_case_is_built_once(self, tmp_path, monkeypatch):
        # the parser builds the sweep plan, and the runner only reads it
        built = []
        apply_sweep_value = config.apply_sweep_value

        def counted(cfg, axis, value):
            built.append(value)
            return apply_sweep_value(cfg, axis, value)

        monkeypatch.setattr(config, "apply_sweep_value", counted)
        if hasattr(runner, "apply_sweep_value"):
            monkeypatch.setattr(runner, "apply_sweep_value", counted)
        cfg = parse_config((CONFIGS / "sigma_sweep.ini").read_text())
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert built == [0.8, 0.9, 1.0]
        assert [r[-1] for r in results] == ["ok"] * 3

    def test_plane_wave_case_of_a_validate_sweep_stops_before_propagating(self, tmp_path):
        # F0_imag = 0 makes the case a plane wave, which has no width to validate against
        cfg = parse_config(
            "[packet]\nF0 = 0-0.5i\n" + SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = F0_imag\nsweep_values = -0.5, 0\n"
            "sweep_mode = validate\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert results[1][-1] == "error:ConfigError"
        assert results[0][-1] != "error:ConfigError"
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
        started, _ = _inline_pool(monkeypatch)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        cfg = parse_config(
            SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 0.5, 1, 1.5, 2\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=jobs)
        assert started == [workers]
        assert [r[-1] for r in results] == ["ok"] * 4

    def test_validate_cases_sharing_a_hamiltonian_batch_in_sweep_order(self):
        text = SINUSOIDAL + SMALL_GRID + "[run]\nmode = sweep\nsweep_mode = validate\n"
        sigma = parse_config(text + "sweep_axis = sigma\nsweep_values = 1, 1.1, -1, 1.2, 1.3\n")
        # σ = −1 cannot be built, so it is a task of its own; the rest are one group
        assert runner._batches(sigma, 1) == [[0, 1, 3, 4], [2]]
        assert runner._batches(sigma, 2) == [[0, 1], [2], [3, 4]]
        assert runner._batches(sigma, 3) == [[0, 1], [2], [3], [4]]
        assert runner._batches(sigma, 10) == [[0], [1], [2], [3], [4]]
        # another dt, or another mode, is another Hamiltonian step or no propagation
        dt = parse_config(text + "sweep_axis = dt\nsweep_values = 1e-3, 5e-4\n")
        assert runner._batches(dt, 1) == [[0], [1]]
        analytic = parse_config(text.replace("validate", "analytic")
                                + "sweep_axis = sigma\nsweep_values = 1, 2\n")
        assert runner._batches(analytic, 1) == [[0], [1]]

    def test_batches_hold_at_most_max_points_over_n_cases(self, tmp_path, monkeypatch):
        started, batches = _inline_pool(monkeypatch)
        monkeypatch.setattr(runner, "MAX_POINTS", 2 * 256)
        cfg = parse_config(
            SINUSOIDAL + SMALL_GRID.replace("t_max = 0.5", "t_max = 0.1")
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 1, 1.1, 1.2, 1.3, 1.4\n"
            "sweep_mode = validate\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=2)
        # two jobs would take batches of 3 and 2; 512 points hold two cases of n = 256
        assert started == [2]
        assert batches == [[1.0, 1.1], [1.2, 1.3], [1.4]]
        assert [r[-1] for r in results] == ["ok"] * 5
        assert [r[1] for r in results] == [1.0, 1.1, 1.2, 1.3, 1.4]

    def test_sigma_case_without_a_finite_norm_is_an_error_row(self, tmp_path):
        # at m = 0.1, σ = 1e154 has a finite spreading time, but 2πσ² overflows
        cfg = parse_config(
            "[system]\nm = 0.1\n" + SMALL_GRID
            + "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 1, 1e154\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert [r[-1] for r in results] == ["ok", "error:ConfigError"]

    def test_f0_imag_case_that_no_alpha0_normalizes_is_an_error_row(self, tmp_path):
        # at ħ = 1e300, πħ/(−Im F0) is finite for F0 = −i but overflows for F0 = −1e-10·i
        cfg = parse_config(
            "[system]\nhbar = 1e300\n[packet]\nF0 = 0-1i\n"
            "[grid]\nn = 64\nt_max = 0.1\ndt = 0.01\noutput_every = 1\n"
            "[run]\nmode = sweep\nsweep_axis = F0_imag\nsweep_values = -1, -1e-10\n"
            "sweep_mode = analytic\n"
        )
        results = run_sweep(cfg, tmp_path, jobs=1)
        assert [r[-1] for r in results] == ["ok", "error:InvalidInvariantError"]

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


def _inline_pool(monkeypatch):
    """Replace the process pool by one that runs each task inline, so no process
    starts. Returns the worker counts asked for and the sweep values of each task."""
    started, batches = [], []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            batches.append([value for value, _, _ in task[1]])
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(runner.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return started, batches


_RUN_SWEEP_CASE = runner._run_sweep_case


def _crash_on_sigma_one(task):
    _, batch = task
    if any(value == 1.0 for value, _, _ in batch):
        os._exit(1)  # the worker process dies without a result
    return _RUN_SWEEP_CASE(task)


@pytest.mark.parametrize("jobs, values", [(1, "0.5, 1, 1.5"), (4, "0.5")])
def test_a_single_worker_runs_in_process(tmp_path, monkeypatch, jobs, values):
    # one job, or one task, needs no pool at all
    started, batches = _inline_pool(monkeypatch)
    cfg = parse_config(
        SMALL_GRID
        + f"[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = {values}\n"
        "sweep_mode = analytic\n"
    )
    results = run_sweep(cfg, tmp_path, jobs=jobs)
    assert started == [] and batches == []
    assert all(r[-1] == "ok" for r in results)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_every_mode_writes_the_same_t_column(tmp_path, path):
    # the closed form is sampled at exactly the t that validate compares at: in every
    # mode that accepts the config, each t cell is step·dt, step = 0, output_every, …
    columns = {}
    for mode, run, name in (("analytic", run_analytic, "observables.csv"),
                            ("validate", run_validate, "observables.csv"),
                            ("momentum", run_momentum, "comparison.csv")):
        try:
            cfg = parse_config(path.read_text(), mode_override=mode)
        except ConfigError:
            continue
        try:
            run(cfg, tmp_path / mode)
        except AcceptanceViolation:
            pass  # the observables are written before the thresholds are judged
        header, rows = _read(tmp_path / mode / name)
        columns[mode] = _col(header, rows, "t")
    analytic = columns.pop("analytic")
    for mode, column in columns.items():
        assert column == analytic, mode
    g = parse_config(path.read_text(), mode_override="analytic").grid
    assert analytic == ["%.16e" % (step * g.dt)
                        for step in range(0, g.n_steps + 1, g.output_every)]
