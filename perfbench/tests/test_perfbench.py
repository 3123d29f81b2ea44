"""Self-test of the benchmark: one short pass of each workload emits every
metric with its unit, and the checker fails corrupted outputs.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short(monkeypatch):
    """One set-up, no warm-up, and a single pass of each kind."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WARMUP_PASSES", 0)
    monkeypatch.setattr(run, "MIN_PASSES", 1)


def test_benchmark_json_matches_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_pass_emits_every_metric(short, workload):
    record, metrics = run.run(workload, seed=7, seconds=1, traced=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > 0
    assert set(record["end_to_end"]) == set(run.END_TO_END)
    assert set(metrics) == set(run.PER_LAYER)
    assert all(v > 0 for k, v in record["end_to_end"].items())
    # wall shares of the layers add up to the traced pass
    layers = sum(metrics[f"layer.{name}_s"] for name in run.LAYERS)
    assert layers == pytest.approx(metrics["trace.pass_s"], rel=1e-9)
    assert record["sha256"] and not record["sha256_changed_between_passes"]


def test_main_prints_result_line_last(short):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", "oracles", "--seed", "3",
                         "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_same_seed_same_inputs():
    assert workloads.generate("oracles", 5) == workloads.generate("oracles", 5)
    assert workloads.generate("oracles", 5) != workloads.generate("oracles", 6)


TINY = """
[force]
kind = constant
amplitude = 1.0
[packet]
sigma = 1.0
[grid]
n = 256
dt = 1e-3
t_max = 0.1
output_every = 10
"""
TINY_EXPECT = {"snapshots": 11, "n": 256, "hbar": 1.0}


def _lrwp(mode: str, tmp_path: Path) -> Path:
    cli = run.import_program()
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    out = tmp_path / mode
    with redirect_stdout(io.StringIO()):
        assert cli.main([mode, "--config", str(config), "--out", str(out)]) == 0
    return out


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def test_checker_fails_wrong_norm(tmp_path):
    out = _lrwp("analytic", tmp_path)
    assert check.check_analytic(out, TINY_EXPECT).ok

    def bad_norm(lines):
        fields = lines[5].split(",")
        fields[1] = "1.0000001000000000e+00"
        return [*lines[:5], ",".join(fields), *lines[6:]]

    _rewrite(out / "observables.csv", bad_norm)
    chk = check.check_analytic(out, TINY_EXPECT)
    assert not chk.ok and any("norm" in f for f in chk.failures)


def test_checker_fails_truncated_rows(tmp_path):
    out = _lrwp("analytic", tmp_path)
    _rewrite(out / "snapshots.csv", lambda lines: lines[:-10])
    chk = check.check_analytic(out, TINY_EXPECT)
    assert not chk.ok and any("rows" in f for f in chk.failures)


def test_checker_fails_momentum_gap(tmp_path):
    out = _lrwp("momentum", tmp_path)
    assert check.check_momentum(out, TINY_EXPECT).ok
    _rewrite(out / "comparison.csv",
             lambda lines: [*lines[:-1], lines[-1].split(",")[0] + ",1.0e-06\n"])
    assert not check.check_momentum(out, TINY_EXPECT).ok


def test_checker_fails_validate_threshold(tmp_path):
    out = _lrwp("validate", tmp_path)
    assert check.check_validate(out, TINY_EXPECT).ok

    def big_error(lines):
        fields = lines[-1].rstrip("\n").split(",")
        fields[-1] = "2.0000000000000000e-04"
        return [*lines[:-1], ",".join(fields) + "\n"]

    _rewrite(out / "observables.csv", big_error)
    chk = check.check_validate(out, TINY_EXPECT)
    assert not chk.ok and any("l2_err_cn" in f for f in chk.failures)


def test_checker_fails_sweep_status(tmp_path):
    case = _lrwp("validate", tmp_path)
    sweep = tmp_path / "sweep"
    header = "param,value,final_l2_err_ss,final_l2_err_cn,min_dxdp,t_star,status\n"
    rows = ["sigma,1.0,0,0,0.5,0,ok\n", "sigma,1.1,0,0,0.5,0,ok\n"]
    for i in range(2):
        (sweep / f"case{i}").mkdir(parents=True)
        (sweep / f"case{i}" / "observables.csv").write_bytes((case / "observables.csv").read_bytes())
    expect = {**TINY_EXPECT, "values": [1.0, 1.1]}
    (sweep / "sweep_summary.csv").write_text(header + "".join(rows))
    assert all(chk.ok for chk in check.check_sweep(sweep, expect))
    (sweep / "sweep_summary.csv").write_text(header + rows[0] + rows[1].replace(",ok", ",error:ValueError"))
    assert [chk.ok for chk in check.check_sweep(sweep, expect)] == [True, False]
    (sweep / "case1" / "observables.csv").unlink()
    (sweep / "sweep_summary.csv").write_text(header + "".join(rows))
    assert [chk.ok for chk in check.check_sweep(sweep, expect)] == [True, False]


def test_malformed_output_is_a_failed_operation(tmp_path):
    out = _lrwp("momentum", tmp_path)
    _rewrite(out / "comparison.csv", lambda lines: [*lines[:-1], "garbage\n"])
    call = workloads.Call("momentum", "tiny.ini", expect=TINY_EXPECT)
    [chk] = run.check_call(call, out, 0)
    assert not chk.ok and "unreadable" in chk.failures[0]
