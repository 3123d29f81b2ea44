from pathlib import Path

import pytest

from lrwp.cli import main

GOOD = """
[force]
kind = constant
amplitude = 1.0
[packet]
sigma = 1.0
[grid]
n = 256
dt = 1e-3
t_max = 0.5
output_every = 100
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_analytic_exit_zero(tmp_path):
    cfg = _write(tmp_path, GOOD)
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "observables.csv").exists()
    assert (tmp_path / "out" / "snapshots.csv").exists()


def test_validate_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "max L2" in capsys.readouterr().out


def test_momentum_exit_zero(tmp_path):
    cfg = _write(tmp_path, GOOD)
    assert main(["momentum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_sweep_exit_zero(tmp_path):
    cfg = _write(
        tmp_path,
        GOOD + "[run]\nsweep_axis = sigma\nsweep_values = 0.5, 1\nsweep_mode = analytic\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "sweep_summary.csv").exists()


def test_config_error_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "[packet]\nF0 = +i\n")
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unphysical invariant: Im(F0) > 0" in err


def test_missing_config_exit_two(tmp_path, capsys):
    assert main(["analytic", "--config", str(tmp_path / "nope.ini"), "--out", "o"]) == 2


def test_numeric_failure_exit_three(tmp_path, capsys):
    # momentum-space Gaussian too wide for the conjugate grid -> aliasing
    cfg = _write(tmp_path, GOOD.replace("sigma = 1.0", "sigma = 0.02"))
    assert main(["momentum", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "AliasingError" in capsys.readouterr().err


def test_acceptance_violation_exit_four(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD.replace("dt = 1e-3", "dt = 5e-2").replace(
        "output_every = 100", "output_every = 10"))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "acceptance violation" in capsys.readouterr().err
    assert (tmp_path / "out" / "observables.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_two(tmp_path, capsys, jobs):
    cfg = _write(tmp_path, GOOD)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"lrwp: error: argument --jobs: must be at least 1, got {jobs}"
    assert "Traceback" not in "\n".join(err)
