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
    cases = [
        ("analytic", "[packet]\nF0 = +i\n", "unphysical invariant: Im(F0) > 0"),
        # an explicit alpha0 that does not normalize the packet cannot seed the oracles
        ("validate", "[packet]\nF0 = 0-0.5i\nalpha0 = 0\n",
         "line 3: validate mode needs a normalized packet"),
        # a nan mass would run on into nan CSVs, and an infinite sigma make a plane wave
        ("analytic", "[system]\nm = nan\n", "line 2: value 'nan' is not finite"),
        ("analytic", "[packet]\nsigma = inf\n", "line 2: value 'inf' is not finite"),
        # a finite but huge step count would exhaust memory or step for hours
        ("analytic", "[grid]\ndt = 1e-300\nt_max = 1\noutput_every = 1\n",
         "line 2: t_max / dt is 1e+300 steps, above the limit of 10000000"),
        ("analytic", "[grid]\ndt = 1e-12\nt_max = 1\noutput_every = 1\n",
         "line 2: t_max / dt is 1e+12 steps, above the limit of 10000000"),
        ("validate", "[grid]\ndt = 1e-300\nt_max = 1\noutput_every = 1\n",
         "line 2: t_max / dt is 1e+300 steps, above the limit of 10000000"),
        # 10⁷ steps pass, but 10⁷ + 1 snapshots of 256 rows are some 300 GB of CSV
        ("analytic", "[grid]\nn = 256\ndt = 1e-7\nt_max = 1\noutput_every = 1\n",
         "line 2: the run writes 2.56e+09 CSV rows, above the limit of 100000000"),
        # validate and momentum write one row per snapshot, so only the point limit stops
        # a 2⁴⁰-point grid before it is allocated
        ("validate", "[grid]\nn = 1099511627776\n",
         "line 2: n = 1099511627776 points, above the limit of 1048576"),
        ("momentum", "[grid]\nn = 1099511627776\n",
         "line 2: n = 1099511627776 points, above the limit of 1048576"),
        # a sweep in momentum mode needs the gaussian packet as much as a momentum run does
        ("sweep", "[packet]\nF0 = 0-1i\n[run]\nsweep_axis = F0_imag\nsweep_values = -1\n"
         "sweep_mode = momentum\n",
         "line 6: sweep_mode momentum requires the gaussian packet parameterization"),
        ("sweep", "[packet]\nF0 = 0\n[run]\nsweep_axis = F0_imag\nsweep_values = -1\n"
         "sweep_mode = momentum\n",
         "line 6: sweep_mode momentum requires the gaussian packet parameterization"),
        # σ² overflows or underflows, so the spreading time T = 2mσ²/ħ is inf or 0
        ("analytic", "[packet]\nsigma = 1e300\n",
         "line 2: spreading time 2m*sigma^2/hbar = inf, not finite and positive"),
        ("analytic", "[packet]\nsigma = 1e-300\n",
         "line 2: spreading time 2m*sigma^2/hbar = 0, not finite and positive"),
        # T = 2e-320 (a subnormal) is finite and positive, but F0 = -i·m/T is not
        ("analytic", "[packet]\nsigma = 1e-160\n",
         "line 2: spreading time 2m*sigma^2/hbar = 1.99998e-320: F0 = -i*m/T overflows"),
        # G, G1 and G2 carry a/ω, a/ω² and a²/ω³; at ω = 1e-105, ω³ is subnormal and a²/ω³ inf
        *[(mode, f"[force]\nkind = sinusoidal\namplitude = 1\nomega = {omega}\n",
           f"line 2: amplitude = 1, omega = {float(omega):g}: "
           "a/omega, a/omega^2 and a^2/omega^3 must be finite")
          for omega in ("1e308", "1e-300", "1e-110", "1e-105") for mode in ("analytic", "validate")],
        # the momentum route divides by ħ², which underflows to 0 at ħ = 1e-300
        ("momentum", "[system]\nhbar = 1e-300\n",
         "line 2: hbar = 1e-300: the momentum route divides by hbar^2, which underflows"),
        ("sweep", "[system]\nhbar = 1e-300\n[run]\nsweep_axis = sigma\nsweep_values = 1\n"
         "sweep_mode = momentum\n",
         "line 2: hbar = 1e-300: the momentum route divides by hbar^2, which underflows"),
        # the conjugate momentum grid of an infinitely wide box has zero width
        ("momentum", "[grid]\nx_min = -1e308\nx_max = 1e308\n",
         "line 2: x_max - x_min overflows a float"),
    ]
    for mode, text, message in cases:
        cfg = _write(tmp_path, text)
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["analytic", "validate", "momentum", "sweep"])
@pytest.mark.parametrize("kind, key", [("piecewise_linear", "knots"), ("tabulated", "samples")])
def test_force_ending_before_t_max_exit_two(tmp_path, capsys, mode, kind, key):
    text = GOOD.replace("kind = constant\namplitude = 1.0", f"kind = {kind}\n{key} = 0:1, 0.25:0")
    text += "[run]\nsweep_axis = sigma\nsweep_values = 0.5, 1\n"
    cfg = _write(tmp_path, text)
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 4: the force is not defined up to t_max = 0.5" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "case", ["out_is_file", "out_under_file", "config_not_utf8", "t_max_inf", "t_max_overflow"]
)
def test_unusable_input_or_output_exit_two(tmp_path, capsys, case):
    cfg = _write(tmp_path, GOOD)
    out = tmp_path / "out"
    if case == "out_is_file":
        out.write_text("")
    elif case == "out_under_file":
        out.write_text("")
        out = out / "sub"
    elif case == "config_not_utf8":
        Path(cfg).write_bytes(GOOD.encode() + b"# caf\xe9\n")
    else:
        value = "inf" if case == "t_max_inf" else "1e308"
        cfg = _write(tmp_path, GOOD.replace("t_max = 0.5", f"t_max = {value}"))
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lrwp: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
