import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrwp
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


SCIPY_PROBE = """
import sys
from lrwp.cli import main

def loaded():
    return ",".join(n for n in ("scipy", "scipy.linalg") if n in sys.modules) or "none"

config, out = sys.argv[1:]
seen = [loaded()]
for mode in ("analytic", "momentum", "validate"):
    assert main([mode, "--config", config, "--out", f"{out}/{mode}"]) == 0, mode
    seen.append(loaded())
print(*seen)
"""


def test_closed_form_modes_never_load_scipy(tmp_path):
    # a fresh interpreter: this one has loaded SciPy for other tests
    src = str(Path(lrwp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, _write(tmp_path, GOOD), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    # import, analytic and momentum load no SciPy; validate propagates, so it must
    assert result.stdout.splitlines()[-1].split() == ["none"] * 3 + ["scipy,scipy.linalg"]


def test_sweep_exit_zero(tmp_path):
    cfg = _write(
        tmp_path,
        GOOD + "[run]\nsweep_axis = sigma\nsweep_values = 0.5, 1\nsweep_mode = analytic\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "sweep_summary.csv").exists()


def test_config_error_exit_two(tmp_path, capsys):
    short = "n = 64\ndt = 0.01\nt_max = 0.1\noutput_every = 1\n"  # [grid] keys of a 10-step run
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
        # ħ² overflows from ħ = 1e155 on; at 1e154 the run goes on and exits 3
        ("momentum", "[system]\nhbar = 1e155\n",
         "line 2: hbar = 1e+155: the momentum route divides by hbar^2, which overflows"),
        ("sweep", "[system]\nhbar = 1e200\n[run]\nsweep_axis = sigma\nsweep_values = 1\n"
         "sweep_mode = momentum\n",
         "line 2: hbar = 1e+200: the momentum route divides by hbar^2, which overflows"),
        # |e^{iα0}|² = e^{−2·Im α0} overflows at Im α0 = −400 and underflows to 0 at +800
        *[(mode, f"[packet]\nF0 = 0-1i\nalpha0 = {alpha0}\n"
           "[grid]\nn = 64\nt_max = 0.1\ndt = 0.01\noutput_every = 1\n",
           f"line 3: alpha0 = {alpha0}: e^(-2*Im alpha0) = {scale}, not finite and positive")
          for alpha0, scale in (("0-400i", "inf"), ("0+800i", "0"))
          for mode in ("analytic", "validate")],
        # e^{−2·Im α0} = e^{709.6} is finite, but its product with √(πħ/(−Im F0)) is not
        ("analytic", "[packet]\nF0 = 0-1i\nalpha0 = 0-354.8i\n"
         "[grid]\nn = 64\nt_max = 0.1\ndt = 0.01\noutput_every = 1\n",
         "line 3: the packet norm e^(-2*Im alpha0)*sqrt(pi*hbar/(-Im F0)) = inf, "
         "not finite and positive"),
        # 2πσ² overflows, so the matched α0 is nan + inf·i and the norm nan, though T is finite
        ("analytic", "[system]\nm = 0.1\n[packet]\nsigma = 1e154\n",
         "line 4: the packet norm e^(-2*Im alpha0)*sqrt(pi*hbar/(-Im F0)) = nan, "
         "not finite and positive"),
        # πħ/(−Im F0) underflows to 0, so no α0 normalizes the packet
        ("analytic", "[system]\nhbar = 1e-300\n[packet]\nF0 = 0-1e300i\n",
         "line 4: pi*hbar/(-Im F0) = 0: no alpha0 normalizes the packet"),
        # the conjugate momentum spacing 2πħ/(x_max − x_min) underflows to 0, or to a
        # subnormal float that cannot hold the grid's points
        *[(mode, "[system]\nhbar = 1e-150\n[grid]\nx_min = -1e300\nx_max = 1e300\n[run]\n"
           "sweep_axis = sigma\nsweep_values = 1\nsweep_mode = momentum\n",
           "line 2: hbar = 1e-150: the momentum grid spacing 0.0 is not a finite normal float")
          for mode in ("momentum", "sweep")],
        ("momentum", "[system]\nhbar = 2e-154\n[grid]\nx_min = -6e162\nx_max = 6e162\n"
         "n = 64\ndt = 0.01\nt_max = 0.1\noutput_every = 1\n",
         "line 2: hbar = 2e-154: the momentum grid spacing 1.04719753e-316 "
         "is not a finite normal float"),
        # a box whose width overflows has an infinite spacing
        ("momentum", "[grid]\nx_min = -1e308\nx_max = 1e308\n",
         "line 2: grid spacing inf is not a finite normal float"),
        # a spacing that underflows to 0 would write every x as 0, and end momentum in a
        # ZeroDivisionError
        *[(mode, "[grid]\nx_min = 0\nx_max = 5e-324\n" + short,
           "line 2: grid spacing 0.0 is not a finite normal float")
          for mode in ("analytic", "momentum")],
        # at 1e15 the ulp is 0.125, so a spacing of 2⁻⁹ would give 2 distinct x of 64
        ("analytic", "[packet]\nx0 = 1e15\n[grid]\nx_min = 1e15\n"
         "x_max = 1000000000000000.125\n" + short,
         "line 4: grid spacing 0.00195312 is within 3 ulp of 1e+15: points coincide"),
        # 2πħ/(x_max − x_min) overflows, so the momentum grid has no finite spacing
        ("momentum", "[system]\nhbar = 1e150\n[grid]\nx_min = 0\nx_max = 1e-160\n" + short,
         "line 2: hbar = 1e+150: the momentum grid spacing inf is not a finite normal float"),
        # a sweep axis that does not fit the base packet or force fits no value of it
        ("sweep", "[packet]\nF0 = 0-1i\n[run]\nsweep_axis = sigma\nsweep_values = 1\n",
         "line 4: sigma sweep needs a gaussian-parameterized packet"),
        ("sweep", "[run]\nsweep_axis = F0_imag\nsweep_values = -1\n",
         "line 2: F0_imag sweep needs an invariant-parameterized packet"),
        ("sweep", "[force]\nkind = piecewise_linear\nknots = 0:1, 3:0\n"
         "[run]\nsweep_axis = force_amplitude\nsweep_values = 1\n",
         "line 5: force_amplitude sweep needs a constant or sinusoidal force"),
        # the file's mode is checked even though the command line names the mode to run
        ("analytic", "[grid]\n" + short + "[run]\nmode = banana\n",
         "line 7: unknown mode 'banana'"),
        # the default σ = 1 has no line of its own, so the message names none
        ("analytic", "[system]\nm = 1e300\nhbar = 1e-10\n"
         "[grid]\nn = 64\nt_max = 0.1\ndt = 0.01\noutput_every = 1\n",
         "config error: spreading time 2m*sigma^2/hbar = inf, not finite and positive"),
        # values that do not parse, and names the parser does not know
        ("analytic", "[system]\nm = abc\n", "line 2: cannot parse number 'abc'"),
        ("analytic", "[grid]\nn = 1.5\n", "line 2: cannot parse integer '1.5'"),
        ("analytic", "[force]\nkind = piecewise_linear\nknots = 0:1, 3\n",
         "line 3: expected t:F pairs, got '3'"),
        ("analytic", "[force]\nkind = piecewise_linear\nknots = ,\n", "line 3: empty knot list"),
        ("analytic", "[force]\nkind = banana\n", "line 2: unknown force kind 'banana'"),
        ("sweep", "[run]\nsweep_axis = sigma\nsweep_values = 1\nsweep_mode = banana\n",
         "line 4: unknown sweep_mode 'banana'"),
        ("sweep", "[run]\nsweep_axis = sigma\nsweep_values = 1\nsweep_mode = sweep\n",
         "line 4: sweep_mode cannot itself be 'sweep'"),
        ("analytic", "[grid]\ndt = 0.1\nt_max = 0.05\n", "line 2: t_max must be at least dt"),
    ]
    for mode, text, message in cases:
        cfg = _write(tmp_path, text)
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "line 0" not in err
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


TINY_GRID = "[grid]\nn = 64\ndt = 0.01\nt_max = 0.1\noutput_every = 1\n"


@pytest.mark.parametrize("mode", ["analytic", "momentum"])
@pytest.mark.parametrize(
    "text",
    [
        "[grid]\nx_min = -1e200\nx_max = 1e200\nn = 64\ndt = 0.01\nt_max = 0.1\n"
        "output_every = 1\n",
        "[packet]\nsigma = 1\nx0 = 1e200\n" + TINY_GRID,
        # a² overflows in G2, so even t = 0 is nan
        "[force]\nkind = constant\namplitude = 1e200\n" + TINY_GRID,
        "[force]\nkind = piecewise_linear\nknots = 0:1e200, 1:1e200\n" + TINY_GRID,
    ],
    ids=["huge_box", "huge_x0", "huge_amplitude", "huge_knots"],
)
def test_closed_form_overflow_exit_three(tmp_path, capsys, mode, text):
    # a closed form that overflows is refused before any CSV cell turns nan
    cfg = _write(tmp_path, text)
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("lrwp: numeric failure: ")
    assert not (tmp_path / "out" / "snapshots.csv").exists()
    assert not (tmp_path / "out" / "comparison.csv").exists()


@pytest.mark.parametrize("mode, code", [("analytic", 0), ("validate", 4)])
def test_fast_sinusoid_exit_codes(tmp_path, capsys, mode, code):
    # at omega = 1e30, omega*t once overflowed a series that the closed forms never used,
    # which printed a RuntimeWarning (an error under this suite); the oracles cannot
    # resolve such a force, so validate breaks its thresholds
    text = "[force]\nkind = sinusoidal\namplitude = 1\nomega = 1e30\n" + TINY_GRID
    cfg = _write(tmp_path, text)
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (code != 0) and "Traceback" not in err
    if code:
        assert err.startswith("lrwp: acceptance violation: ")


def test_under_resolved_validate_exit_three(tmp_path, capsys):
    # 64 points over the 40-wide box sample the σ = 0.1 packet to a norm far from 1,
    # so neither oracle can start from it
    cfg = _write(tmp_path, "[packet]\nsigma = 0.1\n"
                 "[grid]\nn = 64\ndt = 1e-3\nt_max = 0.01\noutput_every = 1\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("lrwp: numeric failure: InstabilityError: "
                          "initial field must be normalized, its norm is 2.493")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_momentum_at_largest_finite_hbar_squared_exit_three(tmp_path, capsys):
    # ħ = 1e154 passes the parse-time ħ² check; the momentum grid spans some ħ, so
    # (p − p0)² overflows on it and the sampled φ is refused as non-finite
    cfg = _write(tmp_path, "[system]\nhbar = 1e154\n" + TINY_GRID)
    assert main(["momentum", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "lrwp: numeric failure: InstabilityError: non-finite field at t=0\n"


@pytest.mark.parametrize("hbar", ["1e-20", "1e-100"])
def test_momentum_at_tiny_hbar_exit_zero(tmp_path, capsys, hbar):
    # φ scales as ħ^(−1/2): the aliasing check is relative to max|φ|, as at ħ = 1
    cfg = _write(tmp_path, f"[system]\nhbar = {hbar}\n" + TINY_GRID)
    assert main(["momentum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_acceptance_violation_exit_four(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD.replace("dt = 1e-3", "dt = 5e-2").replace(
        "output_every = 100", "output_every = 10"))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "acceptance violation" in capsys.readouterr().err
    assert (tmp_path / "out" / "observables.csv").exists()
    # the whole line: each broken threshold's name, figure and limit, in table order
    cfg = _write(tmp_path, "[force]\nkind = constant\namplitude = 1\n"
                 "[grid]\nn = 256\ndt = 0.1\nt_max = 1.0\noutput_every = 1\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "coarse")]) == 4
    assert capsys.readouterr().err == (
        "lrwp: acceptance violation: split-step L2 error 4.167e-04 >= 0.0001; "
        "crank-nicolson L2 error 3.308e-03 >= 0.0001\n"
    )


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_below_one_exit_two(tmp_path, capsys, jobs):
    # a count below one, or no integer at all
    cfg = _write(tmp_path, GOOD)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    message = {"two": "expected an integer, got 'two'"}.get(jobs, f"must be at least 1, got {jobs}")
    assert err[-1] == f"lrwp: error: argument --jobs: {message}"
    assert "Traceback" not in "\n".join(err)
