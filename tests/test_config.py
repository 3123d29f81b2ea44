import math
import re
import sys

import pytest

from lrwp.config import MAX_ROWS, RunConfig, RunMode, apply_sweep_value, parse_config
from lrwp.errors import ConfigError
from lrwp.forcing import ConstantForce, PiecewiseLinearForce, SinusoidalForce
from lrwp.wavepacket import delta_x


def test_empty_document_gets_defaults():
    cfg = parse_config("")
    assert cfg.packet.m == 1.0 and cfg.packet.hbar == 1.0
    assert cfg.profile == ConstantForce(0.0)
    assert cfg.sigma == 1.0
    assert cfg.packet.spec.F0 == pytest.approx(-0.5j)
    assert cfg.grid.n == 2048 and cfg.grid.t_max == 2.0
    assert cfg.mode is RunMode.ANALYTIC


def test_full_document():
    cfg = parse_config(
        """
        [system]
        m = 2.0
        hbar = 0.5
        [force]
        kind = sinusoidal
        amplitude = 1.5
        omega = 2.0
        phase = 0.3
        [packet]
        sigma = 0.5
        x0 = 1.0
        p0 = -0.5
        [grid]
        x_min = -30
        x_max = 30
        n = 4096
        dt = 5e-4
        t_max = 1.0
        output_every = 20
        [run]
        mode = analytic
        """
    )
    assert cfg.packet.m == 2.0 and cfg.packet.hbar == 0.5 and cfg.sigma == 0.5
    assert isinstance(cfg.profile, SinusoidalForce)
    assert cfg.profile.phase == 0.3
    assert cfg.packet.x0 == 1.0 and cfg.packet.p0 == -0.5
    assert cfg.grid.n == 4096


def test_sigma_sets_spreading_time():
    cfg = parse_config("[packet]\nsigma = 0.5\n")
    # T = 2·m·sigma²/hbar = 0.5, so F0 = −i·m/T = −2i
    assert cfg.packet.spec.F0 == pytest.approx(-2.0j)


def test_invariant_parameterization():
    cfg = parse_config(
        "[packet]\nA0 = 1+0i\nB0 = 0-0.5i\nC0 = 0.1+0.2i\nalpha0 = 0+0.3i\nx0 = 0.5\n"
    )
    assert cfg.sigma is None
    assert cfg.packet.spec.B0 == -0.5j
    assert cfg.packet.spec.C0 == 0.1 + 0.2j
    assert cfg.packet.alpha0 == 0.3j


def test_f0_shorthand():
    cfg = parse_config("[packet]\nF0 = 0-0.25i\n")
    assert cfg.packet.spec.A0 == 1.0
    assert cfg.packet.spec.B0 == -0.25j
    assert cfg.packet.spec.is_packet


def test_plane_wave_config():
    cfg = parse_config("[packet]\nF0 = 0\np0 = 2.0\n")
    assert not cfg.packet.spec.is_packet


def test_piecewise_force():
    cfg = parse_config("[force]\nkind = piecewise_linear\nknots = 0:0, 1:1, 2:0\n")
    assert isinstance(cfg.profile, PiecewiseLinearForce)
    assert cfg.profile.force(0.5) == pytest.approx(0.5)


def test_tabulated_force():
    cfg = parse_config("[force]\nkind = tabulated\nsamples = 0:1, 4:1\n")
    assert isinstance(cfg.profile, PiecewiseLinearForce)
    assert cfg.profile.force(2.0) == pytest.approx(1.0)


class TestDiagnostics:
    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'mass'"):
            parse_config("[system]\nmass = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section \[sys\]"):
            parse_config("[sys]\n")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="line 1: key appears before any"):
            parse_config("m = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key"):
            parse_config("[system]\nm = 1\nm = 2\n")

    def test_bad_complex(self):
        with pytest.raises(ConfigError, match="cannot parse complex"):
            parse_config("[packet]\nF0 = foo\n")

    def test_unphysical_invariant(self):
        with pytest.raises(ConfigError, match=r"unphysical invariant: Im\(F0\) > 0"):
            parse_config("[packet]\nF0 = +i\n")

    def test_divergent_density(self):
        with pytest.raises(ConfigError, match="divergent density"):
            parse_config("[packet]\nF0 = 0.5\n")

    def test_both_parameterizations(self):
        with pytest.raises(ConfigError, match="mixes"):
            parse_config("[packet]\nsigma = 1\nB0 = 0-1i\n")

    def test_f0_with_explicit_coefficients(self):
        with pytest.raises(ConfigError, match="shorthand conflicts"):
            parse_config("[packet]\nF0 = 0-1i\nA0 = 1\n")

    def test_incomplete_invariant(self):
        with pytest.raises(ConfigError, match="needs both A0 and B0"):
            parse_config("[packet]\nA0 = 1\n")

    def test_nonpositive_mass(self):
        # zero is refused on its own line, as a negative value is, for m and for ħ
        for key, value in (("m", "-1"), ("m", "0"), ("hbar", "0")):
            with pytest.raises(ConfigError, match=f"line 2: {key} must be positive"):
                parse_config(f"[system]\n{key} = {value}\n")

    def test_grid_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            parse_config("[grid]\nn = 1000\n")

    def test_output_every_divides(self):
        with pytest.raises(ConfigError, match="output_every"):
            parse_config("[grid]\noutput_every = 7\n")

    def test_missing_force_key(self):
        with pytest.raises(ConfigError, match="needs key 'amplitude'"):
            parse_config("[force]\nkind = constant\n")

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config("[system]\njunk\n")

    @pytest.mark.parametrize(
        "text",
        [
            "[system]\nm = nan\n",
            "[system]\nhbar = inf\n",
            "[packet]\nsigma = nan\n",
            "[packet]\nsigma = -inf\n",
            "[packet]\nF0 = nan-1i\n",
            "[packet]\nF0 = 0-infi\n",
            "[force]\nkind = piecewise_linear\nknots = 0:1, 2:nan\n",
            "[grid]\nt_max = inf\n",
            "[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = 1, nan\n",
        ],
        ids=["m", "hbar", "sigma_nan", "sigma_-inf", "F0_nan", "F0_inf", "knots", "t_max",
             "sweep_values"],
    )
    def test_non_finite_number(self, text):
        line = text.count("\n")
        with pytest.raises(ConfigError, match=f"line {line}: value '.*' is not finite"):
            parse_config(text)


class TestModeValidation:
    def test_validate_rejects_plane_wave(self):
        with pytest.raises(ConfigError, match="validate mode needs a packet"):
            parse_config("[packet]\nF0 = 0\n[run]\nmode = validate\n")

    def test_validate_containment(self):
        # strong force drives the center past the box within t_max
        text = (
            "[force]\nkind = constant\namplitude = 20\n"
            "[grid]\nx_min = -10\nx_max = 10\nn = 512\n"
            "[run]\nmode = validate\n"
        )
        with pytest.raises(ConfigError, match="does not contain"):
            parse_config(text)

    def test_containment_margin_is_eight_widths(self):
        # σ = 0.25 spreads to Δx(0.01) = 0.2508: the box must hold 0 ± 8·Δx = ±2.00639,
        # and a margin that lands exactly on an edge is still inside
        text = ("[packet]\nsigma = 0.25\n[grid]\nx_min = {}\nx_max = {}\nn = 256\n"
                "dt = 1e-3\nt_max = 0.01\noutput_every = 10\n[run]\nmode = validate\n")
        wide = parse_config(text.format(-10, 10))
        margin = 8.0 * delta_x(wide.packet, wide.grid.t_max)
        parse_config(text.format(-margin, margin))
        inside = math.nextafter(margin, 0.0)
        for lo, hi in ((-margin, inside), (-inside, margin)):
            with pytest.raises(ConfigError, match=r"x_c\(t_max\) ± 8·Δx = 0 ± 2\.00639$"):
                parse_config(text.format(lo, hi))

    def test_alpha0_and_packet_norm_must_be_finite_and_positive(self):
        # |F0| = 1e6 shrinks √(πħ/(−Im F0)) to 1.8e-3: e^{709.7827128} is the largest
        # finite e^{−2·Im α0} here, and e^{−744} = 1e-323 is positive, but the norm is 0
        text = "[packet]\nF0 = 0-1e6i\nalpha0 = {}\n"
        parse_config(text.format("0-354.89135644i"))
        with pytest.raises(ConfigError, match=r"line 3: .* = inf, not finite and positive$"):
            parse_config(text.format("0-354.89135645i"))
        with pytest.raises(ConfigError, match=r"line 3: the packet norm .* = 0, not finite"):
            parse_config(text.format("0+372i"))

    def test_validate_norm_window_is_centred_on_one(self):
        # with F0 = −πi the norm is e^{−2·Im α0}: 1 ± 0.995e-8 passes, 1 ± 1.005e-8 does not
        text = ("[packet]\nF0 = 0-3.141592653589793i\nalpha0 = 0{:+}i\n[grid]\nt_max = 0.1\n"
                "[run]\nmode = validate\n")
        for im in (4.975e-9, -4.975e-9):
            parse_config(text.format(im))
        for im in (5.025e-9, -5.025e-9):
            with pytest.raises(ConfigError, match="line 3: validate mode needs a normalized packet"):
                parse_config(text.format(im))

    def test_momentum_needs_gaussian(self):
        with pytest.raises(ConfigError, match="gaussian packet"):
            parse_config("[packet]\nF0 = 0-1i\n[run]\nmode = momentum\n")

    def test_momentum_takes_the_smallest_normal_hbar_squared(self):
        # ħ = 2⁻⁵¹¹ makes ħ² the smallest normal float; one ulp less underflows
        text = "[system]\nhbar = {!r}\n[run]\nmode = momentum\n"
        hbar = 2.0 ** -511
        assert parse_config(text.format(hbar)).packet.hbar == hbar
        with pytest.raises(ConfigError, match="line 2: .*divides by hbar\\^2, which underflows$"):
            parse_config(text.format(math.nextafter(hbar, 0.0)))

    def test_momentum_takes_the_smallest_normal_grid_spacing(self):
        text = ("[system]\nhbar = {!r}\n[grid]\nx_min = {!r}\nx_max = {!r}\n"
                "[run]\nmode = momentum\n")
        hbar = 2.0 ** -511
        # on this box the spacing 2πħ/(x_max − x_min) is the smallest normal float exactly
        x_max = math.pi * hbar / sys.float_info.min
        assert 2.0 * math.pi * hbar / (2.0 * x_max) == sys.float_info.min
        assert parse_config(text.format(hbar, -x_max, x_max)).grid.x_max == x_max
        wider = math.nextafter(x_max, math.inf)
        message = (f"line 2: hbar = {hbar:g}: the momentum grid spacing "
                   f"{math.nextafter(sys.float_info.min, 0.0)!r} is not a finite normal float")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text.format(hbar, -wider, wider))

    def test_sweep_needs_axis(self):
        with pytest.raises(ConfigError, match="sweep_axis"):
            parse_config("[run]\nmode = sweep\n")

    def test_sweep_axis_known(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            parse_config("[run]\nmode = sweep\nsweep_axis = foo\nsweep_values = 1\n")

    @pytest.mark.parametrize("values", ["1e-3, 2e-3, 1.0000001e-3", "0.5, 1, 0.5"])
    def test_sweep_values_need_distinct_case_directories(self, values):
        text = f"[run]\nmode = sweep\nsweep_axis = dt\nsweep_values = {values}\n"
        with pytest.raises(ConfigError, match=r"line 4: sweep values \[.*\] share a case"):
            parse_config(text)


class TestRowBound:
    # 10⁷ steps with a snapshot each: 10⁷ + 1 rows in every mode but analytic
    LONG = "[grid]\nn = 256\ndt = 1e-7\nt_max = 1\noutput_every = 1\n"

    def test_analytic_counts_snapshots_times_n(self):
        with pytest.raises(ConfigError, match=r"line 2: the run writes 2\.56e\+09 CSV rows"):
            parse_config(self.LONG + "[run]\nmode = analytic\n")
        assert parse_config(self.LONG + "[run]\nmode = momentum\n").grid.n_steps == 10**7

    def test_limit_is_ten_to_the_eighth_rows(self):
        # n = 128 with 781 250 snapshots is exactly 10⁸ rows; one more snapshot is too many
        text = "[grid]\nn = 128\ndt = 1e-6\noutput_every = 1\nt_max = {}\n[run]\nmode = analytic\n"
        assert parse_config(text.format(0.781249)).grid.n_steps == 781_249
        with pytest.raises(ConfigError, match=r"1e\+08 CSV rows, above the limit of 100000000$"):
            parse_config(text.format(0.78125))

    def test_sweep_multiplies_by_cases(self):
        # validate cases write only their snapshots: 9·(10⁷ + 1) rows pass, 10 cases do not
        def sweep(cases):
            values = ", ".join(str(1.0 + 0.1 * k) for k in range(cases))
            run = f"[run]\nmode = sweep\nsweep_axis = sigma\nsweep_values = {values}\n"
            return self.LONG + run

        assert 9 * (10**7 + 1) <= MAX_ROWS < 10 * (10**7 + 1)
        parse_config(sweep(9))
        with pytest.raises(ConfigError, match=r"line 2: the run writes 1e\+08 CSV rows"):
            parse_config(sweep(10))

    def test_sweep_counts_each_case_grid(self):
        # three times the base grid's 1001 × 256 rows would pass; dt = 1e-6 alone
        # writes 2.56e8, and the invalid dt = -0.0 writes no snapshots
        text = (
            "[grid]\nn = 256\nt_max = 1\noutput_every = 1\n[run]\nmode = sweep\n"
            "sweep_axis = dt\nsweep_mode = analytic\nsweep_values = 1e-3, -0.0, "
        )
        parse_config(text + "1e-5\n")
        with pytest.raises(ConfigError, match=r"line 2: the run writes 2\.56257e\+08 CSV rows"):
            parse_config(text + "1e-6\n")


def test_mode_override_applies():
    cfg = parse_config("[run]\nmode = analytic\n", mode_override="momentum")
    assert cfg.mode is RunMode.MOMENTUM


class TestSweepDerivation:
    BASE = "[force]\nkind = constant\namplitude = 1\n[run]\nmode = sweep\nsweep_axis = {axis}\nsweep_values = {values}\nsweep_mode = analytic\n"

    def test_sigma_axis(self):
        cfg = parse_config(self.BASE.format(axis="sigma", values="0.5, 2.0"))
        derived = cfg.sweep[1][1]
        assert derived.sigma == 2.0
        assert derived.mode is RunMode.ANALYTIC

    def test_dt_axis(self):
        cfg = parse_config(self.BASE.format(axis="dt", values="2e-3"))
        derived = apply_sweep_value(cfg, "dt", 2e-3)
        assert derived.grid.dt == 2e-3

    def test_n_axis(self):
        cfg = parse_config(self.BASE.format(axis="n", values="1024"))
        assert apply_sweep_value(cfg, "n", 1024).grid.n == 1024

    def test_force_amplitude_axis(self):
        # kind = zero is ConstantForce(0.0), so its amplitude sweeps too
        for force in ("kind = constant\namplitude = 1\n", "kind = zero\n"):
            text = self.BASE.format(axis="force-amplitude", values="0.5")
            cfg = parse_config(text.replace("kind = constant\namplitude = 1\n", force))
            assert cfg.sweep_axis == "force_amplitude"
            derived = apply_sweep_value(cfg, "force_amplitude", 0.5)
            assert derived.profile == ConstantForce(0.5)

    @pytest.mark.parametrize("text, axis", [
        ("[packet]\nF0 = 0-1i\n", "sigma"),
        ("", "F0_imag"),
        ("[force]\nkind = piecewise_linear\nknots = 0:1, 3:0\n", "force_amplitude"),
        ("", "omega"),
    ])
    def test_an_axis_the_base_cannot_take_is_refused_for_any_value(self, text, axis):
        # parse_config names the sweep_axis line; apply_sweep_value holds the same rule
        sweep = f"[run]\nmode = sweep\nsweep_axis = {axis}\nsweep_values = 1\n"
        line = text.count("\n") + 3
        with pytest.raises(ConfigError, match=f"^line {line}: ") as refused:
            parse_config(text + sweep)
        base = parse_config(text)
        with pytest.raises(ConfigError) as applied:
            apply_sweep_value(base, axis, 1.0)
        assert str(refused.value) == f"line {line}: {applied.value}"

    def test_n_case_of_a_momentum_sweep_meets_the_momentum_grid_rule(self):
        # 2πħ/Δx is finite at n = 64 but overflows at n = 2²⁰, as it does alone
        text = ("[system]\nhbar = 1e150\n[grid]\nx_min = 0\nx_max = 6.28e-154\nn = {}\n"
                "dt = 0.01\nt_max = 0.1\noutput_every = 1\n")
        cfg = parse_config(text.format(64) + "[run]\nmode = sweep\nsweep_axis = n\n"
                           "sweep_values = 64, 1048576\nsweep_mode = momentum\n")
        refused = r"^line 2: hbar = 1e\+150: the momentum grid spacing inf is not"
        with pytest.raises(ConfigError, match=refused) as alone:
            parse_config(text.format(1048576), mode_override="momentum")
        [(_, small), (_, large)] = cfg.sweep
        assert isinstance(small, RunConfig)
        assert isinstance(large, ConfigError) and str(large) == str(alone.value)

    def test_f0_imag_axis(self):
        text = (
            "[packet]\nA0 = 1\nB0 = 0-1i\n"
            "[run]\nmode = sweep\nsweep_axis = F0_imag\nsweep_values = -0.5, -2\n"
            "sweep_mode = analytic\n"
        )
        cfg = parse_config(text)
        derived = apply_sweep_value(cfg, "F0_imag", -2.0)
        assert derived.packet.spec.F0 == pytest.approx(-2.0j)
