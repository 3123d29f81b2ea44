import pytest

from lrwp.config import RunMode, apply_sweep_value, parse_config
from lrwp.errors import ConfigError
from lrwp.forcing import (
    ConstantForce,
    PiecewiseLinearForce,
    SinusoidalForce,
    TabulatedForce,
    ZeroForce,
)
from lrwp.invariant import PacketMode


def test_empty_document_gets_defaults():
    cfg = parse_config("")
    assert cfg.m == 1.0 and cfg.hbar == 1.0
    assert isinstance(cfg.profile, ZeroForce)
    assert cfg.gaussian is not None and cfg.gaussian.sigma == 1.0
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
    assert cfg.m == 2.0 and cfg.hbar == 0.5
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
    assert cfg.gaussian is None
    assert cfg.packet.spec.B0 == -0.5j
    assert cfg.packet.spec.C0 == 0.1 + 0.2j
    assert cfg.packet.alpha0 == 0.3j


def test_f0_shorthand():
    cfg = parse_config("[packet]\nF0 = 0-0.25i\n")
    assert cfg.packet.spec.A0 == 1.0
    assert cfg.packet.spec.B0 == -0.25j
    assert cfg.packet.mode is PacketMode.GTWP


def test_plane_wave_config():
    cfg = parse_config("[packet]\nF0 = 0\np0 = 2.0\n")
    assert cfg.packet.mode is PacketMode.PLANE_WAVE


def test_piecewise_force():
    cfg = parse_config("[force]\nkind = piecewise_linear\nknots = 0:0, 1:1, 2:0\n")
    assert isinstance(cfg.profile, PiecewiseLinearForce)
    assert cfg.profile.force(0.5) == pytest.approx(0.5)


def test_tabulated_force():
    cfg = parse_config("[force]\nkind = tabulated\nsamples = 0:1, 4:1\n")
    assert isinstance(cfg.profile, TabulatedForce)


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
        with pytest.raises(ConfigError, match="m must be positive"):
            parse_config("[system]\nm = -1\n")

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

    def test_momentum_needs_gaussian(self):
        with pytest.raises(ConfigError, match="gaussian packet"):
            parse_config("[packet]\nF0 = 0-1i\n[run]\nmode = momentum\n")

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


def test_mode_override_applies():
    cfg = parse_config("[run]\nmode = analytic\n", mode_override="momentum")
    assert cfg.mode is RunMode.MOMENTUM


class TestSweepDerivation:
    BASE = "[force]\nkind = constant\namplitude = 1\n[run]\nmode = sweep\nsweep_axis = {axis}\nsweep_values = {values}\nsweep_mode = analytic\n"

    def test_sigma_axis(self):
        cfg = parse_config(self.BASE.format(axis="sigma", values="0.5, 2.0"))
        derived = apply_sweep_value(cfg, "sigma", 2.0)
        assert derived.gaussian.sigma == 2.0
        assert derived.mode is RunMode.ANALYTIC

    def test_dt_axis(self):
        cfg = parse_config(self.BASE.format(axis="dt", values="2e-3"))
        derived = apply_sweep_value(cfg, "dt", 2e-3)
        assert derived.grid.dt == 2e-3

    def test_n_axis(self):
        cfg = parse_config(self.BASE.format(axis="n", values="1024"))
        assert apply_sweep_value(cfg, "n", 1024).grid.n == 1024

    def test_force_amplitude_axis(self):
        cfg = parse_config(self.BASE.format(axis="force-amplitude", values="0.5"))
        assert cfg.sweep_axis == "force_amplitude"
        derived = apply_sweep_value(cfg, "force_amplitude", 0.5)
        assert isinstance(derived.profile, ConstantForce)
        assert derived.profile.amplitude == 0.5

    def test_f0_imag_axis(self):
        text = (
            "[packet]\nA0 = 1\nB0 = 0-1i\n"
            "[run]\nmode = sweep\nsweep_axis = F0_imag\nsweep_values = -0.5, -2\n"
            "sweep_mode = analytic\n"
        )
        cfg = parse_config(text)
        derived = apply_sweep_value(cfg, "F0_imag", -2.0)
        assert derived.packet.spec.F0 == pytest.approx(-2.0j)
