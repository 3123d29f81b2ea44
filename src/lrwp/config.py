"""Run configuration: INI-style sections, validated into a RunConfig.

Format: `[system] [force] [packet] [grid] [run]` sections of `key = value`
lines, `#` comments, complex values written as `re+imi` (e.g. `F0 = 0-0.5i`).
Every section is optional; the defaults describe a free particle with a
matched Gaussian of width 1 in natural units on the standard box. Diagnostics
carry the offending line number.

The packet section accepts exactly one parameterization:
  * gaussian:   sigma (plus shared x0, p0), or
  * invariant:  A0, B0, C0, alpha0 — or the shorthand F0 (A0=1, C0=0).
"""

import cmath
import enum
import math
import sys
from dataclasses import dataclass, replace

from .classical import x_c
from .errors import ConfigError, ContainmentError, LrwpError, OutOfDomainError
from .forcing import ConstantForce, ForceProfile, PiecewiseLinearForce, SinusoidalForce
from .invariant import InvariantSpec, PacketMode
from .oracle import INITIAL_NORM_TOL, GridSpec
from .wavepacket import (GaussianMomentumParams, PacketState, analytic_norm_sq, delta_x,
                         matched_packet)

__all__ = ["MAX_ROWS", "RunMode", "RunConfig", "parse_config", "check_containment",
           "apply_sweep_value", "sweep_case_name"]

CONTAINMENT_WIDTHS = 8.0
# b1 `analytic` writes 411 648 CSV rows, 48 MB in about 2 s. 10⁸ rows, summed over
# sweep cases, are some 12 GB and 10 min of formatting on a 2-vCPU x86 VM.
MAX_ROWS = 10**8


class RunMode(enum.Enum):
    ANALYTIC = "analytic"
    VALIDATE = "validate"
    MOMENTUM = "momentum"
    SWEEP = "sweep"


_SECTIONS = {
    "system": {"m", "hbar"},
    "force": {"kind", "amplitude", "omega", "phase", "knots", "samples"},
    "packet": {"sigma", "x0", "p0", "A0", "B0", "C0", "F0", "alpha0"},
    "grid": {"x_min", "x_max", "n", "dt", "t_max", "output_every"},
    "run": {"mode", "sweep_axis", "sweep_values", "sweep_mode"},
}


@dataclass(frozen=True)
class RunConfig:
    m: float
    hbar: float
    profile: ForceProfile
    packet: PacketState
    gaussian: GaussianMomentumParams | None  # set when the packet came from sigma
    grid: GridSpec
    mode: RunMode
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] = ()
    sweep_mode: RunMode = RunMode.VALIDATE


def _parse_complex(text: str, line: int) -> complex:
    s = text.strip().replace(" ", "")
    try:
        if s.endswith("i"):
            body = s[:-1]
            if body == "" or body[-1] in "+-":
                body += "1"
            value = complex(body + "j")
        else:
            value = complex(float(s))
    except ValueError:
        raise ConfigError(f"cannot parse complex value {text!r} (use re+imi)", line)
    if not cmath.isfinite(value):
        raise ConfigError(f"value {text.strip()!r} is not finite", line)
    return value


def _parse_float(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number {text!r}", line)
    if not math.isfinite(value):
        raise ConfigError(f"value {text.strip()!r} is not finite", line)
    return value


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}", line)


def _parse_pairs(text: str, line: int) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"expected t:F pairs, got {chunk!r}", line)
        t_str, f_str = chunk.split(":", 1)
        pairs.append((_parse_float(t_str, line), _parse_float(f_str, line)))
    if not pairs:
        raise ConfigError("empty knot list", line)
    return tuple(pairs)


def _scan(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Split the document into sections of {key: (raw value, line number)}."""
    out: dict[str, dict[str, tuple[str, int]]] = {name: {} for name in _SECTIONS}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if section is None:
            raise ConfigError("key appears before any [section] header", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if key in out[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        out[section][key] = (value, lineno)
    return out


def _build_profile(sec: dict[str, tuple[str, int]]) -> ForceProfile:
    kind, kind_line = sec.get("kind", ("zero", 0))
    kind = kind.lower()

    def need(key):
        if key not in sec:
            raise ConfigError(f"force kind {kind!r} needs key {key!r}", kind_line)
        return sec[key]

    try:
        if kind == "zero":
            return ConstantForce(amplitude=0.0)
        if kind == "constant":
            return ConstantForce(amplitude=_parse_float(*need("amplitude")))
        if kind == "sinusoidal":
            phase = _parse_float(*sec["phase"]) if "phase" in sec else 0.0
            return SinusoidalForce(
                amplitude=_parse_float(*need("amplitude")),
                omega=_parse_float(*need("omega")),
                phase=phase,
            )
        if kind in ("piecewise_linear", "tabulated"):  # tabulated samples interpolate linearly
            key = "knots" if kind == "piecewise_linear" else "samples"
            return PiecewiseLinearForce(knots=_parse_pairs(*need(key)))
    except ValueError as exc:
        raise ConfigError(str(exc), kind_line)
    raise ConfigError(f"unknown force kind {kind!r}", kind_line)


def _build_packet(
    sec: dict[str, tuple[str, int]], m: float, hbar: float
) -> tuple[PacketState, GaussianMomentumParams | None]:
    x0 = _parse_float(*sec["x0"]) if "x0" in sec else 0.0
    p0 = _parse_float(*sec["p0"]) if "p0" in sec else 0.0
    invariant_keys = [k for k in ("A0", "B0", "C0", "F0", "alpha0") if k in sec]
    gaussian_given = "sigma" in sec
    if gaussian_given and invariant_keys:
        raise ConfigError(
            "packet mixes the gaussian (sigma) and invariant "
            f"({'/'.join(invariant_keys)}) parameterizations",
            sec["sigma"][1],
        )
    if gaussian_given or not invariant_keys:
        sigma = _parse_float(*sec["sigma"]) if gaussian_given else 1.0
        line = sec["sigma"][1] if gaussian_given else 0
        try:
            params = GaussianMomentumParams(sigma=sigma, x0=x0, p0=p0)
            return matched_packet(params, m, hbar), params
        except ValueError as exc:
            raise ConfigError(str(exc), line)

    if "F0" in sec and any(k in sec for k in ("A0", "B0", "C0")):
        raise ConfigError("F0 shorthand conflicts with explicit A0/B0/C0", sec["F0"][1])
    alpha0 = _parse_complex(*sec["alpha0"]) if "alpha0" in sec else None
    try:
        if "F0" in sec:
            line = sec["F0"][1]
            spec = InvariantSpec(A0=1.0 + 0j, B0=_parse_complex(*sec["F0"]), C0=0j)
        else:
            if "A0" not in sec or "B0" not in sec:
                some = next(iter(invariant_keys))
                raise ConfigError(
                    "invariant parameterization needs both A0 and B0", sec[some][1]
                )
            line = sec["B0"][1]
            spec = InvariantSpec(
                A0=_parse_complex(*sec["A0"]),
                B0=_parse_complex(*sec["B0"]),
                C0=_parse_complex(*sec["C0"]) if "C0" in sec else 0j,
            )
        packet = PacketState(m=m, hbar=hbar, x0=x0, p0=p0, spec=spec, alpha0=alpha0)
    except LrwpError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), line)
    return packet, None


def check_containment(cfg: RunConfig) -> None:
    """Validate-mode guard: the box must hold x_c(t_max) ± 8·Δx(t_max)."""
    if cfg.packet.mode is not PacketMode.GTWP:
        return
    xc = float(x_c(cfg.packet.classical, cfg.profile, cfg.grid.t_max))
    margin = CONTAINMENT_WIDTHS * delta_x(cfg.packet, cfg.grid.t_max)
    if xc - margin < cfg.grid.x_min or xc + margin > cfg.grid.x_max:
        raise ContainmentError(
            f"box [{cfg.grid.x_min:g}, {cfg.grid.x_max:g}] does not contain "
            f"x_c(t_max) ± {CONTAINMENT_WIDTHS:g}·Δx = {xc:g} ± {margin:g}"
        )


def parse_config(text: str, mode_override: str | None = None) -> RunConfig:
    """Parse and fully validate a configuration document."""
    sections = _scan(text)

    system = sections["system"]
    m = _parse_float(*system["m"]) if "m" in system else 1.0
    hbar = _parse_float(*system["hbar"]) if "hbar" in system else 1.0
    for name, value in (("m", m), ("hbar", hbar)):
        if value <= 0:
            raise ConfigError(f"{name} must be positive", system[name][1])

    profile = _build_profile(sections["force"])
    packet, gaussian = _build_packet(sections["packet"], m, hbar)

    gsec = sections["grid"]

    def gval(key, default, caster):
        return caster(*gsec[key]) if key in gsec else default

    try:
        grid = GridSpec(
            x_min=gval("x_min", -20.0, _parse_float),
            x_max=gval("x_max", 20.0, _parse_float),
            n=gval("n", 2048, _parse_int),
            dt=gval("dt", 1e-3, _parse_float),
            t_max=gval("t_max", 2.0, _parse_float),
            output_every=gval("output_every", 10, _parse_int),
        )
    except ValueError as exc:
        line = min((ln for _, ln in gsec.values()), default=0)
        raise ConfigError(str(exc), line or None)
    try:
        profile.force(grid.t_max)  # same domain rule and end fuzz as every later call
    except OutOfDomainError as exc:
        fsec = sections["force"]
        line = next(fsec[key][1] for key in ("knots", "samples") if key in fsec)
        raise ConfigError(f"the force is not defined up to t_max = {grid.t_max:g} ({exc})", line)

    rsec = sections["run"]
    mode_text, mode_line = rsec.get("mode", ("analytic", 0))
    if mode_override is not None:
        mode_text, mode_line = mode_override, 0
    try:
        mode = RunMode(mode_text.lower())
    except ValueError:
        raise ConfigError(f"unknown mode {mode_text!r}", mode_line or None)

    sweep_axis = None
    sweep_values: tuple[float, ...] = ()
    sweep_mode = RunMode.VALIDATE
    if "sweep_axis" in rsec:
        sweep_axis = rsec["sweep_axis"][0].strip().replace("-", "_")
    if "sweep_values" in rsec:
        raw, line = rsec["sweep_values"]
        sweep_values = tuple(_parse_float(v, line) for v in raw.split(",") if v.strip())
        # concurrent cases must never write into the same directory
        names = [sweep_case_name(sweep_axis or "", v) for v in sweep_values]
        shared = [v for v, name in zip(sweep_values, names) if names.count(name) > 1]
        if shared:
            raise ConfigError(f"sweep values {shared} share a case directory name", line)
    if "sweep_mode" in rsec:
        raw, line = rsec["sweep_mode"]
        try:
            sweep_mode = RunMode(raw.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown sweep_mode {raw!r}", line)
        if sweep_mode is RunMode.SWEEP:
            raise ConfigError("sweep_mode cannot itself be 'sweep'", line)

    cfg = RunConfig(
        m=m,
        hbar=hbar,
        profile=profile,
        packet=packet,
        gaussian=gaussian,
        grid=grid,
        mode=mode,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        sweep_mode=sweep_mode,
    )

    if mode is RunMode.VALIDATE:
        if packet.mode is not PacketMode.GTWP:
            raise ConfigError("validate mode needs a packet (Im(F0) < 0), not a plane wave")
        norm_sq = analytic_norm_sq(packet)
        if abs(norm_sq - 1.0) > INITIAL_NORM_TOL:  # only an explicit alpha0 can do this
            message = f"validate mode needs a normalized packet; alpha0 gives norm {norm_sq:.6g}"
            raise ConfigError(message, sections["packet"]["alpha0"][1])
        try:
            check_containment(cfg)
        except ContainmentError as exc:
            raise ConfigError(str(exc))
    if mode is RunMode.MOMENTUM and gaussian is None:
        raise ConfigError("momentum mode requires the gaussian packet parameterization")
    # gaussian_phi0 divides by ħ²; where ħ² underflows to 0 that ends in ZeroDivisionError,
    # and where it is subnormal the prefactor (2σ²/πħ²)^{1/4} overflows and φ turns nan
    momentum_route = mode is RunMode.MOMENTUM or (
        mode is RunMode.SWEEP and sweep_mode is RunMode.MOMENTUM
    )
    if momentum_route and hbar * hbar < sys.float_info.min:
        message = f"hbar = {hbar:g}: the momentum route divides by hbar^2, which underflows"
        raise ConfigError(message, system["hbar"][1])
    if mode is RunMode.SWEEP:
        if sweep_axis is None or not sweep_values:
            raise ConfigError("sweep mode needs sweep_axis and sweep_values")
        if sweep_axis not in {"sigma", "F0_imag", "dt", "n", "force_amplitude"}:
            raise ConfigError(f"unknown sweep axis {sweep_axis!r}")
        if sweep_mode is RunMode.MOMENTUM and gaussian is None:
            message = "sweep_mode momentum requires the gaussian packet parameterization"
            raise ConfigError(message, rsec["sweep_mode"][1])
    rows = _rows_to_write(cfg)
    if rows > MAX_ROWS:
        line = min((ln for _, ln in gsec.values()), default=0)
        raise ConfigError(
            f"the run writes {rows:.6g} CSV rows, above the limit of {MAX_ROWS}", line or None
        )
    return cfg


def _rows_to_write(cfg: RunConfig) -> int:
    """CSV rows a run writes: snapshots × n in analytic mode, snapshots otherwise,
    summed over the sweep cases that can be built."""
    if cfg.mode is RunMode.SWEEP:
        total = 0
        for value in cfg.sweep_values:
            try:
                total += _rows_to_write(apply_sweep_value(cfg, cfg.sweep_axis, value))
            except (LrwpError, ValueError):
                pass
        return total
    snapshots = cfg.grid.n_steps // cfg.grid.output_every + 1
    return snapshots * cfg.grid.n if cfg.mode is RunMode.ANALYTIC else snapshots


def sweep_case_name(axis: str, value: float) -> str:
    """Directory name of the sweep case that sets ``axis`` to ``value``."""
    return f"{axis}={value:g}"


def apply_sweep_value(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """Derive a single-run config with one parameter replaced."""
    if axis == "sigma":
        if cfg.gaussian is None:
            raise ConfigError("sigma sweep needs a gaussian-parameterized packet")
        params = replace(cfg.gaussian, sigma=float(value))
        packet = matched_packet(params, cfg.m, cfg.hbar)
        return replace(cfg, gaussian=params, packet=packet, mode=cfg.sweep_mode)
    if axis == "F0_imag":
        if cfg.gaussian is not None:
            raise ConfigError("F0_imag sweep needs an invariant-parameterized packet")
        old = cfg.packet.spec
        spec = InvariantSpec(A0=old.A0, B0=old.A0 * complex(old.F0.real, float(value)), C0=old.C0)
        packet = PacketState(
            m=cfg.m, hbar=cfg.hbar, x0=cfg.packet.x0, p0=cfg.packet.p0, spec=spec, alpha0=None
        )
        return replace(cfg, packet=packet, mode=cfg.sweep_mode)
    if axis == "dt":
        return replace(cfg, grid=replace(cfg.grid, dt=float(value)), mode=cfg.sweep_mode)
    if axis == "n":
        return replace(cfg, grid=replace(cfg.grid, n=int(round(value))), mode=cfg.sweep_mode)
    if axis == "force_amplitude":
        if not isinstance(cfg.profile, (ConstantForce, SinusoidalForce)):
            raise ConfigError("force_amplitude sweep needs a constant or sinusoidal force")
        return replace(
            cfg, profile=replace(cfg.profile, amplitude=float(value)), mode=cfg.sweep_mode
        )
    raise ConfigError(f"unknown sweep axis {axis!r}")
