"""Run configuration: INI-style sections, validated into a RunConfig.

Format: `[system] [force] [packet] [grid] [run]` sections of `key = value`
lines, `#` comments, complex values written as `re+imi` (e.g. `F0 = 0-0.5i`).
Every section is optional; the defaults describe a free particle with a
matched Gaussian of width 1 in natural units on the standard box. Diagnostics
carry the offending line number.

The packet section accepts exactly one parameterization:
  * gaussian:   sigma, the width of the momentum-space Gaussian, or
  * invariant:  A0, B0, C0, alpha0 — or the shorthand F0 (A0=1, C0=0).
Either way x0 and p0 set the packet's launch point. The packet holds m, ħ, x0
and p0; a RunConfig adds only σ, for the momentum route.

Case rules (``_check_validate``, ``_check_momentum_grid``) hold alike for a lone run
and for each sweep case, which the sweep plan keeps as its error when refused. Sweep
rules (``_check_axis``) and the momentum route's σ and ħ² rules hold once per parse.
"""

import cmath
import enum
import math
import sys
from dataclasses import dataclass, replace

from .classical import x_c
from .errors import ConfigError, InvalidInvariantError, LrwpError, OutOfDomainError
from .fields import conjugate_momentum_grid
from .forcing import ConstantForce, ForceProfile, PiecewiseLinearForce, SinusoidalForce
from .invariant import InvariantSpec, PacketState
from .oracle import INITIAL_NORM_TOL, GridSpec
from .wavepacket import analytic_norm_sq, delta_x, matched_packet

__all__ = ["MAX_ROWS", "RunMode", "RunConfig", "parse_config", "apply_sweep_value",
           "sweep_case_name"]

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
    profile: ForceProfile
    packet: PacketState
    sigma: float | None  # the width the packet was matched from; None for an invariant packet
    grid: GridSpec
    mode: RunMode
    sweep_axis: str | None = None
    # the sweep plan, in sweep order: each value with its case, or the error that refused it
    sweep: tuple[tuple[float, "RunConfig | Exception"], ...] = ()


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
    kind, kind_line = sec.get("kind", ("zero", None))
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


def _parse_alpha0(text: str, line: int) -> complex:
    """α0, refused unless |e^{iα0}|² = e^{−2·Im α0} is a finite positive float."""
    alpha0 = _parse_complex(text, line)
    try:
        scale = math.exp(-2.0 * alpha0.imag)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"alpha0 = {text.strip()}: e^(-2*Im alpha0) = {scale:g}, "
                          "not finite and positive", line)
    return alpha0


def _check_norm(packet: PacketState, line: int | None = None) -> None:
    """Refuse a packet whose ∫|ψ|² = e^{−2·Im α0}·√(πħ/(−Im F0)) is not a finite positive
    float. Only an explicit α0 can do this, from the config or from ``matched_packet``:
    the default one normalizes the packet, and ``PacketState`` refuses an ħ and F0 for
    which no α0 does."""
    if packet.spec.is_packet:
        norm = analytic_norm_sq(packet)
        if not 0.0 < norm < math.inf:
            raise ConfigError(f"the packet norm e^(-2*Im alpha0)*sqrt(pi*hbar/(-Im F0)) = "
                              f"{norm:g}, not finite and positive", line)


def _build_packet(
    sec: dict[str, tuple[str, int]], m: float, hbar: float
) -> tuple[PacketState, float | None]:
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
        line = sec["sigma"][1] if gaussian_given else None
        try:
            packet = matched_packet(sigma, m, hbar, x0, p0)
        except ValueError as exc:
            raise ConfigError(str(exc), line)
        _check_norm(packet, line)  # matched_packet gives α0 = (i/4)·ln(2πσ²)
        return packet, sigma

    if "F0" in sec and any(k in sec for k in ("A0", "B0", "C0")):
        raise ConfigError("F0 shorthand conflicts with explicit A0/B0/C0", sec["F0"][1])
    alpha0 = _parse_alpha0(*sec["alpha0"]) if "alpha0" in sec else None
    if "F0" in sec:
        line, coefficients = sec["F0"][1], (1.0 + 0j, _parse_complex(*sec["F0"]), 0j)
    elif "A0" in sec and "B0" in sec:
        line = sec["B0"][1]
        coefficients = (_parse_complex(*sec["A0"]), _parse_complex(*sec["B0"]),
                        _parse_complex(*sec["C0"]) if "C0" in sec else 0j)
    else:
        some = sec[invariant_keys[0]][1]
        raise ConfigError("invariant parameterization needs both A0 and B0", some)
    try:
        spec = InvariantSpec(*coefficients)
        packet = PacketState(m=m, hbar=hbar, x0=x0, p0=p0, spec=spec, alpha0=alpha0)
    except InvalidInvariantError as exc:
        raise ConfigError(str(exc), line)
    _check_norm(packet, sec.get("alpha0", ("", None))[1])  # only an explicit α0 can fail
    return packet, None


def _check_validate(case: RunConfig, alpha0_line: int | None = None) -> None:
    """Validate-mode case rules: a packet, normalized within INITIAL_NORM_TOL (only an
    explicit alpha0 can break this), in a box that holds x_c(t_max) ± 8·Δx(t_max)."""
    packet, grid = case.packet, case.grid
    if not packet.spec.is_packet:
        raise ConfigError("validate mode needs a packet (Im(F0) < 0), not a plane wave")
    norm_sq = analytic_norm_sq(packet)
    if abs(norm_sq - 1.0) > INITIAL_NORM_TOL:
        message = f"validate mode needs a normalized packet; alpha0 gives norm {norm_sq:.6g}"
        raise ConfigError(message, alpha0_line)
    xc = float(x_c(packet, case.profile, grid.t_max))
    margin = CONTAINMENT_WIDTHS * delta_x(packet, grid.t_max)
    if xc - margin < grid.x_min or xc + margin > grid.x_max:
        raise ConfigError(f"box [{grid.x_min:g}, {grid.x_max:g}] does not contain x_c(t_max) "
                          f"± {CONTAINMENT_WIDTHS:g}·Δx = {xc:g} ± {margin:g}")


def _check_momentum_grid(case: RunConfig, hbar_line: int | None) -> None:
    """Momentum-mode case rule: the conjugate momentum grid meets the grid rule."""
    try:
        conjugate_momentum_grid(case.grid.grid, case.packet.hbar)
    except ValueError as exc:
        raise ConfigError(f"hbar = {case.packet.hbar:g}: the momentum {exc}", hbar_line)


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
    packet, sigma = _build_packet(sections["packet"], m, hbar)

    gsec = sections["grid"]
    grid_line = min((ln for _, ln in gsec.values()), default=None)  # where grid errors point

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
        raise ConfigError(str(exc), grid_line)
    try:
        profile.force(grid.t_max)  # same domain rule and end fuzz as every later call
    except OutOfDomainError as exc:
        fsec = sections["force"]
        line = next(fsec[key][1] for key in ("knots", "samples") if key in fsec)
        raise ConfigError(f"the force is not defined up to t_max = {grid.t_max:g} ({exc})", line)

    rsec = sections["run"]
    # the file's mode is checked even where the caller names the mode to run
    for mode_text, mode_line in (rsec.get("mode", ("analytic", None)), (mode_override, None)):
        if mode_text is not None:
            try:
                mode = RunMode(mode_text.lower())
            except ValueError:
                raise ConfigError(f"unknown mode {mode_text!r}", mode_line)

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

    # a sweep case inherits every field of the base but the one its axis sets
    base = RunConfig(profile, packet, sigma, grid, mode=sweep_mode, sweep_axis=sweep_axis)
    cfg = replace(base, mode=mode)
    alpha0_line = sections["packet"].get("alpha0", ("", None))[1]
    hbar_line = system.get("hbar", ("", None))[1]

    if mode is RunMode.VALIDATE:
        _check_validate(cfg, alpha0_line)
    if (sweep_mode if mode is RunMode.SWEEP else mode) is RunMode.MOMENTUM:
        if sigma is None:
            who, line = (("sweep_mode momentum", rsec["sweep_mode"][1]) if mode is RunMode.SWEEP
                         else ("momentum mode", None))
            raise ConfigError(f"{who} requires the gaussian packet parameterization", line)
        # gaussian_phi0 divides by ħ²; where ħ² underflows to 0 that ends in ZeroDivisionError,
        # where it is subnormal the prefactor (2σ²/πħ²)^{1/4} overflows and φ turns nan, and
        # where it overflows, hbar**2 raises OverflowError
        if not sys.float_info.min <= hbar * hbar < math.inf:
            flow = "underflows" if hbar < 1.0 else "overflows"
            message = f"hbar = {hbar:g}: the momentum route divides by hbar^2, which {flow}"
            raise ConfigError(message, hbar_line)
        _check_momentum_grid(base, hbar_line)
    if mode is RunMode.SWEEP:
        if sweep_axis is None or not sweep_values:
            raise ConfigError("sweep mode needs sweep_axis and sweep_values")
        _check_axis(base, sweep_axis, rsec["sweep_axis"][1])
        cfg = replace(cfg, sweep=tuple((value, _sweep_case(base, value, alpha0_line, hbar_line))
                                       for value in sweep_values))
    rows = _rows_to_write(cfg)
    if rows > MAX_ROWS:
        message = f"the run writes {rows:.6g} CSV rows, above the limit of {MAX_ROWS}"
        raise ConfigError(message, grid_line)
    return cfg


def _rows_to_write(cfg: RunConfig) -> int:
    """CSV rows a run writes: snapshots × n in analytic mode, snapshots otherwise,
    summed over the sweep cases that the plan holds."""
    if cfg.mode is RunMode.SWEEP:
        return sum(_rows_to_write(case) for _, case in cfg.sweep if isinstance(case, RunConfig))
    snapshots = len(cfg.grid.snapshot_steps)
    return snapshots * cfg.grid.n if cfg.mode is RunMode.ANALYTIC else snapshots


def sweep_case_name(axis: str, value: float) -> str:
    """Directory name of the sweep case that sets ``axis`` to ``value``."""
    return f"{axis}={value:g}"


def _sweep_case(base: RunConfig, value: float, alpha0_line: int | None,
                hbar_line: int | None) -> RunConfig | Exception:
    """The case that sets the base's sweep axis to ``value``, held to the case rules of its
    mode as a lone run is, or the error that refuses it."""
    try:
        case = apply_sweep_value(base, base.sweep_axis, value)
        if case.mode is RunMode.VALIDATE:
            _check_validate(case, alpha0_line)
        elif case.mode is RunMode.MOMENTUM:  # only an n case moves the momentum grid
            _check_momentum_grid(case, hbar_line)
        return case
    except (LrwpError, ValueError) as exc:
        return exc


def _check_axis(base: RunConfig, axis: str, line: int | None = None) -> None:
    """Sweep rules: a known axis, and what that axis needs of the base, for any value."""
    if axis not in ("sigma", "F0_imag", "dt", "n", "force_amplitude"):
        raise ConfigError(f"unknown sweep axis {axis!r}", line)
    if axis == "sigma" and base.sigma is None:
        raise ConfigError("sigma sweep needs a gaussian-parameterized packet", line)
    if axis == "F0_imag" and base.sigma is not None:
        raise ConfigError("F0_imag sweep needs an invariant-parameterized packet", line)
    if axis == "force_amplitude" and not isinstance(base.profile, (ConstantForce, SinusoidalForce)):
        raise ConfigError("force_amplitude sweep needs a constant or sinusoidal force", line)


def apply_sweep_value(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """Derive a single-run config with one parameter replaced."""
    _check_axis(cfg, axis)
    p = cfg.packet
    if axis == "sigma":
        packet = matched_packet(float(value), p.m, p.hbar, p.x0, p.p0)
        _check_norm(packet)
        return replace(cfg, sigma=float(value), packet=packet)
    if axis == "F0_imag":
        old = p.spec
        spec = InvariantSpec(A0=old.A0, B0=old.A0 * complex(old.F0.real, float(value)), C0=old.C0)
        return replace(cfg, packet=replace(p, spec=spec, alpha0=None))
    if axis == "dt":
        return replace(cfg, grid=replace(cfg.grid, dt=float(value)))
    if axis == "n":
        return replace(cfg, grid=replace(cfg.grid, n=int(round(value))))
    return replace(cfg, profile=replace(cfg.profile, amplitude=float(value)))  # force_amplitude
