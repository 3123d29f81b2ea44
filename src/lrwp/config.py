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

Document rules hold once per parse: every key's syntax and number, the mode
and sweep settings (and what the axis needs, ``_AXES``), the momentum route's
σ and ħ² rules, and MAX_ROWS. Case rules hold on the values a case runs: its
force's, packet's and grid's (``_build_*``), and ``_check_validate``. A lone
run is the plan of one case, and raises its error. A sweep's document is a
template: each value replaces what its axis sets, and the plan keeps that case
or its error. A part that the axis does not set is built once, and its error
refuses the document.
"""

import cmath
import enum
import math
import sys
from dataclasses import dataclass

from .classical import x_c
from .errors import ConfigError, InvalidInvariantError, OutOfDomainError
from .fields import conjugate_momentum_grid
from .forcing import ConstantForce, ForceProfile, PiecewiseLinearForce, SinusoidalForce
from .invariant import InvariantSpec, PacketState
from .oracle import INITIAL_NORM_TOL, GridSpec
from .wavepacket import analytic_norm_sq, delta_x, matched_packet

__all__ = ["MAX_ROWS", "RunMode", "RunConfig", "parse_config", "sweep_case_name"]

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
    # a sweep holds the parts its cases share, and None for the part its axis sets
    profile: ForceProfile | None
    packet: PacketState | None
    sigma: float | None  # the width the packet was matched from; None for an invariant packet
    grid: GridSpec | None
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


def _parse_force(sec: dict[str, tuple[str, int]]) -> tuple[type, dict, int | None, int | None]:
    """The force's type, its constructor's arguments, and the lines of its kind and knots."""
    kind, line = sec.get("kind", ("zero", None))
    kind = kind.lower()

    def need(key):
        if key not in sec:
            raise ConfigError(f"force kind {kind!r} needs key {key!r}", line)
        return sec[key]

    if kind == "zero":
        return ConstantForce, {"amplitude": 0.0}, line, None
    if kind == "constant":
        return ConstantForce, {"amplitude": _parse_float(*need("amplitude"))}, line, None
    if kind == "sinusoidal":
        phase = _parse_float(*sec["phase"]) if "phase" in sec else 0.0
        args = {"amplitude": _parse_float(*need("amplitude")),
                "omega": _parse_float(*need("omega")), "phase": phase}
        return SinusoidalForce, args, line, None
    if kind in ("piecewise_linear", "tabulated"):  # tabulated samples interpolate linearly
        key = "knots" if kind == "piecewise_linear" else "samples"
        return PiecewiseLinearForce, {"knots": _parse_pairs(*need(key))}, line, sec[key][1]
    raise ConfigError(f"unknown force kind {kind!r}", line)


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


def _parse_packet(sec: dict[str, tuple[str, int]]) -> dict:
    """The packet's launch point and parameterization: σ, or the invariant's A0, B0, C0
    and α0, each with the line its rules name."""
    args = {"x0": _parse_float(*sec["x0"]) if "x0" in sec else 0.0,
            "p0": _parse_float(*sec["p0"]) if "p0" in sec else 0.0}
    invariant_keys = [k for k in ("A0", "B0", "C0", "F0", "alpha0") if k in sec]
    if "sigma" in sec and invariant_keys:
        raise ConfigError("packet mixes the gaussian (sigma) and invariant "
                          f"({'/'.join(invariant_keys)}) parameterizations", sec["sigma"][1])
    if "sigma" in sec or not invariant_keys:  # the default σ = 1 has no line
        sigma, line = sec.get("sigma", ("1", None))
        return {**args, "sigma": _parse_float(sigma, line), "line": line, "norm_line": line}

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
    return {**args, **dict(zip(("A0", "B0", "C0"), coefficients)), "alpha0": alpha0,
            "line": line, "norm_line": sec.get("alpha0", ("", None))[1]}


def _build_packet(args: dict, m: float, hbar: float) -> tuple[PacketState, float | None]:
    """Packet case rules: the packet matched to σ, or the invariant's, with a finite norm."""
    try:
        if "sigma" in args:
            packet = matched_packet(args["sigma"], m, hbar, args["x0"], args["p0"])
        else:
            a0, b0 = args["A0"], args["B0"]
            if "F0_imag" in args and a0:  # A0 and Re F0 stay; InvariantSpec refuses A0 = 0
                b0 = a0 * complex((b0 / a0).real, args["F0_imag"])
            spec = InvariantSpec(a0, b0, args["C0"])
            packet = PacketState(m, hbar, args["x0"], args["p0"], spec, args["alpha0"])
    except (ValueError, InvalidInvariantError) as exc:
        raise ConfigError(str(exc), args["line"])
    # ∫|ψ|² = e^{−2·Im α0}·√(πħ/(−Im F0)) fails only with an explicit α0: matched_packet's,
    # (i/4)·ln(2πσ²), or the config's; PacketState refuses an ħ and F0 that no α0 normalizes
    norm = analytic_norm_sq(packet) if packet.spec.is_packet else 1.0
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"the packet norm e^(-2*Im alpha0)*sqrt(pi*hbar/(-Im F0)) = "
                          f"{norm:g}, not finite and positive", args["norm_line"])
    return packet, args.get("sigma")


def _build_force(kind: type, args: dict, line: int | None, knots_line: int | None,
                 t_max: float) -> ForceProfile:
    """Force case rules: its constructor's, and a domain that reaches t_max."""
    try:
        profile = kind(**args)
        # the same domain rule and end fuzz as every later call; a t_max < 0 is GridSpec's
        profile.force(max(t_max, 0.0))
    except ValueError as exc:
        raise ConfigError(str(exc), line)
    except OutOfDomainError as exc:
        raise ConfigError(f"the force is not defined up to t_max = {t_max:g} ({exc})", knots_line)
    return profile


def _build_grid(args: dict, line: int | None, hbar: float | None,
                hbar_line: int | None) -> GridSpec:
    """Grid case rules: GridSpec's, and given ħ, the conjugate momentum grid's."""
    try:
        grid = GridSpec(**args)
    except ValueError as exc:
        raise ConfigError(str(exc), line)
    if hbar is not None:
        try:
            conjugate_momentum_grid(grid.grid, hbar)
        except ValueError as exc:
            raise ConfigError(f"hbar = {hbar:g}: the momentum {exc}", hbar_line)
    return grid


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


# each sweep axis: the part of a case it sets, the argument it sets there, and what
# the template needs to hold that argument
_AXES = {
    "sigma": ("packet", "sigma", "a gaussian-parameterized packet"),
    "F0_imag": ("packet", "B0", "an invariant-parameterized packet"),  # Im(B0/A0)
    "dt": ("grid", "dt", ""),
    "n": ("grid", "n", ""),
    "force_amplitude": ("force", "amplitude", "a constant or sinusoidal force"),
}


def parse_config(text: str, mode_override: str | None = None) -> RunConfig:
    """Parse a document, hold it to the document rules, and build its cases."""
    sections = _scan(text)

    system = sections["system"]
    m = _parse_float(*system["m"]) if "m" in system else 1.0
    hbar = _parse_float(*system["hbar"]) if "hbar" in system else 1.0
    for name, value in (("m", m), ("hbar", hbar)):
        if value <= 0:
            raise ConfigError(f"{name} must be positive", system[name][1])
    hbar_line = system.get("hbar", ("", None))[1]

    force_type, force_args, kind_line, knots_line = _parse_force(sections["force"])
    packet_args = _parse_packet(sections["packet"])
    gsec = sections["grid"]
    grid_line = min((ln for _, ln in gsec.values()), default=None)  # where grid errors point
    grid_args = {key: caster(*gsec[key]) if key in gsec else default for key, caster, default in (
        ("x_min", _parse_float, -20.0), ("x_max", _parse_float, 20.0), ("n", _parse_int, 2048),
        ("dt", _parse_float, 1e-3), ("t_max", _parse_float, 2.0),
        ("output_every", _parse_int, 10))}

    rsec = sections["run"]
    # the file's mode is checked even where the caller names the mode to run
    for mode_text, mode_line in (rsec.get("mode", ("analytic", None)), (mode_override, None)):
        if mode_text is not None:
            try:
                mode = RunMode(mode_text.lower())
            except ValueError:
                raise ConfigError(f"unknown mode {mode_text!r}", mode_line)

    sweep_axis = rsec["sweep_axis"][0].strip().replace("-", "_") if "sweep_axis" in rsec else None
    raw, line = rsec.get("sweep_values", ("", None))
    sweep_values = tuple(_parse_float(v, line) for v in raw.split(",") if v.strip())
    # concurrent cases must never write into the same directory
    names = [sweep_case_name(sweep_axis or "", v) for v in sweep_values]
    shared = [v for v, name in zip(sweep_values, names) if names.count(name) > 1]
    if shared:
        raise ConfigError(f"sweep values {shared} share a case directory name", line)
    raw, line = rsec.get("sweep_mode", ("validate", None))
    try:
        sweep_mode = RunMode(raw.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown sweep_mode {raw!r}", line)
    if sweep_mode is RunMode.SWEEP:
        raise ConfigError("sweep_mode cannot itself be 'sweep'", line)

    case_mode = sweep_mode if mode is RunMode.SWEEP else mode
    if case_mode is RunMode.MOMENTUM:
        if "sigma" not in packet_args:
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
    parts = {"force": force_args, "packet": packet_args, "grid": grid_args}
    axis_part = axis_key = None
    if mode is RunMode.SWEEP:  # the sweep rules: what the axis needs, for any value
        if sweep_axis is None or not sweep_values:
            raise ConfigError("sweep mode needs sweep_axis and sweep_values")
        line = rsec["sweep_axis"][1]
        if sweep_axis not in _AXES:
            raise ConfigError(f"unknown sweep axis {sweep_axis!r}", line)
        axis_part, axis_key, needs = _AXES[sweep_axis]
        if axis_key not in parts[axis_part]:
            raise ConfigError(f"{sweep_axis} sweep needs {needs}", line)

    builders = {  # each part's case rules
        "force": lambda args: _build_force(force_type, args, kind_line, knots_line,
                                           grid_args["t_max"]),
        "packet": lambda args: _build_packet(args, m, hbar),
        "grid": lambda args: _build_grid(
            args, grid_line, hbar if case_mode is RunMode.MOMENTUM else None, hbar_line),
    }
    # every case shares the parts its axis does not set: each is built, and judged, once
    built = {part: builders[part](args) for part, args in parts.items() if part != axis_part}

    def case(value: float | None = None) -> RunConfig:  # the template, ``value`` on its axis
        own = dict(built)
        if axis_part is not None:
            # an F0_imag case sets Im(B0/A0), which _build_packet composes into B0
            key = "F0_imag" if sweep_axis == "F0_imag" else axis_key
            value = int(round(value)) if key == "n" else value
            own[axis_part] = builders[axis_part]({**parts[axis_part], key: value})
        packet, sigma = own["packet"]
        config = RunConfig(own["force"], packet, sigma, own["grid"], case_mode)
        if case_mode is RunMode.VALIDATE:
            _check_validate(config, packet_args["norm_line"])
        return config

    if mode is RunMode.SWEEP:
        plan = []
        for value in sweep_values:
            try:
                plan.append((value, case(value)))
            except ConfigError as exc:
                plan.append((value, exc))
        packet, sigma = built.get("packet", (None, None))
        cfg = RunConfig(built.get("force"), packet, sigma, built.get("grid"), mode,
                        sweep_axis, tuple(plan))
    else:
        cfg = case()
    rows = _rows_to_write(cfg)
    if rows > MAX_ROWS:
        message = f"the run writes {rows:.6g} CSV rows, above the limit of {MAX_ROWS}"
        raise ConfigError(message, grid_line)
    return cfg


def _rows_to_write(cfg: RunConfig) -> int:
    """CSV rows a run writes: snapshots × n in analytic mode, else snapshots; a sweep's sum."""
    if cfg.mode is RunMode.SWEEP:
        return sum(_rows_to_write(case) for _, case in cfg.sweep if isinstance(case, RunConfig))
    snapshots = len(cfg.grid.snapshot_steps)
    return snapshots * cfg.grid.n if cfg.mode is RunMode.ANALYTIC else snapshots


def sweep_case_name(axis: str, value: float) -> str:
    """Directory name of the sweep case that sets ``axis`` to ``value``."""
    return f"{axis}={value:g}"
