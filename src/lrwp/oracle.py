"""Direct grid integration of iħ∂ψ/∂t = [p̂²/2m − F(t)·x̂]ψ, plus observables.

Two independent propagators cross-check every closed form:

* Strang split-step: half potential kick e^{+iF(t)x·dt/2ħ}, full spectral
  kinetic step e^{−iħk²dt/2m}, half kick with F(t+dt). Exactly unitary.
* Crank–Nicolson in Cayley form (1 + iH·dt/2ħ)ψ' = (1 − iH·dt/2ħ)ψ with a
  banded Laplacian and F sampled at t+dt/2. The Laplacian is the 5-point
  O(dx⁴) difference (pentadiagonal solve), real symmetric, hence unitary.

Both methods have O(dt²) global time error. The linear potential is
unbounded, so runs must end before the packet nears the box edge; the
boundary amplitude is checked every step and norm drift at every snapshot.
A field that turns nan or inf fails the same checks. ``GridSpec`` caps a run
at ``MAX_STEPS`` time steps and ``MAX_POINTS`` grid points.

Each propagator carries a batch: initial fields that share the grid, dt,
force, m and ħ (the cases of a σ or F0 sweep, which differ only in their
initial state) travel as the rows of one C-ordered (cases, n) array. The
split step runs one FFT pair along the last axis, with the kicks and the
kinetic factor broadcast over the rows; Crank–Nicolson runs one ``zgbtrs``
solve with a right-hand side per row, passed as the array's transpose, which
is Fortran-ordered without a copy. Rows never mix, and each row gets the same
bits it would get alone. Every check works per row: the initial norm, the
boundary amplitude at every step, a non-finite edge and the norm drift at
every snapshot. A row that fails one stops there: it keeps its error, is
zeroed, and is not checked again. So each snapshot yields one entry per case,
its field or the error that stopped it. A singular Crank–Nicolson matrix
stops every row.

Each step does only the work that changes. The force is sampled in blocks of
``FORCE_BLOCK`` steps, one vectorized ``profile.force`` call per block, and
each sample is flagged when its bits differ from the previous one. Only then
does Crank–Nicolson copy its prebuilt left band, add the force to its
diagonal and LU-factor it (``zgbtrf``) for the whole batch, and split-step
recompute its kick. Beyond that, every step is two kicks and two FFTs, or one
``zgbtrs`` solve and one scaled add: by the Cayley identity
(1 + iA)⁻¹(1 − iA)ψ = 2(1 + iA)⁻¹ψ − ψ, A = H·dt/2ħ, no right-hand band is
needed. The split step's closing kick is the next step's opening kick. A
constant force factors once per run, a sinusoidal one every step, a
piecewise-linear one once per flat segment plus once per sloped step.
Rebuilding the same operands would give the same bytes, so the output does
not depend on what was reused. SciPy's LAPACK is imported by the first
Crank–Nicolson run, so a run that never propagates never loads SciPy.
"""

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, DegenerateFieldError, InstabilityError, LrwpError
from .fields import (
    Grid1D,
    Space,
    WaveField,
    field_norm,
    grid_moments,
    momentum_moments,
    wavenumbers,
)
from .forcing import ForceProfile
from .invariant import apply_invariant

__all__ = [
    "GridSpec",
    "ObservableRecord",
    "propagate_splitstep",
    "propagate_cranknicolson",
    "observables",
]

NORM_DRIFT_TOL = 1e-8
INITIAL_NORM_TOL = 1e-8
BOUNDARY_TOL = 1e-10
# b1 takes 2·10³ steps. At n = 2048 on a 2-vCPU x86 VM a Crank–Nicolson step costs
# about 90–120 µs of CPU under a constant force and 240–300 µs under one that changes
# every step, so 10⁷ steps would run 15 to 50 min; the snapshot count grows with them.
MAX_STEPS = 10**7
# The Crank–Nicolson operands (bands, LU factors with fill-in, the solution and its
# predecessor) take about 320 B per point, a whole validate run about 490 B (peaks
# measured with tracemalloc), so 2²⁰ points need some 0.5 GB. b1 uses 2048. A sweep
# batch holds at most MAX_POINTS // n cases, so no process holds more points than
# one case of n = MAX_POINTS would.
MAX_POINTS = 2**20
# steps whose force samples come from one profile.force call: O(1) memory at MAX_STEPS
FORCE_BLOCK = 4096


@dataclass(frozen=True)
class GridSpec:
    """Spatial box, step sizes and output cadence of one propagation run. A snapshot
    is taken at each step of ``snapshot_steps`` and carries t = step·dt."""

    x_min: float
    x_max: float
    n: int
    dt: float
    t_max: float
    output_every: int = 1
    grid: Grid1D = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", Grid1D(lo=self.x_min, hi=self.x_max, n=self.n))
        if self.n < 64:
            raise ValueError("n must be at least 64")
        if self.n > MAX_POINTS:
            raise ValueError(f"n = {self.n} points, above the limit of {MAX_POINTS}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_max < self.dt:
            raise ValueError("t_max must be at least dt")
        steps = self.t_max / self.dt
        if not np.isfinite(steps):
            raise ValueError("t_max / dt overflows a float")
        if round(steps) > MAX_STEPS:
            raise ValueError(f"t_max / dt is {steps:.6g} steps, above the limit of {MAX_STEPS}")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("t_max must be an integer number of steps")
        if self.output_every < 1 or round(steps) % self.output_every != 0:
            raise ValueError("output_every must divide the step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    @property
    def snapshot_steps(self) -> range:
        return range(0, self.n_steps + 1, self.output_every)  # len and in are O(1)


@dataclass(frozen=True)
class ObservableRecord:
    """Per-snapshot grid measurements."""

    t: float
    norm: float  # total probability Σ|ψ|²Δx
    x_mean: float
    p_mean: float
    dx: float
    dp: float
    dxdp: float
    inv_expect: complex

    def __post_init__(self):
        if not self.norm > 0:
            raise DegenerateFieldError("record with non-positive norm")
        if self.dx < 0 or self.dp < 0:
            raise ValueError("uncertainties cannot be negative")


def _check_boundary(psi: np.ndarray, t: float) -> None:
    left, right = abs(psi[0]), abs(psi[-1])
    if left <= BOUNDARY_TOL and right <= BOUNDARY_TOL:
        return
    if not (math.isfinite(left) and math.isfinite(right)):  # every comparison with nan is False
        raise InstabilityError(f"non-finite field at t={t:g}")
    raise AliasingError(
        f"boundary amplitude {max(left, right):.3e} at t={t:g}: packet reached the box edge"
    )


def _checked(field: WaveField, norm0: float) -> WaveField:
    _check_boundary(field.values, field.t)
    drift = abs(field_norm(field) ** 2 - norm0)
    if not drift <= NORM_DRIFT_TOL:
        raise InstabilityError(f"norm drift {drift:.3e} at t={field.t:g}")
    return field


def _check_initial(initial: WaveField, spec: GridSpec) -> float:
    if initial.grid != spec.grid:
        raise ValueError("initial field grid does not match the run grid")
    norm0 = field_norm(initial) ** 2
    if abs(norm0 - 1.0) > INITIAL_NORM_TOL:
        raise InstabilityError(f"initial field must be normalized, its norm is {norm0:.12g}")
    return norm0


class _Rows:
    """Per-case state of a batch: each row's initial norm and the error that stopped it.

    A row that fails a check keeps its error and is zeroed. A zero row stays zero
    through every step, so it moves no byte of the others and raises no warning.
    """

    def __init__(self, initials: Sequence[WaveField], spec: GridSpec):
        self.grid = spec.grid
        self.start = np.zeros((len(initials), spec.n), dtype=complex)
        self.norm0: list[float | None] = []
        self.errors: list[Exception | None] = []
        for row, initial in zip(self.start, initials):
            try:
                self.norm0.append(_check_initial(initial, spec))
                self.errors.append(None)
                row[:] = initial.values
            except (ValueError, InstabilityError) as exc:
                self.norm0.append(None)
                self.errors.append(exc)

    @property
    def running(self) -> bool:
        return None in self.errors

    def _stop(self, psi: np.ndarray, i: int, exc: Exception) -> None:
        self.errors[i] = exc
        psi[i] = 0.0

    def stop_all(self, psi: np.ndarray, exc: Exception) -> None:
        for i, error in enumerate(self.errors):
            if error is None:
                self._stop(psi, i, exc)

    def check_edges(self, psi: np.ndarray, t: float) -> None:
        for i, error in enumerate(self.errors):
            if error is None:
                try:
                    _check_boundary(psi[i], t)
                except LrwpError as exc:
                    self._stop(psi, i, exc)

    def snapshot(self, psi: np.ndarray, t: float) -> list[WaveField | Exception]:
        """Per case, a copy of its row that passed the snapshot checks, or its error."""
        out = []
        for i, error in enumerate(self.errors):
            if error is None:
                field = WaveField(grid=self.grid, t=t, values=psi[i].copy(), space=Space.POSITION)
                try:
                    out.append(_checked(field, self.norm0[i]))
                    continue
                except LrwpError as exc:
                    self._stop(psi, i, exc)
            out.append(self.errors[i])
        return out


def _force_samples(
    profile: ForceProfile, offset: float, dt: float, count: int
) -> Iterator[tuple[float, bool]]:
    """Yield (F, changed) at t = (k + offset)·dt for k = 0 … count − 1.

    ``changed`` is False when F has the same bits as the sample before it.
    """
    prev = None
    for start in range(0, count, FORCE_BLOCK):
        t = (np.arange(start, min(start + FORCE_BLOCK, count)) + offset) * dt
        f = np.asarray(profile.force(t), dtype=float)
        bits = f.view(np.int64)
        changed = np.empty(len(f), dtype=bool)
        changed[0] = prev is None or bits[0] != prev
        changed[1:] = bits[1:] != bits[:-1]
        prev = bits[-1]
        yield from zip(f.tolist(), changed.tolist())


def propagate_splitstep(
    initials: Sequence[WaveField], profile: ForceProfile, m: float, hbar: float, spec: GridSpec
) -> Iterator[list[WaveField | Exception]]:
    """Yield per snapshot (t=0 included) each case's Strang split-step field, or its error."""
    rows = _Rows(initials, spec)
    psi = rows.start
    x = spec.grid.points
    k = wavenumbers(spec.grid)
    dt, snapshots = spec.dt, spec.snapshot_steps
    kinetic = np.exp(-1j * hbar * k * k * dt / (2.0 * m))
    yield rows.snapshot(psi, 0.0)
    half = x * dt / (2.0 * hbar)
    forces = _force_samples(profile, 0.0, dt, spec.n_steps + 1)
    f, _ = next(forces)
    kick = np.exp(1j * f * half)
    for step, (f, changed) in enumerate(forces, start=1):
        if rows.running:
            psi *= kick
            psi = np.fft.ifft(kinetic * np.fft.fft(psi))
            if changed:
                kick = np.exp(1j * f * half)
            psi *= kick
            rows.check_edges(psi, step * dt)
        if step in snapshots:
            yield rows.snapshot(psi, step * dt)


def _kinetic_bands(n: int, c: float) -> tuple[np.ndarray, int]:
    """Banded form (scipy ab layout) of the 5-point −(ħ²/2m)∂², c = ħ²/(2m·dx²)."""
    ab = np.zeros((5, n))
    ab[2, :] = 2.5 * c
    ab[1, 1:] = ab[3, :-1] = -4.0 * c / 3.0
    ab[0, 2:] = ab[4, :-2] = c / 12.0
    return ab, 2


def propagate_cranknicolson(
    initials: Sequence[WaveField],
    profile: ForceProfile,
    m: float,
    hbar: float,
    spec: GridSpec,
) -> Iterator[list[WaveField | Exception]]:
    """Yield per snapshot (t=0 included) each case's Cayley-form Crank–Nicolson field,
    or its error."""
    from scipy.linalg.lapack import zgbtrf, zgbtrs

    rows = _Rows(initials, spec)
    psi = rows.start
    grid = spec.grid
    dx = grid.spacing
    dt, snapshots = spec.dt, spec.snapshot_steps
    kin, nb = _kinetic_bands(grid.n, hbar * hbar / (2.0 * m * dx * dx))
    scale = dt / (2.0 * hbar)
    # the left band 1 + i·scale·H at zero force; a force f adds f·drive to its diagonal
    left = 1j * scale * kin
    left[nb, :] += 1.0
    drive = -1j * scale * grid.points
    # zgbtrf's layout: the LHS band in the bottom 2·nb + 1 rows, its fill-in above
    lu = np.zeros((3 * nb + 1, grid.n), dtype=complex, order="F")
    yield rows.snapshot(psi, 0.0)
    forces = _force_samples(profile, 0.5, dt, spec.n_steps)
    for step, (f, changed) in enumerate(forces, start=1):
        if rows.running and changed:
            lu[nb:] = left
            lu[2 * nb, :] += f * drive
            lu, piv, info = zgbtrf(lu, nb, nb, overwrite_ab=1)
            if info > 0:
                rows.stop_all(
                    psi, InstabilityError(f"singular Crank–Nicolson matrix at t={step * dt:g}")
                )
        if rows.running:
            # psi.T is Fortran-ordered: one right-hand side per row; ψ' = 2·solved − ψ
            solved = zgbtrs(lu, nb, nb, psi.T, piv)[0].T
            solved *= 2.0
            psi = np.subtract(solved, psi, out=solved)
            rows.check_edges(psi, step * dt)
        if step in snapshots:
            yield rows.snapshot(psi, step * dt)


def observables(
    field: WaveField, m: float, hbar: float, coeffs: tuple[complex, complex, complex]
) -> ObservableRecord:
    """Norm, center, widths and invariant expectation of one field."""
    dx_grid = field.grid.spacing
    norm = field_norm(field) ** 2
    if norm == 0.0:
        raise DegenerateFieldError("field has zero norm")
    x_mean, dx = grid_moments(field)
    p_mean, dp = momentum_moments(field, hbar)
    iv = apply_invariant(coeffs, field, hbar)
    inv_expect = complex(np.sum(np.conj(field.values) * iv.values) * dx_grid / norm)
    return ObservableRecord(
        t=field.t,
        norm=norm,
        x_mean=x_mean,
        p_mean=p_mean,
        dx=dx,
        dp=dp,
        dxdp=dx * dp,
        inv_expect=inv_expect,
    )
