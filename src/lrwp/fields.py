"""Sampled complex fields on uniform grids, plus spectral helpers.

Grids are endpoint-exclusive (points lo, lo+Δ, …, hi−Δ) so the FFT
conventions line up exactly. ``Grid1D`` alone decides what a grid is: n is a
power of two ≥ 16, and Δ = (hi − lo)/n a normal float wide enough for n distinct
points. The Nyquist bin is masked out of momentum observables and spectral derivatives.
"""

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFieldError

__all__ = [
    "Space",
    "Grid1D",
    "WaveField",
    "wavenumbers",
    "spectral_derivative",
    "field_norm",
    "l2_error",
    "grid_moments",
    "momentum_moments",
    "boundary_amplitude",
    "conjugate_momentum_grid",
]


class Space(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class Grid1D:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 16 or self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two, at least 16")
        delta, end = self.spacing, max(abs(self.lo), abs(self.hi))
        if not sys.float_info.min <= delta < math.inf:  # also refuses lo >= hi and nan
            raise ValueError(f"grid spacing {delta!r} is not a finite normal float")
        # With M = max(|lo|, |hi|), k·Δ < 2M rounds by at most ulp(M) and lo + k·Δ, at most M
        # in size, by at most ulp(M)/2: two neighbours move by at most 3·ulp(M) together, so
        # Δ > 3·ulp(M) keeps the points strictly increasing.
        if not delta > 3.0 * math.ulp(end):
            raise ValueError(f"grid spacing {delta:g} is within 3 ulp of {end:g}: points coincide")

    @property
    def spacing(self) -> float:
        # (hi − lo)/n for a power of two n, even one beyond the float range
        return math.ldexp(self.hi - self.lo, 1 - self.n.bit_length())

    @property
    def points(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n)


@dataclass(frozen=True)
class WaveField:
    """One snapshot of a complex field, in position or momentum space. It carries no
    quality flags: an operation that cannot trust its input raises instead."""

    grid: Grid1D
    t: float
    values: np.ndarray
    space: Space = Space.POSITION

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n,):
            raise ValueError("values length must match the grid")
        object.__setattr__(self, "values", values)


def wavenumbers(grid: Grid1D) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)


def _nyquist_mask(n: int) -> np.ndarray:
    mask = np.ones(n)
    mask[n // 2] = 0.0
    return mask


def spectral_derivative(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    k = wavenumbers(grid) * _nyquist_mask(grid.n)
    return np.fft.ifft(1j * k * np.fft.fft(values))


def field_norm(f: WaveField) -> float:
    """√(Σ|ψ|²·Δ) on the field's own axis."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.spacing))


def l2_error(f: WaveField, reference: WaveField) -> float:
    """‖f − ref‖ / ‖ref‖ on a shared grid."""
    if f.grid != reference.grid:
        raise ValueError("fields live on different grids")
    ref_norm = field_norm(reference)
    if ref_norm == 0.0:
        raise DegenerateFieldError("reference field has zero norm")
    diff = np.sqrt(np.sum(np.abs(f.values - reference.values) ** 2) * f.grid.spacing)
    return float(diff) / ref_norm


def _moments(u: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(mean, std) of the points ``u`` under the weights ``w``."""
    total = np.sum(w)
    if total == 0.0:
        raise DegenerateFieldError("field has zero norm")
    mean = float(np.sum(u * w) / total)
    var = float(np.sum((u - mean) ** 2 * w) / total)
    return mean, float(np.sqrt(max(var, 0.0)))


def grid_moments(f: WaveField) -> tuple[float, float]:
    """(mean, std) of the field's own coordinate under the density |ψ|²."""
    return _moments(f.grid.points, np.abs(f.values) ** 2)


def momentum_moments(f: WaveField, hbar: float) -> tuple[float, float]:
    """(⟨p⟩, Δp) of a position-space field, computed spectrally."""
    if f.space is not Space.POSITION:
        raise ValueError("momentum_moments expects a position-space field")
    w = np.abs(np.fft.fft(f.values)) ** 2 * _nyquist_mask(f.grid.n)
    return _moments(hbar * wavenumbers(f.grid), w)


def boundary_amplitude(f: WaveField) -> float:
    return float(max(abs(f.values[0]), abs(f.values[-1])))


def conjugate_momentum_grid(grid: Grid1D, hbar: float) -> Grid1D:
    """Momentum grid conjugate to a position grid: Δp·Δx = 2πħ/n, centered at 0."""
    dp = 2.0 * np.pi * hbar / (grid.n * grid.spacing)
    return Grid1D(lo=-0.5 * grid.n * dp, hi=0.5 * grid.n * dp, n=grid.n)
