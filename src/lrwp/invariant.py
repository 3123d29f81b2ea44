"""Linear dynamical invariant I(t) = A(t)·p̂ + B(t)·x̂ + C(t).

The coefficients evolve as

    A(t) = A0·(1 − F0·t/m),   B(t) = B0,
    C(t) = C0 − A(t)·G(t) − (B0/m)·G1(t),

so that I(t) equals A0·p̂(0) + B0·x̂(0) + C0 for all times. The complex ratio
F0 = B0/A0 classifies the eigenfunctions: Im(F0) < 0 gives normalizable
Gaussian packets, F0 = 0 gives driven plane waves (the infinite-width end of
the same family), and Im(F0) = 0 with F0 ≠ 0 is rejected because the density
would collapse and diverge at t = m/F0. The operator is deliberately allowed
to be non-Hermitian; no Hermiticity is ever assumed or enforced.

An eigenfunction φ_λ of I(t) times e^{iα(t)} solves the Schrödinger equation.
A :class:`PacketState` picks one: the invariant plus a launch point (x0, p0),
which fixes the eigenvalue λ = A0·p0 + B0·x0 + C0 and the classical center
x_c, p_c. The product is the packet of ``lrwp.wavepacket.gtwp_psi``, which
carries α(t) inside its closed form; the tests keep the Lewis–Riesenfeld
phase α(t) itself as a cross-check.
"""

import math
from dataclasses import dataclass

from .errors import InvalidInvariantError
from .fields import WaveField, spectral_derivative
from .forcing import ForceProfile

__all__ = ["InvariantSpec", "PacketState", "coeffs_at", "eigenvalue", "apply_invariant"]


@dataclass(frozen=True)
class InvariantSpec:
    """Complex constants (A0, B0, C0); constants with no solution here (A0 = 0,
    Im F0 > 0, real F0 ≠ 0) raise InvalidInvariantError at construction."""

    A0: complex
    B0: complex
    C0: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "A0", complex(self.A0))
        object.__setattr__(self, "B0", complex(self.B0))
        object.__setattr__(self, "C0", complex(self.C0))
        if self.A0 == 0:
            raise InvalidInvariantError("A0 = 0 selects position eigenfunctions; not supported")
        f0 = self.F0
        if f0.imag > 0:
            raise InvalidInvariantError("unphysical invariant: Im(F0) > 0")
        if f0.imag == 0 and f0 != 0:
            raise InvalidInvariantError(
                "divergent density: Im(F0) = 0 with F0 != 0 (width collapses at t = m/F0)"
            )

    @property
    def F0(self) -> complex:
        return self.B0 / self.A0

    @property
    def is_packet(self) -> bool:
        """Im F0 < 0: a normalizable packet; otherwise F0 = 0, a plane wave."""
        return self.F0.imag < 0

    def a_ratio(self, m: float, t) -> complex:
        """A(t)/A0 = 1 − F0·t/m."""
        return 1.0 - self.F0 * t / m


@dataclass(frozen=True)
class PacketState:
    """Everything that pins down one packet solution; (m, x0, p0) is its classical state.

    ``alpha0`` defaults to the purely imaginary value that normalizes the
    packet to unit probability (it is a free constant otherwise).
    """

    m: float
    hbar: float
    x0: float
    p0: float
    spec: InvariantSpec
    alpha0: complex | None = None

    def __post_init__(self):
        if self.m <= 0 or self.hbar <= 0:
            raise ValueError("m and hbar must be positive")
        if self.alpha0 is None:
            if self.spec.is_packet:
                ratio = math.pi * self.hbar / (-self.spec.F0.imag)
                if not 0.0 < ratio < math.inf:
                    raise InvalidInvariantError(
                        f"pi*hbar/(-Im F0) = {ratio:g}: no alpha0 normalizes the packet"
                    )
                a0 = 0.25j * math.log(ratio)
            else:
                a0 = 0j
            object.__setattr__(self, "alpha0", a0)
        else:
            object.__setattr__(self, "alpha0", complex(self.alpha0))


def coeffs_at(
    spec: InvariantSpec, m: float, profile: ForceProfile, t: float
) -> tuple[complex, complex, complex]:
    """Coefficients (A, B, C) of the invariant at time t."""
    a = spec.A0 * spec.a_ratio(m, t)
    c = spec.C0 - a * profile.g(t) - spec.B0 / m * profile.g1(t)
    return a, spec.B0, c


def eigenvalue(packet: PacketState) -> complex:
    """λ = A0·p0 + B0·x0 + C0, equal to A(t)·p_c(t) + B·x_c(t) + C(t) for all t."""
    spec = packet.spec
    return spec.A0 * packet.p0 + spec.B0 * packet.x0 + spec.C0


def apply_invariant(
    coeffs: tuple[complex, complex, complex], field: WaveField, hbar: float
) -> WaveField:
    """Sample A·(−iħ ∂ₓψ) + B·x·ψ + C·ψ on the grid of ``field``.

    The derivative is spectral, so it is exact only for a field that vanishes
    at the box edges or is periodic on the box (a plane wave with a grid
    wavenumber); callers choose grids that contain the packet.
    """
    a, b, c = coeffs
    dpsi = spectral_derivative(field.values, field.grid)
    values = a * (-1j * hbar * dpsi) + b * field.grid.points * field.values + c * field.values
    return WaveField(grid=field.grid, t=field.t, values=values)
