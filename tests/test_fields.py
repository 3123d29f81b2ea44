import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrwp.errors import DegenerateFieldError
from lrwp.fields import (
    Grid1D,
    Space,
    WaveField,
    boundary_amplitude,
    conjugate_momentum_grid,
    field_norm,
    grid_moments,
    l2_error,
    momentum_moments,
    spectral_derivative,
    wavenumbers,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 64)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 8)  # too small
    g = Grid1D(-4.0, 4.0, 16)
    assert g.spacing == 0.5
    assert g.points[0] == -4.0 and g.points[-1] == 3.5  # endpoint-exclusive


@pytest.mark.parametrize("lo, hi, n", [
    (0.0, 16 * math.nextafter(sys.float_info.min, 0.0), 16),
    (0.0, 5e-324, 64),
    (-1e308, 1e308, 64),
    (1.0, 0.0, 16),
    (0.0, math.nan, 16),
    (0.0, 1.0, 2**1100),  # n beyond the float range
], ids=["subnormal", "underflow", "overflow", "reversed", "nan", "huge_n"])
def test_grid_spacing_must_be_a_finite_normal_float(lo, hi, n):
    with pytest.raises(ValueError, match="is not a finite normal float$"):
        Grid1D(lo, hi, n)


def test_grid_takes_the_smallest_normal_spacing():
    assert Grid1D(0.0, 16 * sys.float_info.min, 16).spacing == sys.float_info.min


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_grid_spacing_must_exceed_three_ulps_of_its_ends(sign):
    # at n = 2³², ends 2 − 3·2⁻¹⁹ and 2 give a spacing of exactly 3·ulp(2) = 3·2⁻⁵¹; one
    # float further out the spacing grows by 2⁻⁸⁴, a relative 4e-11 (points never built)
    n, end = 2**32, 2.0
    inner = end - 3 * 2.0**-19
    assert (end - inner) / n == 3 * math.ulp(end)
    with pytest.raises(ValueError, match="is within 3 ulp of 2: points coincide$"):
        Grid1D(*sorted((sign * inner, sign * end)), n)
    wider = math.nextafter(inner, 0.0)
    assert Grid1D(*sorted((sign * wider, sign * end)), n).spacing > 3 * math.ulp(end)


_HUGE = st.floats(min_value=1e300, allow_infinity=False)
_ENDS = {
    "subnormal": st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),
    "huge": st.one_of(_HUGE, _HUGE.map(lambda x: -x)),
}


@st.composite
def _boxes(draw):
    """(lo, hi, n): subnormal or huge ends, or an offset box a few ulps of lo wide."""
    n = draw(st.sampled_from([16, 64, 2048]))
    kind = draw(st.sampled_from(["subnormal", "huge", "offset"]))
    if kind == "offset":
        lo = draw(st.floats(allow_nan=False, allow_infinity=False))
        return lo, lo + draw(st.integers(-2, 8 * n)) * math.ulp(lo), n
    return draw(_ENDS[kind]), draw(_ENDS[kind]), n


@given(_boxes())
def test_a_grid_has_distinct_finite_points_or_is_refused(box):
    try:
        grid = Grid1D(*box)
    except ValueError:
        return
    x = grid.points
    assert np.isfinite(x).all() and (np.diff(x) > 0).all()
    assert grid.spacing >= sys.float_info.min


def test_wavefield_length_check():
    g = Grid1D(-4.0, 4.0, 16)
    with pytest.raises(ValueError):
        WaveField(grid=g, t=0.0, values=np.zeros(17))


def test_spectral_derivative_exact_for_grid_modes():
    g = Grid1D(-8.0, 8.0, 128)
    k = 2 * np.pi * 5 / 16.0
    psi = np.exp(1j * k * g.points)
    dpsi = spectral_derivative(psi, g)
    np.testing.assert_allclose(dpsi, 1j * k * psi, atol=1e-12)


def test_nyquist_masked():
    g = Grid1D(-8.0, 8.0, 64)
    k_nyq = wavenumbers(g)[32]
    psi = np.cos(abs(k_nyq) * g.points)
    assert np.max(np.abs(spectral_derivative(psi, g))) < 1e-12


def _gaussian(grid, sigma=1.0, x0=0.0, k0=0.0):
    x = grid.points
    psi = (2 * np.pi * sigma**2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (4 * sigma**2) + 1j * k0 * x
    )
    return WaveField(grid=grid, t=0.0, values=psi, space=Space.POSITION)


def test_gaussian_moments():
    g = Grid1D(-20.0, 20.0, 1024)
    f = _gaussian(g, sigma=1.3, x0=0.7, k0=1.1)
    assert field_norm(f) == pytest.approx(1.0, abs=1e-12)
    mean, std = grid_moments(f)
    assert mean == pytest.approx(0.7, abs=1e-10)
    assert std == pytest.approx(1.3, abs=1e-10)
    p_mean, dp = momentum_moments(f, hbar=1.0)
    assert p_mean == pytest.approx(1.1, abs=1e-10)
    assert dp == pytest.approx(1.0 / (2 * 1.3), abs=1e-10)


def test_l2_error_and_degenerate():
    g = Grid1D(-20.0, 20.0, 256)
    a = _gaussian(g)
    b = WaveField(grid=g, t=0.0, values=a.values * 1.01, space=Space.POSITION)
    assert l2_error(b, a) == pytest.approx(0.01, rel=1e-9)
    zero = WaveField(grid=g, t=0.0, values=np.zeros(256), space=Space.POSITION)
    with pytest.raises(DegenerateFieldError):
        l2_error(a, zero)
    with pytest.raises(DegenerateFieldError):
        grid_moments(zero)


def test_l2_error_requires_same_grid():
    a = _gaussian(Grid1D(-20.0, 20.0, 256))
    b = _gaussian(Grid1D(-10.0, 10.0, 256))
    with pytest.raises(ValueError):
        l2_error(a, b)


def test_boundary_amplitude():
    g = Grid1D(-5.0, 5.0, 64)
    f = _gaussian(g, sigma=0.5)
    assert boundary_amplitude(f) < 1e-10


def test_conjugate_grid_relation():
    g = Grid1D(-20.0, 20.0, 512)
    for hbar in (1.0, 0.7):
        pg = conjugate_momentum_grid(g, hbar)
        assert pg.n == g.n
        assert pg.spacing * g.spacing == pytest.approx(2 * np.pi * hbar / g.n, rel=1e-14)
        assert pg.lo == pytest.approx(-0.5 * pg.n * pg.spacing)
