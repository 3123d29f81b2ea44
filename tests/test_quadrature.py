import math

import numpy as np
import pytest

from simpson_reference import QuadratureError, adaptive_simpson


def test_polynomial_exact():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_sine():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_complex_integrand_shares_subdivision():
    val = adaptive_simpson(lambda t: np.exp(1j * t), 0.0, 1.0)
    assert val.real == pytest.approx(math.sin(1.0), abs=1e-13)
    assert val.imag == pytest.approx(1.0 - math.cos(1.0), abs=1e-13)


def test_reversed_limits_flip_sign():
    fwd = adaptive_simpson(lambda x: x**3 + 1.0, 0.0, 2.0)
    assert adaptive_simpson(lambda x: x**3 + 1.0, 2.0, 0.0) == pytest.approx(-fwd, abs=1e-13)


def test_empty_interval():
    assert adaptive_simpson(math.exp, 1.3, 1.3) == 0.0


def test_oscillatory_against_closed_form():
    omega = 37.0
    val = adaptive_simpson(lambda t: math.cos(omega * t), 0.0, 1.0, tol=1e-13)
    assert val == pytest.approx(math.sin(omega) / omega, abs=1e-12)


def test_nonconvergence_reports_residual():
    # integrable singularity at an off-dyadic point defeats a shallow tree
    f = lambda x: abs(x - 0.3) ** -0.5
    with pytest.raises(QuadratureError) as err:
        adaptive_simpson(f, 0.0, 1.0, tol=1e-14, max_depth=8)
    assert err.value.residual is not None and err.value.residual > 1e-14
