import numpy as np
import pytest

from lrwp.classical import kinetic_action, p_c, x_c
from lrwp.forcing import ConstantForce, SinusoidalForce
from lrwp.invariant import InvariantSpec, PacketState

# frozen oracle values for Sinusoidal(amplitude=1, omega=2): nested adaptive
# quadrature for G1 and a 2e6-point trapezoid rule for the action integral
G1_SIN_1 = 0.2726756432935796
G_SIN_1 = 0.7080734182735712
ACTION_SIN_1 = 0.8346884259511830  # m=1, p0=1, t=1

F_ZERO = ConstantForce(0.0)
F_CONST = ConstantForce(1.0)
F_SIN = SinusoidalForce(1.0, 2.0)


def _state(m, x0=0.0, p0=0.0):
    # the center reads only m, x0 and p0 of a packet state; the plane wave is the simplest
    return PacketState(m=m, hbar=1.0, x0=x0, p0=p0, spec=InvariantSpec(1.0, 0j))


def test_x_c_trivia():
    assert x_c(_state(1.0), F_ZERO, 4.0) == 0.0
    assert x_c(_state(1.0), F_CONST, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_x_c_derived():
    state = _state(m=2.0, x0=1.0, p0=3.0)
    assert x_c(state, F_SIN, 1.0) == pytest.approx(1.0 + (3.0 + G1_SIN_1) / 2.0, abs=1e-13)


def test_p_c_trivia():
    assert p_c(_state(1.0), F_ZERO, 7.0) == 0.0
    assert p_c(_state(1.0, p0=1.0), F_CONST, 2.0) == pytest.approx(3.0, abs=1e-14)


def test_p_c_derived():
    assert p_c(_state(1.0), F_SIN, 1.0) == pytest.approx(G_SIN_1, abs=1e-14)


def test_kinetic_action_zero_and_constant():
    assert kinetic_action(1.0, 0.0, F_ZERO, 5.0) == 0.0
    assert kinetic_action(1.0, 2.0, F_ZERO, 3.0) == pytest.approx(6.0, abs=1e-14)
    assert kinetic_action(1.0, 0.0, F_CONST, 2.0) == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_kinetic_action_sinusoidal_vs_trapezoid_oracle():
    st = _state(1.0, p0=1.0)
    val = kinetic_action(st.m, st.p0, F_SIN, 1.0)
    assert val == pytest.approx(ACTION_SIN_1, abs=1e-12)
    tau = np.linspace(0.0, 1.0, 200_001)
    oracle = np.trapezoid(np.asarray(p_c(st, F_SIN, tau)) ** 2 / 2.0, tau)
    assert abs(val - oracle) < 1e-9


@pytest.mark.parametrize("q", [F_ZERO, F_CONST, F_SIN])
def test_kinetic_action_of_an_array_is_the_scalar_calls(q):
    p = np.linspace(-3.0, 3.0, 13)
    values = kinetic_action(1.7, p, q, 2.3)
    np.testing.assert_array_equal(values, [kinetic_action(1.7, float(v), q, 2.3) for v in p])


@pytest.mark.parametrize("q", [F_ZERO, F_CONST, F_SIN])
def test_ehrenfest_closed_forms(q):
    st = _state(m=1.7, x0=0.4, p0=-0.9)
    h = 1e-5
    for t in np.linspace(0.1, 6.0, 9):
        dxdt = (x_c(st, q, t + h) - x_c(st, q, t - h)) / (2 * h)
        assert abs(dxdt - p_c(st, q, t) / st.m) < 1e-8
        dpdt = (p_c(st, q, t + h) - p_c(st, q, t - h)) / (2 * h)
        assert abs(dpdt - q.force(t)) < 1e-8


def test_affine_in_initial_conditions():
    base = _state(m=2.0, x0=0.3, p0=1.1)
    shifted = _state(m=2.0, x0=0.3 + 0.25, p0=1.1)
    t = 1.7
    assert x_c(shifted, F_SIN, t) - x_c(base, F_SIN, t) == pytest.approx(0.25, abs=0)
    boosted = _state(m=2.0, x0=0.3, p0=1.1 + 0.5)
    assert p_c(boosted, F_SIN, t) - p_c(base, F_SIN, t) == pytest.approx(0.5, abs=0)
    assert x_c(boosted, F_SIN, t) - x_c(base, F_SIN, t) == pytest.approx(
        0.5 * t / 2.0, abs=1e-14
    )


def test_mass_must_be_positive():
    with pytest.raises(ValueError, match="m and hbar must be positive"):
        PacketState(m=0.0, hbar=1.0, x0=0.0, p0=0.0, spec=InvariantSpec(1.0, 0j))


def test_hbar_must_be_positive():
    with pytest.raises(ValueError, match="m and hbar must be positive"):
        PacketState(m=1.0, hbar=0.0, x0=0.0, p0=0.0, spec=InvariantSpec(1.0, 0j))
