"""Kernel pairings against mpmath references at 40 digits.

Every case asserts ``|value - ref| <= err``: the claimed err must be a true
bound, rounding included.  The geometric sums below the polylogarithm switch,
the polylogarithm engine near and on the circle, and ``_polylog`` itself are
covered.
"""

import math

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import kernelblaschke as kb  # noqa: E402
from kernelblaschke import kernels  # noqa: E402
from mpref import closed_form, lerch_form  # noqa: E402

MODULI = (0.95, 0.98, 0.995, 0.9999, 0.99999)
ORDERS = ((0, 0), (1, 0), (1, 1), (0, 2), (2, 2))


def _points(r):
    """Equal points, points 2 radians apart, and distinct points on one ray,
    whose computed arguments may agree although their exact ones differ."""
    ray = np.exp(-2.9j)
    return ((r * np.exp(0.4j), r * np.exp(0.4j)), (r * np.exp(0.4j), r * np.exp(2.4j)),
            (r * ray, (1 + r) / 2 * ray))


def _check(space, a, b, p, q, ref):
    value, err = kb.kernel_pairing(space, kb.KernelTerm(a, p), kb.KernelTerm(b, q))
    dev = float(abs(mpmath.mpc(value) - ref))
    assert dev <= err, (space.label(), a, b, p, q, value, complex(ref), dev, err)


def test_closed_and_lerch_references_agree():
    # The two references meet at alpha = 0 and -1, the closed form's powers 1
    # and 2: interior points, and a pair whose product is near the circle.
    with mpmath.workdps(40):
        for a, b in ((0.3 + 0.4j, -0.5 + 0.1j), (0.9j, 0.95j), (0.99, 0.98 * np.exp(0.1j))):
            u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
            for power, alpha in ((1, 0), (2, -1)):
                for p in range(3):
                    for q in range(3):
                        closed = closed_form(power, u, v, p, q)
                        lerch = lerch_form(alpha, u, v, p, q)
                        assert abs(closed - lerch) <= 1e-35 * abs(closed), (a, b, alpha, p, q)


@pytest.mark.parametrize("r", (0.3, 0.5, 0.7, 0.9))
def test_geometric_pairings_hold_their_err(r):
    # |conj(a) b| = r^2 < _POLYLOG_SWITCH: the blocked geometric sum, whose
    # err must cover the rounding of the powers and of the sum.
    assert r * r < kernels._POLYLOG_SWITCH
    points = ((r * np.exp(0.4j), r * np.exp(0.4j)), (r * np.exp(0.4j), r * np.exp(2.4j)),
              (r * np.exp(0.4j), -r * np.exp(0.4j)))
    with mpmath.workdps(40):
        for a, b in points:
            a, b = complex(a), complex(b)
            u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
            for p, q in ORDERS:
                _check(kb.hardy_space(), a, b, p, q, closed_form(1, u, v, p, q))
                _check(kb.bergman_space(), a, b, p, q, closed_form(2, u, v, p, q))


@pytest.mark.parametrize("angle", (math.pi, 2.0))
def test_geometric_cancellation_holds_its_err(angle):
    # |a| = |b| = 0.92 in D_-1, orders (2, 2): the alternating terms cancel to
    # a value far below their sum, so the rounding term carries the err.
    a, b = 0.92 * np.exp(0.3j), 0.92 * np.exp(1j * (0.3 + angle))
    with mpmath.workdps(40):
        u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
        _check(kb.bergman_space(), a, b, 2, 2, closed_form(2, u, v, 2, 2))


@pytest.mark.parametrize("r", MODULI)
def test_near_circle_pairings_hold_their_err(r):
    with mpmath.workdps(40):
        for a, b in _points(r):
            a, b = complex(a), complex(b)
            u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
            for p, q in ORDERS:
                _check(kb.hardy_space(), a, b, p, q, closed_form(1, u, v, p, q))
                _check(kb.bergman_space(), a, b, p, q, closed_form(2, u, v, p, q))
                _check(kb.dirichlet_space(), a, b, p, q, lerch_form(1, u, v, p, q))


@pytest.mark.parametrize("alpha", (2.5, 3.0, 4.0, 4.5, 6.0))
def test_circle_pairings_hold_their_err(alpha):
    space = kb.DirichletType(alpha)
    top = space.reproducible_order(1.0).order
    points = ((1.0, 1.0), (np.exp(0.7j), np.exp(0.7j)),   # x = 1
              (1.0, -1.0), (1j, -1j),                      # x = -1
              (np.exp(0.3j), np.exp(2.1j)))                # a generic angle
    with mpmath.workdps(40):
        for a, b in points:
            a, b = complex(a), complex(b)
            u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
            for p in range(top + 1):
                for q in range(top + 1):
                    _check(space, a, b, p, q,
                           lerch_form(alpha, u, v, p, q, on_circle=True))


# mpmath 1.3's polylog is off for 0 < |s| < ~1e-35 at 40 digits: it gives
# Li_(1e-60)(0.9375) = 15.00000037..., where the value tends to 15 as s -> 0.
orders = st.one_of(st.floats(-6.0, 8.0).filter(lambda s: s == 0 or abs(s) > 1e-30),
                   st.integers(-6, 8).map(float))


@settings(max_examples=200, deadline=None)
@given(orders, st.floats(kernels._POLYLOG_SWITCH, 1.0),
       st.floats(-math.pi, math.pi))
def test_polylog_bound_holds(s, modulus, angle):
    mu = complex(math.log(modulus), angle)
    assume(mu != 0 or s > 1)
    with mpmath.workdps(40):
        ref = mpmath.polylog(s, mpmath.exp(mpmath.mpc(mu)))
        assume(abs(ref) < 1e300)
        value, bound = kernels._polylog(s, mu)
        assert float(abs(mpmath.mpc(value) - ref)) <= bound
