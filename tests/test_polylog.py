"""Kernel pairings against mpmath references at 40 digits.

Every case asserts ``|value - ref| <= err``: the claimed err must be a true
bound, rounding included.  The geometric sums below the polylogarithm switch
(on the callable-rule twins of H2 and A2, which keep that loop), the
elementary closed form of ``D_alpha`` at an integer ``alpha <= 1`` and its
fall-through to the loop, the polylogarithm engine near and on the circle,
and ``_polylog`` itself are covered.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import kernelblaschke as kb  # noqa: E402
from kernelblaschke import kernels  # noqa: E402
from mpref import (A2, A2_W, D1, H2, H2_W, closed_form, elementary_form,  # noqa: E402
                   eulerian_polylog, lerch_form)

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
    # The references meet: the closed form and the Lerch form at alpha = 0
    # and -1, the closed form's powers 1 and 2, and the Eulerian form at every
    # integer alpha <= 1: interior points, and a pair whose product is near
    # the circle.  The Eulerian polylogarithm meets mpmath's.
    with mpmath.workdps(40):
        for a, b in ((0.3 + 0.4j, -0.5 + 0.1j), (0.9j, 0.95j), (0.99, 0.98 * np.exp(0.1j))):
            u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
            for p in range(3):
                for q in range(3):
                    for power, alpha in ((1, 0), (2, -1)):
                        closed = closed_form(power, u, v, p, q)
                        lerch = lerch_form(alpha, u, v, p, q)
                        assert abs(closed - lerch) <= 1e-35 * abs(closed), (a, b, alpha, p, q)
                    for alpha in (-2, -1, 0, 1):
                        lerch = lerch_form(alpha, u, v, p, q)
                        euler = elementary_form(alpha, u, v, p, q)
                        assert abs(euler - lerch) <= 1e-35 * abs(lerch), (a, b, alpha, p, q)
        for x in (mpmath.mpc(0.3, 0.4), mpmath.mpf("0.001"), mpmath.mpc(-0.9, 0.01)):
            for s in (1, 0, -1, -4, -9):
                ref = mpmath.polylog(s, x)
                assert abs(eulerian_polylog(s, x) - ref) <= 1e-35 * abs(ref), (s, x)


@pytest.mark.parametrize("r", (0.3, 0.5, 0.7, 0.9))
def test_geometric_pairings_hold_their_err(r):
    # |conj(a) b| = r^2 < _POLYLOG_SWITCH: the twins' blocked geometric sum,
    # whose err must cover the rounding of the powers and of the sum, and
    # D_0 and D_-1's closed form.
    assert r * r < kernels._POLYLOG_SWITCH
    points = ((r * np.exp(0.4j), r * np.exp(0.4j)), (r * np.exp(0.4j), r * np.exp(2.4j)),
              (r * np.exp(0.4j), -r * np.exp(0.4j)))
    with mpmath.workdps(40):
        for a, b in points:
            a, b = complex(a), complex(b)
            u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
            for p, q in ORDERS:
                for hardy, bergman in ((H2_W, A2_W), (H2, A2)):
                    _check(hardy, a, b, p, q, closed_form(1, u, v, p, q))
                    _check(bergman, a, b, p, q, closed_form(2, u, v, p, q))


@pytest.mark.parametrize("angle", (math.pi, 2.0))
def test_geometric_cancellation_holds_its_err(angle):
    # |a| = |b| = 0.92 in D_-1's twin, orders (2, 2): the alternating terms
    # cancel to a value far below their sum, so the rounding term carries the
    # err.  D_-1 itself sums them in closed form.
    a, b = 0.92 * np.exp(0.3j), 0.92 * np.exp(1j * (0.3 + angle))
    with mpmath.workdps(40):
        u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
        for space in (A2_W, A2):
            _check(space, a, b, 2, 2, closed_form(2, u, v, 2, 2))


def test_elementary_polylog_holds_its_err():
    # Li_s(x) alone for s = 1 down to -9: real x either side of the origin
    # (real arithmetic), and complex x, up to |x| = 0.999.
    xs = (1e-3, 0.5, -0.7, 0.999, complex(0.3, 0.4), complex(-0.6, 0.79), cmath.rect(0.9, 2.5))
    with mpmath.workdps(40):
        for x in xs:
            for s in (1, 0, -1, -2, -5, -9):
                value, err = kernels._polylog_elementary(s, x)
                ref = eulerian_polylog(s, mpmath.mpmathify(x))
                assert float(abs(mpmath.mpc(value) - ref)) <= err, (s, x, value, err)


@pytest.mark.parametrize("alpha", (-2, -1, 0, 1))
def test_elementary_pairings_hold_their_err(alpha):
    # |conj(a) b| from 1e-3 to 0.999, orders 0-3 on each side: kernel_pairing,
    # whichever path it takes, and the elementary closed form alone each stay
    # within their err of the Eulerian reference.  At moderate |x| the closed
    # form's err is within 100 times the actual error, floored at eps |value|;
    # next to the negative axis (angle pi here), where the terms alternate
    # and cancel, the rounding that happens to occur can fall further below
    # the bound (up to 330 times on this grid).
    space = kb.DirichletType(float(alpha))
    with mpmath.workdps(40):
        for modulus in (1e-3, 0.03, 0.3, 0.6, 0.85, 0.99, 0.999):
            r = math.sqrt(modulus)
            for angle in (0.0, 2.0, math.pi):
                a, b = cmath.rect(r, 0.4), cmath.rect(r, 0.4 + angle)
                u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
                for p in range(4):
                    for q in range(4):
                        ref = elementary_form(alpha, u, v, p, q)
                        _check(space, a, b, p, q, ref)
                        value, err = kernels._pair_polylog(
                            space, kb.KernelTerm(a, p), kb.KernelTerm(b, q))
                        dev = float(abs(mpmath.mpc(value) - ref))
                        assert dev <= err, (modulus, angle, p, q, value, dev, err)
                        if 0.1 <= modulus <= 0.9 and angle < math.pi:
                            assert err <= 100 * max(dev, kernels._EPS * abs(value)), \
                                (modulus, angle, p, q, dev, err)


def test_high_order_closed_forms_hold_their_err():
    # Orders (14, 14) and (16, 15), whose falling-factorial coefficients pass
    # 2^53 and round as floats: the closed form combines them exactly.
    a, b = cmath.rect(0.6, 0.3), cmath.rect(0.7, -0.2)
    with mpmath.workdps(60):
        u, v = mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b)
        for alpha in (-1, 0, 1):
            space = kb.DirichletType(float(alpha))
            for p, q in ((14, 14), (16, 15)):
                value, err = kernels._pair_polylog(
                    space, kb.KernelTerm(a, p), kb.KernelTerm(b, q))
                dev = float(abs(mpmath.mpc(value) - elementary_form(alpha, u, v, p, q)))
                assert dev <= err, (alpha, p, q, value, dev, err)


def test_a_cancelling_closed_form_falls_through_to_the_loop(monkeypatch):
    # In D_1 at |x| = 1e-3, orders (2, 1), -log(1 - x) cancels against the
    # Stirling terms: the closed form's err is above the tolerance and above
    # 64 eps P, P the all-positive series, so the pair is summed by the loop,
    # which reads _blocks.  At |x| = 0.3 the closed form serves it.
    blocks, calls = kernels._blocks, []
    monkeypatch.setattr(kernels, "_blocks", lambda *args: calls.append(args) or blocks(*args))
    a, b = cmath.rect(0.03, 0.4), cmath.rect(1 / 30, 1.1)
    K = kb.KernelTerm
    closed_err = kernels._pair_polylog(D1, K(a, 2), K(b, 1))[1]
    P = kernels._pair_polylog(D1, K(abs(a), 2), K(abs(b), 1))[0].real
    assert closed_err > max(kb.DEFAULT_POLICY.target_tolerance, 64 * kernels._EPS * P)
    value, err = kb.kernel_pairing(D1, K(a, 2), K(b, 1))
    assert calls and err < closed_err
    with mpmath.workdps(40):
        ref = elementary_form(1, mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b), 2, 1)
        assert float(abs(mpmath.mpc(value) - ref)) <= err
    calls.clear()
    assert kb.kernel_pairing(D1, K(0.6 * a / abs(a), 2), K(0.5 * b / abs(b), 1)) \
        == kernels._pair_polylog(D1, K(0.6 * a / abs(a), 2), K(0.5 * b / abs(b), 1))
    assert not calls


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


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
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
