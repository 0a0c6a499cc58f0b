"""Kernel algebra: pairings, expansions, derivatives, shift inner products."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernelblaschke as kb
from kernelblaschke import jsonio
from kernelblaschke.jsonio import dumps_canonical
from kernelblaschke.kernels import DEFAULT_POLICY

from mpref import A2, A2_W, D1, D4, H2, H2_W, K, closed_form, functional


# ---------------------------------------------------------------------------
# kernel_pairing
# ---------------------------------------------------------------------------

def test_pairing_closed_forms():
    v, e = kb.kernel_pairing(H2, K(0.5), K(0.5))
    assert abs(v - 4 / 3) <= max(e, 1e-14)
    v, e = kb.kernel_pairing(A2, K(0.5), K(0.5))
    assert abs(v - 16 / 9) <= max(e, 1e-13)
    v, e = kb.kernel_pairing(D4, K(1.0), K(1.0))
    assert abs(v - math.pi ** 4 / 90) < 1e-12
    v, e = kb.kernel_pairing(H2, K(0, 1), K(0, 0))
    assert v == 0 and e == 0


def test_pairing_matches_szego_and_bergman_kernels():
    # <k_a, k_b> = k_a(b) = 1/(1 - conj(a) b) in the Hardy space, squared
    # denominator in the Bergman space.
    rng = np.random.default_rng(2)
    for _ in range(6):
        a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        b = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        for hardy, bergman in ((H2, A2), (H2_W, A2_W)):
            v, e = kb.kernel_pairing(hardy, K(a), K(b))
            assert abs(v - 1 / (1 - np.conjugate(a) * b)) <= e + 1e-13
            v, e = kb.kernel_pairing(bergman, K(a), K(b))
            assert abs(v - 1 / (1 - np.conjugate(a) * b) ** 2) <= e + 1e-13


def test_pairing_origin_cases_exact():
    v, e = kb.kernel_pairing(D1, K(0, 2), K(0, 2))
    assert v == pytest.approx(4 / 3) and e == 0  # (2!)^2 / w_2 with w_2 = 3
    v, e = kb.kernel_pairing(H2, K(0, 1), K(0.5, 0))
    assert v == pytest.approx(0.5) and e == 0    # 1 * F(1,0) * 0.5 / 1
    v, e = kb.kernel_pairing(H2, K(0.5, 0), K(0, 1))
    assert v == pytest.approx(0.5) and e == 0


def test_pairing_conjugate_symmetry():
    a, b = K(0.4 - 0.2j, 1), K(-0.3 + 0.5j, 2)
    for sp in (H2, A2, D1, D4):
        v1, e1 = kb.kernel_pairing(sp, a, b)
        v2, e2 = kb.kernel_pairing(sp, b, a)
        assert abs(v1 - np.conjugate(v2)) <= e1 + e2 + 1e-13


def test_pairing_err_bound_is_honest():
    # Sum far beyond the stopping point and compare (the twin's loop stops on
    # the tolerance; H2's closed form does not depend on it).
    loose = kb.TruncationPolicy(target_tolerance=1e-6)
    tight = kb.TruncationPolicy(target_tolerance=1e-15)
    for space in (H2_W, H2):
        v_loose, err = kb.kernel_pairing(space, K(0.9), K(0.93), loose)
        v_tight, _ = kb.kernel_pairing(space, K(0.9), K(0.93), tight)
        assert abs(v_loose - v_tight) <= err


def test_boundary_pairing_zeta_route_vs_direct():
    # <k_1^(1), k_1^(1)> in D4: sum n^2/(n+1)^4 = zeta(2) - 3 zeta(3) + ... ;
    # brute-force partial sum as the oracle.
    v, e = kb.kernel_pairing(D4, K(1.0, 1), K(1.0, 1))
    ns = np.arange(1, 2_000_000)
    brute = float(np.sum(ns ** 2 / (ns + 1.0) ** 4))
    assert abs(v - brute) < 1e-5  # brute tail is ~1/N
    assert e < 1e-10


def test_boundary_pairing_distinct_points():
    v, e = kb.kernel_pairing(D4, K(1.0), K(-1.0),
                             kb.TruncationPolicy(target_tolerance=1e-10))
    ns = np.arange(0, 400_000)
    brute = complex(np.sum((-1.0) ** ns / (ns + 1.0) ** 4))
    assert abs(v - brute) <= e + 1e-8
    assert e <= 1e-10


def test_pairing_divergence_errors():
    with pytest.raises(kb.DivergentSeries):
        kb.kernel_pairing(H2, K(1.0), K(1.0))  # alpha = 0 <= 1
    with pytest.raises(kb.DivergentSeries):
        kb.kernel_pairing(H2, K(2.0), K(0.5))  # exterior point
    with pytest.raises(kb.DivergentSeries):
        kb.kernel_pairing(D4, K(1.0, 2), K(1.0, 2))  # order above ro = 1
    short = kb.TruncationPolicy(target_tolerance=1e-10, max_terms=64)
    with pytest.raises(kb.ToleranceUnreachable):  # geometric sum out of terms
        kb.kernel_pairing(H2_W, K(0.9), K(0.9), short)
    # H2 pairs the same kernels by its closed form, which needs no terms.
    value, err = kb.kernel_pairing(H2, K(0.9), K(0.9), short)
    with mpmath.workdps(40):
        assert abs(mpmath.mpc(value) - closed_form(1, mpmath.mpf(0.9), mpmath.mpf(0.9), 0, 0)) <= err
    # A weight rule has no certified sum on the circle, even where the
    # declared boundary order admits the kernel.
    ruled = kb.WeightedHardy(lambda k: (k + 1.0) ** 4, boundary_order=1)
    with pytest.raises(kb.ToleranceUnreachable, match="Dirichlet-type"):
        kb.kernel_pairing(ruled, K(1.0), K(-1.0))


def test_pairing_requires_diagonal_space():
    LD = kb.LocalDirichlet(1.0)
    combo = kb.KernelCombo(H2, ((K(0.5), 1.0),))
    calls = (lambda: kb.kernel_pairing(LD, K(0.5), K(0.5)),
             lambda: kb.kernel_taylor(LD, K(0.5), 10),
             # It read the missing weights: a bare AttributeError.
             lambda: kb.combo_taylor(LD, combo, 10))
    for call in calls:
        with pytest.raises(kb.UnsupportedRoute, match="diagonal"):
            call()


# ---------------------------------------------------------------------------
# kernel_taylor / combo_taylor
# ---------------------------------------------------------------------------

def test_kernel_taylor_examples():
    t = kb.kernel_taylor(H2, K(0.5), 3)
    assert np.allclose(t.coefficients, [1, 0.5, 0.25, 0.125])
    t = kb.kernel_taylor(H2, K(0, 2), 5)
    expect = np.zeros(6)
    expect[2] = 2.0
    assert np.allclose(t.coefficients, expect)
    assert t.tail_bound == 0.0
    t = kb.kernel_taylor(D1, K(0, 1), 4)
    assert t.coefficients[1] == pytest.approx(0.5)  # 1!/w_1, w_1 = 2


def test_kernel_taylor_tail_bound_honest():
    for sp, term in ((H2, K(0.9, 1)), (A2, K(0.8, 2)), (D4, K(1.0, 0)),
                     (H2_W, K(0.9, 1)), (A2_W, K(0.8, 2))):
        t = kb.kernel_taylor(sp, term, 64)
        big = kb.kernel_taylor(sp, term, 5000)
        w = sp.weights(5000)
        tail_true = math.sqrt(float(
            np.sum(w[65:] * np.abs(big.coefficients[65:]) ** 2)))
        assert tail_true <= t.tail_bound
        assert t.tail_bound < 10 * tail_true + 1e-12


def test_combo_taylor_examples():
    combo = kb.KernelCombo(H2, ((K(0), 1.0), (K(0.5), -1.0)))
    t = kb.combo_taylor(H2, combo, 2)
    assert np.allclose(t.coefficients, [0, -0.5, -0.25])
    single = kb.KernelCombo(D1, ((K(0), 1.0),))
    t = kb.combo_taylor(D1, single, 3)
    assert np.allclose(t.coefficients, [1, 0, 0, 0])


def test_taylor_tail_out_of_terms_raises():
    # The tail loop past degree 256 has no terms within max_terms = 100; it
    # returned tail inf, which every check downstream then refused.
    policy = kb.TruncationPolicy(max_terms=100)
    with pytest.raises(kb.ToleranceUnreachable, match="within 100 terms"):
        kb.kernel_taylor(H2, K(0.5), 256, policy)
    Z = kb.ReproducibleMultiset(0, ((0.5 + 0j, 1),))
    with pytest.raises(kb.ToleranceUnreachable, match="within 100 terms"):
        kb.shapiro_shields(H2, Z, policy=policy, taylor_degree=256)
    assert math.isfinite(kb.kernel_taylor(H2, K(0.5), 64, policy).tail_bound)


def test_combo_validation():
    with pytest.raises(ValueError):
        kb.KernelCombo(H2, ((K(0.5), 1.0), (K(0.5), 2.0)))
    with pytest.raises(ValueError):
        kb.KernelCombo(H2, ((K(0.5), 0.0),))
    combo = kb.KernelCombo(H2, ((K(0), 1.0),))
    with pytest.raises(ValueError):
        kb.combo_taylor(A2, combo, 4)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_POWER_POINTS = (0j, 1 + 0j, complex(np.exp(0.4j)), 0.5 + 0.2j, 0.99 + 0.1j)
_POWER_NS = (0, 1, 2, 3, 7, 98, 99, 100, 101, 102, 257, 4096, 65535, 65536,
             123_457, 1_000_003, 1_499_999, 1_500_000)


def test_powers_and_derivative_functional_against_mpmath():
    # exp(n log t) from n = 100 on: relative error about 2 n |log t| u, held
    # to 8 n eps; a value that underflows is held to the smallest normal.
    ns = np.array(_POWER_NS)
    with mpmath.workdps(40):
        for t in _POWER_POINTS:
            powers = kb.kernels._powers(t, ns, np.empty(len(ns), dtype=complex))
            for n, value in zip(_POWER_NS, powers):
                ref = mpmath.mpc(t) ** n
                assert abs(mpmath.mpc(value) - ref) <= (8 * n + 16) * _EPS * abs(ref) + _TINY, (t, n)
            for order in range(3):
                v = kb.kernels.derivative_functional(t, order, _POWER_NS[-1])
                for n in _POWER_NS:
                    ref = functional(t, order, n)
                    bound = (8 * n + 16) * _EPS * abs(ref) + _TINY
                    assert abs(mpmath.mpc(v[n]) - ref) <= bound, (t, order, n)


def test_short_weight_table_names_the_length_needed():
    # The blocked pass reads its weights block by block; a table too short
    # for degree N is refused first, naming N + 1 and not a block's end.
    N = 3 * kb.kernels.TAYLOR_BLOCK + 17
    table = kb.WeightedHardy(tuple(1.0 / (k + 1) for k in range(70_000)))
    combo = kb.KernelCombo(table, ((K(0.5 + 0.1j), 1.0), (K(0, 1), 2.0)))
    message = (f"weight table of length 70000 cannot serve indices up to {N}; "
               f"supply a table of length at least {N + 1} or a callable rule")
    for call in (lambda: kb.combo_taylor(table, combo, N),
                 lambda: kb.kernel_taylor(table, K(0.5), N)):
        with pytest.raises(kb.ToleranceUnreachable) as info:
            call()
        assert str(info.value) == message


def _blocked_cases(N):
    """A Dirichlet space with a boundary kernel, a weight table and a callable
    rule, each with kernels of orders 0 to 4 at and off the origin."""
    table = kb.WeightedHardy(tuple((k + 2.0) ** -0.5 for k in range(N + 4000)))
    rule = kb.WeightedHardy(lambda k: 1.0 / math.sqrt(k + 1.0))
    inner = ((K(0, 3), 1.5 - 0.5j), (K(0.5 + 0.2j, 4), 0.25j),
             (K(-0.3 + 0.6j, 0), -1.0), (K(0.7j, 1), 0.7 + 0.1j))
    return [(D4, kb.KernelCombo(D4, inner + ((K(1j, 1), 2.0 - 1j), (K(1.0), -0.5)))),
            (table, kb.KernelCombo(table, inner)),
            (rule, kb.KernelCombo(rule, inner))]


@pytest.mark.parametrize("block", [2, 3, 64, None])
def test_combo_taylor_blocks_match_unblocked_and_mpmath(block, monkeypatch):
    # N = 3 blocks + 17: the orders 3 and 4 straddle the edges of the small
    # blocks, n = 100 (where the powers switch to exp(n log t)) falls inside
    # one of 64, and the full-size case crosses its three edges.
    if block is not None:
        monkeypatch.setattr(kb.kernels, "TAYLOR_BLOCK", block)
    block = kb.kernels.TAYLOR_BLOCK
    N = 3 * block + 17
    samples = sorted(n for n in {e * block + d for e in range(4) for d in (-1, 0, 1)}
                     | {0, 1, 2, 3, 4, 5, 99, 100, 101, N} if 0 <= n <= N)
    for space, combo in _blocked_cases(N):
        series = kb.combo_taylor(space, combo, N)
        again = kb.combo_taylor(space, combo, N)
        assert series.coefficients.tobytes() == again.coefficients.tobytes()
        assert series.tail_bound == again.tail_bound
        # Unblocked: whole-array functionals, one term at a time.
        w = space.weights(N)
        ref, size = np.zeros(N + 1, dtype=complex), np.zeros(N + 1)
        for term, coef in combo.terms:
            v = kb.kernels.derivative_functional(term.point, term.order, N)
            ref += coef * np.conjugate(v) / w
            size += abs(coef) * np.abs(v) / w
        ns = np.arange(N + 1)
        bound = (16 * ns + 64) * _EPS * size + _TINY
        assert np.all(np.abs(series.coefficients - ref) <= bound)
        with mpmath.workdps(30):
            for n in samples:
                exact = mpmath.fsum(
                    mpmath.mpc(coef) * functional(mpmath.conj(mpmath.mpc(t.point)), t.order, n)
                    / mpmath.mpf(w[n]) for t, coef in combo.terms)
                bound = (8 * n + 64) * _EPS * size[n] + _TINY
                assert abs(mpmath.mpc(series.coefficients[n]) - exact) <= bound, (space, n)


@pytest.mark.parametrize("block", [8, None])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_shift_inner_products_blocks_match_unblocked_and_longdouble(block, tau,
                                                                    monkeypatch):
    # Unsorted shifts, one past SHIFT_BLOCK and one past N, over three full
    # blocks and a partial one.
    if block is not None:
        monkeypatch.setattr(kb.kernels, "SHIFT_BLOCK", block)
    block = kb.kernels.SHIFT_BLOCK
    N = 3 * block + 17
    shifts = [5, 0, block + 3, N + 4, 1, 2 * block + 1, 3]
    rng = np.random.default_rng(block)
    b = (rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)) / np.arange(1.0, N + 2)
    B = kb.TaylorSeries(b, tau)
    for space, _ in _blocked_cases(N + max(shifts)):
        products = kb.shift_inner_products(space, B, shifts)
        assert products == kb.shift_inner_products(space, B, shifts)
        w = space.weights(N + max(shifts)).astype(np.longdouble)
        bl = b.astype(np.clongdouble)
        for k, (value, err) in zip(shifts, products):
            ref, ref_err, size = _shift_reference(space, B, k)
            if k == 0:
                exact = np.sum(w[: N + 1] * np.abs(bl) ** 2)
            else:
                exact = np.sum(w[k: N + 1] * bl[: max(N + 1 - k, 0)] * np.conj(bl[k:]))
            bound = 4 * _gamma(N + k + 1) * size
            assert abs(value - ref) <= bound, (space, k)
            assert abs(value - complex(exact)) <= bound, (space, k)
            assert abs(err - ref_err) <= 4 * _gamma(N + k + 1) * ref_err, (space, k)
            assert (err == 0.0) == (tau == 0.0)


# ---------------------------------------------------------------------------
# combo_derivative_at
# ---------------------------------------------------------------------------

def test_combo_derivative_examples():
    combo = kb.KernelCombo(H2, ((K(0), 1.0), (K(0.5), -1.0)))
    v, e = kb.combo_derivative_at(H2, combo, 0.5, 0)
    assert abs(v - (1 - 4 / 3)) <= e + 1e-13
    v, e = kb.combo_derivative_at(H2, kb.KernelCombo(H2, ((K(0), 1.0),)), 0.0, 1)
    assert v == 0
    Z = kb.ReproducibleMultiset(0, ((0.5 + 0j, 1),))
    ss = kb.shapiro_shields(H2, Z, taylor_degree=50)
    v, e = kb.combo_derivative_at(H2, ss.combo, 0.5, 0)
    assert abs(v) <= e + 1e-12


def test_reproducing_property_random_polynomials():
    rng = np.random.default_rng(5)
    for sp in (H2, A2, D1):
        w = sp.weights(20)
        for m in (0, 1, 2):
            p = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            beta = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            kt = kb.kernel_taylor(sp, K(beta, m), 20)
            lhs = np.sum(p * np.conjugate(kt.coefficients) * w)
            c = p.copy()
            for _ in range(m):
                c = np.polynomial.polynomial.polyder(c)
            rhs = np.polynomial.polynomial.polyval(beta, c)
            assert abs(lhs - rhs) < 1e-10


def test_pairing_gram_positive_definite():
    from kernelblaschke.construct import pairing_gram
    terms = [K(0, 0), K(0.4, 0), K(0.4, 1), K(-0.3 + 0.2j, 0), K(0.1 - 0.5j, 2)]
    for sp in (H2, A2, D1):
        G, _ = pairing_gram(sp, terms)
        assert np.allclose(G, G.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() > 0
    G, _ = pairing_gram(D4, [K(1.0, 0), K(1.0, 1), K(-1.0, 0)])
    assert np.linalg.eigvalsh(G).min() > 0


# ---------------------------------------------------------------------------
# shift_inner_product
# ---------------------------------------------------------------------------

def test_shift_inner_product_monomials_and_examples():
    z = kb.TaylorSeries([0, 1], 0.0)
    for k in range(1, 6):
        v, e = kb.shift_inner_product(H2, z, k)
        assert v == 0 and e == 0
    one_z = kb.TaylorSeries([1, 1], 0.0)
    v, _ = kb.shift_inner_product(H2, one_z, 1)
    assert v == pytest.approx(1.0)  # <z + z^2, 1 + z> = 1
    Z = kb.ReproducibleMultiset(0, ((0.5 + 0j, 1),))
    ss = kb.shapiro_shields(H2, Z, taylor_degree=400)
    v, e = kb.shift_inner_product(H2, ss.taylor, 1)
    assert abs(v) <= 1e-8


def test_shift_zero_is_norm_square():
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    B = kb.TaylorSeries(coeffs, 0.0)
    for sp in (H2, A2, D4, kb.LocalDirichlet(1.0)):
        v, e = kb.shift_inner_product(sp, B, 0)
        assert abs(v.imag) < 1e-12
        assert v.real > 0
        G = sp.gram(11)
        quad = complex(coeffs @ G @ np.conjugate(coeffs))
        assert v == pytest.approx(quad)


def test_shift_inner_product_local_dirichlet_polynomials():
    # <z^k B, B> for polynomials straight from the non-diagonal Gram.
    B = kb.TaylorSeries([1.0, -1.0], 0.0)  # 1 - z
    sp = kb.LocalDirichlet(1.0)
    v, e = kb.shift_inner_product(sp, B, 1)
    # <z - z^2, 1 - z> with G = I + min(m,n): expand by hand:
    # <z,1>=0, <z,z>=2, <z^2,1>=0, <z^2,z>=1 -> (0 - 2) - (0 - 1) = -1
    assert e == 0
    assert v == pytest.approx(-1.0)


def test_short_weight_table_raises_typed_error():
    # Every sum below needs weights past the 64-entry table.
    sp = kb.WeightedHardy(tuple((k + 1.0) ** 2 for k in range(64)))
    calls = (
        lambda: kb.kernel_pairing(sp, K(0.5), K(0.5)),
        lambda: kb.kernel_taylor(sp, K(0.5), 20),
        lambda: kb.shift_inner_product(sp, kb.TaylorSeries(np.ones(64), 0.0), 1),
        lambda: kb.shapiro_shields(sp, kb.ReproducibleMultiset(0, ((0.5 + 0j, 1),))),
        lambda: kb.kernel_pairing(sp, K(0, 70), K(0, 70)),
        lambda: kb.kernel_taylor(sp, K(0, 70), 2),
        lambda: sp.shift_norm_bound(70),
    )
    for call in calls:
        with pytest.raises(kb.ToleranceUnreachable, match="length 64"):
            call()


def test_shift_errors():
    unbounded = kb.TaylorSeries([1, 1], math.inf)
    with pytest.raises(kb.UnboundedTail):
        kb.shift_inner_product(H2, unbounded, 1)
    truncated = kb.TaylorSeries([1, 1], 0.5)
    with pytest.raises(kb.UnboundedTail):
        kb.shift_inner_product(kb.LocalDirichlet(1.0), truncated, 1)
    v, e = kb.shift_inner_product(H2, truncated, 1)
    assert e > 0


def test_negative_or_no_shift_is_refused():
    # A negative shift read (0j, 0.0) for an exact series and failed in a bare
    # numpy shape error with a tail or in a non-diagonal space; no shifts at
    # all failed in max().
    for space in (H2, kb.LocalDirichlet(1.0)):
        for tail in (0.0, 1e-3):
            B = kb.TaylorSeries([1, 0.5, 0.25], tail)
            with pytest.raises(ValueError, match="shift -1 is negative"):
                kb.shift_inner_product(space, B, -1)
            with pytest.raises(ValueError, match="shift -2 is negative"):
                kb.shift_inner_products(space, B, [0, 3, -2])
            with pytest.raises(ValueError, match="at least one shift"):
                kb.shift_inner_products(space, B, [])


def _shift_reference(space, B, k):
    """``<z^k B, B>``, its err and the size ``sum |terms|``, one shift at a time:
    whole-array dot products in a diagonal space, one dense form per shift
    otherwise."""
    b, tau = B.coefficients, B.tail_bound
    N = len(b) - 1
    if not space.diagonal:
        shifted = np.zeros(N + k + 1, dtype=complex)
        shifted[k:] = b
        padded = np.zeros(N + k + 1, dtype=complex)
        padded[: N + 1] = b
        size = np.abs(shifted) @ np.abs(space.gram(N + k)) @ np.abs(padded)
        return complex(space.inner(shifted, padded)), 0.0, size
    w = space.weights(N + k)
    abs_sq = np.abs(b) ** 2
    if k == 0:
        terms = w[: N + 1] * abs_sq
        value = complex(np.dot(w[: N + 1], abs_sq))
    elif k <= N:
        terms = w[k: N + 1] * b[: N + 1 - k] * b[k:].conj()
        value = complex(np.dot(b[: N + 1 - k], w[k: N + 1] * b[k:].conj()))
    else:
        terms, value = np.zeros(0), 0j
    if tau == 0.0:
        return value, 0.0, float(np.sum(np.abs(terms)))
    znorm = math.sqrt(float(np.dot(w[k: k + N + 1], abs_sq)))
    bnorm = math.sqrt(float(np.dot(w[: N + 1], abs_sq)))
    err = znorm * tau + space.shift_norm_bound(k) * tau * (bnorm + tau)
    return value, err, float(np.sum(np.abs(terms)))


def _gamma(n):
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


_BLOCK = kb.kernels.SHIFT_BLOCK


@st.composite
def _shift_cases(draw):
    kind = draw(st.sampled_from(["dirichlet", "table", "local", "custom"]))
    if kind in ("local", "custom"):
        N = draw(st.integers(0, 40))
    else:
        N = draw(st.one_of(st.integers(0, 60),
                           st.integers(_BLOCK - 3, _BLOCK + 3),
                           st.integers(2 * _BLOCK, 2 * _BLOCK + 40)))
    K = draw(st.integers(0, min(N + 5, 24)))
    shifts = sorted(set(range(K + 1)) | set(draw(st.lists(st.integers(0, N + 5),
                                                          max_size=3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = (rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)) \
        / np.arange(1.0, N + 2)
    top = N + max(shifts)
    if kind == "dirichlet":
        space = kb.DirichletType(draw(st.sampled_from([-1.0, 0.0, 1.0, 2.5, 4.0])))
    elif kind == "table":
        space = kb.WeightedHardy(tuple((k + 1.0) ** 1.5 for k in range(max(top + 1, 3))))
    elif kind == "local":
        space = kb.LocalDirichlet(np.exp(1j * draw(st.floats(0.0, 6.28))))
    else:
        A = rng.standard_normal((top + 1, 2 * top + 2)).view(complex)
        space = kb.CustomGram(A @ A.conj().T / (top + 1) + np.eye(top + 1), ())
    tau = 0.0 if not space.diagonal else draw(st.sampled_from([0.0, 1e-9, 0.3]))
    return space, kb.TaylorSeries(b, tau), shifts


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(_shift_cases())
def test_shift_inner_products_match_per_shift_reference(case):
    space, B, shifts = case
    n = len(B.coefficients)
    products = kb.shift_inner_products(space, B, shifts)
    assert len(products) == len(shifts)
    for k, (value, err) in zip(shifts, products):
        ref, ref_err, size = _shift_reference(space, B, k)
        # One shift is one dense form, or the same blocked sums as any shifts.
        one = (ref, ref_err) if not space.diagonal else (value, err)
        assert kb.shift_inner_product(space, B, k) == one, k
        if space.diagonal and n <= _BLOCK:
            assert (value, err) == (ref, ref_err), k  # one block: bit equal
        else:
            bound = 4 * _gamma(n + k + 1) * size
            assert abs(value - ref) <= bound, (k, abs(value - ref), bound)
            assert abs(err - ref_err) <= 4 * _gamma(n + k + 1) * ref_err, k


def test_shift_inner_products_weight_table_length():
    # The products for shifts 0..K read w_0..w_(N+K): a table that long
    # serves them, one entry shorter raises the typed error.
    N, K = 30, 6
    B = kb.TaylorSeries(np.linspace(1.0, 2.0, N + 1), 1e-6)
    exact = kb.WeightedHardy(tuple((k + 1.0) ** 2 for k in range(N + K + 1)))
    assert len(kb.shift_inner_products(exact, B, range(K + 1))) == K + 1
    kb.inner_report(exact, B, K)
    short = kb.WeightedHardy(tuple((k + 1.0) ** 2 for k in range(N + K)))
    for call in (lambda: kb.shift_inner_products(short, B, range(K + 1)),
                 lambda: kb.inner_report(short, B, K)):
        with pytest.raises(kb.ToleranceUnreachable, match=f"length {N + K}"):
            call()


def test_shift_err_accounts_for_tail():
    # Truncate an inner function early: the certified err must cover the
    # difference from the well-resolved value.
    Z = kb.ReproducibleMultiset(0, ((0.8 + 0j, 1),))
    for sp in (A2, A2_W):
        ss = kb.shapiro_shields(sp, Z, taylor_degree=2000)
        short = kb.combo_taylor(sp, ss.combo, 40)
        v_short, err = kb.shift_inner_product(sp, short, 3)
        v_long, _ = kb.shift_inner_product(sp, ss.taylor, 3)
        assert abs(v_short - v_long) <= err


# ---------------------------------------------------------------------------
# types and serialization
# ---------------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        kb.TruncationPolicy(target_tolerance=0.0)
    with pytest.raises(ValueError):
        kb.TruncationPolicy(max_terms=4)
    # Two fields; there is no uncertified summation mode to select.
    assert [f.name for f in dataclasses.fields(kb.TruncationPolicy)] == [
        "target_tolerance", "max_terms"]
    with pytest.raises(TypeError):
        kb.TruncationPolicy(bound_kind="none")
    assert DEFAULT_POLICY == kb.TruncationPolicy(1e-12, 2_000_000)
    # Each field by json_number's rule, as the CLI reads it: 100000.5 ran as a
    # budget and "abc" ended in a bare TypeError.
    policy = kb.TruncationPolicy(np.float64(1e-8), 100000.0)
    assert (policy.target_tolerance, policy.max_terms) == (1e-8, 100000)
    assert type(policy.max_terms) is int
    for bad in (100000.5, "abc", "100000", True, math.inf, -20):
        with pytest.raises(ValueError, match="^max_terms must be a positive integer"):
            kb.TruncationPolicy(max_terms=bad)
    for bad in (math.inf, math.nan, "1e-8", True, -1e-8):
        with pytest.raises(ValueError, match="^target_tolerance must be a positive finite"):
            kb.TruncationPolicy(target_tolerance=bad)


def test_taylor_series_mechanics():
    t = kb.TaylorSeries([1, 2, 3], 0.0)
    assert t.truncation_degree == 2
    assert t.coefficient(5) == 0
    assert t(0.5) == pytest.approx(1 + 1 + 0.75)
    with pytest.raises(ValueError):
        kb.TaylorSeries([], 0.0)
    back = kb.TaylorSeries.from_json(t.to_json())
    assert np.allclose(back.coefficients, t.coefficients)


def test_taylor_series_compare_and_hash_by_value():
    # The generated == compared arrays (numpy's ambiguous truth value), and
    # the series did not hash.
    a, b = kb.TaylorSeries(np.ones(3)), kb.TaylorSeries(np.ones(3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != kb.TaylorSeries(np.ones(3), 1e-3) and a != kb.TaylorSeries(np.ones(4))
    assert a != kb.TaylorSeries([1, 1, 1 + 1e-15]) and a != (a.coefficients, 0.0)
    # So do the construction results that hold them.
    Z = kb.ReproducibleMultiset(1, ((0.5 + 0.2j, 1),))
    built = [kb.shapiro_shields(kb.bergman_space(), Z) for _ in range(2)]
    assert built[0] == built[1] and hash(built[0]) == hash(built[1])


def test_taylor_series_json_tail_is_a_non_negative_number_or_infinity():
    # from_json read the tail by float(), so "0.5" and true were tails; to_json
    # writes an infinite tail as Infinity, which reads back.
    for tail in (0.25, math.inf):
        t = kb.TaylorSeries([1, 2.5, -3j], tail)
        back = kb.TaylorSeries.from_json(json.loads(dumps_canonical(t.to_json())))
        assert back.tail_bound == tail and np.array_equal(back.coefficients, t.coefficients)
    for bad in ("0.5", True, -1, math.nan):
        with pytest.raises(kb.ConfigError, match=r"^tail must be"):
            kb.TaylorSeries.from_json({"coeffs": [[1.0, 0.0]], "tail": bad})


def test_taylor_series_json_keeps_the_per_coefficient_bytes():
    # to_json wrote one complex_pair per coefficient; one conversion of the
    # array's float view writes the same text.
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1.0, -1.5]
    normal = rng.standard_normal(800) * 10.0 ** rng.integers(-300, 301, size=800)
    pairs = [[re, im] for re in specials for im in specials] + normal.reshape(-1, 2).tolist()
    t = kb.TaylorSeries(np.array(pairs).view(complex)[:, 0], 0.5)
    per_coefficient = {"coeffs": [jsonio.complex_pair(c) for c in t.coefficients],
                       "N": t.truncation_degree, "tail": t.tail_bound}
    assert dumps_canonical(t.to_json()) == dumps_canonical(per_coefficient)


def test_taylor_series_adopts_a_complex_array():
    arr = np.arange(4, dtype=complex)
    t = kb.TaylorSeries(arr, 0.5)
    assert t.coefficients is arr
    assert not arr.flags.writeable
    doubled = t.scaled(2.0)
    assert doubled.coefficients is not arr and not doubled.coefficients.flags.writeable
    assert np.array_equal(doubled.coefficients, 2 * arr) and doubled.tail_bound == 1.0
    # Lists and other dtypes are converted into a new array, as before.
    real = np.arange(3.0)
    for given in ([1, 2.5, 3j], real):
        t = kb.TaylorSeries(given)
        assert t.coefficients.dtype == complex and not t.coefficients.flags.writeable
        assert np.array_equal(t.coefficients, np.asarray(given, dtype=complex))
    assert real.flags.writeable


def test_taylor_series_copies_a_view():
    base = np.arange(8, dtype=complex)
    t = kb.TaylorSeries(base[:4])
    assert t.coefficients.base is None and not np.shares_memory(t.coefficients, base)
    assert base.flags.writeable and np.array_equal(t.coefficients, base[:4])
    # The closed forms' last convolution is twice as long as the series; only
    # the series' own N + 1 coefficients stay alive.
    _, taylor, _ = kb.classical_blaschke([0.5, 0.3j], 300)
    assert taylor.coefficients.base is None and len(taylor.coefficients) == 301
    _, taylor = kb.bergman_rational([0.5], 400)
    assert taylor.coefficients.base is None and len(taylor.coefficients) == 401


def test_combo_json_round_trip():
    combo = kb.KernelCombo(H2, ((K(0.5, 1), 2.0 - 1j), (K(0), 1.0)))
    back = kb.KernelCombo.from_json(H2, combo.to_json())
    assert back == combo
