"""The local Dirichlet space on its own structure: the one-pass form
``<F, G> = sum F_n conj(G_n) + sum_k T_k(F) conj(T_k(G))``, the closed-form
shift-span Gram, and the custom-Gram table served by slicing."""

import cmath
import functools
import math

import mpmath
import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import construct, spaces
from kernelblaschke.kernels import derivative_functional

import mpref

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ZETA = complex(math.cos(2.9), math.sin(2.9))
LD = kb.LocalDirichlet(ZETA)
P_OFF = kb.FactoredPoly(0.7 - 0.2j, ((0.3 - 0.4j, 1), (-0.6 + 0.1j, 2), (1.7j, 1)))
P_ON = kb.FactoredPoly(1.0, ((ZETA, 1), (0.4 - 0.3j, 1), (0j, 1), (2.2 + 1j, 1)))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.floats(0.0, 2 * math.pi), st.integers(0, 80), st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
def test_form_matches_the_dense_gram(theta, N, k, seed):
    sp = kb.LocalDirichlet(complex(math.cos(theta), math.sin(theta)))
    rng = np.random.default_rng(seed)
    F, G = _complex(rng, (3, N + 1)), _complex(rng, (3, N + 1))
    gram = sp.gram(N)
    expect = np.einsum("bm,mn,bn->b", F, gram, G.conj())
    scale_f = np.sqrt(np.einsum("bm,mn,bn->b", F, gram, F.conj()).real)
    scale = scale_f * np.sqrt(np.einsum("bm,mn,bn->b", G, gram, G.conj()).real)
    assert np.all(np.abs(sp.inner(F, G) - expect) <= 1e-13 * (N + 1) * scale)
    norms = sp.inner(F, F)
    assert np.all(np.abs(norms - scale_f ** 2) <= 1e-13 * (N + 1) * scale_f ** 2)
    # <z^k b, b> through the form against the dense block of gram(N + k).
    b = F[0]
    value, err = kb.shift_inner_product(sp, kb.TaylorSeries(b, 0.0), k)
    block = sp.gram(N + k)[k: k + N + 1, : N + 1]
    assert err == 0.0
    assert abs(value - b @ block @ b.conj()) <= 1e-13 * (N + k + 1) * scale_f[0] ** 2


def test_gram_matches_the_monomial_rule():
    for zeta in (1.0 + 0j, ZETA, complex(math.cos(0.7), math.sin(0.7))):
        sp = kb.LocalDirichlet(zeta)
        expect = spaces.SpaceSpec.gram(sp, 40)  # entry by entry from monomial_inner
        assert np.max(np.abs(sp.gram(40) - expect)) <= 1e-13 * 40


@pytest.mark.parametrize("p", (P_OFF, P_ON), ids=("p(zeta)!=0", "p(zeta)=0"))
@pytest.mark.parametrize("M", (P_OFF.degree, P_OFF.degree + 2, 120))
def test_span_gram_matches_the_dense_product(p, M):
    if M < p.degree:
        pytest.skip("empty span")
    span = construct.shift_span(LD, p, M)
    rows = mpref.shift_rows(p, M)
    dense = rows @ LD.gram(M) @ rows.conj().T
    if p is P_ON:
        # p(zeta) = 0: the lower band |i - j| <= deg p, and nothing past it.
        assert span.banded
        assert span.gram.shape == (min(p.degree, len(rows) - 1) + 1, len(rows))
        gram = mpref.dense(span.gram)
    else:
        assert not span.banded and span.gram.shape == dense.shape
        gram = span.gram
    assert np.max(np.abs(gram - dense)) <= 1e-12 * np.max(np.abs(dense))
    rng = np.random.default_rng(2)
    X = _complex(rng, (5, len(rows)))
    expect = np.einsum("bj,bj->b", X @ dense, X.conj()).real
    c = span.combine(X)
    assert np.allclose(LD.inner(c, c).real, expect, rtol=1e-12, atol=0)


def test_a_root_off_zeta_keeps_the_dense_layout():
    M = 60
    for root in (ZETA * cmath.exp(1e-7j), ZETA * (1 + 1e-7)):
        near = kb.FactoredPoly(1.0, ((root, 1), (0.4 - 0.3j, 1), (2.2 + 1j, 1)))
        span = construct.shift_span(LD, near, M)
        assert not span.banded and span.gram.shape == (span.count, span.count)
        rows = mpref.shift_rows(near, M)
        dense = rows @ LD.gram(M) @ rows.conj().T
        assert np.max(np.abs(span.gram - dense)) <= 1e-12 * np.max(np.abs(dense))
    on = kb.FactoredPoly(1.0, ((ZETA, 1), (0.4 - 0.3j, 1), (2.2 + 1j, 1)))
    assert construct.shift_span(LD, on, M).banded


def test_dense_span_gram_against_mpmath():
    """p(zeta) != 0: every entry within a few units of roundoff of max |S| of
    the 40-digit closed form at the unimodular point nearest the stored zeta.
    Formed in double precision, S was 4.1 units off here; it is 1.6."""
    M = 40
    span = construct.shift_span(LD, P_OFF, M)
    assert not span.banded
    with mpmath.workdps(40):
        z = mpmath.mpc(LD.zeta)
        band = mpref.span_gram(LD, P_OFF.coefficients(), span.count, zeta=z / abs(z))
        ref = mpref.dense(np.array(band, dtype=complex))
    assert np.max(np.abs(span.gram - ref)) <= 3 * np.finfo(float).eps * np.max(np.abs(ref))


def test_span_narrower_than_its_band():
    # 3 rows against half-bandwidth 4: the band is square like S, and only
    # the flag says which it is.
    M = P_ON.degree + 2
    span = construct.shift_span(LD, P_ON, M)
    rows = mpref.shift_rows(P_ON, M)
    dense = rows @ LD.gram(M) @ rows.conj().T
    assert span.banded and span.gram.shape == dense.shape == (3, 3)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(mpref.dense(span.gram) - dense)) <= 1e-12 * scale
    assert np.max(np.abs(span.first_row() - dense[0])) <= 1e-12 * scale
    rhs = np.array([1.0, -2.0 + 1j, 0.5j])
    # sum_j x_j <v_j, v_i> = rhs_i is S^T x = rhs.
    assert np.allclose(span.solve(rhs), np.linalg.solve(dense.T, rhs), rtol=1e-12, atol=0)


def test_norms_against_mpmath():
    M = 60
    rng = np.random.default_rng(11)
    F = _complex(rng, (4, M + 1))
    F[1] *= 0.5 ** np.arange(M + 1)          # fast decay
    F[2] = construct.shift_span(LD, P_ON, M).combine(_complex(rng, M - 3))  # f(zeta) = 0
    norms = LD.inner(F, F).real
    with mpmath.workdps(50):
        z = mpmath.mpc(LD.zeta)
        for row, got in zip(F, norms):
            c = [mpmath.mpc(v) for v in row]
            ref = sum(abs(v) ** 2 for v in c)
            for k in range(1, M + 1):
                ref += abs(mpmath.fsum(c[n] * z ** n for n in range(k, M + 1))) ** 2
            assert abs(got - ref) <= 1e-14 * ref


# A crosscheck-deck span with a triple zero at zeta, whose Gram is
# ill-conditioned, so the Gram's rounding shows in the projection.
ZETA3 = complex(-0.9590913467517701, -0.28309678307228425)
P3 = kb.FactoredPoly(1.0, ((-0.44079455478052076 - 0.05396826857931096j, 1), (ZETA3, 3),
                           (-1.5495233504264483 - 0.8886145494565713j, 1)))


@functools.lru_cache(maxsize=None)
def _mpmath_projection(p, M):
    """The projection of k_0 onto the span of ``z^j p`` in ``D_(ZETA3)`` to 40
    digits."""
    with mpmath.workdps(40):
        coeffs = mpref.projection(kb.LocalDirichlet(ZETA3), p.coefficients(), M)
        return np.array([complex(c) for c in coeffs])


def test_projection_with_a_triple_zero_at_zeta_against_mpmath():
    """The projection of k_0 against a 40-digit reference.  ``rows G rows^H``
    with G from ``np.power(zeta, m - n)`` was 8.2e-10 off here."""
    M = 60
    sp = kb.LocalDirichlet(ZETA3)
    got = construct.project_target_fd(sp, P3, M, [(0j, 0)])[0].coefficients
    ref = _mpmath_projection(P3, M)
    assert np.max(np.abs(got - ref)) <= 3e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", (1, 2, 3, 4))
def test_banded_solve_is_as_accurate_as_the_dense_against_mpmath(order, monkeypatch):
    """p(zeta) = 0 with a zero of each order at zeta: the band drops only
    terms below rounding.  Its solve and the dense closed form's (kept for
    p(zeta) != 0, forced here) are both held to a quarter of kappa(S) u from the
    40-digit reference; they sit at 0.1-5% of kappa(S) u.  Which one is nearer
    is down to rounding: banded over dense ran from 0.08 to 6 over 48 random
    spans."""
    M = 60
    sp = kb.LocalDirichlet(ZETA3)
    a, _, b = (point for point, _ in P3.roots)
    p = kb.FactoredPoly(1.0, ((a, 1), (ZETA3, order), (b, 1)))
    ref = _mpmath_projection(p, M)

    def error():
        got = construct.project_target_fd(sp, p, M, [(0j, 0)])[0].coefficients
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    span = construct.shift_span(sp, p, M)
    assert span.banded
    envelope = np.linalg.cond(mpref.dense(span.gram)) * np.finfo(float).eps / 8
    banded = error()
    monkeypatch.setattr(spaces, "_rounds_to_zero", lambda total, coeffs: False)
    assert not construct.shift_span(sp, p, M).banded
    dense = error()
    assert banded <= envelope and dense <= envelope, (banded, dense, envelope)


def test_extremal_supremum_matches_a_dense_solve():
    p, M, samples, seed = P_ON, 120, 3000, 7
    result = kb.oracle_result(LD, kb.reproducible_multiset(LD, p), M)
    report = kb.extremal_check(LD, p, result, M=M)
    # sup Re g'(0) over unit g in the span, from the dense X S X^H form.
    rows = mpref.shift_rows(p, M)
    S = rows @ LD.gram(M) @ rows.conj().T
    functional = rows @ derivative_functional(0j, 1, M)
    x = np.linalg.solve(S.T, functional.conj())
    expect = math.sqrt((x @ functional).real)
    assert abs(report.span_supremum - expect) <= 1e-12 * expect
    # Random unit vectors of the span stay below it.
    rng = np.random.default_rng(seed)
    X = _complex(rng, (samples, len(rows)))
    norms = np.einsum("bj,bj->b", X @ S, X.conj()).real
    assert np.max((X @ functional).real / np.sqrt(norms)) <= report.span_supremum
    assert report.verdict is True


def test_no_dense_monomial_gram_on_the_hot_path(monkeypatch):
    def refuse(self, upto):
        raise AssertionError("dense local Dirichlet Gram built")

    monkeypatch.setattr(kb.LocalDirichlet, "gram", refuse)
    M = 120
    taylor = kb.project_kernel_fd(LD, P_OFF, 0, M)
    equal, _ = kb.subspace_equal(LD, P_ON, kb.FactoredPoly(
        1.0, ((ZETA, 1), (0.4 - 0.3j, 1), (0j, 1))), M=M)
    result = kb.oracle_result(LD, kb.reproducible_multiset(LD, P_ON), M)
    report = kb.extremal_check(LD, P_ON, result, M=M)
    assert abs(taylor.coefficients[0] - 1) <= 1e-12
    assert equal is True and report.verdict is True
    assert kb.inner_projection_of(LD, P_ON, M).tail_bound == 0.0


def test_custom_table_slice_matches_the_rule_loop():
    rng = np.random.default_rng(4)
    A = _complex(rng, (12, 12)) * 0.05
    table = A @ A.conj().T + np.eye(12)
    table[3, 7] += 1e-13  # a table Hermitian only to rounding
    sp = kb.CustomGram(table, ())
    for upto in (0, 5, 11):
        assert np.array_equal(sp.gram(upto), spaces.SpaceSpec.gram(sp, upto))
    with pytest.raises(kb.ToleranceUnreachable, match="size at least 13"):
        sp.gram(12)
    with pytest.raises(kb.ToleranceUnreachable, match="size at least 15"):
        sp.monomial_inner(2, 14)
    rule = kb.CustomGram(lambda m, n: table[m, n], ())
    assert np.array_equal(rule.gram(11), sp.gram(11))
    assert np.array_equal(rule.gram(4), sp.gram(4))
