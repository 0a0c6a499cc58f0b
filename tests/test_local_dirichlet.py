"""The local Dirichlet space on its own structure: the one-pass form
``<F, G> = sum F_n conj(G_n) + sum_k T_k(F) conj(T_k(G))``, the closed-form
shift-span Gram, and the custom-Gram table served by slicing."""

import math

import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import construct, spaces
from kernelblaschke.kernels import derivative_functional

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ZETA = complex(math.cos(2.9), math.sin(2.9))
LD = kb.LocalDirichlet(ZETA)
P_OFF = kb.FactoredPoly(0.7 - 0.2j, ((0.3 - 0.4j, 1), (-0.6 + 0.1j, 2), (1.7j, 1)))
P_ON = kb.FactoredPoly(1.0, ((ZETA, 1), (0.4 - 0.3j, 1), (0j, 1), (2.2 + 1j, 1)))


def _rows(p, M):
    pc = p.coefficients()
    rows = np.zeros((M - p.degree + 1, M + 1), dtype=complex)
    for j in range(len(rows)):
        rows[j, j: j + len(pc)] = pc
    return rows


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
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
    rows = _rows(p, M)
    dense = rows @ LD.gram(M) @ rows.conj().T
    assert span.gram.shape == dense.shape
    assert np.max(np.abs(span.gram - dense)) <= 1e-12 * np.max(np.abs(dense))
    if p is P_ON and M == 120:
        # p(zeta) = 0: past the band |i - j| <= deg p only rounding is left.
        far = np.abs(np.subtract.outer(np.arange(len(rows)), np.arange(len(rows))))
        assert np.max(np.abs(span.gram[far > p.degree])) <= 1e-14 * np.max(np.abs(dense))
    rng = np.random.default_rng(2)
    X = _complex(rng, (5, len(rows)))
    expect = np.einsum("bj,bj->b", X @ dense, X.conj()).real
    c = span.combine(X)
    assert np.allclose(LD.inner(c, c).real, expect, rtol=1e-12, atol=0)


def test_norms_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
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


def test_projection_with_a_triple_zero_at_zeta_against_mpmath():
    """The projection of k_0 against a 40-digit reference: iterative refinement
    with residuals from the monomial rule delta_ab + min(a, b) zeta^a conj(zeta)^b
    in mpmath.  ``rows G rows^H`` with G from ``np.power(zeta, m - n)`` was
    8.2e-10 off here."""
    mpmath = pytest.importorskip("mpmath")
    M = 60
    sp = kb.LocalDirichlet(ZETA3)
    got = construct.project_target_fd(sp, P3, M, [(0j, 0)])[0].coefficients
    span = construct.shift_span(sp, P3, M)
    with mpmath.workdps(40):
        pc = [mpmath.mpc(c) for c in P3.coefficients()]
        d, n = len(pc) - 1, span.count
        zp = [mpmath.mpc(ZETA3) ** a for a in range(M + 1)]

        def monomial(a, b):
            return (a == b) + min(a, b) * zp[a] * mpmath.conj(zp[b])

        S = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                S[i][j] = mpmath.fsum(pc[m] * mpmath.conj(pc[k]) * monomial(i + m, j + k)
                                      for m in range(d + 1) for k in range(d + 1))
                S[j][i] = mpmath.conj(S[i][j])
        rhs = [mpmath.conj(pc[0])] + [mpmath.mpc(0)] * (n - 1)  # conj((z^i p)(0))
        x = [mpmath.mpc(0)] * n
        for _ in range(20):
            r = [rhs[i] - mpmath.fsum(x[j] * S[j][i] for j in range(n)) for i in range(n)]
            dx = span.solve(np.array([complex(v) for v in r]))
            x = [a + mpmath.mpc(b) for a, b in zip(x, dx)]
            if np.max(np.abs(dx)) <= 1e-30 * float(max(abs(v) for v in x)):
                break
        else:
            pytest.fail("refinement did not converge")
        ref = np.array([complex(mpmath.fsum(x[j] * pc[k - j]
                                            for j in range(max(0, k - d), min(n - 1, k) + 1)))
                        for k in range(M + 1)])
    assert np.max(np.abs(got - ref)) <= 3e-10 * np.max(np.abs(ref))


def test_extremal_supremum_matches_a_dense_solve():
    p, M, samples, seed = P_ON, 120, 3000, 7
    result = kb.oracle_result(LD, kb.reproducible_multiset(LD, p), M)
    report = kb.extremal_check(LD, p, result, M=M)
    # sup Re g'(0) over unit g in the span, from the dense X S X^H form.
    rows = _rows(p, M)
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
