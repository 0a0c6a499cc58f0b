"""The shift span ``{z^j p}``: its banded Gram in diagonal spaces, the stencils
that stand for products with its rows, and the refusal of singular spans."""

import cmath
import math

import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import construct
from kernelblaschke.kernels import derivative_functional

H2 = kb.hardy_space()
A2 = kb.bergman_space()
D1 = kb.dirichlet_space()
D4 = kb.DirichletType(4.0)
P = kb.FactoredPoly(0.7 - 0.2j, ((0j, 1), (0.5 + 0.2j, 2), (-0.6 + 0.1j, 1), (1.8j, 1)))


def _rows(p, M):
    pc = p.coefficients()
    rows = np.zeros((M - p.degree + 1, M + 1), dtype=complex)
    for j in range(len(rows)):
        rows[j, j: j + len(pc)] = pc
    return rows


def _dense(band):
    """The Hermitian matrix whose lower band is ``band``."""
    count = band.shape[1]
    S = np.zeros((count, count), dtype=complex)
    for k, row in enumerate(band):
        i = np.arange(count - k)
        S[i + k, i] = row[: count - k]
        S[i, i + k] = np.conjugate(row[: count - k])
    return S


@pytest.mark.parametrize("space", (H2, A2, D1, kb.WeightedHardy(tuple(
    (k + 1.0) ** 0.3 for k in range(200)))))
def test_band_and_stencils_match_the_rows(space):
    M = 150
    span = construct.shift_span(space, P, M)
    rows = _rows(P, M)
    assert span.gram.shape == (P.degree + 1, len(rows))
    dense = (rows * space.weights(M)) @ rows.conj().T
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(_dense(span.gram) - dense)) <= 1e-14 * scale
    for point, order in ((0j, 0), (0j, 2), (0.3 - 0.4j, 1)):
        v = derivative_functional(point, order, M)
        expect = rows @ v
        assert np.max(np.abs(span.functional(point, order) - expect)) \
            <= 1e-14 * np.max(np.abs(expect))
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, len(rows))) + 1j * rng.standard_normal((7, len(rows)))
    assert np.max(np.abs(span.combine(X) - X @ rows)) <= 1e-13 * np.max(np.abs(X @ rows))
    assert np.allclose(span.norms_sq(X), np.einsum("bj,bj->b", X @ dense, X.conj()).real,
                       rtol=1e-13, atol=0)
    assert np.allclose(span.first_row(), dense[0], rtol=0, atol=1e-15 * scale)


def test_span_narrower_than_its_band():
    # M - deg p + 1 = 3 rows against half-bandwidth 5: the band keeps 3 rows.
    span = construct.shift_span(A2, P, P.degree + 2)
    rows = _rows(P, P.degree + 2)
    dense = (rows * A2.weights(P.degree + 2)) @ rows.conj().T
    assert span.gram.shape == (3, 3)
    assert np.allclose(_dense(span.gram), dense, rtol=1e-14, atol=0)


def _singular_family(eta):
    return kb.FactoredPoly(1.0, ((eta, 4), (0.5 + 0.1j, 1), (2.2 + 0j, 1)))


@pytest.mark.parametrize("j", (3, 4, 5, 8, 9, 16, 20, 92, 93, 94, 95))
def test_singular_span_is_refused(j):
    # In D_4 with (z - eta)^4 at M = 400 the equilibrated Gram's least
    # eigenvalue is 1e-17..2e-15, at rounding level.  The dense factor failed
    # for these eta = exp(2 pi i j / 96) ("not positive definite"); the band
    # factor alone succeeds for j = 3, 8, 9, 16, 92, 93, 95 and returns
    # coefficients 1e-3..5e-2 off the mpmath reference.  Every one is refused.
    with pytest.raises(kb.IllConditioned):
        kb.project_kernel_fd(D4, _singular_family(cmath.exp(2j * math.pi * j / 96)), 0, 400)


def _mp_projection(mpmath, roots, alpha, M):
    """Projection of k_0 onto the span of (z - r)^m ... in D_alpha, by a
    banded Cholesky in mpmath, in the gauge c_0 = 1."""
    pc = [mpmath.mpc(1)]
    for r, m in roots:
        for _ in range(m):
            pc = [(pc[i - 1] if i else 0) - mpmath.mpc(r) * (pc[i] if i < len(pc) else 0)
                  for i in range(len(pc) + 1)]
    d = len(pc) - 1
    count = M - d + 1
    w = [mpmath.mpf(n + 1) ** alpha for n in range(M + 1)]
    # The system matrix conj(S): entry (i + k, i) is sum_n conj(p_(n-k)) w_(i+n) p_n.
    A = {(i + k, i): mpmath.fsum(mpmath.conj(pc[n - k]) * w[i + n] * pc[n]
                                 for n in range(k, d + 1))
         for i in range(count) for k in range(min(d, count - 1 - i) + 1)}
    L = {}
    for j in range(count):
        lo = max(0, j - d)
        L[j, j] = mpmath.sqrt(mpmath.re(A[j, j] - mpmath.fsum(
            abs(L[j, k]) ** 2 for k in range(lo, j))))
        for i in range(j + 1, min(count, j + d + 1)):
            L[i, j] = (A[i, j] - mpmath.fsum(L[i, k] * mpmath.conj(L[j, k])
                                             for k in range(max(0, i - d), j))) / L[j, j]
    rhs = [mpmath.conj(pc[0])] + [mpmath.mpc(0)] * (count - 1)  # <k_0, z^i p>
    y = []
    for i in range(count):
        y.append((rhs[i] - mpmath.fsum(L[i, k] * y[k] for k in range(max(0, i - d), i)))
                 / L[i, i])
    x = [mpmath.mpc(0)] * count
    for i in reversed(range(count)):
        x[i] = (y[i] - mpmath.fsum(mpmath.conj(L[k, i]) * x[k]
                                   for k in range(i + 1, min(count, i + d + 1)))) / L[i, i]
    coeffs = [mpmath.mpc(0)] * (M + 1)
    for j in range(count):
        for n in range(d + 1):
            coeffs[j + n] += x[j] * pc[n]
    return np.array([complex(c / coeffs[0]) for c in coeffs])


@pytest.mark.parametrize("alpha, mult, tol", ((4.0, 1, 1e-12), (4.0, 2, 1e-7), (-1.0, 2, 1e-7)))
def test_banded_projection_matches_mpmath(alpha, mult, tol):
    # Boundary zeros of order 1 and 2 (equilibrated least eigenvalues near
    # 1e-10 and 1e-13): the banded oracle holds the 50-digit reference in
    # its coefficients, vanishes at the closed-disk roots and keeps its gauge.
    mpmath = pytest.importorskip("mpmath")
    eta = cmath.exp(0.7j)
    roots = ((eta, mult), (0.5 + 0.1j, 1), (2.2 + 0j, 1))
    got = kb.project_kernel_fd(kb.DirichletType(alpha), kb.FactoredPoly(1.0, roots),
                               0, 400).coefficients
    with mpmath.workdps(50):
        ref = _mp_projection(mpmath, roots, alpha, 400)
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= tol * scale
    assert abs(got[0] - 1.0) <= 1e-15
    poly = np.polynomial.polynomial.Polynomial(got)
    assert max(abs(poly(r)) for r in (eta, 0.5 + 0.1j)) <= 1e-9 * float(np.sum(np.abs(got)))
