"""The shift span ``{z^j p}``: its banded Gram in diagonal spaces, the stencils
that stand for products with its rows, and the refusal of singular spans."""

import cmath
import math

import mpmath
import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import construct
from kernelblaschke.kernels import derivative_functional

import mpref
from mpref import A2, D1, D4, H2

P = kb.FactoredPoly(0.7 - 0.2j, ((0j, 1), (0.5 + 0.2j, 2), (-0.6 + 0.1j, 1), (1.8j, 1)))


@pytest.mark.parametrize("space", (H2, A2, D1, kb.WeightedHardy(tuple(
    (k + 1.0) ** 0.3 for k in range(200)))))
def test_band_and_stencils_match_the_rows(space):
    M = 150
    span = construct.shift_span(space, P, M)
    rows = mpref.shift_rows(P, M)
    assert span.gram.shape == (P.degree + 1, len(rows))
    dense = (rows * space.weights(M)) @ rows.conj().T
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(mpref.dense(span.gram) - dense)) <= 1e-14 * scale
    for point, order in ((0j, 0), (0j, 2), (0.3 - 0.4j, 1)):
        v = derivative_functional(point, order, M)
        expect = rows @ v
        assert np.max(np.abs(span.functional(point, order) - expect)) \
            <= 1e-14 * np.max(np.abs(expect))
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, len(rows))) + 1j * rng.standard_normal((7, len(rows)))
    assert np.max(np.abs(span.combine(X) - X @ rows)) <= 1e-13 * np.max(np.abs(X @ rows))
    c = span.combine(X)
    assert np.allclose(space.inner(c, c).real, np.einsum("bj,bj->b", X @ dense, X.conj()).real,
                       rtol=1e-13, atol=0)
    assert np.allclose(span.first_row(), dense[0], rtol=0, atol=1e-15 * scale)


def test_span_narrower_than_its_band():
    # M - deg p + 1 = 3 rows against half-bandwidth 5: the band keeps 3 rows.
    span = construct.shift_span(A2, P, P.degree + 2)
    rows = mpref.shift_rows(P, P.degree + 2)
    dense = (rows * A2.weights(P.degree + 2)) @ rows.conj().T
    assert span.gram.shape == (3, 3)
    assert np.allclose(mpref.dense(span.gram), dense, rtol=1e-14, atol=0)


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


@pytest.mark.parametrize("alpha, mult, tol", ((4.0, 1, 1e-12), (4.0, 2, 1e-7), (-1.0, 2, 1e-7)))
def test_banded_projection_matches_mpmath(alpha, mult, tol):
    # Boundary zeros of order 1 and 2 (equilibrated least eigenvalues near
    # 1e-10 and 1e-13): the banded oracle holds the 50-digit reference in
    # its coefficients, vanishes at the closed-disk roots and keeps its gauge.
    eta = cmath.exp(0.7j)
    roots = ((eta, mult), (0.5 + 0.1j, 1), (2.2 + 0j, 1))
    got = kb.project_kernel_fd(kb.DirichletType(alpha), kb.FactoredPoly(1.0, roots),
                               0, 400).coefficients
    with mpmath.workdps(50):
        ref = mpref.projection(kb.DirichletType(alpha), mpref.expand(roots), 400)
        ref = np.array([complex(c / ref[0]) for c in ref])
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= tol * scale
    assert abs(got[0] - 1.0) <= 1e-15
    poly = np.polynomial.polynomial.Polynomial(got)
    assert max(abs(poly(r)) for r in (eta, 0.5 + 0.1j)) <= 1e-9 * float(np.sum(np.abs(got)))
