"""Space model: monomial Grams, reproducible orders, capped zero multisets."""

import math

import numpy as np
import pytest
from scipy import integrate

import kernelblaschke as kb


H2 = kb.hardy_space()
A2 = kb.bergman_space()
D1 = kb.dirichlet_space()
D4 = kb.DirichletType(4.0)
LD1 = kb.LocalDirichlet(1.0 + 0j)


def rf_example_poly():
    # z^2 (z - i/2) (z^2 - 1)^2
    return kb.FactoredPoly(1.0, ((0j, 2), (0.5j, 1), (1 + 0j, 2), (-1 + 0j, 2)))


# ---------------------------------------------------------------------------
# monomial_inner
# ---------------------------------------------------------------------------

def test_monomial_inner_hardy_and_dirichlet():
    assert kb.monomial_inner(H2, 3, 3) == 1
    assert kb.monomial_inner(kb.DirichletType(1.0), 2, 2) == 3
    assert kb.monomial_inner(A2, 2, 3) == 0
    assert kb.monomial_inner(A2, 4, 4) == pytest.approx(1 / 5)


def test_monomial_inner_local_dirichlet_closed_form():
    assert kb.monomial_inner(LD1, 1, 2) == pytest.approx(1.0)
    assert kb.monomial_inner(LD1, 0, 0) == 1
    assert kb.monomial_inner(LD1, 0, 3) == 0
    assert kb.monomial_inner(LD1, 2, 2) == pytest.approx(3.0)
    zeta = np.exp(0.7j)
    sp = kb.LocalDirichlet(zeta)
    assert kb.monomial_inner(sp, 2, 5) == pytest.approx(2 * zeta ** (-3))


def _local_dirichlet_quadrature(m, n, zeta):
    """Independent oracle: Hardy part plus the defining area integral."""
    if m == 0 or n == 0:
        return complex(1.0 if m == n else 0.0)

    def integrand(phi, r, part):
        z = r * np.exp(1j * phi)
        val = (m * n * r ** (m + n - 2) * np.exp(1j * (m - n) * phi)
               * (1 - r * r) / abs(z - zeta) ** 2 * r / np.pi)
        return val.real if part == 0 else val.imag

    re, _ = integrate.dblquad(integrand, 0, 1, 0, 2 * np.pi, args=(0,),
                              epsabs=1e-10, epsrel=1e-10)
    im, _ = integrate.dblquad(integrand, 0, 1, 0, 2 * np.pi, args=(1,),
                              epsabs=1e-10, epsrel=1e-10)
    return complex((1.0 if m == n else 0.0) + re, im)


def test_local_dirichlet_gram_certified_by_quadrature():
    # Closed form delta_mn + min(m,n) zeta^(m-n) against 2-D quadrature of the
    # defining integral, for all m, n <= 8.
    for m in range(9):
        for n in range(m, 9):
            oracle = _local_dirichlet_quadrature(m, n, 1.0 + 0j)
            closed = kb.monomial_inner(LD1, m, n)
            assert abs(closed - oracle) < 1e-8, (m, n)


def test_local_dirichlet_gram_quadrature_rotated_zeta():
    zeta = np.exp(1j * 0.7)
    sp = kb.LocalDirichlet(zeta)
    for m, n in [(1, 1), (1, 3), (4, 2), (5, 5)]:
        oracle = _local_dirichlet_quadrature(m, n, zeta)
        assert abs(kb.monomial_inner(sp, m, n) - oracle) < 1e-8


def test_hermitian_symmetry_probe():
    G = LD1.gram(200)
    assert np.allclose(G, G.conj().T, atol=1e-12)
    sp = kb.LocalDirichlet(np.exp(2.1j))
    G = sp.gram(200)
    assert np.allclose(G, G.conj().T, atol=1e-12)
    for m, n in [(0, 5), (3, 7), (120, 40)]:
        assert kb.monomial_inner(sp, m, n) == pytest.approx(
            np.conjugate(kb.monomial_inner(sp, n, m)))


# ---------------------------------------------------------------------------
# reproducible_order
# ---------------------------------------------------------------------------

def test_reproducible_order_interior_boundary_exterior():
    assert kb.reproducible_order(H2, 0.3).kind == "infinite"
    assert kb.reproducible_order(H2, 1.0).kind == "none"
    assert kb.reproducible_order(H2, 2.0).kind == "none"
    ro = kb.reproducible_order(D4, 1.0)
    assert ro == kb.ReproducibleOrder.finite(1)
    assert kb.reproducible_order(kb.DirichletType(3.0), -1.0) == \
        kb.ReproducibleOrder.finite(0)
    assert kb.reproducible_order(kb.DirichletType(1.0), 1.0).kind == "none"


def test_reproducible_order_local_dirichlet():
    assert kb.reproducible_order(LD1, 1.0) == kb.ReproducibleOrder.finite(0)
    assert kb.reproducible_order(LD1, -1.0).kind == "none"
    assert kb.reproducible_order(LD1, 1j).kind == "none"
    assert kb.reproducible_order(LD1, 0.5).kind == "infinite"


def test_boundary_cap_monotone_in_alpha():
    caps = []
    for alpha in np.arange(0.0, 9.01, 0.25):
        ro = kb.reproducible_order(kb.DirichletType(float(alpha)), 1.0)
        caps.append(ro.cap)
    assert all(a <= b for a, b in zip(caps, caps[1:]))


def test_reproducible_order_never_gapped():
    # Finite(r) means orders 0..r all admitted and r+1 is not.
    ro = kb.reproducible_order(D4, 1j)
    assert ro.kind == "finite"
    assert all(ro.admits(j) for j in range(ro.order + 1))
    assert not ro.admits(ro.order + 1)


def test_weighted_hardy_boundary_needs_declaration():
    sp = kb.WeightedHardy(lambda k: (k + 1.0) ** 4)
    assert kb.reproducible_order(sp, 1.0).kind == "none"
    declared = kb.WeightedHardy(lambda k: (k + 1.0) ** 4, boundary_order=1)
    assert kb.reproducible_order(declared, 1.0) == kb.ReproducibleOrder.finite(1)
    assert kb.reproducible_order(declared, 0.2).kind == "infinite"


def test_custom_gram_requires_table_entry():
    table = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    sp = kb.CustomGram(table, ((0.5 + 0j, "infinite"), (1 + 0j, 0)), probe_size=4)
    assert kb.reproducible_order(sp, 0.5).kind == "infinite"
    assert kb.reproducible_order(sp, 1.0) == kb.ReproducibleOrder.finite(0)
    with pytest.raises(kb.MissingReproducibility):
        kb.reproducible_order(sp, 0.7)


def test_custom_gram_probe_rejects_bad_tables():
    with pytest.raises(ValueError):
        kb.CustomGram(np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex), (),
                      probe_size=2)
    with pytest.raises(ValueError):
        kb.CustomGram(np.diag([1.0, -1.0]).astype(complex), (), probe_size=2)


def test_custom_gram_probe_rejects_lopsided_rules():
    # Positive definite once the upper triangle is mirrored, but not Hermitian.
    lopsided = np.array([[2.0, 1.0], [0.5, 2.0]], dtype=complex)
    rules = (lopsided, lambda m, n: lopsided[m, n] if max(m, n) < 2 else float(m == n))
    for rule in rules:
        with pytest.raises(ValueError, match="not Hermitian on the probe window"):
            kb.CustomGram(rule, (), probe_size=2)
    hermitian = np.array([[2.0, 1.0 - 1j], [1.0 + 1j, 2.0]])
    assert np.array_equal(kb.CustomGram(hermitian, (), probe_size=2).gram(1), hermitian)


# ---------------------------------------------------------------------------
# reproducible_multiset
# ---------------------------------------------------------------------------

def test_four_space_table_for_worked_polynomial():
    f = rf_example_poly()
    assert kb.reproducible_multiset(kb.DirichletType(1.0), f) == \
        kb.ReproducibleMultiset(2, ((0.5j, 1),))
    assert kb.reproducible_multiset(kb.DirichletType(2.0), f) == \
        kb.ReproducibleMultiset(2, ((-1 + 0j, 1), (0.5j, 1), (1 + 0j, 1)))
    assert kb.reproducible_multiset(kb.DirichletType(4.0), f) == \
        kb.ReproducibleMultiset(2, ((-1 + 0j, 2), (0.5j, 1), (1 + 0j, 2)))
    assert kb.reproducible_multiset(LD1, f) == \
        kb.ReproducibleMultiset(2, ((0.5j, 1), (1 + 0j, 1)))


def test_interior_zeros_fully_reproducible():
    p = kb.FactoredPoly(1.0, ((0j, 3),))
    assert kb.reproducible_multiset(H2, p) == kb.ReproducibleMultiset(3, ())


def test_exterior_zero_dropped_with_witness():
    p = kb.FactoredPoly(1.0, ((0j, 1), (2 + 0j, 1)))
    assert kb.reproducible_multiset(H2, p) == kb.ReproducibleMultiset(1, ())
    # Witness that evaluation at 2 is unbounded on the Hardy space:
    # p_n = sum_{k<=n} z^k/(k+1) has bounded norm while p_n(2) blows up.
    norms, values = [], []
    for n in (10, 50, 200):
        coef = 1.0 / (np.arange(n + 1) + 1.0)
        norms.append(math.sqrt(float(np.sum(coef ** 2))))
        values.append(float(np.polynomial.polynomial.polyval(2.0, coef)))
    assert max(norms) < math.pi / math.sqrt(6)
    assert values[0] < values[1] < values[2]
    assert values[2] > 1e50


def test_multiset_caps_respect_boundary_order():
    p = kb.FactoredPoly(2.0, ((1 + 0j, 5), (0.3 + 0j, 4)))
    # D4: ro(1) = 1 so the cap is 2 bounded functionals.
    assert kb.reproducible_multiset(D4, p) == \
        kb.ReproducibleMultiset(0, ((0.3 + 0j, 4), (1 + 0j, 2)))


def test_multiset_subset_of_zero_multiset():
    rng = np.random.default_rng(11)
    spaces = [H2, A2, D1, D4, LD1]
    for _ in range(25):
        roots = []
        for _ in range(rng.integers(1, 4)):
            r = rng.uniform(0.1, 1.6)
            th = rng.uniform(0, 2 * math.pi)
            roots.append((r * np.exp(1j * th), int(rng.integers(1, 4))))
        if rng.uniform() < 0.5:
            roots.append((0j, int(rng.integers(1, 3))))
        p = kb.FactoredPoly(1.0, tuple(roots))
        zeros = {pt: m for pt, m in p.roots}
        sp = spaces[rng.integers(0, len(spaces))]
        R = kb.reproducible_multiset(sp, p)
        assert R.origin_multiplicity <= zeros.get(0j, 0)
        for pt, m in R.entries:
            assert m <= zeros[pt]


# ---------------------------------------------------------------------------
# FactoredPoly / ReproducibleMultiset mechanics
# ---------------------------------------------------------------------------

def test_factored_poly_expand_and_reread_roots():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = []
        while len(pts) < 3:
            cand = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(cand - q) > 0.3 for q in pts) and abs(cand) > 0.2:
                pts.append(cand)
        p = kb.FactoredPoly(1.5 - 0.5j, tuple((q, 1) for q in pts))
        found = sorted(np.roots(p.coefficients()[::-1]),
                       key=lambda z: (z.real, z.imag))
        expect = sorted(pts, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(found, expect)) < 1e-10


def test_factored_poly_merges_and_validates():
    p = kb.FactoredPoly(2.0, ((0.5 + 0j, 1), (0.5 + 0j, 2)))
    assert p.roots == ((0.5 + 0j, 3),)
    assert p.degree == 3
    assert p.origin_multiplicity == 0
    with pytest.raises(ValueError):
        kb.FactoredPoly(0.0, ())
    with pytest.raises(ValueError):
        kb.FactoredPoly(1.0, ((0.5 + 0j, 0),))


def test_factored_poly_evaluation_and_derivative():
    p = kb.FactoredPoly(2.0, ((1 + 0j, 2), (-0.5j, 1)))
    z = 0.3 + 0.1j
    direct = 2.0 * (z - 1) ** 2 * (z + 0.5j)
    assert p(z) == pytest.approx(direct)
    h = 1e-6
    numeric = (p(z + h) - p(z - h)) / (2 * h)
    assert p.derivative_at(z, 1) == pytest.approx(numeric, rel=1e-8)


def test_multiset_validation_and_polynomial_round_trip():
    with pytest.raises(ValueError):
        kb.ReproducibleMultiset(0, ((0j, 1),))
    with pytest.raises(ValueError):
        kb.ReproducibleMultiset(-1, ())
    Z = kb.ReproducibleMultiset(2, ((0.4 + 0j, 2), (-0.2j, 1)))
    assert kb.reproducible_multiset(H2, Z.polynomial()) == Z
    assert Z.size == 5
    assert Z.as_list() == [0j, 0j, -0.2j, 0.4 + 0j, 0.4 + 0j]


def test_multiset_admissibility_validation():
    Z = kb.ReproducibleMultiset(0, ((1 + 0j, 3),))
    with pytest.raises(kb.InadmissibleMultiset):
        Z.validate_for(D4)  # cap is ro + 1 = 2
    kb.ReproducibleMultiset(0, ((1 + 0j, 2),)).validate_for(D4)
    with pytest.raises(kb.InadmissibleMultiset):
        kb.ReproducibleMultiset(0, ((1 + 0j, 1),)).validate_for(H2)


def test_weighted_hardy_weight_rules():
    table = kb.WeightedHardy(tuple((k + 1.0) ** 2 for k in range(64)))
    assert table.weight(3) == 16.0
    with pytest.raises(kb.ToleranceUnreachable, match="length at least 101"):
        table.weight(100)
    with pytest.raises(ValueError):
        kb.WeightedHardy(lambda k: -1.0)
    with pytest.warns(UserWarning):
        kb.WeightedHardy(lambda k: math.exp(0.01 * k))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_space_json_round_trip():
    for sp in (H2, kb.DirichletType(-1.0), kb.DirichletType(2.5),
               kb.LocalDirichlet(np.exp(0.4j))):
        assert kb.space_from_json(sp.to_json()) == sp
    table = kb.WeightedHardy(tuple(float(k + 1) for k in range(32)))
    back = kb.space_from_json(table.to_json())
    assert back.weight(5) == table.weight(5)
    custom = kb.CustomGram(np.diag([1.0, 2.0, 3.0]).astype(complex),
                           ((0.5 + 0j, "infinite"),), probe_size=3)
    back = kb.space_from_json(custom.to_json())
    assert back.monomial_inner(1, 1) == 2.0
    assert back.reproducible_order(0.5).kind == "infinite"


def test_poly_and_multiset_json_round_trip():
    p = rf_example_poly()
    assert kb.FactoredPoly.from_json(p.to_json()) == p
    Z = kb.ReproducibleMultiset(1, ((0.3 - 0.2j, 2),))
    assert kb.ReproducibleMultiset.from_json(Z.to_json()) == Z
