"""Space model: monomial Grams, reproducible orders, capped zero multisets."""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

import kernelblaschke as kb
from kernelblaschke import kernels, spaces
from kernelblaschke.jsonio import Field, dumps_canonical

from mpref import A2, D1, D4, H2


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


def test_dirichlet_alpha_must_be_finite():
    # NaN summed 2e6 terms into ToleranceUnreachable; inf ended in ZeroFunction.
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            kb.DirichletType(alpha)


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
    sp = kb.CustomGram(table, ((0.5 + 0j, "infinite"), (1 + 0j, 0)))
    assert kb.reproducible_order(sp, 0.5).kind == "infinite"
    assert kb.reproducible_order(sp, 1.0) == kb.ReproducibleOrder.finite(0)
    with pytest.raises(kb.MissingReproducibility):
        kb.reproducible_order(sp, 0.7)


def test_custom_gram_probe_rejects_bad_tables():
    with pytest.raises(ValueError, match="not Hermitian on indices 0..1"):
        kb.CustomGram(np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex), ())
    with pytest.raises(ValueError, match="not positive definite on indices 0..1"):
        kb.CustomGram(np.diag([1.0, -1.0]).astype(complex), ())
    with pytest.raises(ValueError, match="gram table must be square and nonempty"):
        kb.CustomGram(np.zeros((0, 0)), ())
    # Past the first 8 rows, which were all that was checked once: a lopsided
    # entry that the mirrored Gram never served, and a negative diagonal entry.
    for (m, n), value, message in (((20, 3), 5.0, "not Hermitian on indices 0..40"),
                                   ((30, 30), -1.0, "not positive definite on indices 0..40")):
        table = np.eye(41, dtype=complex)
        table[m, n] = value
        with pytest.raises(ValueError, match=message):
            kb.CustomGram(table, ())


def test_custom_gram_refuses_non_finite_entries():
    # inf == inf passed the Hermitian check, and a Cholesky with inf on its
    # diagonal did not fail, so these Grams were served with inf in them.
    with pytest.raises(ValueError, match=r"gram entry G\[1, 1\] = \(inf\+0j\) is not finite"):
        kb.CustomGram(np.diag([1.0, np.inf]), ())
    sp = kb.CustomGram(lambda m, n: math.inf if (m, n) == (3, 3) else float(m == n), ())
    assert np.array_equal(sp.gram(2), np.eye(3))
    with pytest.raises(ValueError, match=r"gram entry G\[3, 3\] = \(inf\+0j\) is not finite"):
        sp.gram(5)


def test_custom_gram_calls_a_rule_once_per_entry():
    calls = []

    def rule(m, n):
        calls.append((m, n))
        return cmath.exp(0.3j * (m - n)) / (1.0 + (m - n) ** 2) + (m == n)

    sp = kb.CustomGram(rule, ())
    table = kb.CustomGram(np.array([[rule(m, n) for n in range(61)] for m in range(61)]), ())
    calls.clear()
    for upto in (10, 25, 60):
        assert sp.gram(upto).tobytes() == table.gram(upto).tobytes()
    # Growing 11 -> 26 -> 61 rows tabulates each of the 61^2 entries once;
    # tabulating from index 0 each time called the rule 121 + 676 + 3721 times.
    assert len(calls) == 61 * 61 == len(set(calls))
    assert sp.gram(10).tobytes() == table.gram(10).tobytes() and len(calls) == 61 * 61


def test_custom_gram_probe_rejects_lopsided_rules():
    # Positive definite once the upper triangle is mirrored, but not Hermitian.
    lopsided = np.array([[2.0, 1.0], [0.5, 2.0]], dtype=complex)
    rules = (lopsided, lambda m, n: lopsided[m, n] if max(m, n) < 2 else float(m == n))
    for rule in rules:
        with pytest.raises(ValueError, match="not Hermitian on indices 0..1"):
            kb.CustomGram(rule, ()).gram(1)
    hermitian = np.array([[2.0, 1.0 - 1j], [1.0 + 1j, 2.0]])
    assert np.array_equal(kb.CustomGram(hermitian, ()).gram(1), hermitian)
    # A rule is checked whole each time it is tabulated further; a refused
    # tabulation leaves the array checked before it.
    sp = kb.CustomGram(lambda m, n: 5.0 if (m, n) == (20, 3) else float(m == n), ())
    assert np.array_equal(sp.gram(10), np.eye(11))
    with pytest.raises(ValueError, match="not Hermitian on indices 0..25"):
        sp.gram(25)
    assert np.array_equal(sp.gram(10), np.eye(11))


def _custom_space(values):
    return kb.space_from_json(Field({"type": "custom", "values": values}, "space"))


def test_custom_table_reads_in_one_validated_pass():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = A @ A.conj().T + 5 * np.eye(5)
    values = [[[z.real, z.imag] for z in row] for row in H]
    values[0][0] = [7, -0.0]                    # integers and a signed zero
    values[1][1] = [2 ** 53 + 1, 0]             # an integer that rounds
    values[1][2][1] = 5e-324                    # a subnormal, mirrored: the table
    values[2][1][1] = -5e-324                   # stays Hermitian and positive definite
    values[3][3] = [2 ** 64, 0.0]               # an integer past int64, in float range
    table = _custom_space(values).gram_rule
    explicit = np.array([[complex(re, im) for re, im in row] for row in values],
                        dtype=np.complex128)
    assert table.dtype == np.complex128 and table.shape == (5, 5)
    assert table.tobytes() == explicit.tobytes()
    boolean = [row[:] for row in values]
    boolean[2][1] = [True, 0.5]                 # a boolean among floats
    malformed = (
        (boolean, "space.values[2][1][0] must be"),
        ([[["1.5", "0"]]], "space.values[0][0][0] must be"),     # strings
        ([[["abc", 0]]], "space.values[0][0][0] must be"),
        ([[[1.0, math.nan]]], "space.values[0][0][1] must be"),
        ([[None]], "space.values[0][0] must be"),
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "space.values must be"),  # ragged
        ([[2.0, [0.0, 0.0]], [[0.0, 0.0], 2.0]], "space.values[0][0] must be"),  # bare numbers
        ([[2.0, 0.0], [0.0, 2.0]], "space.values[0][0] must be"),
        ([[[10 ** 400, 0]]], "space.values[0][0][0] must be"),  # past float range
        ([[[1.0, 0.0, 0.0]]], "space.values must be"),   # a triple, not a pair
        ([[[True, False]]], "space.values[0][0][0] must be"),
        ([], "space.values must be"),
        ([[]], "space.values must be"),
        ("table", "space.values must be"),
    )
    for bad, message in malformed:
        with pytest.raises(kb.ConfigError) as info:
            _custom_space(bad)
        assert str(info.value).startswith(message), (bad, str(info.value))
    with pytest.raises(ValueError, match="gram table must be square"):  # the constructor's check
        _custom_space([[[1.0, 0.0], [0.0, 0.0]]])


def test_custom_config_refuses_probe_size():
    # probe_size set how many leading rows were checked.  Every entry is
    # checked now, so the key is retired, and refused like any other key a
    # custom space does not know.
    values = [[[float(m == n), 0.0] for n in range(3)] for m in range(3)]
    for stale in (2, 2.9, "3", None):
        with pytest.raises(kb.ConfigError) as info:
            kb.space_from_json(Field({"type": "custom", "values": values,
                                      "probe_size": stale}, "space"))
        assert str(info.value) == ("space.probe_size is not a key of a custom space; "
                                   "known: gram, reproducibility, type, values")
    assert kb.space_from_json({"type": "custom", "values": values}) == kb.CustomGram(np.eye(3))


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
    assert kernels._taylor_shift(p.coefficients(), z, 1)[0][1] == pytest.approx(numeric, rel=1e-8)


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
    # Every weight a rule gives is checked as it is tabulated, not a few spots.
    for rule, bad in ((lambda k: -1.0 if k == 10 else (k + 1.0) ** 0.5, "w_10 = -1.0"),
                      (lambda k: math.nan if k == 7 else 1.0, "w_7 = nan")):
        with pytest.raises(ValueError, match=f"{bad} is not strictly positive"):
            kb.WeightedHardy(rule)
    late = kb.WeightedHardy(lambda k: 0.0 if k == 5000 else 1.0)
    assert late.weights(4999).min() == 1.0
    with pytest.raises(ValueError, match="w_5000 = 0.0 is not strictly positive"):
        kb.kernel_pairing(late, kb.KernelTerm(0.999), kb.KernelTerm(0.999))
    for malformed in ((), [], ((1.0, 2.0), (3.0, 4.0))):
        with pytest.raises(ValueError, match="weight table must be 1-D and nonempty"):
            kb.WeightedHardy(malformed)


def test_a_rule_and_the_table_of_its_values_serve_the_same_bytes():
    def weight(k):
        return (k + 1.0) ** -0.5 * (1.0 + 0.3 / (k + 1.0))

    # The table is long enough for shift_norm_bound's window, which a rule
    # serves in full.
    ruled, table = kb.WeightedHardy(weight), kb.WeightedHardy([weight(k) for k in range(6000)])
    Z = kb.ReproducibleMultiset(1, ((0.5 - 0.2j, 2), (-0.3 + 0.4j, 1)))
    runs = []
    for sp in (ruled, table):
        res = kb.shapiro_shields(sp, Z, taylor_degree=300)
        runs.append((kb.combo_taylor(sp, res.combo, 300).coefficients.tobytes(),
                     dumps_canonical(kb.inner_report(sp, res, 10).to_json()),
                     sp.weights(5999).tobytes()))
    assert runs[0] == runs[1]
    rng = np.random.default_rng(11)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    gram = A @ A.conj().T + 9 * np.eye(9)
    ruled, table = kb.CustomGram(lambda m, n: gram[m, n], ()), kb.CustomGram(gram, ())
    pc = np.array([0.3 - 0.1j, -1.2, 1.0])
    for count in (3, 7):
        assert ruled.span_gram(pc, count)[0].tobytes() == table.span_gram(pc, count)[0].tobytes()
    assert ruled.gram(8).tobytes() == table.gram(8).tobytes()


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 2.5, 4.0])
def test_served_weights_are_the_rule_evaluated_on_the_callers_indices(alpha):
    # However a D_alpha table grows (one scalar first, block by block, or one
    # large call), every weight it serves has the bytes of (ks + 1.0)**alpha
    # on the caller's own index array, contiguous or not.
    top = 70_000
    rng = np.random.default_rng(24)
    reads = [np.arange(top + 1), np.arange(3, top, 7), np.arange(top, -1, -3),
             rng.integers(0, top + 1, size=500), np.array([top, 0, top, 0]),
             np.arange(12, 13), np.arange(0)]
    growths = [[np.array([5000]), np.arange(top + 1)],
               [np.arange(lo, min(lo + 4096, top + 1)) for lo in range(0, top + 1, 4096)],
               [np.arange(top + 1)],
               [np.arange(top, -1, -1)]]
    for growth in growths:
        sp = kb.DirichletType(alpha)
        for ks in growth + reads:
            served = sp.weights(int(ks.max(initial=0)))[ks]
            assert served.tobytes() == ((ks + 1.0) ** alpha).tobytes()
        assert sp.weight(5000) == ((np.array([5000]) + 1.0) ** alpha)[0]
        assert sp.weights(top).tobytes() == ((np.arange(top + 1) + 1.0) ** alpha).tobytes()


def test_served_weights_are_read_only_views_of_one_table():
    for sp in (kb.DirichletType(2.5), kb.WeightedHardy(lambda k: 1.0 / (k + 1.0)),
               kb.WeightedHardy([1.0 + k for k in range(300)])):
        table = sp.weights(200)
        for view in (table, sp.weights(50)):
            assert not view.flags.writeable and np.shares_memory(view, table)
        with pytest.raises(ValueError):
            table[0] = 2.0
    # The table takes no part in equality, hashing or repr.
    warm, cold = kb.DirichletType(4.0), kb.DirichletType(4.0)
    warm.weights(1000)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)


def test_the_d4_boundary_case_evaluates_each_weight_once(monkeypatch):
    # Z = {1} in D_4: the construction, inner_report(K=20) and zero_report
    # read w_0..w_(N+20) from one table, evaluated once, and none on a repeat.
    evaluated = []
    rule = kb.DirichletType._evaluate

    def counted(self, ks):
        evaluated.append(len(ks))
        return rule(self, ks)

    monkeypatch.setattr(kb.DirichletType, "_evaluate", counted)
    D4 = kb.DirichletType(4.0)
    Z = kb.ReproducibleMultiset(0, ((1.0 + 0j, 1),))
    N = 200_000
    for _ in range(2):
        res = kb.shapiro_shields(D4, Z, taylor_degree=N)
        assert kb.inner_report(D4, res.taylor, K=20, tol=1e-6).verdict
        assert kb.zero_report(D4, res, Z, tol=1e-8, scan=False).verdict
        assert sum(evaluated) == N + 21


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
                           ((0.5 + 0j, "infinite"),))
    back = kb.space_from_json(custom.to_json())
    assert back.monomial_inner(1, 1) == 2.0
    assert back.reproducible_order(0.5).kind == "infinite"
    # Tables compare and hash by value, whatever sequence type carried them.
    values = [float(k + 1) for k in range(32)]
    gram = [[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 3.0]]
    for sp in (table, kb.WeightedHardy(values, boundary_order=1), custom,
               kb.CustomGram(gram, ((1 + 0j, 0),))):
        back = kb.space_from_json(sp.to_json())
        assert back == sp and hash(back) == hash(sp)
    spellings = [kb.WeightedHardy(v) for v in (values, tuple(values), np.array(values))]
    spellings += [kb.CustomGram(g) for g in (gram, tuple(map(tuple, gram)), np.array(gram))]
    assert len(set(spellings)) == 2
    assert spellings[0] != kb.WeightedHardy(values, boundary_order=1)
    assert spellings[3] != kb.CustomGram(gram, ((1 + 0j, 0),))
    rule = lambda k: 1.0  # noqa: E731  (a rule compares by identity)
    assert kb.WeightedHardy(rule) == kb.WeightedHardy(rule) != kb.WeightedHardy(lambda k: 1.0)
    a, b = kb.WeightedHardy(np.ones(400)), kb.WeightedHardy(np.ones(400))
    combo = kb.KernelCombo(a, ((kb.KernelTerm(0.5), 1.0),))
    ta, tb = (kb.combo_taylor(sp, combo, 10) for sp in (a, b))
    assert (ta.coefficients.tobytes(), ta.tail_bound) == (tb.coefficients.tobytes(), tb.tail_bound)


def test_integer_fields_take_integral_numbers_only():
    builders = (
        (lambda v: kb.KernelTerm(0.5, v), "kernel order"),
        (lambda v: kb.ReproducibleMultiset(0, ((0.5, v),)), "multiplicity"),
        (lambda v: kb.FactoredPoly(1, ((0.5, v),)), "root multiplicity"),
        (lambda v: kb.ReproducibleMultiset(v, ()), "origin multiplicity"),
        (kb.ReproducibleOrder.finite, "finite reproducible order"),
    )
    for build, what in builders:
        assert build(2.0) == build(np.int64(2)) == build(2)
        for bad in (1.5, 1.7, 2.5, True, -1, "2"):
            with pytest.raises(ValueError, match=f"^{what} must be"):
                build(bad)


def test_poly_and_multiset_json_round_trip():
    p = rf_example_poly()
    assert kb.FactoredPoly.from_json(p.to_json()) == p
    Z = kb.ReproducibleMultiset(1, ((0.3 - 0.2j, 2),))
    assert kb.ReproducibleMultiset.from_json(Z.to_json()) == Z
