"""Verification: innerness, zero reports, scalar multiples, subspaces, extremality."""

import math

import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import construct, verify
from kernelblaschke.jsonio import dumps_canonical

from mpref import A2, D1, D2, D4, H2, Z_of


# ---------------------------------------------------------------------------
# inner_report
# ---------------------------------------------------------------------------

def test_inner_report_monomial():
    rep = kb.inner_report(H2, kb.TaylorSeries([0, 1], 0.0), 5)
    assert rep.verdict
    assert all(v == 0 for _, v, _ in rep.residuals)
    assert rep.norm_sq == pytest.approx(1.0)


def test_inner_report_negative_control():
    rep = kb.inner_report(H2, kb.TaylorSeries([1, 1], 0.0), 1)
    assert not rep.verdict
    assert rep.residuals[0][1] == pytest.approx(1.0)
    assert rep.max_relative_residual == pytest.approx(0.5)


def test_inner_report_bergman_construction():
    ss = kb.shapiro_shields(A2, Z_of((0.5, 1)), taylor_degree=400)
    rep = kb.inner_report(A2, ss.taylor, 20, 1e-8)
    assert rep.verdict
    assert rep.K == 20 and len(rep.residuals) == 20


def test_inner_report_boundary_case():
    ss = kb.shapiro_shields(D4, Z_of((1.0, 1)), taylor_degree=200_000)
    rep = kb.inner_report(D4, ss.taylor, 10, 1e-6)
    assert rep.verdict
    # exact norm: with S = zeta(4) k_0 - k_1 scaled by 1/(zeta(4)-1),
    # |S|^2 = zeta(4)(zeta(4)-1), so norm_sq = zeta(4)/(zeta(4)-1).
    z4 = math.pi ** 4 / 90
    assert rep.norm_sq == pytest.approx(z4 / (z4 - 1), rel=1e-6)


def test_inner_report_takes_a_construction_result():
    # A ConstructionResult raised a bare AttributeError ('coefficients').
    res = kb.shapiro_shields(D4, Z_of((1.0, 1)), taylor_degree=20_000)
    by_result = kb.inner_report(D4, res, 10, 1e-6)
    assert dumps_canonical(by_result.to_json()) == dumps_canonical(
        kb.inner_report(D4, res.taylor, 10, 1e-6).to_json())


def test_inner_report_rejects_zero_function():
    with pytest.raises(kb.ZeroFunction):
        kb.inner_report(H2, kb.TaylorSeries([0.0], 0.0), 3)


# ---------------------------------------------------------------------------
# zero_report
# ---------------------------------------------------------------------------

def test_zero_report_clean_blaschke_factor():
    Z = Z_of((0.5, 1))
    ss = kb.shapiro_shields(H2, Z, taylor_degree=400)
    rep = kb.zero_report(H2, ss, Z, radius=0.99, tol=1e-8)
    assert rep.verdict
    assert rep.extraneous == ()
    point_check = rep.prescribed[1]
    assert point_check.point == 0.5 + 0j
    assert all(v <= 1e-8 * rep.norm for _, v, _ in point_check.residuals)
    assert point_check.first_nonvanishing > 1.0


def test_zero_report_origin_order_exact():
    for origin in (1, 2):
        Z = Z_of((0.4 - 0.2j, 1), origin=origin)
        ss = kb.shapiro_shields(A2, Z, taylor_degree=300)
        rep = kb.zero_report(A2, ss, Z, radius=0.95, tol=1e-8)
        assert rep.verdict
        origin_check = rep.prescribed[0]
        assert origin_check.multiplicity == origin
        assert origin_check.first_nonvanishing == pytest.approx(
            math.factorial(origin))


def test_zero_report_finds_planted_extra_zero():
    # Claim only {1/2} but hand over the two-zero product: the scan must
    # surface the unprescribed zero at 0.3.
    _, taylor, _ = kb.classical_blaschke([0.5, 0.3], 300)
    result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)
    Z = Z_of((0.5, 1))
    rep = kb.zero_report(H2, result, Z, radius=0.99, tol=1e-8)
    assert not rep.verdict
    assert len(rep.extraneous) == 1
    extra = rep.extraneous[0]
    assert abs(extra.location - 0.3) < 1e-6
    assert extra.estimated_multiplicity == 1


def test_zero_report_flags_excess_multiplicity():
    _, taylor, _ = kb.classical_blaschke([(0.5, 2)], 300)
    result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)
    Z = Z_of((0.5, 1))
    rep = kb.zero_report(H2, result, Z, radius=0.99, tol=1e-8)
    assert not rep.verdict
    assert any(abs(e.location - 0.5) < 1e-6 and e.estimated_multiplicity >= 2
               for e in rep.extraneous)


def test_zero_report_refuses_a_radius_outside_the_disk():
    # The disks' Pellet bounds need |center| + rho < 1: at radius 1.3 the
    # simple zero at 1.2 of an exact (z - 1.2)(z - 0.5i) was reported with
    # multiplicity 2.
    coeffs = np.polynomial.polynomial.polyfromroots([1.2, 0.5j])
    result = kb.ConstructionResult(kb.TaylorSeries(coeffs, 0.0), 1.0, "closed_form",
                                   None, 0.0)
    for radius in (1.3, 1.0, 0.0, -0.5):
        with pytest.raises(ValueError, match="radius must lie in"):
            kb.zero_report(H2, result, Z_of((0.5j, 1)), radius=radius)
    assert kb.zero_report(H2, result, Z_of((0.5j, 1)), radius=0.99).verdict


def test_zero_report_aborts_when_truncation_dominates():
    Z = Z_of((0.93, 1))
    ss = kb.shapiro_shields(A2, Z, taylor_degree=60)  # far too short at r=0.99
    with pytest.raises(kb.TruncationDominatesResidual):
        kb.zero_report(A2, ss, Z, radius=0.99, tol=1e-10)


def test_zero_report_boundary_multiset():
    # Prescribed checks run through certified pairings; the interior root scan
    # is skipped (a slowly decaying boundary series would need an impractical
    # truncation degree to dominate the residual there).
    Z = Z_of((1.0, 1))
    ss = kb.shapiro_shields(D4, Z, taylor_degree=3000)
    rep = kb.zero_report(D4, ss, Z, radius=0.9, tol=1e-6, scan=False)
    assert rep.verdict
    boundary = rep.prescribed[1]
    assert boundary.residuals[0][1] <= 1e-10
    assert boundary.first_nonvanishing > 1e-3


# ---------------------------------------------------------------------------
# certified zero count (argument principle on |z| = radius)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zeros, radius, inside", [
    ([(0j, 2), (0.5, 2), (-0.3 + 0.4j, 1), (0.97, 1)], 0.9, 5),
    ([(0.6j, 3), (-0.2, 1), (0.93, 1)], 0.95, 5),
    ([(0.93, 1), (0.4 - 0.4j, 1)], 0.9, 1),
    ([(0j, 1), (0.7, 1)], 0.5, 1),
])
def test_certified_count_matches_blaschke_zeros(zeros, radius, inside):
    # At degree 600 the part of the product past the truncation is below
    # 1e-30 on these circles, so a zero tail bound is honest.
    _, taylor, _ = kb.classical_blaschke(zeros, 600)
    count, _ = verify._certified_zero_count(taylor.coefficients, radius, 0.0)
    assert count == inside
    # The numerator polynomial alone is exact and has the same zeros.
    poly = kb.FactoredPoly(1.0, tuple((complex(p), m) for p, m in zeros))
    count, _ = verify._certified_zero_count(poly.coefficients(), radius, 0.0)
    assert count == inside


def test_certified_count_refuses_zero_near_circle(monkeypatch):
    radius = 0.9
    near = radius - 5e-11
    _, taylor, _ = kb.classical_blaschke([0.5, near], 600)
    assert verify._certified_zero_count(taylor.coefficients, radius, 0.0) is None
    result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)
    Z = Z_of((0.5, 1), (near, 1))
    calls = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: calls.append(len(c)) or roots(c))
    rep = kb.zero_report(H2, result, Z, radius=radius, tol=1e-8)
    assert calls and rep.verdict
    # The refusal leads to the companion-matrix path and nothing else.
    monkeypatch.setattr(verify, "_certified_zero_count", lambda *args: None)
    assert kb.zero_report(H2, result, Z, radius=radius, tol=1e-8) == rep


def test_zero_report_counts_without_roots(monkeypatch):
    Z = Z_of((0.85, 1), (0.9 * np.exp(2j), 1))
    ss = kb.shapiro_shields(A2, Z, taylor_degree=600)

    def refuse(coeffs):
        raise AssertionError("the certified count should have closed the scan")

    monkeypatch.setattr(np, "roots", refuse)
    rep = kb.zero_report(A2, ss, Z, radius=0.99, tol=1e-7)
    assert rep.verdict and rep.extraneous == ()


def test_roots_fallback_stays_inside_the_disk(monkeypatch):
    # The roots fallback evaluates each companion root where it falls, inside
    # the scan disk; neither space has point evaluation on the circle.
    monkeypatch.setattr(verify, "_certified_zero_count", lambda *args: None)
    Z = Z_of((0.4 + 0.1j, 1), (-0.6 + 0.5j, 1), origin=2)
    for sp in (A2, D1):
        ss = kb.shapiro_shields(sp, Z, route="solve")
        rep = kb.zero_report(sp, ss, Z, radius=0.95)
        assert rep.verdict is True and rep.extraneous == ()


def test_zero_report_prescribed_triple_zero_is_not_split():
    # Companion-matrix roots split a triple zero by about eps^(1/3), beyond
    # the clustering tolerance, and used to come back as extraneous zeros.
    _, taylor, _ = kb.classical_blaschke([(0.5, 3)], 600)
    result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)
    rep = kb.zero_report(H2, result, Z_of((0.5, 3)), radius=0.99, tol=1e-8)
    assert rep.verdict and rep.extraneous == ()


def test_zero_report_planted_zero_beside_prescribed_triple_zero(monkeypatch):
    # The count (4 against 3 prescribed) sends the scan to the moment locator,
    # which finds the triple zero once; its disk counts it as the prescribed 3.
    _, taylor, _ = kb.classical_blaschke([(0.5, 3), 0.2j], 600)
    result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)

    def refuse(coeffs):
        raise AssertionError("a certified count locates without np.roots")

    monkeypatch.setattr(np, "roots", refuse)
    rep = kb.zero_report(H2, result, Z_of((0.5, 3)), radius=0.99, tol=1e-8)
    assert not rep.verdict
    assert len(rep.extraneous) == 1
    extra = rep.extraneous[0]
    assert abs(extra.location - 0.2j) < 1e-9
    assert extra.estimated_multiplicity == 1


def test_zero_report_refuses_when_the_disks_miss_a_counted_zero(monkeypatch):
    # The count finds 2 zeros; a locator that loses the unprescribed one at
    # 0.3 leaves disks that count only the prescribed 1/2.
    _, taylor, _ = kb.classical_blaschke([0.5, 0.3], 300)
    result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)
    locate = verify._moment_zeros
    monkeypatch.setattr(verify, "_moment_zeros", lambda *args: np.array(
        [z for z in locate(*args) if abs(z - 0.3) > 1e-6]))
    with pytest.raises(kb.IllConditioned, match="count 1 zeros of B where"):
        kb.zero_report(H2, result, Z_of((0.5, 1)), radius=0.99, tol=1e-8)


def test_taylor_path_err_covers_evaluation_rounding():
    # Closed forms have no combo, so a prescribed row is B_N(a) from the Taylor
    # array. Its tail at the point is about 1e-50 here; the value is rounding,
    # of order N eps sum |c_n| |a|^n, and was above an err of the tail alone
    # in 31 of these 32 rows.
    rng = np.random.default_rng(22)
    rows = []
    while len(rows) < 32:
        a, c = (r * np.exp(1j * t) for r, t in zip(rng.uniform(0.3, 0.7, 2),
                                                   rng.uniform(0, 2 * np.pi, 2)))
        if abs(a - c) <= 0.2:
            continue
        _, taylor, _ = kb.classical_blaschke([a, c], 300)
        result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)
        rep = kb.zero_report(H2, result, Z_of((a, 1), (c, 1)), tol=1e-8, scan=False)
        rows += [row for check in rep.prescribed[1:] for row in check.residuals]
    assert len(rows) == 32
    assert all(value <= err for _, value, err in rows), rows


def test_roots_fallback_keeps_split_double_zeros(monkeypatch):
    monkeypatch.setattr(verify, "_certified_zero_count", lambda *args: None)
    Z = Z_of((0.3 - 0.2j, 2), origin=2)
    for sp in (H2, D1):
        ss = kb.shapiro_shields(sp, Z, route="determinant", taylor_degree=400)
        rep = kb.zero_report(sp, ss, Z, radius=0.95)
        assert rep.verdict is True and rep.extraneous == ()


# ---------------------------------------------------------------------------
# Pellet's disk count
# ---------------------------------------------------------------------------

def test_disk_count_on_exact_polynomial():
    poly = kb.FactoredPoly(1.0, ((0.3, 3), (-0.5, 1), (0.6j, 2), (0.2 + 0.2j, 1),
                                 (0.2 + 0.2001j, 1)))
    c = poly.coefficients()
    assert verify._disk_count(c, 0.3, 1e-3, 0.0) == 3
    assert verify._disk_count(c, -0.5, 1e-3, 0.0) == 1
    assert verify._disk_count(c, 0.6j, 1e-2, 0.0) == 2
    # two distinct zeros 1e-4 apart in one disk
    assert verify._disk_count(c, 0.2 + 0.20005j, 1e-3, 0.0) == 2
    # no zero within 0.1 of the centre
    assert verify._disk_count(c, 0.7 - 0.2j, 1e-2, 0.0) == 0
    # a tail above every Taylor term leaves nothing to certify
    assert verify._disk_count(c, 0.3, 1e-3, 1.0) is None


def test_circle_rounding_bound_holds_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    Z = Z_of((0.8, 1), (0.95 * np.exp(2.5j), 1))
    coeffs = kb.shapiro_shields(A2, Z, taylor_degree=600).taylor.coefficients
    radius, m = 0.99, 2048
    values, rounding = verify._circle_values(coeffs, radius, m)
    with mpmath.workdps(40):
        exact = [mpmath.mpc(c.real, c.imag) for c in coeffs[::-1]]
        worst = 0.0
        for k in range(0, m, m // 64):
            z = mpmath.mpf(radius) * mpmath.expjpi(mpmath.mpf(2 * k) / m)
            ref = mpmath.polyval(exact, z)
            worst = max(worst, float(abs(ref - mpmath.mpc(values[k]))))
    assert worst <= rounding


# ---------------------------------------------------------------------------
# scalar_multiple_check
# ---------------------------------------------------------------------------

def test_scalar_multiple_identity_and_scaling():
    rng = np.random.default_rng(4)
    f = kb.TaylorSeries(rng.standard_normal(12) + 1j * rng.standard_normal(12), 0.0)
    rep = kb.scalar_multiple_check(f, f, 1e-12)
    assert rep.is_scalar_multiple and rep.lam == pytest.approx(1.0)
    g = kb.TaylorSeries(f.coefficients * 2j, 0.0)
    rep = kb.scalar_multiple_check(f, g, 1e-12)
    assert rep.is_scalar_multiple
    assert rep.lam == pytest.approx(-0.5j)


def test_scalar_multiple_rejects_different_functions():
    f = kb.TaylorSeries([1, 1, 0], 0.0)
    g = kb.TaylorSeries([1, 0, 1], 0.0)
    rep = kb.scalar_multiple_check(f, g, 1e-8)
    assert not rep.is_scalar_multiple
    with pytest.raises(kb.ZeroFunction):
        kb.scalar_multiple_check(f, kb.TaylorSeries([0, 0], 0.0), 1e-8)


def test_scalar_multiple_after_augmenting_with_actual_zero():
    # Adding a point the function already vanishes at leaves the construction
    # unchanged up to scale.
    Z = Z_of((0.5, 1))
    ss = kb.shapiro_shields(H2, Z, taylor_degree=200)
    ss_aug = kb.shapiro_shields(H2, Z_of((0.5, 2)), taylor_degree=200)
    rep = kb.scalar_multiple_check(ss.taylor, ss_aug.taylor, 1e-7)
    # {1/2, 1/2} is NOT the same subspace, so this must fail...
    assert not rep.is_scalar_multiple
    # ...whereas re-listing an existing zero of the zero set leaves it fixed:
    # in the Hardy space B also vanishes nowhere else, so nothing to add.


# ---------------------------------------------------------------------------
# subspace_equal
# ---------------------------------------------------------------------------

def test_subspace_equal_drops_exterior_root():
    p = kb.FactoredPoly(1.0, ((0j, 1), (2 + 0j, 1)))
    q = kb.FactoredPoly(1.0, ((0j, 1),))
    equal, evidence = kb.subspace_equal(H2, p, q, M=400)
    assert equal
    assert evidence["oracle_agrees"]
    assert evidence["max_probe_deviation"] < 1e-8


def test_subspace_equal_distinguishes_origin_orders():
    p = kb.FactoredPoly(1.0, ((0j, 1),))
    q = kb.FactoredPoly(1.0, ((0j, 2),))
    equal, evidence = kb.subspace_equal(H2, p, q, M=200)
    assert not equal
    assert evidence["max_probe_deviation"] > 1e-3


def test_subspace_equal_boundary_multiplicity_cap():
    p = kb.FactoredPoly(1.0, ((1 + 0j, 2),))
    q = kb.FactoredPoly(1.0, ((1 + 0j, 1),))
    equal, evidence = kb.subspace_equal(D2, p, q, M=400)
    assert equal
    assert evidence["R_p"] == evidence["R_q"]


def test_subspace_equal_uses_multisets_not_oracle():
    # Identical reproducible multisets decide equality even where the
    # finite-truncation oracle converges slowly (boundary-point generator).
    p = kb.FactoredPoly(1.0, ((1 + 0j, 2),))
    q = kb.FactoredPoly(1.0, ((1 + 0j, 1),))
    equal, evidence = kb.subspace_equal(D2, p, q, M=120)
    assert equal
    assert evidence["max_probe_deviation"] < 0.5  # corroborating, not deciding


# ---------------------------------------------------------------------------
# extremal_check
# ---------------------------------------------------------------------------

def test_extremal_monomial_attains_one():
    p = kb.FactoredPoly(1.0, ((0j, 1),))
    ss = kb.shapiro_shields(H2, Z_of(origin=1), taylor_degree=60)
    rep = kb.extremal_check(H2, p, ss, M=80)
    assert rep.verdict
    assert rep.construction_value == pytest.approx(1.0)
    assert rep.span_supremum == pytest.approx(1.0, abs=1e-12)
    assert rep.d == 1


def test_extremal_blaschke_factor_hardy():
    p = kb.FactoredPoly(1.0, ((0.5 + 0j, 1),))
    ss = kb.shapiro_shields(H2, Z_of((0.5, 1)), taylor_degree=300)
    rep = kb.extremal_check(H2, p, ss, M=300)
    assert rep.verdict
    assert rep.construction_value == pytest.approx(0.5, abs=1e-10)
    assert rep.span_supremum == pytest.approx(rep.construction_value, abs=1e-12)


def test_extremal_deterministic_for_fixed_seed():
    # Nothing is drawn, so two runs give byte-identical reports.
    p = kb.FactoredPoly(1.0, ((0.5 + 0j, 1),))
    ss = kb.shapiro_shields(A2, Z_of((0.5, 1)), taylor_degree=200)
    a = kb.extremal_check(A2, p, ss, M=200)
    b = kb.extremal_check(A2, p, ss, M=200)
    assert a == b
    assert dumps_canonical(a.to_json()) == dumps_canonical(b.to_json())
    assert set(a.to_json()) == {"d", "span_supremum", "construction_value",
                                "margin", "verdict"}


@pytest.mark.parametrize("space, expect", (
    (H2, 0.5), (A2, 0.5 * math.sqrt(2.0 - 0.25))), ids=("H2", "A2"))
def test_extremal_supremum_closed_forms(space, expect):
    # For p = z - a the extremal value of [p] is |a| in H2 and
    # |a| sqrt(2 - |a|^2) in A2; at M = 400 the span misses it by |a|^400.
    p = kb.FactoredPoly(1.0, ((0.5 + 0j, 1),))
    ss = kb.shapiro_shields(space, Z_of((0.5, 1)), taylor_degree=400)
    rep = kb.extremal_check(space, p, ss, M=400)
    assert abs(rep.span_supremum - expect) <= 1e-12
    assert rep.verdict


def test_custom_gram_extremal_refuses_a_miss_inside_the_old_gap():
    # p's boundary root is declared not reproducible, so R(p) drops it and the
    # construction lives in V_M(q), q = R(p).polynomial().  The supremum over
    # V_M(p) sat 5.3e-4 below the construction; a construction short by half
    # that gap passed.  Over V_M(q) the check is tight and refuses it.
    M = 60
    k = np.arange(M + 1)
    gram = np.diag(1.0 / (k + 1.0)) + 0.2 * 0.3 ** np.abs(np.subtract.outer(k, k)) \
        / np.sqrt(np.outer(k + 1.0, k + 1.0))
    eta = complex(math.cos(0.7), math.sin(0.7))
    space = kb.CustomGram(gram, ((0.4 - 0.2j, "infinite"), (eta, "none")))
    p = kb.FactoredPoly(1.0, ((0.4 - 0.2j, 1), (eta, 1), (0j, 1)))
    Z = kb.reproducible_multiset(space, p)
    oracle = kb.oracle_result(space, Z, M)
    exact = kb.extremal_check(space, p, oracle, M=M)
    assert exact.verdict and abs(exact.span_supremum - exact.construction_value) <= 1e-12

    def supremum(span):
        v = span.functional(0j, Z.origin_multiplicity)
        return math.sqrt((span.solve(np.conjugate(v)) @ v).real)

    old = supremum(construct.shift_span(space, p, M))
    assert exact.span_supremum - old > 1e-4
    # h = z q has h'(0) = 0 and is orthogonal to the oracle g, so only the norm grows.
    target = (exact.span_supremum + old) / 2
    span = construct.shift_span(space, Z.polynomial(), M)
    h = span.combine(np.eye(span.count)[1])
    g = oracle.taylor.coefficients
    eps = math.sqrt((1.0 / target ** 2 - space.inner(g, g).real) / space.inner(h, h).real)
    mutant = kb.ConstructionResult(kb.TaylorSeries(g + eps * h, 0.0), 1.0 + 0j, "oracle")
    rep = kb.extremal_check(space, p, mutant, M=M)
    assert abs(rep.construction_value - target) <= 1e-9
    assert old + 1e-9 < rep.construction_value and rep.verdict is False


def test_no_vacuous_passing_verdicts():
    # Each of these checked nothing and still reported a passing verdict.
    B = kb.shapiro_shields(H2, Z_of((0.5, 1)), taylor_degree=60)
    with pytest.raises(ValueError):
        kb.inner_report(H2, B.taylor, K=0)
    p = kb.FactoredPoly(1.0, ((0.5 + 0j, 1), (-0.2j, 1)))
    with pytest.raises(ValueError, match="exact span supremum"):  # draws nothing
        kb.extremal_check(H2, p, B, samples=10, M=80)
    with pytest.raises(ValueError, match="empty"):  # M = deg p - 1
        kb.extremal_check(H2, p, B, M=p.degree - 1)


def test_dense_span_gram_matches_diagonal():
    # The dense-Gram branch (CustomGram) against the weight branch (Bergman).
    M = 120
    p = kb.FactoredPoly(1.0, ((0j, 1), (0.4 - 0.2j, 1), (1.6 + 0j, 1)))
    q = kb.FactoredPoly(1.0, ((0j, 1), (0.4 - 0.2j, 1)))
    dense = kb.CustomGram(A2.gram(M), ((0.4 - 0.2j, "infinite"),
                                       (1.6 + 0j, "none")))

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    spaces = (dense, A2)
    oracle = [kb.project_kernel_fd(s, p, 1, M) for s in spaces]
    assert close(oracle[0].coefficients, oracle[1].coefficients)
    inner = [kb.inner_projection_of(s, p, M) for s in spaces]
    assert close(inner[0].coefficients, inner[1].coefficients)
    sub = [kb.subspace_equal(s, p, q, M=M) for s in spaces]
    assert sub[0][0] is sub[1][0] is True
    for pd, pa in zip(sub[0][1]["probes"], sub[1][1]["probes"]):
        # Deviations are already relative to the projection norms.
        assert abs(pd["deviation"] - pa["deviation"]) <= 1e-12
    result = kb.ConstructionResult(oracle[1], 1.0 + 0j, "oracle")
    ext = [kb.extremal_check(s, p, result, M=M) for s in spaces]
    assert ext[0].verdict and ext[1].verdict
    assert close(ext[0].span_supremum, ext[1].span_supremum)


# ---------------------------------------------------------------------------
# round trips between reports
# ---------------------------------------------------------------------------

def test_inner_combos_vanish_on_their_support():
    # Every kernel combination passing the innerness test must vanish on the
    # multiset reconstructed from its own support.
    rng = np.random.default_rng(6)
    for sp in (H2, A2, D1):
        pts = []
        while len(pts) < 2:
            c = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
            if 0.3 < abs(c) and all(abs(c - q) > 0.5 for q in pts):
                pts.append(c)
        Z = Z_of((pts[0], 1), (pts[1], 1), origin=int(rng.integers(0, 2)))
        ss = kb.shapiro_shields(sp, Z, taylor_degree=300)
        assert kb.inner_report(sp, ss.taylor, 10, 1e-8).verdict
        recovered = kb.multiset_from_combo(ss.combo)
        assert recovered == Z
        rep = kb.zero_report(sp, ss, recovered, radius=0.9, tol=1e-7)
        assert rep.verdict


def test_projection_routes_coherent_with_reduced_polynomial():
    # [f] = [product over R(f)]: construction from R(f) matches the projection
    # onto the span generated by f itself, up to the canonical gauge.
    f = kb.FactoredPoly(2.0 - 1j, ((0.45 + 0j, 1), (1.8 - 0.4j, 2), (0j, 1)))
    R = kb.reproducible_multiset(H2, f)
    assert R == Z_of((0.45, 1), origin=1)
    via_f = kb.project_kernel_fd(H2, f, 1, 400)
    via_R = kb.shapiro_shields(H2, R, taylor_degree=400)
    n = 41
    assert np.max(np.abs(via_f.coefficients[:n]
                         - via_R.taylor.coefficients[:n])) < 1e-8


# ---------------------------------------------------------------------------
# extraneous zeros
# ---------------------------------------------------------------------------

def _spiked_weight_space():
    # Weights (1, 1, 0.1, 1e6, 1e6, ...) make the kernel nearly quadratic, so
    # the one-zero construction picks up a second, unprescribed zero inside
    # the disk -- a concrete extraneous-zero instance.
    def rule(k):
        if k <= 1:
            return 1.0
        if k == 2:
            return 0.1
        return 1e6

    return kb.WeightedHardy(rule)


def test_extraneous_zero_instance_end_to_end():
    sp = _spiked_weight_space()
    Z = Z_of((0.5, 1))
    ss = kb.shapiro_shields(sp, Z, taylor_degree=120)
    # The construction is inner regardless of the exotic weights.
    assert kb.inner_report(sp, ss.taylor, 10, 1e-10).verdict
    # The scan finds the second zero near -0.7 (exact up to the 1e-6 tail).
    rep = kb.zero_report(sp, ss, Z, radius=0.95, tol=1e-8)
    assert not rep.verdict
    assert len(rep.extraneous) == 1
    beta = rep.extraneous[0].location
    assert abs(beta - (-0.7)) < 1e-6
    assert rep.extraneous[0].estimated_multiplicity == 1

    # Augmenting with the extraneous zero reproduces the same function up to
    # a scalar (here exactly, lambda = 1).
    augmented = Z_of((0.5, 1), (beta, 1))
    ss_aug = kb.shapiro_shields(sp, augmented, taylor_degree=120)
    cmp = kb.scalar_multiple_check(ss.taylor, ss_aug.taylor, 1e-7)
    assert cmp.is_scalar_multiple
    assert cmp.lam == pytest.approx(1.0)

    # Projections of the origin kernel coincide even though the subspaces
    # differ, which is exactly why projection agreement alone never decides
    # subspace equality.
    p, q = Z.polynomial(), augmented.polynomial()
    proj_p = kb.project_kernel_fd(sp, p, 0, 150)
    proj_q = kb.project_kernel_fd(sp, q, 0, 150)
    n = min(len(proj_p.coefficients), len(proj_q.coefficients))
    assert np.max(np.abs(proj_p.coefficients[:n] - proj_q.coefficients[:n])) < 1e-10
    equal, evidence = kb.subspace_equal(sp, p, q, M=150)
    assert not equal
    origin_probe, probe1, probe2 = evidence["probes"]
    assert origin_probe["deviation"] < 1e-10
    assert max(probe1["deviation"], probe2["deviation"]) > 1e-2


def test_extraneous_scan_smoke_region():
    rep = kb.extraneous_zero_scan(A2, moduli=(0.8, 0.9), n_angles=2,
                                  taylor_degree=500)
    assert rep["cases_scanned"] == 4  # 3 modulus pairs x 2 angles, minus 2 coincident
    assert rep["region"]["angles"] == 2
    assert isinstance(rep["instance_found"], bool)
    assert rep["note"] in ("no instance found in region",
                           "extraneous interior zero found")


def test_reports_serialize():
    Z = Z_of((0.5, 1))
    ss = kb.shapiro_shields(H2, Z, taylor_degree=300)
    inner = kb.inner_report(H2, ss.taylor, 5)
    zr = kb.zero_report(H2, ss, Z, radius=0.9)
    cm = kb.scalar_multiple_check(ss.taylor, ss.taylor)
    ex = kb.extremal_check(H2, Z.polynomial(), ss, M=60)
    # A failing prescribed check still yields a plain bool verdict.
    failing = kb.zero_report(H2, ss, Z_of((0.45, 1)))
    for obj in (inner.to_json(), zr.to_json(), cm.to_json(), ex.to_json(),
                failing.to_json()):
        import json
        json.dumps(obj)
    assert inner.to_json()["verdict"] is True
    assert failing.verdict is False
    assert zr.to_json()["prescribed"][0]["mult"] == 0
