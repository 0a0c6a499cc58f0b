"""Construction routes: determinant, solve, projection oracle, closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import construct, kernels
from kernelblaschke.construct import multiset_kernel_terms, pairing_gram

from mpref import A2, D1, D4, H2, Z_of, sample_multiset


def blaschke_factor_taylor(beta, N):
    """Canonical Taylor of the single-factor product with a zero at beta."""
    # (z - beta) / (1 - conj(beta) z), rescaled so the constant term is 1.
    q = np.conjugate(beta)
    geo = q ** np.arange(N + 1)
    coeffs = np.convolve(np.array([-beta, 1.0]), geo)[: N + 1]
    return coeffs / coeffs[0]


# ---------------------------------------------------------------------------
# shapiro_shields
# ---------------------------------------------------------------------------

def test_origin_only_multiset_gives_monomial():
    r = kb.shapiro_shields(H2, Z_of(origin=1), taylor_degree=8)
    expect = np.zeros(9)
    expect[1] = 1
    assert np.allclose(r.taylor.coefficients, expect)
    r = kb.shapiro_shields(D1, Z_of(origin=3), taylor_degree=8)
    expect = np.zeros(9)
    expect[3] = 1
    assert np.allclose(r.taylor.coefficients, expect)


def test_empty_multiset_degenerates_to_constant():
    for route in ("determinant", "solve"):
        r = kb.shapiro_shields(A2, Z_of(), route=route, taylor_degree=6)
        assert r.route == route
        assert np.allclose(r.taylor.coefficients, [1, 0, 0, 0, 0, 0, 0])
        rep = kb.inner_report(A2, r.taylor, 5)
        assert rep.verdict


def test_single_interior_zero_matches_closed_form():
    r = kb.shapiro_shields(H2, Z_of((0.5, 1)), taylor_degree=40)
    assert np.allclose(r.taylor.coefficients, blaschke_factor_taylor(0.5, 40))
    # Raw determinant combo: (4/3) k_0 - 1 * k_{1/2}, then the gauge scalar.
    raw = {t.point: c / r.normalization for t, c in r.combo.terms}
    assert raw[0j] == pytest.approx(4 / 3)
    assert raw[0.5 + 0j] == pytest.approx(-1.0)
    assert r.normalization == pytest.approx(3.0)


def test_combo_supported_on_multiset_points():
    Z = Z_of((0.5, 1), (-0.3 + 0.2j, 1), (0.1 - 0.4j, 1))
    r = kb.shapiro_shields(H2, Z, taylor_degree=16)
    support = {t.point for t, c in r.combo.terms if c != 0}
    assert support == {0j, 0.5 + 0j, -0.3 + 0.2j, 0.1 - 0.4j}
    assert all(t.order == 0 for t, _ in r.combo.terms)


def test_routes_agree_on_random_multisets():
    for sp in (H2, A2, D1):
        rng = np.random.default_rng(17)
        for _ in range(4):
            Z = sample_multiset(rng)
            det = kb.shapiro_shields(sp, Z, route="determinant", taylor_degree=60)
            sol = kb.shapiro_shields(sp, Z, route="solve", taylor_degree=60)
            orc = kb.project_kernel_fd(sp, Z.polynomial(),
                                       Z.origin_multiplicity, 300)
            assert det.route == "determinant" and sol.route == "solve"
            assert np.max(np.abs(det.taylor.coefficients
                                 - sol.taylor.coefficients)) < 1e-9
            n = 41
            assert np.max(np.abs(det.taylor.coefficients[:n]
                                 - orc.coefficients[:n])) < 1e-8


def test_determinant_falls_back_to_solve_beyond_six_kernels():
    Z = Z_of((0.3, 3), (-0.4, 2), (0.2j, 2), origin=1)  # 8 kernels
    r = kb.shapiro_shields(H2, Z, route="determinant", taylor_degree=40)
    assert r.route == "solve"
    sol = kb.shapiro_shields(H2, Z, route="solve", taylor_degree=40)
    assert np.allclose(r.taylor.coefficients, sol.taylor.coefficients)


def test_orthogonality_certificate():
    rng = np.random.default_rng(23)
    for sp in (H2, A2, D1):
        Z = sample_multiset(rng)
        r = kb.shapiro_shields(sp, Z, taylor_degree=60)
        norm = math.sqrt(kb.shift_inner_product(sp, r.taylor, 0)[0].real)
        # origin orders 0..m0-1
        for ell in range(Z.origin_multiplicity):
            v, e = kb.combo_derivative_at(sp, r.combo, 0.0, ell)
            assert abs(v) <= e + 1e-10 * norm
        for point, mult in Z.entries:
            for ell in range(mult):
                v, e = kb.combo_derivative_at(sp, r.combo, point, ell)
                assert abs(v) <= e + 1e-10 * norm


def test_boundary_multiset_orthogonality():
    Z = Z_of((1.0, 2))
    r = kb.shapiro_shields(D4, Z, taylor_degree=64)
    for ell in (0, 1):
        v, e = kb.combo_derivative_at(D4, r.combo, 1.0, ell)
        assert abs(v) <= e + 1e-10


def test_long_construction_peaks_at_two_output_arrays():
    # The expansion writes its output in place and the gauge scaling is one
    # product, so the peak is two outputs; a copy in TaylorSeries makes three.
    N = 200_000
    for space, point in ((D4, 1.0 + 0j), (A2, 0.5 + 0.2j)):
        Z = kb.ReproducibleMultiset(0, ((point, 1),))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = kb.shapiro_shields(space, Z, taylor_degree=N)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * result.taylor.coefficients.nbytes, (space, peak)


def _functional_at_loop(point, order, ns, out):
    """The per-term functional as the block loop formed it, falling factors of
    order 0 (ones) included."""
    j = int(np.searchsorted(ns, order))
    out[:j] = 0.0
    kernels._powers(point, ns[j:] - order, out[j:])
    out[j:] *= kernels._falling(ns[j:], order)
    return out


def _combo_taylor_loop(space, B, N):
    """combo_taylor's coefficients by the per-term block loop: every term,
    the origin's too, a pass over every block."""
    coeffs = np.zeros(N + 1, dtype=complex)
    buf = np.empty(min(N + 1, kernels.TAYLOR_BLOCK), dtype=complex)
    for lo in range(0, N + 1, kernels.TAYLOR_BLOCK):
        ns = np.arange(lo, min(lo + kernels.TAYLOR_BLOCK, N + 1))
        w = (ns + 1.0) ** space.alpha
        part = buf[: len(ns)]
        for term, coef in B.terms:
            _functional_at_loop(np.conjugate(term.point), term.order, ns, part)
            part /= w
            part *= coef
            coeffs[lo: lo + len(ns)] += part
    return coeffs


def test_combo_taylor_keeps_the_per_term_loop_bytes():
    # Origin terms of orders 0-3 first, in the middle and last in term order,
    # beside interior terms with real (signed-zero) and complex coefficients,
    # up to an N past one TAYLOR_BLOCK; D_(1/3) has weights that are not powers
    # of two, so the origin's n!/w_n is not exact.
    rng = np.random.default_rng(24)
    others = [(kb.KernelTerm(0.5 + 0.2j, 1), 0.3 - 1.1j),
              (kb.KernelTerm(-0.3, 0), -2.0),
              (kb.KernelTerm(0.7, 2), 1.5)]
    for space in (D4, kb.DirichletType(1 / 3)):
        for N in (1, 40, kernels.TAYLOR_BLOCK + 300):
            for m in range(4):
                origin = (kb.KernelTerm(0j, m), complex(*rng.standard_normal(2)))
                for at in range(len(others) + 1):
                    terms = others[:at] + [origin] + others[at:]
                    B = kb.KernelCombo(space, tuple(terms))
                    got = kb.combo_taylor(space, B, N).coefficients
                    assert got.tobytes() == _combo_taylor_loop(space, B, N).tobytes(), \
                        (space, N, m, at)
            B = kb.KernelCombo(space, ((kb.KernelTerm(0j, 2), 1.0), *others,
                                       (kb.KernelTerm(0j, 0), -0.5 + 0.25j)))
            got = kb.combo_taylor(space, B, N).coefficients
            assert got.tobytes() == _combo_taylor_loop(space, B, N).tobytes()


def test_shapiro_shields_scales_the_expansion_it_built(monkeypatch):
    # The gauge is scaled in place on combo_taylor's fresh array, with the
    # bytes of TaylorSeries.scaled.
    built = []
    expand = construct.combo_taylor

    def kept(*args, **kwargs):
        out = expand(*args, **kwargs)
        built.append(kb.TaylorSeries(out.coefficients.copy(), out.tail_bound))
        return out

    monkeypatch.setattr(construct, "combo_taylor", kept)
    for space, Z, N in ((D4, Z_of((1.0, 1)), 3000),
                        (A2, Z_of((0.5 + 0.2j, 2), (-0.3, 1), origin=1), 500),
                        (H2, Z_of((0.4, 1)), kernels.TAYLOR_BLOCK + 10)):
        for route in ("determinant", "solve"):
            res = kb.shapiro_shields(space, Z, route=route, taylor_degree=N)
            want = built[-1].scaled(res.normalization)
            assert res.taylor == want and not res.taylor.coefficients.flags.writeable


def test_origin_order_exact():
    for origin in (0, 1, 2):
        Z = Z_of((0.4, 1), origin=origin)
        r = kb.shapiro_shields(H2, Z, taylor_degree=30)
        coeffs = r.taylor.coefficients
        assert np.allclose(coeffs[:origin], 0.0, atol=1e-13)
        assert coeffs[origin] == pytest.approx(1.0)


def test_cofactor_matches_inner_product_identity():
    # The coefficient of the last kernel in the bordered determinant equals
    # -<D(u; v_1..v_{n-1}), v_n>, tying cofactors of different orders together.
    sp = A2
    Z = Z_of((0.5, 1), (-0.3 + 0.2j, 2))
    u, vs = multiset_kernel_terms(Z)
    r = kb.shapiro_shields(sp, Z, route="determinant", taylor_degree=16)
    raw = {(t.point, t.order): c / r.normalization for t, c in r.combo.terms}
    last = vs[-1]
    # Build D(u; v_1..v_{n-1}) literally.
    head = vs[:-1]
    G, _ = pairing_gram(sp, head)
    b = np.array([kb.kernel_pairing(sp, u, v)[0] for v in head])
    bordered = np.vstack([b[None, :], G])
    combo = [(u, np.linalg.det(G))]
    for i in range(1, len(head) + 1):
        combo.append((head[i - 1],
                      (-1) ** i * np.linalg.det(np.delete(bordered, i, axis=0))))
    ip = sum(c * kb.kernel_pairing(sp, t, last)[0] for t, c in combo)
    assert raw[(last.point, last.order)] == pytest.approx(-ip, rel=1e-10)


def test_hardy_specialization_matches_classical():
    rng = np.random.default_rng(31)
    for _ in range(4):
        pts = []
        while len(pts) < 3:
            c = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if 0.1 < abs(c) < 0.75 and all(abs(c - q) > 0.1 for q in pts):
                pts.append(c)
        Z = Z_of(*((p, 1) for p in pts), origin=int(rng.integers(0, 2)))
        ss = kb.shapiro_shields(H2, Z, taylor_degree=120)
        _, taylor, _ = kb.classical_blaschke(Z.as_list(), 120)
        rep = kb.scalar_multiple_check(ss.taylor, taylor, 1e-8)
        assert rep.is_scalar_multiple


def test_multiset_rejections():
    with pytest.raises(kb.SingularGram):
        kb.shapiro_shields(H2, Z_of((0.5, 1), (0.5 + 1e-8, 1)))
    with pytest.raises(kb.InadmissibleMultiset):
        kb.shapiro_shields(H2, Z_of((1.0, 1)))
    with pytest.raises(kb.InadmissibleMultiset):
        kb.shapiro_shields(D4, Z_of((1.0, 3)))
    with pytest.raises(kb.UnsupportedRoute, match='route: "oracle"'):
        kb.shapiro_shields(kb.LocalDirichlet(1.0), Z_of((0.5, 1)))
    with pytest.raises(ValueError):
        kb.shapiro_shields(H2, Z_of((0.5, 1)), route="magic")


def test_construction_result_serialization():
    r = kb.shapiro_shields(H2, Z_of((0.5, 1)), taylor_degree=12)
    obj = r.to_json()
    assert obj["route"] == "determinant"
    assert len(obj["taylor"]["coeffs"]) == 13
    assert obj["combo"] is not None
    assert "pairing_error" in obj


# ---------------------------------------------------------------------------
# project_kernel_fd (the oracle) and inner projections
# ---------------------------------------------------------------------------

def test_oracle_monomial_case():
    t = kb.project_kernel_fd(H2, kb.FactoredPoly(1.0, ((0j, 1),)), 1, 50)
    expect = np.zeros(51)
    expect[1] = 1
    assert np.allclose(t.coefficients, expect, atol=1e-12)


def test_oracle_matches_blaschke_factor():
    p = kb.FactoredPoly(1.0, ((0.5 + 0j, 1),))
    t = kb.project_kernel_fd(H2, p, 0, 400)
    assert np.max(np.abs(t.coefficients[:41] - blaschke_factor_taylor(0.5, 40))) < 1e-10


def test_oracle_drops_non_reproducible_roots():
    p = kb.FactoredPoly(1.0, ((0j, 1), (2 + 0j, 1)))
    q = kb.FactoredPoly(1.0, ((0j, 1),))
    tp = kb.project_kernel_fd(H2, p, 1, 400)
    tq = kb.project_kernel_fd(H2, q, 1, 400)
    n = min(len(tp.coefficients), len(tq.coefficients))
    assert np.max(np.abs(tp.coefficients[:n] - tq.coefficients[:n])) < 1e-8


def test_oracle_agrees_with_reduced_polynomial():
    # [f] = [product over R(f)]: the projection only sees reproducible zeros.
    f = kb.FactoredPoly(1.0, ((0.4 + 0j, 1), (1.5 + 0j, 1), (0j, 1)))
    reduced = kb.ReproducibleMultiset(1, ((0.4 + 0j, 1),))
    a = kb.project_kernel_fd(H2, f, 1, 400)
    b = kb.shapiro_shields(H2, reduced, taylor_degree=400)
    assert np.max(np.abs(a.coefficients[:60] - b.taylor.coefficients[:60])) < 1e-8


def test_oracle_requires_headroom_and_conditioning():
    p = kb.FactoredPoly(1.0, ((0.5 + 0j, 1),))
    with pytest.raises(ValueError):
        kb.project_kernel_fd(H2, p, 0, p.degree + 5)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decaying = kb.WeightedHardy(tuple(math.exp(-0.8 * k) for k in range(64)))
    with pytest.raises(kb.IllConditioned):
        kb.project_kernel_fd(decaying, p, 0, 40)


def test_inner_projection_examples():
    t = kb.inner_projection_of(H2, kb.FactoredPoly(1.0, ((0j, 1),)), 50)
    expect = np.zeros(51)
    expect[1] = 1
    assert np.allclose(t.coefficients, expect, atol=1e-12)
    # f = 1 + z: the limit is the constant 1; convergence is slow
    # (~1/sqrt(M)) because -1 sits on the circle, so allow that envelope.
    J = kb.inner_projection_of(H2, kb.FactoredPoly(1.0, ((-1 + 0j, 1),)), 400)
    dev = J.coefficients.copy()
    dev[0] -= 1.0
    assert float(np.linalg.norm(dev)) < 2.0 / math.sqrt(400)
    # A2, f = z - 1/2: scalar multiple of the kernel construction.
    J = kb.inner_projection_of(A2, kb.FactoredPoly(1.0, ((0.5 + 0j, 1),)), 400)
    ss = kb.shapiro_shields(A2, Z_of((0.5, 1)), taylor_degree=400)
    rep = kb.scalar_multiple_check(J, ss.taylor, 1e-8)
    assert rep.is_scalar_multiple


def test_inner_projection_proportional_to_oracle_any_truncation():
    # The identity holds exactly at every truncation level, not just in the
    # limit, because both live in the same finite span.
    rng = np.random.default_rng(41)
    for sp in (H2, A2):
        for _ in range(3):
            roots = [(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), 1)]
            if rng.uniform() < 0.5:
                roots.append((complex(rng.uniform(1.8, 2.5), 0.3), 1))
            if rng.uniform() < 0.5:
                roots.append((0j, int(rng.integers(1, 3))))
            f = kb.FactoredPoly(complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)),
                                tuple(roots))
            J = kb.inner_projection_of(sp, f, 120)
            orc = kb.project_kernel_fd(sp, f, f.origin_multiplicity, 120)
            rep = kb.scalar_multiple_check(J, orc, 1e-8)
            assert rep.is_scalar_multiple


# ---------------------------------------------------------------------------
# classical_blaschke
# ---------------------------------------------------------------------------

def test_classical_raw_product_value_and_unimodularity():
    rational, taylor, evaluator = kb.classical_blaschke([0.5], 40)
    # Raw (ungauged) product value at 0 is -1/2; the gauge is phase-only.
    raw0 = (0 - 0.5) / (1 - 0)
    assert raw0 == pytest.approx(-0.5)
    assert evaluator(0j) == pytest.approx(0.5)  # |raw| after phase rotation
    theta = np.linspace(0, 2 * math.pi, 257)
    mods = np.abs(evaluator(np.exp(1j * theta)))
    assert np.max(np.abs(mods - 1)) < 1e-12
    assert abs(evaluator(1j)) == pytest.approx(1.0)


def test_classical_empty_and_multi():
    rational, taylor, evaluator = kb.classical_blaschke([], 8)
    assert np.allclose(taylor.coefficients, [1] + [0] * 8)
    assert evaluator(0.3 + 0.2j) == pytest.approx(1.0)
    _, _, ev2 = kb.classical_blaschke([0.5, -1 / 3], 8)
    assert abs(ev2(1j)) == pytest.approx(1.0)


def test_classical_taylor_matches_evaluator():
    rational, taylor, evaluator = kb.classical_blaschke(
        [0.5, -0.3 + 0.4j, (0j, 2)], 200)
    for z in (0.1 + 0.2j, -0.4j, 0.55):
        assert taylor(z) == pytest.approx(evaluator(z), abs=1e-12)
    assert taylor.tail_bound < 1e-6


@pytest.mark.parametrize("zeros, points", [
    ([(0.92, 2), (-0.4j, 3)], [0.92, -0.4j]),
    ([0.99 * np.exp(1j), 0.3], [0.99 * np.exp(1j), 0.3]),
    ([(0j, 2), 0.9j, -0.5], [0.9j, -0.5]),
])
def test_closed_form_tail_bounds_hold(zeros, points):
    # The discarded Hardy-norm tail, read off a 5N-term expansion, stays under
    # the closed-form bound of both closed forms.
    for N in (40, 150, 600):
        _, taylor, _ = kb.classical_blaschke(zeros, N)
        _, longer, _ = kb.classical_blaschke(zeros, 5 * N)
        assert taylor.tail_bound >= np.linalg.norm(longer.coefficients[N + 1:])
        _, taylor = kb.bergman_rational(points, N)
        _, longer = kb.bergman_rational(points, 5 * N)
        assert taylor.tail_bound >= np.linalg.norm(longer.coefficients[N + 1:])


def test_classical_rejects_non_interior():
    with pytest.raises(ValueError):
        kb.classical_blaschke([1.0])
    with pytest.raises(ValueError):
        kb.classical_blaschke([1.2 + 0j])


# ---------------------------------------------------------------------------
# bergman_rational
# ---------------------------------------------------------------------------

def test_bergman_single_zero_closed_form():
    rational, taylor = kb.bergman_rational([0.5], 60)
    # Hand-derived numerator for the single zero 1/2: q(z) = z - 7/2 up to
    # scale, so the numerator roots are {1/2, 7/2}.
    roots = sorted(p.real for p, _ in rational.numerator.roots)
    assert roots == pytest.approx([0.5, 3.5])
    assert abs(kb.rational_residue_at_double_pole(rational, 2.0 + 0j)) < 1e-12
    ss = kb.shapiro_shields(A2, Z_of((0.5, 1)), taylor_degree=60)
    assert np.max(np.abs(taylor.coefficients - ss.taylor.coefficients)) < 1e-10


def test_bergman_two_zeros_match_determinant():
    rational, taylor = kb.bergman_rational([0.5, -0.5], 80)
    ss = kb.shapiro_shields(A2, Z_of((0.5, 1), (-0.5, 1)), taylor_degree=80)
    assert np.max(np.abs(taylor.coefficients - ss.taylor.coefficients)) < 1e-8
    for pole in (2.0, -2.0):
        assert abs(kb.rational_residue_at_double_pole(rational, pole)) < 1e-10


def test_bergman_complex_pair():
    pts = [0.4 + 0.3j, -0.2 - 0.5j]
    rational, taylor = kb.bergman_rational(pts, 120)
    ss = kb.shapiro_shields(A2, Z_of(*((p, 1) for p in pts)), taylor_degree=120)
    assert np.max(np.abs(taylor.coefficients - ss.taylor.coefficients)) < 1e-8
    for p in pts:
        pole = 1 / np.conjugate(p)
        assert abs(kb.rational_residue_at_double_pole(rational, pole)) < 1e-10


def test_bergman_input_validation():
    with pytest.raises(ValueError):
        kb.bergman_rational([])
    with pytest.raises(ValueError):
        kb.bergman_rational([0j])
    with pytest.raises(ValueError):
        kb.bergman_rational([0.5, 0.5])
    with pytest.raises(ValueError):
        kb.bergman_rational([1.5])


# ---------------------------------------------------------------------------
# combo support reconstruction
# ---------------------------------------------------------------------------

def test_multiset_from_combo_round_trip():
    for Z in (Z_of((0.5, 1)), Z_of((0.4, 2), (-0.3j, 1), origin=2),
              Z_of(origin=1)):
        r = kb.shapiro_shields(H2, Z, taylor_degree=30)
        assert kb.multiset_from_combo(r.combo) == Z
