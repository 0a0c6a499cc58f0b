"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and match the package contracts; seeds are
fixed so every run draws identical random instances.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import kernelblaschke as kb
from kernelblaschke import cli, construct
from kernelblaschke.jsonio import dumps_canonical

H2 = kb.hardy_space()
A2 = kb.bergman_space()
D1 = kb.dirichlet_space()
D2 = kb.DirichletType(2.0)
D4 = kb.DirichletType(4.0)

SEED = 20260808
ROUTE_SPACES = (("H2", H2), ("A2", A2), ("D1", D1))


def announce(num, label, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{timing}")
    assert ok, f"criterion {num} ({label}) failed"


def sample_multiset(rng, max_points=4, max_total=5, rlo=0.45, rhi=0.72, sep=0.52):
    """Seeded admissible multisets: <= 4 interior points, zero orders <= 2.

    Moduli, separations, and the single-double-point cap keep the kernel Gram
    well conditioned, so the literal cofactor route retains the accuracy the
    1e-8 agreement gate demands in double precision.
    """
    while True:
        npts = int(rng.integers(1, max_points + 1))
        pts, mults = [], []
        tries = 0
        double_used = False
        while len(pts) < npts and tries < 400:
            tries += 1
            r = rng.uniform(rlo, rhi)
            th = rng.uniform(0, 2 * math.pi)
            c = r * np.exp(1j * th)
            if all(abs(c - q) > sep for q in pts):
                pts.append(complex(c))
                m = int(rng.integers(1, 3))
                if m == 2 and double_used:
                    m = 1
                double_used = double_used or m == 2
                mults.append(m)
        if len(pts) < npts:
            continue
        m0 = int(rng.integers(0, 3))
        if m0 + sum(mults) <= max_total:
            return kb.ReproducibleMultiset(m0, tuple(zip(pts, mults)))


@pytest.fixture(scope="module")
def route_constructions():
    """Criterion-2 constructions, shared with criteria 3 and 6."""
    start = time.perf_counter()
    per_space = {}
    for label, sp in ROUTE_SPACES:
        rng = np.random.default_rng(SEED)
        rows = []
        for _ in range(20):
            Z = sample_multiset(rng)
            det = kb.shapiro_shields(sp, Z, route="determinant",
                                     taylor_degree=256)
            sol = kb.shapiro_shields(sp, Z, route="solve", taylor_degree=256)
            orc = kb.oracle_result(sp, Z, M=400)
            rows.append((Z, det, sol, orc))
        per_space[label] = rows
    return per_space, time.perf_counter() - start


@pytest.fixture(scope="module")
def boundary_construction():
    """Z = {1} in D_4 with a truncation deep enough for certified residuals."""
    Z = kb.ReproducibleMultiset(0, ((1.0 + 0j, 1),))
    return Z, kb.shapiro_shields(D4, Z, taylor_degree=1_500_000)


def test_criterion_1_worked_example_table(tmp_path):
    start = time.perf_counter()
    out = str(tmp_path)
    rc = cli.main(["preset", "paper-Rf-example", "--out", out, "--quiet"])
    elapsed = time.perf_counter() - start
    report = json.loads(
        (tmp_path / "preset-paper-Rf-example.json").read_text())
    expected = {
        "alpha <= 1": {"origin": 2, "points": [{"point": [0.0, 0.5], "mult": 1}]},
        "1 < alpha <= 3": {"origin": 2, "points": [
            {"point": [-1.0, 0.0], "mult": 1}, {"point": [0.0, 0.5], "mult": 1},
            {"point": [1.0, 0.0], "mult": 1}]},
        "3 < alpha <= 5": {"origin": 2, "points": [
            {"point": [-1.0, 0.0], "mult": 2}, {"point": [0.0, 0.5], "mult": 1},
            {"point": [1.0, 0.0], "mult": 2}]},
        "local dirichlet at 1": {"origin": 2, "points": [
            {"point": [0.0, 0.5], "mult": 1}, {"point": [1.0, 0.0], "mult": 1}]},
    }
    got = {c["range"]: c["multiset"] for c in report["report"]["cases"]}
    ok = rc == 0 and report["ok"] and got == expected and elapsed < 1.0
    announce(1, "worked-example multiset table, exact, < 1 s", ok, elapsed)


def test_criterion_2_route_agreement(route_constructions):
    per_space, elapsed = route_constructions
    worst = 0.0
    for label, sp in ROUTE_SPACES:
        for Z, det, sol, orc in per_space[label]:
            d = det.taylor.coefficients[:41]
            s = sol.taylor.coefficients[:41]
            o = orc.taylor.coefficients[:41]
            worst = max(worst,
                        float(np.max(np.abs(d - s))),
                        float(np.max(np.abs(d - o))),
                        float(np.max(np.abs(s - o))))
    ok = worst <= 1e-8 and elapsed < 60.0
    print(f"  route agreement worst deviation: {worst:.3e}")
    announce(2, "det/solve/oracle agreement 1e-8 through degree 40, < 60 s",
             ok, elapsed)


def test_routes_agree_over_the_whole_truncation(route_constructions):
    # Criterion 2's multisets with the oracle at M = taylor_degree: the banded
    # projection makes M = 256 cheap, so every one of the 257 coefficients is
    # held, not only degrees 0..40.
    per_space, _ = route_constructions
    worst = 0.0
    for label, sp in ROUTE_SPACES:
        for Z, det, sol, _ in per_space[label]:
            orc = kb.oracle_result(sp, Z, M=256).taylor.coefficients
            d, s = det.taylor.coefficients, sol.taylor.coefficients
            assert len(d) == len(s) == len(orc) == 257
            worst = max(worst, float(np.max(np.abs(d - s))),
                        float(np.max(np.abs(d - orc))), float(np.max(np.abs(s - orc))))
    assert worst <= 1e-8, worst


def test_criterion_3_innerness(route_constructions, boundary_construction):
    start = time.perf_counter()
    per_space, _ = route_constructions
    worst = 0.0
    ok = True
    for label, sp in ROUTE_SPACES:
        for Z, det, sol, orc in per_space[label]:
            for result in (det, sol, orc):
                rep = kb.inner_report(sp, result.taylor, K=20, tol=1e-8)
                worst = max(worst, rep.max_relative_residual)
                ok = ok and rep.verdict
    Zb, boundary = boundary_construction
    repb = kb.inner_report(D4, boundary.taylor, K=20, tol=1e-6)
    ok = ok and repb.verdict
    print(f"  interior worst relative residual: {worst:.3e}; "
          f"boundary: {repb.max_relative_residual:.3e}")
    announce(3, "innerness K=20 at 1e-8 interior, 1e-6 boundary D4", ok,
             time.perf_counter() - start)


def test_criterion_4_classical_match(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    ok = True
    for _ in range(10):
        pts = []
        npts = int(rng.integers(1, 5))
        while len(pts) < npts:
            c = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if 0.15 < abs(c) < 0.72 and all(abs(c - q) > 0.2 for q in pts):
                pts.append(c)
        m0 = int(rng.integers(0, 2))
        Z = kb.ReproducibleMultiset(m0, tuple((p, 1) for p in pts))
        ss = kb.shapiro_shields(H2, Z, taylor_degree=200)
        _, taylor, _ = kb.classical_blaschke(Z.as_list(), 200)
        rep = kb.scalar_multiple_check(ss.taylor, taylor, tol=1e-8)
        ok = ok and rep.is_scalar_multiple
    _, _, evaluator = kb.classical_blaschke([0.5 + 0j, -0.3 + 0.4j], 64)
    moduli = cli.emit_circle_profile(evaluator, 512, str(tmp_path / "c.csv"))
    dev = float(np.max(np.abs(moduli - 1.0)))
    ok = ok and dev <= 1e-12
    print(f"  circle profile max deviation from 1: {dev:.3e}")
    announce(4, "classical product match 1e-8; |B|=1 on circle to 1e-12", ok,
             time.perf_counter() - start)


def test_criterion_5_bergman_residue_route():
    start = time.perf_counter()
    ok = True
    for zeros in ([0.5 + 0j], [0.5 + 0j, -0.5 + 0j]):
        rational, taylor = kb.bergman_rational(zeros, taylor_degree=300)
        Z = kb.ReproducibleMultiset(0, tuple((z, 1) for z in zeros))
        ss = kb.shapiro_shields(A2, Z, taylor_degree=300)
        dev = float(np.max(np.abs(taylor.coefficients - ss.taylor.coefficients)))
        ok = ok and dev <= 1e-8
        for z in zeros:
            res = abs(kb.rational_residue_at_double_pole(rational,
                                                         1 / z.conjugate()))
            ok = ok and res <= 1e-10
    announce(5, "residue construction = determinant 1e-8; residues < 1e-10",
             ok, time.perf_counter() - start)


def test_criterion_6_zero_structure(route_constructions, boundary_construction):
    start = time.perf_counter()
    per_space, _ = route_constructions
    ok = True
    for label, sp in ROUTE_SPACES:
        for Z, det, _, _ in per_space[label][:6]:
            rep = kb.zero_report(sp, det, Z, tol=1e-8, scan=False)
            norm = rep.norm
            for check in rep.prescribed:
                for _, value, err in check.residuals:
                    ok = ok and value <= 1e-8 * norm + err
            gauge = abs(det.taylor.coefficient(Z.origin_multiplicity))
            ok = ok and abs(gauge - 1.0) < 1e-12 and gauge > 1e-6
            origin = rep.prescribed[0]
            ok = ok and origin.first_nonvanishing > 1e-8 * norm
    Zb, boundary = boundary_construction
    repb = kb.zero_report(D4, boundary, Zb, tol=1e-8, scan=False)
    ok = ok and all(v <= 1e-8 * repb.norm + e
                    for c in repb.prescribed for _, v, e in c.residuals)
    ok = ok and abs(boundary.taylor.coefficient(0) - 1.0) < 1e-12
    announce(6, "prescribed residuals 1e-8||B||; origin order exact", ok,
             time.perf_counter() - start)


def test_criterion_7_subspace_laws():
    start = time.perf_counter()
    p1 = kb.FactoredPoly(1.0, ((0j, 1), (2 + 0j, 1)))
    q1 = kb.FactoredPoly(1.0, ((0j, 1),))
    eq1, ev1 = kb.subspace_equal(H2, p1, q1, M=400, tol=1e-8)
    p2 = kb.FactoredPoly(1.0, ((1 + 0j, 2),))
    q2 = kb.FactoredPoly(1.0, ((1 + 0j, 1),))
    eq2, _ = kb.subspace_equal(D2, p2, q2, M=400)
    p3 = kb.FactoredPoly(1.0, ((0j, 1),))
    q3 = kb.FactoredPoly(1.0, ((0j, 2),))
    eq3, ev3 = kb.subspace_equal(H2, p3, q3, M=400)
    ok = (eq1 and ev1["oracle_agrees"] and ev1["max_probe_deviation"] <= 1e-8
          and eq2 and not eq3)
    print(f"  [z(z-2)]=[z] probe deviation: {ev1['max_probe_deviation']:.3e}")
    announce(7, "subspace equalities decided by reproducible multisets", ok,
             time.perf_counter() - start)


def _unit_sample_best(space, p, d, M, samples, seed):
    """Best ``Re g^(d)(0)`` over random unit vectors of ``span{z^j p}``: complex
    Gaussian coefficients normalized in the space norm, in batches of 2000."""
    span = construct.shift_span(space, p, M)
    v = span.functional(0j, d)
    rng = np.random.default_rng(seed)
    best = -math.inf
    for lo in range(0, samples, 2000):
        shape = (min(2000, samples - lo), span.count)
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = span.combine(X)
        best = max(best, float(np.max((X @ v).real / np.sqrt(space.inner(c, c).real))))
    return best


def test_criterion_8_extremal_dominance():
    start = time.perf_counter()
    p = kb.FactoredPoly(1.0, ((0.5 + 0j, 1),))
    Z = kb.ReproducibleMultiset(0, ((0.5 + 0j, 1),))
    ok = True
    for sp in (H2, A2):
        ss = kb.shapiro_shields(sp, Z, taylor_degree=400)
        rep = kb.extremal_check(sp, p, ss, M=400, slack=1e-9)
        # 10^4 random unit vectors of the span witness the supremum's side.
        best = _unit_sample_best(sp, p, 0, 400, 10_000, SEED)
        ok = ok and rep.verdict and best <= rep.span_supremum
        print(f"  {sp.label()}: span supremum {rep.span_supremum:.15f}, best of "
              f"10^4 samples {best:.6f}, construction {rep.construction_value:.15f}")
    announce(8, "no unit element of the span beats the construction", ok,
             time.perf_counter() - start)


def test_criterion_8_exact_check_refuses_a_near_miss():
    # A unit element of the span 1e-6 short of the supremum: the exact check
    # refuses it, while 10^4 random unit vectors would have passed it.
    M = 400
    Z = kb.ReproducibleMultiset(0, ((0.5 + 0.2j, 1), (-0.6 + 0.1j, 1), (0.1 - 0.7j, 1)))
    p = Z.polynomial()
    oracle = kb.oracle_result(A2, Z, M)
    exact = kb.extremal_check(A2, p, oracle, M=M)
    assert exact.verdict
    # h = z p is orthogonal to the oracle g (h(0) = 0), so only the norm grows:
    # g(0) / ||g + eps h|| = supremum - 1e-6.
    target = exact.span_supremum - 1e-6
    span = construct.shift_span(A2, p, M)
    h = span.combine(np.eye(span.count)[1])
    g = oracle.taylor.coefficients
    eps = math.sqrt((1.0 / target ** 2 - A2.inner(g, g).real) / A2.inner(h, h).real)
    mutant = kb.ConstructionResult(kb.TaylorSeries(g + eps * h, 0.0), 1.0 + 0j, "oracle")
    rep = kb.extremal_check(A2, p, mutant, M=M)
    assert abs(rep.construction_value - target) <= 1e-9
    assert rep.verdict is False
    assert _unit_sample_best(A2, p, 0, M, 10_000, SEED) <= rep.construction_value + 1e-9


def test_criterion_9_extraneous_zero_scan():
    start = time.perf_counter()
    report = kb.extraneous_zero_scan(
        A2, moduli=(0.8, 0.85, 0.9, 0.95), n_angles=8, radius=0.99,
        tol=1e-7, scalar_tol=1e-7, taylor_degree=600)
    elapsed = time.perf_counter() - start
    payload = dict(report)
    payload["report_sha256"] = hashlib.sha256(
        dumps_canonical(report).encode()).hexdigest()
    if report["instance_found"]:
        ok = bool(report["all_scalar_checks_pass"])
        note = f"{len(report['instances'])} instances, scalar checks pass={ok}"
    else:
        ok = report["note"] == "no instance found in region"
        note = "no instance found in region (signed report)"
    ok = ok and elapsed < 300.0 and len(payload["report_sha256"]) == 64
    print(f"  scanned {report['cases_scanned']} two-point multisets: {note}")
    announce(9, "extraneous-zero scan harness, conditional, < 5 min", ok,
             elapsed)


def test_criterion_10_inner_part_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 10)
    ok = True
    worst = 0.0
    for sp in (H2, A2):
        for _ in range(10):
            roots = []
            degree = int(rng.integers(0, 5))
            budget = degree
            if budget and rng.uniform() < 0.5:
                m = int(rng.integers(1, budget + 1))
                roots.append((0j, m))
                budget -= m
            while budget > 0:
                if rng.uniform() < 0.5:
                    r, lo = rng.uniform(0.1, 0.6), True
                else:
                    r, lo = rng.uniform(1.7, 3.0), False
                th = rng.uniform(0, 2 * math.pi)
                c = complex(r * np.exp(1j * th))
                if all(abs(c - q) > 1e-3 for q, _ in roots):
                    roots.append((c, 1))
                    budget -= 1
            lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            f = kb.FactoredPoly(lead, tuple(roots))
            J = kb.inner_projection_of(sp, f, 400)
            orc = kb.project_kernel_fd(sp, f, f.origin_multiplicity, 400)
            rep = kb.scalar_multiple_check(J, orc, tol=1e-8)
            ok = ok and rep.is_scalar_multiple
            worst = max(worst, rep.max_coeff_deviation)
    print(f"  worst coefficient deviation after scalar fit: {worst:.3e}")
    announce(10, "inner projection = kernel projection up to scalar, 1e-8",
             ok, time.perf_counter() - start)
