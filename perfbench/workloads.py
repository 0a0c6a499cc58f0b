"""Inputs, references and tasks of the three benchmark workloads.

Every input is drawn from the workload seed, and every reference is derived
from those inputs: closed forms and zeta / Lerch values by mpmath at 40
digits, verdicts known by construction, and criterion 9's pass rule.  No
reference comes from a stored output of the library.

A task is what a user asks for: a construction plus its verification.  Its
``run`` makes the timed calls into the library; its ``check`` compares the
outputs with the reference afterwards, untimed.  Decks hold a fixed number
of tasks of each kind and a run executes whole decks, so the mix of a run,
and with it which kind of task sets the median and the tail, does not
depend on the seed or on where the deadline falls; the seed moves points,
angles and weights inside narrow strata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

import kernelblaschke as kb
from kernelblaschke import cli

mpmath.mp.dps = 40

A2 = kb.bergman_space()
H2 = kb.hardy_space()
D4 = kb.DirichletType(4.0)
KT = kb.KernelTerm

WORKLOADS = ("scan", "series", "crosscheck")
DECKS = 8  # distinct decks per run, enough that a 30 s run repeats no input


@dataclass
class Outcome:
    ok: bool
    note: str = ""
    # One entry per returned (value, err) pair checked against a
    # high-precision reference: True when |value - reference| > err.
    cert: tuple = ()


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    expects_refusal: bool = False
    planted: bool = False


def build(name: str, seed: int, scratch: str) -> list[Task]:
    """The tasks of one workload, inputs and references drawn from its seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "scan":
        return _scan(rng)
    if name == "series":
        return _series(rng)
    return _crosscheck(rng, scratch)


# ---------------------------------------------------------------------------
# Shared reference helpers
# ---------------------------------------------------------------------------

def _unit(theta: float) -> complex:
    return complex(math.cos(theta), math.sin(theta))


def _rel_close(value, ref, rel: float, err: float = 0.0) -> bool:
    return abs(mpmath.mpc(value) - ref) <= rel * abs(ref) + err


def _cert_violated(value_abs: float, err: float, ref) -> bool:
    """True when ``| |value| - |ref| | > err``, which implies |value - ref| > err."""
    return abs(mpmath.mpf(value_abs) - abs(ref)) > err


def _combo_value(combo, kernel, beta: complex):
    """Exact ``sum_i coef_i k_{p_i}(beta)`` of a returned combo (order-0 terms)."""
    total = mpmath.mpc(0)
    for term, coef in combo.terms:
        if term.order != 0:
            raise ValueError("reference covers order-0 kernel terms only")
        x = mpmath.conj(mpmath.mpc(term.point)) * mpmath.mpc(beta)
        total += mpmath.mpc(coef) * kernel(x)
    return total


def _prescribed_ok(rep) -> bool:
    """The prescribed-zero part of a zero report (criterion 6's residual rule)."""
    bar = rep.tol * rep.norm
    origin = rep.prescribed[0]
    ok = all(v <= bar for _, v, _ in origin.residuals)
    ok = ok and origin.first_nonvanishing > bar
    for check in rep.prescribed[1:]:
        ok = ok and all(v <= bar + e for _, v, e in check.residuals)
    return ok


def _prescribed_cert(rep, result, kernel) -> tuple:
    """Cert checks of the prescribed rows ``(|B(beta)|, err)`` of a zero report."""
    flags = []
    for check in rep.prescribed[1:]:
        for order, value, err in check.residuals:
            if order != 0:
                continue
            if result.combo is not None:
                ref = _combo_value(result.combo, kernel, check.point)
            else:  # closed forms vanish exactly on their zeros
                ref = mpmath.mpf(0)
            flags.append(_cert_violated(value, err, ref))
    return tuple(flags)


def _bergman_kernel(x):
    return 1 / (1 - x) ** 2


def _spiked_kernel(x):
    return 1 + x + 10 * x ** 2 + mpmath.mpf("1e-6") * x ** 3 / (1 - x)


def _spiked_rule(k: int) -> float:
    # Weights (1, 1, 0.1, 1e6, 1e6, ...): the one-point construction picks up
    # a second, unprescribed zero inside the disk.
    if k <= 1:
        return 1.0
    if k == 2:
        return 0.1
    return 1e6


# ---------------------------------------------------------------------------
# scan: shapiro_shields + zero_report with the extraneous-zero scan
# ---------------------------------------------------------------------------

# Strata of the larger modulus, which sets the trimmed degree and with it the
# cost of the companion-matrix roots.  A deck holds SCAN_PER_STRATUM clean
# tasks of each stratum and as many planted tasks, split between the two
# kinds, so the median falls inside the 0.85 stratum and, with at least
# three decks in a run, the tail inside the 0.95 stratum.
SCAN_STRATA = (0.80, 0.85, 0.90, 0.95)
SCAN_PER_STRATUM = 4
SCAN_DEGREE = 600
SCAN_TOL = 1e-7
SCALAR_TOL = 1e-7


def _augmented_checks(space, result, Z, rep, degree) -> list[bool]:
    """Criterion 9's rule: each extra zero must pass the augmented scalar check."""
    passed = []
    for extra in rep.extraneous:
        loc = extra.location
        interior = abs(loc) < 1.0 - 1e-5 and all(
            abs(loc - pt) > 1e-5 for pt, _ in Z.entries)
        if not interior:
            passed.append(False)
            continue
        aug = kb.shapiro_shields(space, kb.ReproducibleMultiset(
            0, Z.entries + ((loc, 1),)), route="solve", taylor_degree=degree)
        passed.append(kb.scalar_multiple_check(result.taylor, aug.taylor,
                                               SCALAR_TOL).is_scalar_multiple)
    return passed


def _scan_clean(rng, r_max: float) -> Task:
    r2 = float(np.clip(r_max + rng.uniform(-0.001, 0.001), 0.80, 0.95))
    r1 = float(rng.uniform(0.80, r2))
    rotation = rng.uniform(0.0, 2.0 * math.pi)
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if abs(r2 * _unit(theta) - r1) > 0.05:
            break
    Z = kb.ReproducibleMultiset(0, ((r1 * _unit(rotation), 1),
                                    (r2 * _unit(rotation + theta), 1)))

    def run():
        res = kb.shapiro_shields(A2, Z, route="determinant",
                                 taylor_degree=SCAN_DEGREE)
        rep = kb.zero_report(A2, res, Z, radius=0.99, tol=SCAN_TOL)
        return res, rep, _augmented_checks(A2, res, Z, rep, SCAN_DEGREE)

    def check(out) -> Outcome:
        res, rep, scalar = out
        cert = _prescribed_cert(rep, res, _bergman_kernel)
        if rep.verdict:
            return Outcome(True, cert=cert)
        ok = _prescribed_ok(rep) and bool(scalar) and all(scalar)
        return Outcome(ok, f"{len(rep.extraneous)} extra zeros, scalar {scalar}",
                       cert)

    return Task(f"clean-{r_max:.2f}", run, check)


def _scan_planted_classical(rng) -> Task:
    """H2 closed form with two zeros, of which only one is prescribed."""
    while True:
        a = rng.uniform(0.3, 0.7) * _unit(rng.uniform(0, 2 * math.pi))
        c = rng.uniform(0.3, 0.7) * _unit(rng.uniform(0, 2 * math.pi))
        if abs(a - c) > 0.2:
            break
    Z = kb.ReproducibleMultiset(0, ((complex(a), 1),))

    def run():
        _, taylor, _ = kb.classical_blaschke([a, c], 300)
        res = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)
        rep = kb.zero_report(H2, res, Z, radius=0.99, tol=1e-8)
        return res, rep, _augmented_checks(H2, res, Z, rep, 300)

    return Task("planted-classical", run, _planted_check(complex(c), None),
                planted=True)


def _spiked_second_zero(b: complex) -> complex:
    """The other zero of ``k_b(b) - k_b(z)`` in the spiked-weight space."""
    r2 = mpmath.mpf(abs(b)) ** 2
    K = _spiked_kernel(r2)
    A = 1 - K
    # (A + x + 10 x^2)(1 - x) + 1e-6 x^3 = 0 with x = conj(b) z.
    roots = mpmath.polyroots([mpmath.mpf(-10) + mpmath.mpf("1e-6"), 9, 1 - A, A],
                             maxsteps=200, extraprec=60)
    guess = -mpmath.mpf("0.1") - r2
    x = min(roots, key=lambda r: abs(r - guess))
    return complex(x / mpmath.conj(mpmath.mpc(b)))


def _scan_planted_spiked(rng) -> Task:
    space = kb.WeightedHardy(_spiked_rule)
    b = complex(rng.uniform(0.35, 0.65) * _unit(rng.uniform(0, 2 * math.pi)))
    Z = kb.ReproducibleMultiset(0, ((b, 1),))
    beta = _spiked_second_zero(b)

    def run():
        res = kb.shapiro_shields(space, Z, taylor_degree=120)
        rep = kb.zero_report(space, res, Z, radius=0.95, tol=1e-8)
        return res, rep, _augmented_checks(space, res, Z, rep, 120)

    return Task("planted-spiked", run, _planted_check(beta, _spiked_kernel),
                planted=True)


def _planted_check(location: complex, kernel):
    """The planted zero, and only it, is reported and passes criterion 9's rule."""
    def check(out) -> Outcome:
        res, rep, scalar = out
        cert = _prescribed_cert(rep, res, kernel)
        found = [e for e in rep.extraneous
                 if abs(e.location - location) <= 1e-6
                 and e.estimated_multiplicity == 1]
        ok = (not rep.verdict and _prescribed_ok(rep) and len(found) == 1
              and len(rep.extraneous) == 1 and all(scalar) and bool(scalar))
        return Outcome(ok, f"extras {[e.location for e in rep.extraneous]}, "
                           f"expected {location}, scalar {scalar}", cert)
    return check


def _scan(rng) -> list[Task]:
    tasks = []
    for _ in range(DECKS):
        for r_max in SCAN_STRATA:
            tasks.extend(_scan_clean(rng, r_max) for _ in range(SCAN_PER_STRATUM))
        for _ in range(SCAN_PER_STRATUM // 2):
            tasks.append(_scan_planted_classical(rng))
            tasks.append(_scan_planted_spiked(rng))
    return tasks


# ---------------------------------------------------------------------------
# series: long certified sums
# ---------------------------------------------------------------------------

NEAR_STRATA = (1e-2, 5e-3, 1e-3, 5e-4, 1e-4)  # 1 - |a|, 1 - |b|
CLIFF_MODULUS = 0.99999
# (alpha, order at a, order at b); every tuple here has alpha - orders = 3
# except the first, so these sums close after a similar number of terms.
DIRICHLET_CASES = ((2.5, 0, 0), (3.0, 0, 0), (4.0, 1, 0), (4.0, 0, 1),
                   (5.0, 1, 1), (6.0, 2, 1))
ZETA_CASES = ((2.5, 0, 0), (3.0, 0, 0), (4.0, 1, 0), (4.0, 1, 1), (6.0, 2, 1))
D4_DEGREE = 1_500_000
# Relative tolerance of a pairing value beyond its claimed err.  Sums at
# 1 - |a| = 1e-4 carry rounding errors up to ~2e-13 of ||k_a|| ||k_b||: up
# to ~1e-5 of the value at random angles and ~2.4e-5 where conj(a) b is
# near -1 and |ref| is smallest (worst of 1000 draws each).
PAIRING_REL = 1e-4


def _falling_poly(orders) -> list:
    """Coefficients (ascending in u = n + 1) of prod_m n!/(n-m)!."""
    poly = [mpmath.mpf(1)]
    for m in orders:
        for i in range(m):
            # multiply by (n - i) = (u - 1 - i)
            shifted = [mpmath.mpf(0)] + poly
            scaled = [-(1 + i) * c for c in poly] + [mpmath.mpf(0)]
            poly = [s + t for s, t in zip(shifted, scaled)]
    return poly


def _boundary_reference(alpha, a: complex, p: int, b: complex, q: int):
    """<k_a^(p), k_b^(q)> in D_alpha with |a| = |b| = 1, by Lerch / zeta."""
    am, bm = mpmath.mpc(a), mpmath.mpc(b)
    x = mpmath.conj(am) * bm
    x /= abs(x)  # the points are unimodular up to the rounding of their input
    alpha = mpmath.mpf(alpha)
    total = mpmath.mpc(0)
    for j, c in enumerate(_falling_poly((p, q))):
        if c == 0:
            continue
        s = alpha - j
        if x == 1:
            total += c * mpmath.zeta(s)
        else:
            total += c * mpmath.lerchphi(x, s, 1)
    return am ** p * mpmath.conj(bm) ** q * total


def _pairing_task(kind, space, a: KT, b: KT, ref, refusal=False) -> Task:
    """One pairing against its reference.

    The value must agree to ``PAIRING_REL * |ref|`` plus the claimed err, a
    value returned at the cliff included; the certificate check asks for
    agreement within err alone.
    """
    def run():
        return kb.kernel_pairing(space, a, b)

    def check(out) -> Outcome:
        value, err = out
        dev = abs(mpmath.mpc(value) - ref)
        return Outcome(dev <= PAIRING_REL * abs(ref) + err,
                       f"value {value} ref {complex(ref)} err {err}", (dev > err,))

    return Task(kind, run, check, expects_refusal=refusal)


def _closed_kernel(space, a: complex, b: complex):
    """<k_a, k_b> = K(conj(a) b) in D_0 (1/(1-x)) or D_-1 (1/(1-x)^2)."""
    x = mpmath.conj(mpmath.mpc(a)) * mpmath.mpc(b)
    return 1 / (1 - x) ** 2 if space is A2 else 1 / (1 - x)


def _interior_pairing(kind, space, a: complex, b: complex, refusal=False) -> Task:
    return _pairing_task(kind, space, KT(a, 0), KT(b, 0),
                         _closed_kernel(space, a, b), refusal)


def _boundary_pairing(kind, alpha, a: complex, p: int, b: complex, q: int) -> Task:
    return _pairing_task(kind, kb.DirichletType(alpha), KT(a, p), KT(b, q),
                         _boundary_reference(alpha, a, p, b, q))


def _d4_task() -> Task:
    """Z = {1} in D_4 at the truncation of the criterion-3 fixture."""
    Z = kb.ReproducibleMultiset(0, ((1.0 + 0j, 1),))
    z4 = mpmath.zeta(4)
    ref_u = z4 / (z4 - 1)      # coefficient of k_0 in the canonical gauge
    ref_v = -1 / (z4 - 1)      # coefficient of k_1

    def kernel(x):  # k_p(beta) in D_4 for p in {0, 1}, beta = 1
        return mpmath.mpf(1) if x == 0 else mpmath.zeta(4)

    def run():
        res = kb.shapiro_shields(D4, Z, taylor_degree=D4_DEGREE)
        inner = kb.inner_report(D4, res.taylor, K=20, tol=1e-6)
        zeros = kb.zero_report(D4, res, Z, tol=1e-8, scan=False)
        return res, inner, zeros

    def check(out) -> Outcome:
        res, inner, zeros = out
        coefs = {t.point: c for t, c in res.combo.terms}
        ok = (_rel_close(coefs[0j], ref_u, 1e-8)
              and _rel_close(coefs[1 + 0j], ref_v, 1e-8)
              and abs(res.taylor.coefficient(0) - 1.0) < 1e-12
              and inner.verdict and zeros.verdict and _prescribed_ok(zeros))
        return Outcome(ok, f"combo {coefs}, inner {inner.verdict}, "
                           f"zeros {zeros.verdict}",
                       _prescribed_cert(zeros, res, kernel))

    return Task("D4-boundary", run, check)


def _series(rng) -> list[Task]:
    tasks = []
    for _ in range(DECKS):
        deck = []
        for gap in NEAR_STRATA:
            for space, label in ((H2, "H2"), (A2, "A2")):
                a, b = (complex((1.0 - gap * rng.uniform(0.9, 1.0))
                                * _unit(rng.uniform(0, 2 * math.pi)))
                        for _ in range(2))
                deck.append(_interior_pairing(f"near-{label}-{gap:g}", space, a, b))
        a, b = (complex(CLIFF_MODULUS * _unit(rng.uniform(0, 2 * math.pi)))
                for _ in range(2))
        deck.append(_interior_pairing("cliff-A2", A2, a, b, refusal=True))
        for alpha, p, q in DIRICHLET_CASES:
            # arg(conj(a) b) near pi/2 keeps |1 - x|, hence the term count, steady.
            theta = rng.uniform(0, 2 * math.pi)
            a = _unit(theta)
            b = _unit(theta + math.pi / 2 + rng.uniform(-0.1, 0.1))
            deck.append(_boundary_pairing(f"dirichlet-{alpha:g}-{p}{q}",
                                          alpha, a, p, b, q))
        for alpha, p, q in ZETA_CASES:
            a = _unit(rng.uniform(0, 2 * math.pi))
            deck.append(_boundary_pairing(f"zeta-{alpha:g}-{p}{q}", alpha, a, p, a, q))
        deck.append(_d4_task())
        deck.append(_d4_task())
        tasks.extend(deck)
    return tasks


# ---------------------------------------------------------------------------
# crosscheck: the paper's cross-validation through the CLI
# ---------------------------------------------------------------------------

CROSS_M = 400
CUSTOM_M = 100
TABLE_LEN = 1024


def sample_multiset(rng, max_points=4, max_total=5, rlo=0.45, rhi=0.72, sep=0.52):
    """Criterion 2's generator: admissible interior multisets, orders <= 2."""
    while True:
        npts = int(rng.integers(1, max_points + 1))
        pts, mults = [], []
        tries = 0
        double_used = False
        while len(pts) < npts and tries < 400:
            tries += 1
            c = complex(rng.uniform(rlo, rhi) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
            if all(abs(c - q) > sep for q in pts):
                pts.append(c)
                m = int(rng.integers(1, 3))
                if m == 2 and double_used:
                    m = 1
                double_used = double_used or m == 2
                mults.append(m)
        if len(pts) < npts:
            continue
        m0 = int(rng.integers(0, 3))
        if m0 + sum(mults) <= max_total:
            return m0, list(zip(pts, mults))


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _multiset_json(m0, entries) -> dict:
    return {"origin": m0, "points": [{"point": _pair(p), "mult": m} for p, m in entries]}


def _poly_json(roots) -> dict:
    return {"leading": [1.0, 0.0],
            "roots": [{"point": _pair(p), "mult": m} for p, m in roots]}


def blaschke_coefficients(m0, entries, n):
    """Taylor coefficients 0..n of z^m0 prod ((z-a)/(1-conj(a) z))^m, gauge 1 at m0."""
    c = [mpmath.mpc(0)] * (n + 1)
    c[m0] = mpmath.mpc(1)
    for a, mult in entries:
        a = mpmath.mpc(a)
        ac = mpmath.conj(a)
        for _ in range(mult):
            c = [-a * c[0]] + [c[k - 1] - a * c[k] for k in range(1, n + 1)]
            for k in range(1, n + 1):
                c[k] += ac * c[k - 1]
    lead = c[m0]
    return [v / lead for v in c]


def _table_space(rng) -> dict:
    gamma = rng.uniform(-1.0, 1.0)
    beta = rng.uniform(0.0, 0.5)
    k = np.arange(TABLE_LEN, dtype=float)
    values = (k + 1.0) ** gamma * (1.0 + beta / (k + 1.0))
    return {"type": "weights", "rule": "table", "values": [float(v) for v in values]}


def _custom_space(rng, roots_caps) -> dict:
    """Hermitian positive definite Gram: diagonal plus a scaled KMS Toeplitz part."""
    size = CUSTOM_M + 1
    k = np.arange(size)
    d = (k + 1.0) ** rng.uniform(-0.5, 0.5)
    rho, phi, eps = rng.uniform(0.2, 0.5), rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 0.3)
    lag = np.subtract.outer(k, k)
    toeplitz = rho ** np.abs(lag) * np.exp(1j * phi * lag)
    gram = np.diag(d) + eps * np.sqrt(np.outer(d, d)) * toeplitz
    table = []
    for point, cap in roots_caps.items():
        if point == 0:
            continue
        order = "infinite" if cap == math.inf else ("none" if cap == 0 else cap - 1)
        table.append({"point": _pair(point), "order": order})
    return {"type": "custom", "gram": "table",
            "values": [[_pair(complex(v)) for v in row] for row in gram],
            "reproducibility": table}


class Caps:
    """Reproducibility caps of the generated spaces, known by construction."""

    def __init__(self, boundary):
        self.boundary = boundary  # callable: unimodular point -> cap

    def __call__(self, point: complex):
        r = abs(point)
        if r < 1.0 - 1e-9:
            return math.inf
        if r > 1.0 + 1e-9:
            return 0
        return self.boundary(point)

    def multiset(self, roots) -> dict:
        out = {}
        for point, mult in roots:
            keep = mult if point == 0 else min(mult, self(point))
            if keep:
                out[point] = out.get(point, 0) + keep
        return out


def dirichlet_caps(alpha: float) -> Caps:
    # An order-m functional at a boundary point is bounded iff alpha > 2m + 1.
    return Caps(lambda _: sum(1 for m in range(8) if alpha > 2 * m + 1))


def _interior_roots(rng, count, taken):
    out = []
    while len(out) < count:
        c = complex(rng.uniform(0.3, 0.7) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        if all(abs(c - q) > 0.2 for q in taken + out):
            out.append(c)
    return out


def _gen_poly(rng, boundary=None, boundary_mult=1):
    """Roots of a polynomial with interior, optional boundary and exterior roots."""
    roots = []
    m0 = int(rng.integers(0, 2))
    if m0:
        roots.append((0j, m0))
    taken = [boundary] if boundary is not None else []
    roots += [(c, 1) for c in _interior_roots(rng, int(rng.integers(1, 3)), taken)]
    if boundary is not None:
        roots.append((boundary, boundary_mult))
    roots.append((complex(rng.uniform(1.5, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))), 1))
    return roots


def _variant(rng, roots, caps, other_boundary=None):
    """A second polynomial whose subspace equality with the first is known."""
    choice = int(rng.integers(0, 4 if other_boundary is None else 5))
    roots = list(roots)
    if choice == 0:    # drop or add an exterior factor
        ext = [r for r in roots if abs(r[0]) > 1.0 + 1e-9]
        if ext:
            roots.remove(ext[0])
        else:
            roots.append((2.5 + 0.5j, 1))
    elif choice == 1:  # one more order at a boundary root
        bnd = [r for r in roots if abs(abs(r[0]) - 1.0) <= 1e-9]
        if bnd:
            roots[roots.index(bnd[0])] = (bnd[0][0], bnd[0][1] + 1)
        else:
            roots.append((2.5 + 0.5j, 1))
    elif choice == 2:  # an extra interior zero
        roots += [(c, 1) for c in _interior_roots(rng, 1, [r[0] for r in roots])]
    elif choice == 3:  # one more order at the origin
        origin = [r for r in roots if r[0] == 0]
        if origin:
            roots[roots.index(origin[0])] = (0j, origin[0][1] + 1)
        else:
            roots.append((0j, 1))
    else:              # a boundary root the space does not reproduce
        roots.append((other_boundary, 1))
    return roots


def _cli_runner(scratch):
    def run(task, cfg, seed=0):
        ok, path = cli.run_experiment(task, cfg, scratch, seed, quiet=True)
        with open(path, "r", encoding="utf-8") as handle:
            return ok, json.load(handle)
    return run


def _coeffs(taylor_json) -> np.ndarray:
    return np.array([complex(re, im) for re, im in taylor_json["coeffs"]])


def _crosscheck(rng, scratch) -> list[Task]:
    run_cli = _cli_runner(scratch)
    tasks = []
    for deck in range(DECKS):
        table = _table_space(rng)
        spaces = (("H2", {"type": "dirichlet", "alpha": 0.0}),
                  ("A2", {"type": "dirichlet", "alpha": -1.0}),
                  ("D1", {"type": "dirichlet", "alpha": 1.0}),
                  ("table", table))
        for label, space in spaces:
            m0, entries = sample_multiset(rng)
            base = {"space": space, "multiset": _multiset_json(m0, entries),
                    "taylor_degree": 256, "oracle_degree": CROSS_M}
            ref = blaschke_coefficients(m0, entries, 40) if label == "H2" else None
            tasks.append(_route_task(run_cli, f"{deck}-{label}", base, ref))
            tasks.append(_verdict_task(run_cli, "verify", f"{deck}-{label}",
                                       {**base, "K": 20, "tolerance": 1e-8}))
            tasks.append(_verdict_task(run_cli, "zeros", f"{deck}-{label}",
                                       {**base, "scan": False, "tolerance": 1e-8}))
        tasks.extend(_projection_tasks(rng, run_cli, deck))
    return tasks


def _route_task(run_cli, name, base, blaschke) -> Task:
    """Determinant, solve and oracle routes agree through degree 40 (criterion 2)."""
    def run():
        return [run_cli("construct", {**base, "name": f"{name}-{route}", "route": route})
                for route in ("determinant", "solve", "oracle")]

    def check(out) -> Outcome:
        coeffs = [_coeffs(rep["report"]["construction"]["taylor"])[:41]
                  for _, rep in out]
        worst = max(float(np.max(np.abs(x - y)))
                    for i, x in enumerate(coeffs) for y in coeffs[i + 1:])
        ok = all(flag for flag, _ in out) and worst <= 1e-8
        if blaschke is not None:
            dev = max(abs(mpmath.mpc(v) - r) for v, r in zip(coeffs[0], blaschke))
            ok = ok and dev <= 1e-8
        return Outcome(ok, f"route deviation {worst:.3e}")

    return Task(f"route-{name.split('-')[1]}", run, check)


def _verdict_task(run_cli, task, name, cfg) -> Task:
    """``verify`` and ``zeros`` hold their verdicts (criteria 3 and 6)."""
    def run():
        return run_cli(task, {**cfg, "name": f"{name}-{task}"})

    def check(out) -> Outcome:
        ok, rep = out
        body = rep["report"]
        if task == "verify":
            return Outcome(ok and body["inner_report"]["verdict"])
        zr = body["zero_report"]
        bar = zr["tol"] * zr["norm"]
        rows_ok = all(row["abs"] <= bar + row["err"]
                      for p in zr["prescribed"][1:] for row in p["residuals"])
        return Outcome(ok and zr["verdict"] and rows_ok)

    return Task(f"{task}-{name.split('-')[1]}", run, check)


def _oracle_check(roots, d, blaschke=None):
    """The projection is p times a polynomial, in the gauge at z^d."""
    def check(out) -> Outcome:
        ok, rep = out
        c = _coeffs(rep["report"]["taylor"])
        scale = float(np.sum(np.abs(c)))
        poly = np.polynomial.polynomial.Polynomial(c)
        vanish = max((abs(poly(p)) for p, _ in roots if 0 < abs(p) <= 1.0 + 1e-9),
                     default=0.0)
        ok = (ok and abs(c[d] - 1.0) <= 1e-9 and vanish <= 1e-8 * scale
              and float(np.max(np.abs(c[:d]), initial=0.0)) <= 1e-9 * scale)
        if blaschke is not None:
            dev = max(abs(mpmath.mpc(v) - r) for v, r in zip(c[:41], blaschke))
            ok = ok and dev <= 1e-8
        return Outcome(ok, f"vanish {vanish:.3e} gauge {c[d]}")
    return check


def _projection_tasks(rng, run_cli, deck) -> list[Task]:
    tasks = []
    seed = lambda: int(rng.integers(0, 2**31))  # noqa: E731

    # oracle: H2 against the Blaschke product of the interior zeros.
    roots = _gen_poly(rng)
    interior = [(p, m) for p, m in roots if 0 < abs(p) < 1.0]
    m0 = sum(m for p, m in roots if p == 0)
    tasks.append(_oracle_task(run_cli, f"{deck}-H2", {"type": "dirichlet", "alpha": 0.0},
                              roots, CROSS_M,
                              _oracle_check(roots, m0, blaschke_coefficients(m0, interior, 40))))

    # D_alpha with a boundary zero beyond or within its cap.
    alpha = float(rng.choice([2.0, 4.0]))
    caps = dirichlet_caps(alpha)
    eta = _unit(rng.uniform(0, 2 * math.pi))
    dspace = {"type": "dirichlet", "alpha": alpha}
    # Boundary orders stay at most 2 here, so that q's are at most 3: a
    # (z - eta)^4 factor at M = 400 drives the span Gram's pivot ratio below
    # the library's 1e-12 floor and subspace_equal raises IllConditioned.
    roots = _gen_poly(rng, eta, int(rng.integers(1, 3)))
    tasks.append(_oracle_task(run_cli, f"{deck}-Dalpha", dspace, roots, CROSS_M,
                              _oracle_check(roots, _origin(roots))))
    q_roots = _variant(rng, roots, caps)
    tasks.append(_subspace_task(run_cli, f"{deck}-Dalpha", dspace, roots, q_roots,
                                caps, CROSS_M))

    # Local Dirichlet space at zeta: only zeta is reproducible on the circle.
    zeta = _unit(rng.uniform(0, 2 * math.pi))
    lspace = {"type": "local_dirichlet", "zeta": _pair(zeta)}
    lcaps = Caps(lambda point: 1 if abs(point - zeta) <= 1e-9 else 0)
    other = zeta * _unit(rng.uniform(1.0, 5.0))
    for i in range(3):
        roots = _gen_poly(rng, zeta, int(rng.integers(1, 3)))
        q_roots = _variant(rng, roots, lcaps, other)
        tasks.append(_subspace_task(run_cli, f"{deck}-LD{i}", lspace, roots,
                                    q_roots, lcaps, CROSS_M))
    roots = _gen_poly(rng, zeta, 1)
    tasks.append(_oracle_task(run_cli, f"{deck}-LD", lspace, roots, CROSS_M,
                              _oracle_check(roots, _origin(roots))))
    tasks.append(_extremal_task(run_cli, f"{deck}-LD", lspace, roots, CROSS_M,
                                "oracle", seed()))

    # Diagonal extremal through the kernel route (no boundary zeros).
    label, alpha = [("H2", 0.0), ("A2", -1.0), ("D1", 1.0)][int(rng.integers(0, 3))]
    roots = _gen_poly(rng)
    tasks.append(_extremal_task(run_cli, f"{deck}-{label}",
                                {"type": "dirichlet", "alpha": alpha}, roots,
                                CROSS_M, "determinant", seed()))

    # Custom Gram: reproducibility declared per point, dense non-diagonal Gram.
    eta = _unit(rng.uniform(0, 2 * math.pi))
    boundary_cap = int(rng.integers(0, 2))
    roots = _gen_poly(rng, eta, 1)
    ccaps = Caps(lambda point: boundary_cap)
    q_roots = _variant(rng, roots, ccaps)
    declared = {p: ccaps(p) for p, _ in roots + q_roots}
    cspace = _custom_space(rng, declared)
    tasks.append(_subspace_task(run_cli, f"{deck}-CG", cspace, roots, q_roots,
                                ccaps, CUSTOM_M))
    tasks.append(_oracle_task(run_cli, f"{deck}-CG", cspace, roots, CUSTOM_M,
                              _oracle_check(roots, _origin(roots))))
    tasks.append(_extremal_task(run_cli, f"{deck}-CG", cspace, roots, CUSTOM_M,
                                "oracle", seed()))
    return tasks


def _origin(roots) -> int:
    return sum(m for p, m in roots if p == 0)


def _oracle_task(run_cli, name, space, roots, M, check) -> Task:
    cfg = {"name": f"{name}-oracle", "space": space, "p": _poly_json(roots), "M": M}
    return Task(f"oracle-{name.split('-')[1]}", lambda: run_cli("oracle", cfg), check)


def _subspace_task(run_cli, name, space, p_roots, q_roots, caps, M) -> Task:
    """[p] = [q] exactly when the capped zero multisets agree."""
    expected = caps.multiset(p_roots) == caps.multiset(q_roots)
    cfg = {"name": f"{name}-subspace", "space": space, "p": _poly_json(p_roots),
           "q": _poly_json(q_roots), "M": M}

    def check(out) -> Outcome:
        _, rep = out
        equal = rep["report"]["equal"]
        return Outcome(equal == expected, f"equal {equal}, expected {expected}")

    return Task(f"subspace-{name.split('-')[1].rstrip('012')}",
                lambda: run_cli("subspace", cfg), check)


def _extremal_task(run_cli, name, space, roots, M, route, seed) -> Task:
    """Random unit vectors of the subspace never beat the construction."""
    cfg = {"name": f"{name}-extremal", "space": space, "p": _poly_json(roots),
           "M": M, "route": route, "oracle_degree": M, "taylor_degree": 400}

    def check(out) -> Outcome:
        ok, rep = out
        return Outcome(ok and rep["report"]["extremal_report"]["verdict"],
                       f"margin {rep['report']['extremal_report']['margin']}")

    return Task(f"extremal-{name.split('-')[1]}",
                lambda: run_cli("extremal", cfg, seed), check)
