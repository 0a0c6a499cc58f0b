"""Numerical verification: innerness, zero structure, subspace laws, extremality.

Verdicts are computed from explicitly stated residuals and tolerances, and all
reports serialize to JSON with the exact configuration embedded so runs are
reproducible.  Randomized checks take an explicit seed (NumPy PCG64 generator;
a fixed batch schedule keeps the stream identical across runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import (CLUSTER_TOL, ConstructionResult, project_target_fd,
                        shapiro_shields, _span_gram, _shift_rows)
from .errors import TruncationDominatesResidual, ZeroFunction
from .jsonio import complex_pair
from .kernels import (DEFAULT_POLICY, KernelTerm, TaylorSeries, TruncationPolicy,
                      combo_derivative_at, kernel_pairing, shift_inner_product)
from .spaces import (FactoredPoly, ReproducibleMultiset, SpaceSpec,
                     reproducible_multiset)


# ---------------------------------------------------------------------------
# Innerness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerReport:
    """Shift-orthogonality residuals ``|<z^k B, B>|`` for k = 1..K."""

    norm_sq: float
    residuals: tuple
    max_relative_residual: float
    verdict: bool
    K: int

    def to_json(self) -> dict:
        return {
            "norm_sq": self.norm_sq,
            "residuals": [{"k": k, "abs": v, "err": e} for k, v, e in self.residuals],
            "max_relative_residual": self.max_relative_residual,
            "verdict": self.verdict,
            "K": self.K,
        }


def inner_report(space: SpaceSpec, B: TaylorSeries, K: int,
                 tol: float = 1e-8) -> InnerReport:
    """Check ``<z^k B, B> = 0`` for k = 1..K relative to ``norm_sq = <B, B>``."""
    value0, err0 = shift_inner_product(space, B, 0)
    norm_sq = float(value0.real)
    if norm_sq <= 0 or norm_sq <= err0:
        raise ZeroFunction("function is numerically zero; innerness is undefined")
    rows = []
    worst = 0.0
    for k in range(1, K + 1):
        value, err = shift_inner_product(space, B, k)
        rows.append((k, abs(value), err))
        worst = max(worst, abs(value) / norm_sq)
    return InnerReport(norm_sq, tuple(rows), worst, worst <= tol, K)


# ---------------------------------------------------------------------------
# Zero structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrescribedZeroCheck:
    point: complex
    multiplicity: int
    residuals: tuple           # (order, |B^(order)(point)|, err) for order < mult
    first_nonvanishing: float  # |B^(mult)(point)|

    def to_json(self) -> dict:
        return {
            "point": complex_pair(self.point),
            "mult": self.multiplicity,
            "residuals": [{"order": o, "abs": v, "err": e} for o, v, e in self.residuals],
            "first_nonvanishing": self.first_nonvanishing,
        }


@dataclass(frozen=True)
class ExtraneousZero:
    location: complex
    residual: float
    estimated_multiplicity: int

    def to_json(self) -> dict:
        return {
            "location": complex_pair(self.location),
            "residual": self.residual,
            "estimated_multiplicity": self.estimated_multiplicity,
        }


@dataclass(frozen=True)
class ZeroReport:
    prescribed: tuple
    extraneous: tuple
    verdict: bool
    norm: float
    radius: float
    tol: float

    def to_json(self) -> dict:
        return {
            "prescribed": [p.to_json() for p in self.prescribed],
            "extraneous": [e.to_json() for e in self.extraneous],
            "verdict": self.verdict,
            "norm": self.norm,
            "radius": self.radius,
            "tol": self.tol,
        }


def _derivative(space, result: ConstructionResult, point: complex, order: int,
                policy: TruncationPolicy) -> tuple[complex, float]:
    """B^(order)(point), certified via pairings when a combo is available."""
    if result.combo is not None:
        return combo_derivative_at(space, result.combo, point, order, policy)
    value = complex(result.taylor.derivative_at(point, order))
    if result.taylor.tail_bound == 0.0:
        return value, 0.0
    if space.diagonal:
        norm_sq, err = kernel_pairing(space, KernelTerm(point, order),
                                      KernelTerm(point, order), policy)
        return value, result.taylor.tail_bound * math.sqrt(abs(norm_sq) + err)
    return value, math.inf


def _point_eval_bound(space: SpaceSpec, radius: float, tail: float,
                      policy: TruncationPolicy) -> float:
    """Pointwise bound for the Taylor tail on the circle |z| = radius."""
    if tail == 0.0:
        return 0.0
    if not space.diagonal:
        return math.inf
    norm_sq, err = kernel_pairing(space, KernelTerm(radius, 0),
                                  KernelTerm(radius, 0), policy)
    return tail * math.sqrt(abs(norm_sq) + err)


def _estimate_multiplicity(space, result, point, policy, norm, tol, cap=6):
    for order in range(cap + 1):
        value, err = _derivative(space, result, point, order, policy)
        scale = max(1.0, math.factorial(order))
        if abs(value) > max(math.sqrt(tol) * norm * scale, 10.0 * err):
            return order
    return cap + 1


def zero_report(space: SpaceSpec, result: ConstructionResult,
                Z: ReproducibleMultiset, radius: float = 0.99,
                tol: float = 1e-8, scan: bool = True,
                policy: TruncationPolicy = DEFAULT_POLICY) -> ZeroReport:
    """Verify prescribed zeros/orders and scan ``|z| <= radius`` for extras.

    Prescribed checks: ``|B^(l)(beta_j)| <= tol * ||B||`` for ``l < m_j`` and the
    origin order is exactly ``m0`` (first nonvanishing derivative there).  The
    extraneous scan takes companion-matrix roots of the truncated Taylor
    polynomial, keeps those whose (certified, when possible) function residual
    passes ``|B(root)| <= tol * max(||B||, |B'(root)|)``, clusters them, and
    estimates multiplicities from successive derivative residuals.  Prescribed
    boundary points are checked individually for excess vanishing order.
    """
    norm_sq, _ = shift_inner_product(space, result.taylor, 0)
    norm = math.sqrt(max(float(norm_sq.real), 0.0))
    if norm == 0.0:
        raise ZeroFunction("cannot verify zeros of the zero function")

    prescribed = []
    prescribed_ok = True
    m0 = Z.origin_multiplicity
    origin_rows = []
    for ell in range(m0):
        v = math.factorial(ell) * result.taylor.coefficient(ell)
        origin_rows.append((ell, abs(v), 0.0))
        prescribed_ok = prescribed_ok and abs(v) <= tol * norm
    origin_first = abs(math.factorial(m0) * result.taylor.coefficient(m0))
    prescribed_ok = prescribed_ok and origin_first > tol * norm
    prescribed.append(PrescribedZeroCheck(0j, m0, tuple(origin_rows), origin_first))

    for point, mult in Z.entries:
        rows = []
        for ell in range(mult):
            v, e = _derivative(space, result, point, ell, policy)
            rows.append((ell, abs(v), e))
            prescribed_ok = prescribed_ok and abs(v) <= tol * norm + e
        first, _ = _derivative(space, result, point, mult, policy)
        prescribed.append(PrescribedZeroCheck(point, mult, tuple(rows), abs(first)))

    extraneous: list[ExtraneousZero] = []
    if scan:
        tail_pt = _point_eval_bound(space, radius, result.taylor.tail_bound, policy)
        if tail_pt > tol * norm:
            raise TruncationDominatesResidual(
                f"tail bound {tail_pt:.3e} on |z| = {radius} exceeds "
                f"tol * norm = {tol * norm:.3e}; increase the Taylor degree"
            )
        coeffs = result.taylor.coefficients
        top = float(np.max(np.abs(coeffs)))
        sig = np.nonzero(np.abs(coeffs) > 1e-15 * top)[0]
        trimmed = coeffs[: sig[-1] + 1] if len(sig) else coeffs[:1]
        roots = np.roots(trimmed[::-1]) if len(trimmed) > 1 else np.array([])
        candidates = [complex(r) for r in roots if abs(r) <= radius + 1e-9]
        accepted = []
        for root in candidates:
            if result.combo is not None:
                root = _newton_polish(space, result, root, policy)
                if abs(root) > radius + 1e-9:
                    continue
            val, err = _derivative(space, result, root, 0, policy)
            dval, _ = _derivative(space, result, root, 1, policy)
            scale = max(norm, abs(dval))
            if abs(val) <= tol * scale + err + tail_pt:
                accepted.append(root)
        for center, count in _cluster(accepted):
            near = None
            for point, mult in Z.entries:
                if abs(center - point) <= CLUSTER_TOL:
                    near = (point, mult)
                    break
            if near is None and abs(center) <= CLUSTER_TOL:
                near = (0j, m0)
            est = _estimate_multiplicity(space, result, center, policy, norm, tol)
            est = max(est, count)
            if near is None:
                val, _ = _derivative(space, result, center, 0, policy)
                extraneous.append(ExtraneousZero(center, abs(val), est))
            elif est > near[1]:
                val, _ = _derivative(space, result, near[0], near[1], policy)
                extraneous.append(ExtraneousZero(near[0], abs(val), est))
        # Boundary points sit outside the scan disk: flag excess order there.
        for check in prescribed:
            if abs(abs(check.point) - 1.0) <= 1e-9 and check.multiplicity > 0:
                if check.first_nonvanishing <= tol * norm:
                    extraneous.append(ExtraneousZero(
                        check.point, check.first_nonvanishing,
                        check.multiplicity + 1))

    verdict = prescribed_ok and not extraneous
    return ZeroReport(tuple(prescribed), tuple(extraneous), verdict,
                      norm, radius, tol)


def _newton_polish(space, result, root, policy, steps=4):
    z = root
    for _ in range(steps):
        v, _ = _derivative(space, result, z, 0, policy)
        d, _ = _derivative(space, result, z, 1, policy)
        if d == 0:
            break
        step = v / d
        z = z - step
        if abs(step) < 1e-14:
            break
    return z


def _cluster(points: list[complex]) -> list[tuple[complex, int]]:
    """Merge points within the clustering tolerance; returns (center, count)."""
    clusters: list[list[complex]] = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        for group in clusters:
            if abs(group[0] - p) <= CLUSTER_TOL:
                group.append(p)
                break
        else:
            clusters.append([p])
    return [(sum(g) / len(g), len(g)) for g in clusters]


# ---------------------------------------------------------------------------
# Scalar-multiple comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    is_scalar_multiple: bool
    lam: complex               # f ~= lam * g
    max_coeff_deviation: float

    def to_json(self) -> dict:
        return {
            "is_scalar_multiple": self.is_scalar_multiple,
            "lambda": complex_pair(self.lam),
            "max_coeff_deviation": self.max_coeff_deviation,
        }


def scalar_multiple_check(f: TaylorSeries, g: TaylorSeries,
                          tol: float = 1e-8) -> ComparisonReport:
    """Least-squares fit of ``f = lam * g`` over the common coefficient range."""
    n = min(len(f.coefficients), len(g.coefficients))
    fv = f.coefficients[:n]
    gv = g.coefficients[:n]
    fnorm = float(np.linalg.norm(fv))
    gnorm = float(np.linalg.norm(gv))
    if fnorm == 0.0 or gnorm == 0.0:
        raise ZeroFunction("scalar comparison against a numerically zero function")
    lam = complex(np.vdot(gv, fv) / (gnorm * gnorm))
    deviation = float(np.max(np.abs(fv - lam * gv)))
    return ComparisonReport(deviation <= tol * max(fnorm, gnorm), lam, deviation)


# ---------------------------------------------------------------------------
# Subspace equality
# ---------------------------------------------------------------------------

PROBE_POINTS = (0.37 - 0.21j, -0.18 + 0.33j)


def subspace_equal(space: SpaceSpec, p: FactoredPoly, q: FactoredPoly,
                   M: int = 400, tol: float = 1e-8) -> tuple[bool, dict]:
    """Decide ``[p] = [q]`` by reproducible-multiset equality, with oracle evidence.

    The decision is the multiset criterion R(p) = R(q); finite-dimensional
    projections of ``k_0^(d)`` and two probe kernels corroborate it (projection
    agreement alone cannot distinguish equality from the extraneous-zero
    phenomenon, so it is never the decider).
    """
    Rp = reproducible_multiset(space, p)
    Rq = reproducible_multiset(space, q)
    equal = Rp.approx_equal(Rq)
    probes = []
    d = Rp.origin_multiplicity
    targets = [(0j, d)] + [(g, 0) for g in PROBE_POINTS]
    for point, order in targets:
        proj_p = project_target_fd(space, p, M, point, order)
        proj_q = project_target_fd(space, q, M, point, order)
        n = max(len(proj_p.coefficients), len(proj_q.coefficients))
        cp = proj_p.padded(n - 1).coefficients
        cq = proj_q.padded(n - 1).coefficients
        scale = max(float(np.linalg.norm(cp)), float(np.linalg.norm(cq)), 1e-300)
        deviation = float(np.max(np.abs(cp - cq))) / scale
        probes.append({"target": complex_pair(point), "order": order,
                       "deviation": deviation})
    max_dev = max(pr["deviation"] for pr in probes)
    evidence = {
        "R_p": Rp.to_json(),
        "R_q": Rq.to_json(),
        "probes": probes,
        "max_probe_deviation": max_dev,
        "oracle_agrees": max_dev <= tol,
    }
    return equal, evidence


# ---------------------------------------------------------------------------
# Extremal optimality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalReport:
    d: int
    samples: int
    seed: int
    best_sample: float
    construction_value: float
    margin: float
    verdict: bool

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "samples": self.samples,
            "seed": self.seed,
            "best_sample": self.best_sample,
            "construction_value": self.construction_value,
            "margin": self.margin,
            "verdict": self.verdict,
        }


_EXTREMAL_BATCH = 2000  # fixed batch schedule keeps the RNG stream reproducible


def extremal_check(space: SpaceSpec, p: FactoredPoly, result: ConstructionResult,
                   samples: int = 10_000, seed: int = 0, M: int = 400,
                   slack: float = 1e-9) -> ExtremalReport:
    """Random unit vectors of the truncated subspace never beat the construction.

    Draws ``samples`` unit-norm elements of ``span{z^j p : j <= M - deg p}``
    (complex Gaussian coefficients, normalized in the space norm) and compares
    ``Re g^(d)(0)`` against the normalized construction, where d is the origin
    multiplicity of R(p).
    """
    d = reproducible_multiset(space, p).origin_multiplicity
    count = M - p.degree + 1
    rows = _shift_rows(p, count, M + 1)
    S = _span_gram(space, rows)
    functional = math.factorial(d) * rows[:, d]

    rng = np.random.default_rng(seed)
    best = -math.inf
    remaining = samples
    while remaining > 0:
        batch = min(_EXTREMAL_BATCH, remaining)
        X = rng.standard_normal((batch, count)) + 1j * rng.standard_normal((batch, count))
        norms = np.einsum("bj,bj->b", X @ S, X.conj()).real
        vals = (X @ functional).real / np.sqrt(norms)
        best = max(best, float(np.max(vals)))
        remaining -= batch

    norm_sq, _ = shift_inner_product(space, result.taylor, 0)
    norm = math.sqrt(float(norm_sq.real))
    construction_value = math.factorial(d) * float(result.taylor.coefficient(d).real) / norm
    return ExtremalReport(d, samples, seed, best, construction_value,
                          construction_value + slack - best,
                          best <= construction_value + slack)


# ---------------------------------------------------------------------------
# Extraneous-zero scan harness
# ---------------------------------------------------------------------------

def extraneous_zero_scan(space: SpaceSpec,
                         moduli=(0.8, 0.85, 0.9, 0.95),
                         n_angles: int = 8,
                         radius: float = 0.99,
                         tol: float = 1e-7,
                         scalar_tol: float = 1e-7,
                         taylor_degree: int = 600,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> dict:
    """Scan two-point multisets for construction zeros off the prescribed set.

    By rotation invariance of the built-in spaces the first point is taken on
    the positive real axis and the second sweeps ``n_angles`` relative angles.
    For every extraneous interior zero found, the construction for the
    augmented multiset must be a scalar multiple of the original; those checks
    are recorded in the report.  Finding nothing is a legitimate outcome and is
    reported as such.
    """
    instances = []
    cases = 0
    moduli = tuple(moduli)
    for i, r1 in enumerate(moduli):
        for r2 in moduli[i:]:
            for j in range(n_angles):
                theta = 2.0 * math.pi * j / n_angles
                b = r2 * complex(math.cos(theta), math.sin(theta))
                if abs(b - r1) < 10 * CLUSTER_TOL:
                    continue
                Z = ReproducibleMultiset(0, ((complex(r1), 1), (b, 1)))
                result = shapiro_shields(space, Z, route="determinant",
                                         policy=policy, taylor_degree=taylor_degree)
                report = zero_report(space, result, Z, radius=radius, tol=tol,
                                     policy=policy)
                cases += 1
                for extra in report.extraneous:
                    record = {
                        "multiset": Z.to_json(),
                        "extraneous": extra.to_json(),
                        "scalar_check": None,
                    }
                    loc = extra.location
                    if abs(loc) < 1.0 - 10 * CLUSTER_TOL and all(
                            abs(loc - pt) > 10 * CLUSTER_TOL for pt, _ in Z.entries):
                        augmented = ReproducibleMultiset(
                            0, Z.entries + ((loc, 1),))
                        aug = shapiro_shields(space, augmented, route="solve",
                                              policy=policy,
                                              taylor_degree=taylor_degree)
                        cmp = scalar_multiple_check(result.taylor, aug.taylor,
                                                    scalar_tol)
                        record["scalar_check"] = cmp.to_json()
                    instances.append(record)
    scalar_checks = [r["scalar_check"] for r in instances if r["scalar_check"]]
    return {
        "region": {
            "moduli": list(moduli),
            "angles": n_angles,
            "radius": radius,
            "tol": tol,
            "scalar_tol": scalar_tol,
            "taylor_degree": taylor_degree,
        },
        "cases_scanned": cases,
        "instance_found": bool(instances),
        "instances": instances,
        "all_scalar_checks_pass": (all(c["is_scalar_multiple"] for c in scalar_checks)
                                   if scalar_checks else None),
        "note": ("extraneous interior zero found" if instances
                 else "no instance found in region"),
    }
