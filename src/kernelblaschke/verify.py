"""Numerical verification: innerness, zero structure, subspace laws, extremality.

Verdicts are computed from explicitly stated residuals and tolerances, and all
reports serialize to JSON.  The CLI embeds the configuration in each report so
runs are reproducible; a custom Gram or weight table is cited there by the
digest of the parsed array (``jsonio.table_digest``), not echoed.  No check
draws random numbers: extremal optimality is decided against the exact
supremum over a truncated span, so a report depends on its inputs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import (CLUSTER_TOL, ConstructionResult, project_target_fd,
                        shapiro_shields, shift_span)
from .errors import IllConditioned, TruncationDominatesResidual, ZeroFunction
from .jsonio import complex_pair
from .kernels import (DEFAULT_POLICY, KernelTerm, TaylorSeries, TruncationPolicy,
                      _taylor_shift, combo_derivative_at, kernel_pairing,
                      shift_inner_product, shift_inner_products)
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


def inner_report(space: SpaceSpec, B: TaylorSeries | ConstructionResult, K: int,
                 tol: float = 1e-8) -> InnerReport:
    """Check ``<z^k B, B> = 0`` for k = 1..K relative to ``norm_sq = <B, B>``.

    ``B`` is a series, or a ``ConstructionResult`` whose ``taylor`` is read.
    """
    if isinstance(B, ConstructionResult):
        B = B.taylor
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    (value0, err0), *products = shift_inner_products(space, B, range(K + 1))
    norm_sq = float(value0.real)
    if norm_sq <= 0 or norm_sq <= err0:
        raise ZeroFunction("function is numerically zero; innerness is undefined")
    rows = tuple((k, abs(value), err) for k, (value, err) in enumerate(products, 1))
    worst = max([0.0] + [v / norm_sq for _, v, _ in rows])
    return InnerReport(norm_sq, rows, worst, worst <= tol, K)


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
    """A zero of B off the prescribed multiset, or in excess of it.

    ``estimated_multiplicity`` is the certified number of zeros of B in a
    small disk about ``location``; ``residual`` is ``|B^(m)(location)|`` with
    m the prescribed multiplicity there (0 off the multiset).
    """

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


def _tail_bound_at(space: SpaceSpec, tail: float, point: complex, order: int,
                   policy: TruncationPolicy) -> float:
    """Bound on ``|T^(order)(point)|`` for a Taylor tail T of norm <= ``tail``.

    The kernel norm depends on ``|point|`` only, so the bound at ``point = r``
    holds on the whole circle ``|z| = r``.
    """
    if tail == 0.0:
        return 0.0
    if not space.diagonal:
        return math.inf
    k = KernelTerm(point, order)
    norm_sq, err = kernel_pairing(space, k, k, policy)
    return tail * math.sqrt(abs(norm_sq) + err)


def _derivative(space, result: ConstructionResult, point: complex, order: int,
                policy: TruncationPolicy) -> tuple[complex, float]:
    """``(B^(order)(point), err)``: the one way a construction is read at a point.

    With a combo it is ``combo_derivative_at``, certified via pairings (at the
    origin each pairing is one exact term, so err is 0.0 and the policy is not
    read).  Otherwise it is ``l! d_l``, l = order, by ``_taylor_shift``, with
    err ``l!`` times the rounding bound of ``d_l`` (whose gamma has room for
    the product by ``l!``) plus the tail bound at the point.
    """
    if result.combo is not None:
        return combo_derivative_at(space, result.combo, point, order, policy)
    shift, rounding = _taylor_shift(result.taylor.coefficients, point, order)
    scale = math.factorial(order)
    return (complex(scale * shift[order]),
            _tail_bound_at(space, result.taylor.tail_bound, point, order, policy)
            + scale * float(rounding[order]))


_COUNT_MAX_SAMPLES = 1 << 16


def _circle_values(coeffs: np.ndarray, radius: float,
                   m: int) -> tuple[np.ndarray, float]:
    """``B_N(radius e^(2 pi i k/m))`` for k < m by one FFT, and its rounding bound.

    The bound covers scaling ``c_n`` by ``radius^n`` and every butterfly of
    the transform: each of the ``log2 m`` stages adds a relative error of a
    few ulps to partial sums bounded by ``sum |c_n| radius^n``.
    """
    scaled = coeffs * radius ** np.arange(len(coeffs))
    values = np.fft.ifft(scaled, m, norm="forward")
    rounding = 10.0 * math.log2(m) * np.finfo(float).eps * float(np.sum(np.abs(scaled)))
    return values, rounding


def _certified_zero_count(coeffs: np.ndarray, radius: float,
                          tail_pt: float) -> tuple[int, np.ndarray]:
    """Zeros of B in ``|z| < radius`` by the argument principle, with the
    samples ``B_N(radius e^(2 pi i k/m))``, k < m, that gave it.

    The count is the winding number of ``B_N`` over the ``m`` samples.  It is
    certified when ``min |B_N|`` there exceeds ``tail_pt`` (``|B - B_N|`` on
    the circle, so Rouche's theorem carries the count from ``B_N`` to B) plus
    the arc length times ``sup |B_N'|`` (so no step of the argument reaches
    pi) plus twice the rounding bound of the samples.  ``m`` starts at
    ``2(N+1)`` rounded up to a power of two and doubles up to a cap, past
    which (a zero of B on or near the circle) ``IllConditioned`` is raised.
    """
    ns = np.arange(len(coeffs))
    slope = float(np.sum(ns * np.abs(coeffs) * radius ** np.maximum(ns - 1, 0)))
    m = 1 << (2 * len(coeffs) - 1).bit_length()
    while True:
        values, rounding = _circle_values(coeffs, radius, m)
        floor = tail_pt + 2.0 * math.pi * radius / m * slope + 2.0 * rounding
        if float(np.min(np.abs(values))) > floor:
            steps = np.angle(np.roll(values, -1) / values)
            return round(float(np.sum(steps)) / (2.0 * math.pi)), values
        if m >= _COUNT_MAX_SAMPLES:
            raise IllConditioned(f"cannot certify the zero count of B in |z| < {radius} "
                                 f"at {m} samples; choose another radius")
        m *= 2


# Singular values of the moment Hankel matrix below this fraction of the
# largest are rounding.  On 300 classical products at degree 600 with 2 to 5
# distinct zeros of order up to 3, |z| <= 0.85 and 0.05 apart, counted on
# |z| = 0.99, the distinct zeros' singular values stayed above 3e-7 and the
# others below 2e-13.
_RANK_TOL = 1e-10
_NEWTON_STEPS = 3


def _moment_zeros(coeffs: np.ndarray, radius: float, n: int,
                  values: np.ndarray) -> np.ndarray:
    """The distinct zeros of ``B_N`` in ``|z| < radius``, where it has n
    zeros counted with multiplicity, from its samples ``values`` on the circle
    (Delves and Lyness, *Math. Comp.* 21, 1967).

    With ``w = z / radius`` the moments ``s_k = mean(w^k z B_N'(z) / B_N(z))``
    over the samples, k < 2n, are ``sum m_j w_j^k`` over the zeros ``w_j`` of
    multiplicity ``m_j``: the FFT of ``n c_n radius^n`` gives ``z B_N'`` at
    the samples, and a second one the moments.  The Hankel matrix
    ``H = (s_(i+j))`` has the rank of the number of distinct zeros; compressed
    to that rank by its SVD ``U S V*``, the pencil ``(U* H_< V, S)`` with
    ``H_< = (s_(i+j+1))`` has the distinct ``w_j`` as eigenvalues (Kravanja
    and Van Barel, *Computing the Zeros of Analytic Functions*, LNM 1727,
    2000).  Nothing here is certified; ``_disk_count`` certifies each zero.
    """
    if n == 0:
        return np.zeros(0, complex)
    ns = np.arange(len(coeffs))
    derivs = np.fft.ifft(ns * coeffs * radius ** ns, len(values), norm="forward")
    moments = np.fft.ifft(derivs / values)[: 2 * n]
    index = np.add.outer(np.arange(n), np.arange(n))
    u, s, vh = np.linalg.svd(moments[index])
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    pencil = u[:, :rank].conj().T @ moments[index + 1] @ vh[:rank].conj().T
    zeros = radius * np.linalg.eigvals(pencil / s[:rank, None])
    # Each zero's multiplicity m by least squares on the moments.  A zero of
    # order m is a simple zero of B_N^(m-1), so Newton's steps on that
    # derivative polish it: the step is d_(m-1) / (m d_m), d the Taylor
    # coefficients at z, kept only where it lowers |d_(m-1)|.
    powers = (zeros[None, :] / radius) ** np.arange(2 * n)[:, None]
    orders = np.rint(np.linalg.lstsq(powers, moments, rcond=None)[0].real)
    for j, m in enumerate(orders.astype(int)):
        if m < 1:
            continue
        d = _taylor_shift(coeffs, zeros[j], m)[0]
        for _ in range(_NEWTON_STEPS):
            step = zeros[j] - d[m - 1] / (m * d[m])
            new = _taylor_shift(coeffs, step, m)[0]
            if not abs(new[m - 1]) < abs(d[m - 1]):
                break
            zeros[j], d = step, new
    return zeros


_DISK_TERMS = 24   # Taylor terms of B_N at a disk's centre that Pellet's test reads
_DISK_CAP = 1e-3   # largest disk around a located zero


def _disk_count(coeffs: np.ndarray, center: complex, rho: float,
                tail: float) -> int | None:
    """Zeros of B in ``|z - center| < rho`` by Pellet's test, or None.

    With ``d_k`` the Taylor coefficients of ``B_N`` at ``center`` for ``k <=
    _DISK_TERMS`` (``_taylor_shift``), the count is the index j of the
    largest ``|d_j| rho^j`` when that term exceeds the sum of the others,
    their rounding, the terms past ``_DISK_TERMS`` (Cauchy's estimate on
    ``|z - center| = 1 - |center|``, where ``|B_N| <= sum |c_n|``) and
    ``tail`` (``|B - B_N|`` on the disk), so Rouche's theorem carries j from
    ``d_j (z - center)^j`` to B.  Needs ``|center| + rho < 1``.
    """
    shift, rounding = _taylor_shift(coeffs, center, _DISK_TERMS)
    scale = rho ** np.arange(_DISK_TERMS + 1)
    terms = np.abs(shift) * scale
    q = rho / (1.0 - abs(center))
    far = float(np.sum(np.abs(coeffs))) * q ** (_DISK_TERMS + 1) / (1.0 - q)
    j = int(np.argmax(terms))
    certified = 2.0 * terms[j] > float(np.sum(terms)) + float(rounding @ scale) + far + tail
    return j if certified else None


def require_radius(radius: float) -> float:
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1); got {radius}")
    return radius


def zero_report(space: SpaceSpec, result: ConstructionResult,
                Z: ReproducibleMultiset, radius: float = 0.99,
                tol: float = 1e-8, scan: bool = True,
                policy: TruncationPolicy = DEFAULT_POLICY) -> ZeroReport:
    """Verify prescribed zeros/orders and scan ``|z| <= radius`` for extras.

    Prescribed checks, the origin ``(0, m0)`` first and then each entry of Z:
    ``|B^(l)(beta_j)| <= tol * ||B|| + err`` for ``l < m_j``, each value and
    err from ``_derivative``; at the origin also ``|B^(m0)(0)| > tol * ||B||``,
    so its order is exactly ``m0``.  The extraneous scan first counts the
    zeros of B in ``|z| < radius`` by the argument principle on FFT samples of
    the circle, certified against the Taylor tail, the spacing of the samples
    and their rounding.  When the prescribed checks pass and the count equals
    ``m0`` plus the multiplicities of the prescribed points inside the circle,
    there is no extraneous interior zero.  Otherwise the moments of ``B_N'/B_N`` over the
    same samples locate the count's distinct zeros (``_moment_zeros``), and
    Pellet's test (``_disk_count``) counts the zeros of B in disjoint disks,
    reaching at most ``_DISK_CAP`` past the circle: about the origin (when
    ``m0 > 0``), each prescribed point inside that reach, and each located
    zero in the closed disk that lies in no earlier disk, in ``(real, imag)``
    order.  A disk whose count exceeds its prescribed multiplicity (0 for a
    located zero) is an extraneous zero.  ``IllConditioned`` is raised when a
    count cannot be certified, on the circle (a zero of B on or near it) or
    in a disk, and when the disks count fewer zeros than the circle.
    Prescribed boundary points are checked individually for excess vanishing
    order.  ``radius`` must lie in ``(0, 1)``, since ``_disk_count`` needs
    ``|center| + rho < 1``.
    """
    require_radius(radius)
    norm_sq, _ = shift_inner_product(space, result.taylor, 0)
    norm = math.sqrt(max(float(norm_sq.real), 0.0))
    if norm == 0.0:
        raise ZeroFunction("cannot verify zeros of the zero function")

    prescribed = []
    prescribed_ok = True
    m0 = Z.origin_multiplicity
    for point, mult in ((0j, m0),) + Z.entries:
        rows = []
        for ell in range(mult):
            v, e = _derivative(space, result, point, ell, policy)
            rows.append((ell, abs(v), e))
            prescribed_ok = prescribed_ok and abs(v) <= tol * norm + e
        first, _ = _derivative(space, result, point, mult, policy)
        prescribed.append(PrescribedZeroCheck(point, mult, tuple(rows), abs(first)))
    prescribed_ok = prescribed_ok and prescribed[0].first_nonvanishing > tol * norm

    extraneous: list[ExtraneousZero] = []
    if scan:
        tail_pt = _tail_bound_at(space, result.taylor.tail_bound, radius, 0, policy)
        if tail_pt > tol * norm:
            raise TruncationDominatesResidual(
                f"tail bound {tail_pt:.3e} on |z| = {radius} exceeds "
                f"tol * norm = {tol * norm:.3e}; increase the Taylor degree"
            )
        coeffs = result.taylor.coefficients
        expected = m0 + sum(mult for point, mult in Z.entries if abs(point) < radius)
        inside, samples = _certified_zero_count(coeffs, radius, tail_pt)
        if not (prescribed_ok and inside == expected):
            roots = _moment_zeros(coeffs, radius, inside, samples)
            # Disks reach at most _DISK_CAP past the circle: room for a zero near it.
            outer = min(radius + _DISK_CAP, (1.0 + radius) / 2)
            tail_out = _tail_bound_at(space, result.taylor.tail_bound, outer, 0, policy)
            centers = ([(0j, m0)] if m0 else []) + [e for e in Z.entries if abs(e[0]) < outer]
            points = [c for c, _ in centers]
            centers += [(complex(r), 0) for r in sorted(roots, key=lambda z: (z.real, z.imag))
                        if abs(r) <= radius + 1e-9]
            disks: list[tuple[complex, float]] = []
            total = 0
            for center, mult in centers:
                if any(abs(center - c) < r for c, r in disks):
                    continue
                rho = min([_DISK_CAP, (outer - abs(center)) / 2]
                          + [abs(center - p) / 2 for p in points if p != center]
                          + [abs(center - c) - r for c, r in disks])
                count = _disk_count(coeffs, center, rho, tail_out)
                if count is None:
                    raise IllConditioned(
                        f"cannot certify the zero count of B in the disk of radius "
                        f"{rho:.3e} about {center}")
                disks.append((center, rho))
                total += count
                if count > mult:
                    val, _ = _derivative(space, result, center, mult, policy)
                    extraneous.append(ExtraneousZero(center, abs(val), count))
            if total < inside:
                raise IllConditioned(
                    f"the disks about the located zeros count {total} zeros of B "
                    f"where |z| < {radius} holds {inside}")
        # Boundary points sit outside the scan disk: flag excess order there.
        for check in prescribed:
            if abs(abs(check.point) - 1.0) <= 1e-9 and check.multiplicity > 0:
                if check.first_nonvanishing <= tol * norm:
                    extraneous.append(ExtraneousZero(
                        check.point, check.first_nonvanishing,
                        check.multiplicity + 1))

    verdict = bool(prescribed_ok) and not extraneous
    return ZeroReport(tuple(prescribed), tuple(extraneous), verdict,
                      norm, radius, tol)


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
    projections = zip(project_target_fd(space, p, M, targets),
                      project_target_fd(space, q, M, targets))
    for (point, order), (proj_p, proj_q) in zip(targets, projections):
        cp, cq = proj_p.coefficients, proj_q.coefficients
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
    span_supremum: float
    construction_value: float
    margin: float
    verdict: bool

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "span_supremum": self.span_supremum,
            "construction_value": self.construction_value,
            "margin": self.margin,
            "verdict": self.verdict,
        }


def extremal_check(space: SpaceSpec, p: FactoredPoly, result: ConstructionResult,
                   samples: int = 0, M: int = 400,
                   slack: float = 1e-9) -> ExtremalReport:
    """No unit element of the truncated subspace beats the construction.

    With ``R(p)`` the reproducible multiset of p, d its origin multiplicity,
    ``q = R(p).polynomial()`` and ``V = V_M(q) = span{z^j q : j <= M - deg q}``,
    Cauchy--Schwarz gives ``sup {Re g^(d)(0) : g in V, ||g|| = 1} =
    ||P_V k_0^(d)|| = sqrt(sum_j x_j v_j)``, where ``v_j = (z^j q)^(d)(0)``
    and x solves the span's Gram system for ``conj(v)`` (x holds the
    coefficients of ``P_V k_0^(d)``).  The construction maximizes ``Re
    g^(d)(0)`` over the unit elements of ``[p] = [q]``, and V (which holds
    ``V_M(p)``) lies in ``[q]``, so the verdict is ``span_supremum <=
    construction_value + slack``; the oracle, built on the same span, attains
    the supremum.  ``samples`` stays in the signature because the
    traced benchmark binds it (ROADMAP item 6); nothing is drawn, and 0 is its
    only accepted value.
    """
    if samples != 0:
        raise ValueError(
            f"samples = {samples}: extremal_check no longer draws random unit "
            "vectors, it compares with the exact span supremum; pass samples=0")
    R = reproducible_multiset(space, p)
    d = R.origin_multiplicity
    span = shift_span(space, R.polynomial(), M)
    v = span.functional(0j, d)
    supremum = math.sqrt(max(float((span.solve(np.conjugate(v)) @ v).real), 0.0))

    norm_sq, _ = shift_inner_product(space, result.taylor, 0)
    norm = math.sqrt(float(norm_sq.real))
    value, _ = _derivative(space, result, 0j, d, DEFAULT_POLICY)
    construction_value = float(value.real) / norm
    return ExtremalReport(d, supremum, construction_value,
                          construction_value + slack - supremum,
                          supremum <= construction_value + slack)


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
    reported as such.  ``radius`` must lie in ``(0, 1)``, as ``zero_report``'s.
    """
    require_radius(radius)
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
