"""Construction routes for inner functions with prescribed reproducible zeros.

Four independent routes build (up to the canonical gauge) the same function:

* ``shapiro_shields(..., route="determinant")`` -- cofactor expansion of the
  bordered Gram determinant ``D(k_0^(m0); k_0^(m0-1), ..., k_beta, ...)``.
* ``shapiro_shields(..., route="solve")`` -- coefficients from the Hermitian
  positive-definite system ``<phi, k_beta^(l)> = 0``.
* ``project_kernel_fd`` -- brute-force orthogonal projection of ``k_0^(d)``
  onto ``span{p, z p, ..., z^(M - deg p) p}`` using the monomial Gram; this is
  the oracle the kernel routes are checked against, and the only route
  available in non-diagonal spaces.
* ``classical_blaschke`` / ``bergman_rational`` -- closed forms (the rational
  product in the Hardy space; the residue-vanishing construction in the
  Bergman space).

Canonical gauge: results are scaled so the Taylor coefficient at the origin
vanishing order equals 1 (that coefficient is nonzero for every valid
construction, so the gauge is well defined and makes "equal up to a constant"
statements testable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DegenerateResidueSystem, IllConditioned, SingularGram,
                     ZeroFunction)
from .jsonio import complex_pair
from .kernels import (DEFAULT_POLICY, KernelCombo, KernelTerm, TaylorSeries,
                      TruncationPolicy, combo_taylor, kernel_pairing)
from .spaces import (FactoredPoly, ReproducibleMultiset, SpaceSpec,
                     polyval_derivative)

CLUSTER_TOL = 1e-6
PIVOT_FLOOR = 1e-12
GAUGE_REL_TOL = 1e-9
# Below this normalized Gram determinant the cofactor expansion loses too many
# digits to double precision; such systems take the solve route instead.
DETERMINANT_TRUST_FLOOR = 1e-8


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed function: Taylor data, gauge scalar, and provenance.

    ``normalization`` is the scalar the raw route output was multiplied by to
    reach the canonical gauge.  ``combo`` is absent for the projection oracle
    (its output is a plain polynomial, not a kernel combination).
    ``pairing_error`` accumulates the certified truncation errors of the kernel
    pairings that entered the linear algebra (0 for exact routes).
    """

    taylor: TaylorSeries
    normalization: complex
    route: str
    combo: KernelCombo | None = None
    pairing_error: float = 0.0

    def to_json(self) -> dict:
        return {
            "route": self.route,
            "normalization": complex_pair(self.normalization),
            "taylor": self.taylor.to_json(),
            "combo": None if self.combo is None else self.combo.to_json(),
            "pairing_error": self.pairing_error,
        }


@dataclass(frozen=True)
class RationalRep:
    """Rational function numerator / denominator, both in factored form."""

    numerator: FactoredPoly
    denominator: FactoredPoly

    def __post_init__(self):
        for point, _ in self.denominator.roots:
            if abs(point) <= 1.0 + 1e-12:
                raise ValueError(f"denominator root {point} inside the closed disk")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        num = np.full(z.shape, complex(self.numerator.leading))
        for point, mult in self.numerator.roots:
            num = num * (z - point) ** mult
        den = np.full(z.shape, complex(self.denominator.leading))
        for point, mult in self.denominator.roots:
            den = den * (z - point) ** mult
        out = num / den
        return complex(out) if out.ndim == 0 else out

    def to_json(self) -> dict:
        return {"numerator": self.numerator.to_json(),
                "denominator": self.denominator.to_json()}


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def multiset_kernel_terms(Z: ReproducibleMultiset) -> tuple[KernelTerm, list[KernelTerm]]:
    """Bordered vector u = k_0^(m0) and the column kernels of the determinant.

    Column order follows the defining determinant: origin orders descending
    m0-1..0, then each point's orders descending m_j-1..0.
    """
    u = KernelTerm(0j, Z.origin_multiplicity)
    vs: list[KernelTerm] = []
    for ell in range(Z.origin_multiplicity - 1, -1, -1):
        vs.append(KernelTerm(0j, ell))
    for point, mult in Z.entries:
        for ell in range(mult - 1, -1, -1):
            vs.append(KernelTerm(point, ell))
    return u, vs


def _reject_clusters(Z: ReproducibleMultiset) -> None:
    points = [0j] * (1 if Z.origin_multiplicity else 0) + [p for p, _ in Z.entries]
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if a != b and abs(a - b) < CLUSTER_TOL:
                raise SingularGram(
                    f"points {a} and {b} are closer than {CLUSTER_TOL}; "
                    "merge them explicitly or separate them"
                )


def pairing_gram(space: SpaceSpec, terms: list[KernelTerm],
                 policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, float]:
    """Hermitian matrix ``G[i, j] = <v_i, v_j>`` with accumulated pairing error."""
    n = len(terms)
    G = np.zeros((n, n), dtype=complex)
    err = 0.0
    for i in range(n):
        for j in range(i, n):
            v, e = kernel_pairing(space, terms[i], terms[j], policy)
            G[i, j] = v
            G[j, i] = np.conjugate(v)
            err += e if i == j else 2 * e
    return G, err


def _canonicalize(taylor: TaylorSeries, combo: KernelCombo | None,
                  gauge_index: int | None = None):
    """Scale so the gauge coefficient is 1; returns (taylor, combo, scale, idx)."""
    coeffs = taylor.coefficients
    top = float(np.max(np.abs(coeffs)))
    if top == 0.0:
        raise ZeroFunction("construction produced the zero function")
    if gauge_index is None:
        sig = np.abs(coeffs) > GAUGE_REL_TOL * top
        gauge_index = int(np.argmax(sig))
    pivot = coeffs[gauge_index]
    if abs(pivot) <= 1e-13 * top:
        raise SingularGram(
            f"gauge coefficient at degree {gauge_index} vanished; "
            "the construction is numerically degenerate"
        )
    scale = 1.0 / pivot
    return (taylor.scaled(scale),
            None if combo is None else combo.scaled(scale),
            scale, gauge_index)


def _cholesky_or_singular(G: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularGram("kernel Gram is numerically rank deficient") from exc


# ---------------------------------------------------------------------------
# Shapiro--Shields routes
# ---------------------------------------------------------------------------

def shapiro_shields(space: SpaceSpec, Z: ReproducibleMultiset,
                    route: str = "determinant",
                    policy: TruncationPolicy = DEFAULT_POLICY,
                    taylor_degree: int = 256) -> ConstructionResult:
    """Kernel-combination construction vanishing on Z, canonically normalized.

    ``route="determinant"`` expands the bordered Gram determinant along its
    vector column (literal cofactors, kept as an independent path for up to 6
    column kernels; larger systems fall back to the solve route, which is the
    numerically preferred one anyway).  ``route="solve"`` solves the Hermitian
    positive-definite normal equations.  Both agree after normalization.
    """
    if route not in ("determinant", "solve"):
        raise ValueError(f"unknown route {route!r}")
    Z.validate_for(space)
    _reject_clusters(Z)
    if not space.diagonal:
        raise TypeError(
            "kernel pairings need a diagonal space; use project_kernel_fd "
            "for non-diagonal monomial Grams"
        )
    u, vs = multiset_kernel_terms(Z)
    n = len(vs)
    if n == 0:
        taylor = combo_taylor(space, KernelCombo(space, ((u, 1.0),)),
                              taylor_degree, policy)
        combo = KernelCombo(space, ((u, 1.0),))
        taylor, combo, scale, _ = _canonicalize(taylor, combo,
                                                Z.origin_multiplicity)
        return ConstructionResult(taylor, scale, route, combo, 0.0)

    G, gram_err = pairing_gram(space, vs, policy)
    b = np.zeros(n, dtype=complex)
    for i, v in enumerate(vs):
        val, e = kernel_pairing(space, u, v, policy)
        b[i] = val
        gram_err += e
    _cholesky_or_singular(G)

    used = route
    combo_terms = None
    if route == "determinant" and n <= 6:
        # Literal cofactor expansion along the vector column.  The column
        # kernels are normalized first (the projection, hence the canonical
        # result, is invariant under rescaling them), which keeps the minors
        # well scaled.  Row 0 holds <u, v_j>, row i holds <v_i, v_j>.
        scales = 1.0 / np.sqrt(np.abs(np.diag(G)))
        Gs = G * np.outer(scales, scales)
        delta = complex(np.linalg.det(Gs))
        if delta.real > DETERMINANT_TRUST_FLOOR:
            # D(u; s v) = (prod s^2) D(u; v), so dividing the equilibrated
            # cofactors by prod s^2 recovers the literal determinant values.
            unscale = 1.0 / float(np.prod(scales ** 2))
            bs = b * scales
            bordered = np.vstack([bs[None, :], Gs])
            coeffs = [delta * unscale]  # coefficient of u: det(G)
            for i in range(1, n + 1):
                minor = np.delete(bordered, i, axis=0)
                coeffs.append(complex((-1) ** i * np.linalg.det(minor))
                              * scales[i - 1] * unscale)
            combo_terms = [(u, coeffs[0])] + [(vs[i], coeffs[i + 1])
                                              for i in range(n)]
    if combo_terms is None:
        if route == "determinant":
            # Literal cofactors are kept only for small, well-conditioned
            # systems; everything else takes the stabler Hermitian solve.
            used = "solve"
        # phi = u - sum c_i v_i with <phi, v_m> = 0:  conj(G) c = b.
        cho = scipy.linalg.cho_factor(G)
        c = np.conjugate(scipy.linalg.cho_solve(cho, np.conjugate(b)))
        combo_terms = [(u, 1.0 + 0j)] + [(vs[i], -c[i]) for i in range(n)]

    combo = KernelCombo(space, tuple(combo_terms))
    taylor = combo_taylor(space, combo, taylor_degree, policy)
    taylor, combo, scale, _ = _canonicalize(taylor, combo, Z.origin_multiplicity)
    return ConstructionResult(taylor, scale, used, combo,
                              gram_err * abs(scale))


# ---------------------------------------------------------------------------
# Finite-dimensional projection oracle
# ---------------------------------------------------------------------------

def _shift_rows(p: FactoredPoly, count: int, width: int) -> np.ndarray:
    """Rows j = coefficients of z^j p, padded to ``width`` columns."""
    pc = p.coefficients()
    rows = np.zeros((count, width), dtype=complex)
    for j in range(count):
        rows[j, j: j + len(pc)] = pc
    return rows


def _span_gram(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    width = rows.shape[1]
    if space.diagonal:
        w = space.weights(width - 1)
        return (rows * w) @ rows.conj().T
    G = space.gram(width - 1)
    return rows @ G @ rows.conj().T


def _solve_projection(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations sum_j x_j <v_j, v_i> = rhs_i with pivot guard."""
    try:
        L = scipy.linalg.cholesky(S, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditioned("spanning-set Gram is not positive definite") from exc
    pivots = np.abs(np.diag(L)) ** 2
    if pivots.min() < PIVOT_FLOOR * pivots.max():
        raise IllConditioned(
            f"Gram pivot ratio {pivots.min() / pivots.max():.3e} below {PIVOT_FLOOR}"
        )
    # <v_j, v_i> = S[j, i], so the system matrix is conj(S).
    y = scipy.linalg.cho_solve((L, True), np.conjugate(rhs))
    return np.conjugate(y)


def project_kernel_fd(space: SpaceSpec, p: FactoredPoly, d: int, M: int,
                      gauge_index: int | None = None) -> TaylorSeries:
    """Projection of ``k_0^(d)`` onto ``span{z^j p : 0 <= j <= M - deg p}``.

    Works from the monomial Gram alone, so it serves any space, including
    non-diagonal ones, and acts as the independent oracle for the kernel
    routes.  The result is an exact polynomial (tail 0), canonically
    normalized at its first significant coefficient.
    """
    deg = p.degree
    if M < deg + 10:
        raise ValueError(f"M = {M} too small; need at least deg p + 10 = {deg + 10}")
    count = M - deg + 1
    rows = _shift_rows(p, count, M + 1)
    S = _span_gram(space, rows)
    # <k_0^(d), z^i p> = conj((z^i p)^(d)(0)) = conj(d! * rows[i, d]).
    rhs = math.factorial(d) * np.conjugate(rows[:, d])
    x = _solve_projection(S, rhs)
    coeffs = x @ rows
    taylor, _, _, _ = _canonicalize(TaylorSeries(coeffs, 0.0), None, gauge_index)
    return taylor


def project_target_fd(space: SpaceSpec, p: FactoredPoly, M: int,
                      target_point: complex, target_order: int) -> TaylorSeries:
    """Raw (un-normalized) projection of ``k_target^(order)`` onto the p-span.

    Probe helper for subspace-equality evidence; the target must be a point
    where polynomial evaluation of that order makes sense (any finite point --
    the right-hand side only uses derivatives of polynomials).
    """
    deg = p.degree
    count = M - deg + 1
    if count < 2:
        raise ValueError("M too small for the polynomial span")
    rows = _shift_rows(p, count, M + 1)
    S = _span_gram(space, rows)
    ders = np.array([polyval_derivative(row, target_point, target_order)
                     for row in rows], dtype=complex)
    x = _solve_projection(S, np.conjugate(ders))
    return TaylorSeries(x @ rows, 0.0)


def inner_projection_of(space: SpaceSpec, f: FactoredPoly, M: int) -> TaylorSeries:
    """The part of f orthogonal to ``span{z f, z^2 f, ...}``, normalized.

    Computes ``J = f - proj(f onto span{z^j f : 1 <= j <= M - deg f})`` by the
    finite-dimensional Gram method.  At every truncation level this is a scalar
    multiple of ``project_kernel_fd(space, f, ord_0(f), M)``.
    """
    deg = f.degree
    if M < deg + 10:
        raise ValueError(f"M = {M} too small; need at least deg f + 10 = {deg + 10}")
    count = M - deg + 1
    rows = _shift_rows(f, count, M + 1)
    S = _span_gram(space, rows)
    # Project f (row 0) onto the span of rows 1..; rhs_i = <f, z^i f> = S[0, i].
    x = _solve_projection(S[1:, 1:], S[0, 1:])
    coeffs = rows[0] - x @ rows[1:]
    taylor, _, _, _ = _canonicalize(TaylorSeries(coeffs, 0.0), None, None)
    return taylor


def oracle_result(space: SpaceSpec, Z: ReproducibleMultiset, M: int = 400) -> ConstructionResult:
    """Projection-oracle construction for a reproducible multiset."""
    p = Z.polynomial()
    taylor = project_kernel_fd(space, p, Z.origin_multiplicity, M,
                               gauge_index=Z.origin_multiplicity)
    return ConstructionResult(taylor, 1.0 + 0j, "oracle", None, 0.0)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _as_root_list(zeros) -> list[tuple[complex, int]]:
    merged: dict[complex, int] = {}
    for entry in zeros:
        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[1], int):
            point, mult = complex(entry[0]), int(entry[1])
        else:
            point, mult = complex(entry), 1
        merged[point] = merged.get(point, 0) + mult
    return sorted(merged.items(), key=lambda it: (it[0].real, it[0].imag))


def _geometric_inverse_power(q: complex, m: int, N: int) -> np.ndarray:
    """Coefficients of 1 / (1 - q z)^m through degree N."""
    ns = np.arange(N + 1)
    binoms = np.ones(N + 1)
    for i in range(1, m):
        binoms *= (ns + i) / i
    return binoms * q ** ns


def _cauchy_tail_estimate(evaluate, pole_radius: float, N: int) -> float:
    """Hardy-norm tail bound from a Cauchy estimate on a circle of radius r.

    ``pole_radius`` is the modulus of the nearest singularity (> 1); the
    coefficient bound |c_n| <= M(r) r^-n with r = sqrt(pole_radius) gives
    tail^2 <= M^2 r^(-2(N+1)) / (1 - r^-2).  M(r) is a 512-point grid maximum
    with a 2% pad, so this is a numerical estimate, not a proof.
    """
    r = math.sqrt(pole_radius)
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    mags = np.abs(evaluate(r * np.exp(1j * theta)))
    m_r = float(np.max(mags)) * 1.02
    rinv = 1.0 / r
    return m_r * rinv ** (N + 1) / math.sqrt(1.0 - rinv * rinv)


def classical_blaschke(zeros, taylor_degree: int = 256):
    """Finite product of disk automorphism factors for interior zeros.

    Returns ``(rational, taylor, evaluator)``: the factored rational form,
    a canonical Taylor expansion, and an exact pointwise evaluator (the
    canonical scale is baked into both).  Unimodular on the circle by
    construction; the gauge is therefore phase-only -- the coefficient of
    ``z^m0`` is rotated to the positive real axis, not rescaled to 1, since a
    magnitude change would break ``|B| = 1`` on the circle.
    """
    roots = _as_root_list(zeros)
    for point, _ in roots:
        if abs(point) >= 1.0:
            raise ValueError(f"zero {point} is not in the open disk")
    num_leading = 1.0 + 0j
    den_leading = 1.0 + 0j
    den_roots = []
    low = 1.0 + 0j  # raw coefficient of z^m0: prod (-point)^mult
    for point, mult in roots:
        if point == 0:
            continue
        den_leading *= (-np.conjugate(point)) ** mult
        den_roots.append((1.0 / np.conjugate(point), mult))
        low *= (-point) ** mult
    scale = np.conjugate(low) / abs(low) if low != 1.0 else 1.0 + 0j
    rational = RationalRep(
        FactoredPoly(num_leading * scale, tuple(roots)),
        FactoredPoly(den_leading, tuple(den_roots)),
    )

    def evaluator(z):
        return rational(z)

    num_coeffs = FactoredPoly(scale, tuple(roots)).coefficients()
    coeffs = np.zeros(taylor_degree + 1, dtype=complex)
    coeffs[: len(num_coeffs)] = num_coeffs[: taylor_degree + 1]
    for point, mult in roots:
        if point == 0:
            continue
        series = _geometric_inverse_power(np.conjugate(point), mult, taylor_degree)
        coeffs = np.convolve(coeffs, series)[: taylor_degree + 1]
    if den_roots:
        pole = min(abs(p) for p, _ in den_roots)
        tail = _cauchy_tail_estimate(evaluator, pole, taylor_degree)
    else:
        tail = 0.0
    return rational, TaylorSeries(coeffs, tail), evaluator


def bergman_rational(zeros, taylor_degree: int = 256):
    """Residue-vanishing construction of the Bergman-space inner function.

    For distinct nonzero interior points the function is
    ``q(z) * prod (z - point_j) / prod (1 - conj(point_j) z)^2`` where q (of
    degree at most s) is pinned, up to scale, by requiring vanishing residues
    at the poles ``1/conj(point_j)``.  Returns ``(rational, taylor)`` in the
    canonical gauge; agrees with the determinant construction.
    """
    points = [complex(z) for z in zeros]
    s = len(points)
    if s == 0:
        raise ValueError("need at least one zero")
    if len({p for p in points}) != s:
        raise ValueError("points must be distinct")
    for p in points:
        if p == 0 or abs(p) >= 1.0:
            raise ValueError(f"point {p} must be nonzero and interior")

    r_coeffs = FactoredPoly(1.0, tuple((p, 1) for p in points)).coefficients()
    den_coeffs = np.array([1.0 + 0j])
    for p in points:
        factor = np.array([1.0, -np.conjugate(p)], dtype=complex)
        den_coeffs = np.convolve(den_coeffs, np.convolve(factor, factor))

    rows = np.zeros((s, s + 1), dtype=complex)
    for j, lam in enumerate(points):
        zj = 1.0 / np.conjugate(lam)
        # h_j = den / (z - z_j)^2 via two synthetic divisions (exact: double root).
        h = den_coeffs
        for _ in range(2):
            h = _deflate(h, zj)
        r_val, r_der, h_val, h_der = (complex(polyval_derivative(c, zj, k))
                                      for c in (r_coeffs, h) for k in (0, 1))
        # Residue of (q r)/den at z_j is zero iff
        # q'(z_j) r h + q(z_j) (r' h - r h') = 0.
        a_j = r_val * h_val
        b_j = r_der * h_val - r_val * h_der
        powers = zj ** np.arange(s + 1)
        drow = np.zeros(s + 1, dtype=complex)
        drow[1:] = np.arange(1, s + 1) * zj ** np.arange(s)
        rows[j] = drow * a_j + powers * b_j

    _, sv, vh = np.linalg.svd(rows)
    if sv[0] == 0.0 or sv[-1] < 1e-10 * sv[0]:
        raise DegenerateResidueSystem("residue conditions are rank deficient")
    q_coeffs = np.conjugate(vh[-1])

    num_coeffs = np.convolve(q_coeffs, r_coeffs)
    b0 = num_coeffs[0] / den_coeffs[0]
    if abs(b0) < 1e-12 * np.max(np.abs(num_coeffs)):
        raise DegenerateResidueSystem("construction vanished at the origin")
    num_coeffs = num_coeffs / b0
    q_coeffs = q_coeffs / b0

    keep = np.abs(q_coeffs) > 1e-12 * np.max(np.abs(q_coeffs))
    q_trim = q_coeffs[: int(np.max(np.nonzero(keep))) + 1]
    q_roots = [complex(r) for r in np.roots(q_trim[::-1])] if len(q_trim) > 1 else []
    num_roots = _as_root_list(points + q_roots)
    rational = RationalRep(
        FactoredPoly(q_trim[-1], tuple(num_roots)),
        FactoredPoly(den_coeffs[-1], tuple((1.0 / np.conjugate(p), 2) for p in points)),
    )

    coeffs = np.zeros(taylor_degree + 1, dtype=complex)
    coeffs[: len(num_coeffs)] = num_coeffs[: taylor_degree + 1]
    for p in points:
        series = _geometric_inverse_power(np.conjugate(p), 2, taylor_degree)
        coeffs = np.convolve(coeffs, series)[: taylor_degree + 1]
    pole = min(1.0 / abs(p) for p in points)
    tail = _cauchy_tail_estimate(rational, pole, taylor_degree)
    return rational, TaylorSeries(coeffs, tail)


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Divide an ascending-coefficient polynomial by (z - root)."""
    n = len(coeffs) - 1
    out = np.zeros(n, dtype=complex)
    acc = 0j
    for i in range(n - 1, -1, -1):
        acc = coeffs[i + 1] + acc * root
        out[i] = acc
    return out


def rational_residue_at_double_pole(rational: RationalRep, pole: complex) -> complex:
    """Residue of the rational function at a double root of its denominator.

    With den = (z - pole)^2 h, the residue is d/dz [num / h] at the pole.
    """
    num = rational.numerator.coefficients()
    den = rational.denominator.coefficients()
    h = _deflate(_deflate(den, pole), pole)
    n_val, n_der, h_val, h_der = (complex(polyval_derivative(c, pole, k))
                                  for c in (num, h) for k in (0, 1))
    return (n_der * h_val - n_val * h_der) / (h_val * h_val)


def multiset_from_combo(combo: KernelCombo) -> ReproducibleMultiset:
    """Multiset a kernel combination vanishes on, read off its support.

    An inner combination with top order m at a nonzero node vanishes there with
    multiplicity m + 1; at the origin the vanishing order equals the top order
    present (the bordered vector itself).
    """
    origin = 0
    entries = []
    for point, top in combo.support():
        if point == 0:
            origin = top
        else:
            entries.append((point, top + 1))
    return ReproducibleMultiset(origin, tuple(entries))
