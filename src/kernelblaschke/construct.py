"""Construction routes for inner functions with prescribed reproducible zeros.

Four independent routes build (up to the canonical gauge) the same function:

* ``shapiro_shields(..., route="determinant")`` -- cofactor expansion of the
  bordered Gram determinant ``D(k_0^(m0); k_0^(m0-1), ..., k_beta, ...)``.
* ``shapiro_shields(..., route="solve")`` -- coefficients from the Hermitian
  positive-definite system ``<phi, k_beta^(l)> = 0``.
* ``project_kernel_fd`` -- brute-force orthogonal projection of ``k_0^(d)``
  onto ``span{p, z p, ..., z^(M - deg p) p}`` using the monomial Gram; this is
  the oracle the kernel routes are checked against, and the only route
  available in non-diagonal spaces.  ``shift_span`` is the one builder of
  this span and its Gram, for every projection and the extremal supremum: in a
  diagonal space, and in the local Dirichlet space when ``p(zeta) = 0``, the
  Gram is Hermitian with half-bandwidth ``deg p`` and is kept and
  Cholesky-factored as a band, in O(M deg p^2); otherwise it is dense.
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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DegenerateResidueSystem, IllConditioned, SingularGram,
                     UnsupportedRoute, ZeroFunction)
from .jsonio import complex_pair
from .kernels import (DEFAULT_POLICY, KernelCombo, KernelTerm, TaylorSeries,
                      TruncationPolicy, _taylor_shift, combo_taylor,
                      derivative_functional, pairing_gram)
from .spaces import FactoredPoly, ReproducibleMultiset, SpaceSpec, rounding_gamma

CLUSTER_TOL = 1e-6
PIVOT_FLOOR = 1e-12
GAUGE_REL_TOL = 1e-9
# Below this normalized Gram determinant the cofactor expansion loses too many
# digits to double precision; such systems take the solve route instead.
DETERMINANT_TRUST_FLOOR = 1e-8
_INVERSE_ITERATIONS = 4


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
        out = np.broadcast_to(self.numerator(z) / self.denominator(z), z.shape)
        return complex(out) if out.ndim == 0 else out.copy()

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


def _canonicalize(taylor: TaylorSeries, combo: KernelCombo | None,
                  gauge_index: int | None = None):
    """Scale so the gauge coefficient is 1, in place on the series' own array
    (the caller's, held nowhere else); returns (taylor, combo, scale)."""
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
    coeffs.setflags(write=True)
    coeffs *= scale
    return (TaylorSeries(coeffs, abs(scale) * taylor.tail_bound),
            None if combo is None else combo.scaled(scale),
            scale)


def _cholesky_or_singular(G: np.ndarray) -> tuple[np.ndarray, bool]:
    """``scipy.linalg.cho_factor(G)``, or SingularGram when G is not definite."""
    try:
        return scipy.linalg.cho_factor(G)
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram("kernel Gram is numerically rank deficient") from exc


# ---------------------------------------------------------------------------
# Shapiro--Shields routes
# ---------------------------------------------------------------------------

def check_shapiro_shields(space: SpaceSpec, Z: ReproducibleMultiset,
                          route: str) -> None:
    """Raise what ``shapiro_shields(space, Z, route)`` would refuse before it
    builds anything: an unknown route, a multiset the space does not admit,
    clustered points, or a space without kernel pairings."""
    if route not in ("determinant", "solve"):
        raise ValueError(f"unknown route {route!r}")
    Z.validate_for(space)
    _reject_clusters(Z)
    if not space.diagonal:
        raise UnsupportedRoute(
            f"route {route!r} needs kernel pairings, which need a diagonal "
            f'space; {space.label()} is not diagonal, so use route: "oracle"')


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
    check_shapiro_shields(space, Z, route)
    u, vs = multiset_kernel_terms(Z)
    n = len(vs)
    # The bordered Gram: row 0 holds <u, v_j>, row i + 1 holds <v_i, v_j>.
    H, gram_err = pairing_gram(space, [u, *vs], policy)
    G, b = H[1:, 1:], H[0, 1:]
    cho = _cholesky_or_singular(G)

    used = route
    combo_terms = None
    if route == "determinant" and n <= 6:
        # Literal cofactor expansion along the vector column.  The column
        # kernels are normalized first (the projection, hence the canonical
        # result, is invariant under rescaling them), which keeps the minors
        # well scaled.
        scales = 1.0 / np.sqrt(np.abs(np.diag(G)))
        bordered = H[:, 1:] * np.outer(np.r_[1.0, scales], scales)
        delta = complex(np.linalg.det(bordered[1:]))
        if delta.real > DETERMINANT_TRUST_FLOOR:
            # D(u; s v) = (prod s^2) D(u; v), so dividing the equilibrated
            # cofactors by prod s^2 recovers the literal determinant values.
            unscale = 1.0 / float(np.prod(scales ** 2))
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
        c = np.conjugate(scipy.linalg.cho_solve(cho, np.conjugate(b)))
        combo_terms = [(u, 1.0 + 0j)] + [(vs[i], -c[i]) for i in range(n)]

    combo = KernelCombo(space, tuple(combo_terms))
    taylor = combo_taylor(space, combo, taylor_degree, policy)
    taylor, combo, scale = _canonicalize(taylor, combo, Z.origin_multiplicity)
    return ConstructionResult(taylor, scale, used, combo,
                              gram_err * abs(scale))


# ---------------------------------------------------------------------------
# Finite-dimensional projection oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftSpan:
    """The rows ``v_j = z^j p`` (0 <= j <= M - deg p, degrees 0..M) and their Gram.

    ``S[i, j] = <v_i, v_j>``.  When ``banded`` (every diagonal space, and the
    local Dirichlet space when ``p(zeta) = 0``) S is Hermitian and banded with
    half-bandwidth ``deg p``, and ``gram`` holds its lower band ``gram[k, i] =
    S[i + k, i]`` (``scipy.linalg.cholesky_banded`` layout); otherwise ``gram``
    is S itself.  The flag, not the shape, tells them apart: a span with
    fewer rows than ``deg p + 1`` has a square band.  Each product with the
    rows is the ``deg p + 1``-term stencil of p's coefficients, so no caller
    forms them.
    """

    p: np.ndarray        # coefficients of p, ascending
    M: int
    gram: np.ndarray
    banded: bool

    @property
    def count(self) -> int:
        return self.M - len(self.p) + 2

    def functional(self, point: complex, order: int) -> np.ndarray:
        """``v_j^(order)(point)`` for every row: ``rows @ derivative_functional``."""
        v = derivative_functional(point, order, self.M)
        return sliding_window_view(v, len(self.p)) @ self.p

    def combine(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of ``sum_j x_j v_j`` (``x @ rows``), per row of a 2-D x."""
        out = np.zeros(x.shape[:-1] + (self.M + 1,), dtype=complex)
        for n, c in enumerate(self.p):
            out[..., n: n + x.shape[-1]] += c * x
        return out

    def first_row(self) -> np.ndarray:
        """``S[0, :]``, the pairings ``<v_0, v_j>``."""
        if not self.banded:
            return self.gram[0]
        out = np.zeros(self.count, dtype=complex)
        out[: len(self.gram)] = np.conjugate(self.gram[:, 0])
        return out

    def solve(self, rhs: np.ndarray, first: int = 0) -> np.ndarray:
        """x with ``sum_j x_j <v_j, v_i> = rhs_i`` over the rows from ``first`` on.

        Cholesky-factors the Gram (as a band when ``banded``, in O(M deg p^2))
        and refuses with IllConditioned when it is not definite, its pivot
        ratio falls below PIVOT_FLOOR, or (banded) it is singular to working
        precision.
        """
        banded = self.banded
        S = self.gram[:, first:] if banded else self.gram[first:, first:]
        factor = scipy.linalg.cholesky_banded if banded else scipy.linalg.cholesky
        cho_solve = scipy.linalg.cho_solve_banded if banded else scipy.linalg.cho_solve
        try:
            L = factor(S, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise IllConditioned("spanning-set Gram is not positive definite") from exc
        pivots = np.abs(L[0] if banded else np.diag(L)) ** 2
        if pivots.min() < PIVOT_FLOOR * pivots.max():
            raise IllConditioned(
                f"Gram pivot ratio {pivots.min() / pivots.max():.3e} below {PIVOT_FLOOR}"
            )
        if banded:
            _refuse_singular_band(L, S[0].real)
        # <v_j, v_i> = S[j, i], so the system matrix is conj(S).
        return np.conjugate(cho_solve((L, True), np.conjugate(rhs)))


def _refuse_singular_band(L: np.ndarray, diagonal: np.ndarray) -> None:
    """IllConditioned when a banded Gram is singular within its factor's rounding.

    The computed band factor L (half-bandwidth d) is exact for ``S + E`` with
    ``|E_ij| <= gamma_(d+1) sqrt(S_ii S_jj)`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, Thm 10.3), so when the least eigenvalue of the
    equilibrated Gram ``D^-1 S D^-1`` (``D = diag(S)^(1/2)``) is at most
    ``gamma_(d+1)``, a perturbation of the diagonal alone that is within that
    bound makes S singular, and whether the factor exists is down to rounding.
    Inverse iteration estimates the eigenvalue from above, so every refusal
    holds, though a span just past the bound may still pass.
    """
    gamma = rounding_gamma(len(L))
    root = np.sqrt(diagonal)
    v = np.full(len(root), 1.0 / math.sqrt(len(root)))
    for _ in range(_INVERSE_ITERATIONS):
        y = root * scipy.linalg.cho_solve_banded((L, True), root * v)
        size = float(np.linalg.norm(y))
        v = y / size
    if 1.0 / size <= gamma:
        raise IllConditioned(
            f"spanning-set Gram is singular to working precision: least "
            f"equilibrated eigenvalue about {1.0 / size:.3e} <= {gamma:.3e}")


def check_span(p: FactoredPoly, M: int) -> None:
    """Raise ValueError when ``M < deg p`` leaves the span of ``z^j p`` empty."""
    if M < p.degree:
        raise ValueError(f"M = {M} leaves the span of p (degree {p.degree}) empty")


def check_projection(p: FactoredPoly, M: int) -> None:
    """Raise ValueError when ``M < deg p + 10``, too small to project onto that span."""
    if M < p.degree + 10:
        raise ValueError(f"M = {M} too small; need at least deg p + 10 = {p.degree + 10}")


def shift_span(space: SpaceSpec, p: FactoredPoly, M: int) -> ShiftSpan:
    """The span ``{z^j p : 0 <= j <= M - deg p}`` with its Gram (see ShiftSpan).

    The Gram, and whether it is kept as a band, is the space's ``span_gram``:
    a band from the weights in a diagonal space; the closed form in the local
    Dirichlet space, a band when ``p(zeta) = 0`` and dense otherwise; the
    dense ``rows G rows^H`` from the monomial Gram G elsewhere.
    """
    check_span(p, M)
    pc = p.coefficients()
    return ShiftSpan(pc, M, *space.span_gram(pc, M - len(pc) + 2))


def _project(space: SpaceSpec, p: FactoredPoly, M: int,
             targets: list[tuple[complex, int]]) -> list[np.ndarray]:
    """Coefficients of the projections of ``k_t^(m)``, ``(t, m)`` in targets.

    One span, one Gram factor and one solve with a column per target.
    """
    span = shift_span(space, p, M)
    # <k_t^(m), z^i p> = conj((z^i p)^(m)(t)).
    rhs = np.stack([span.functional(t, m) for t, m in targets], axis=1)
    return [span.combine(x) for x in span.solve(np.conjugate(rhs)).T]


def project_kernel_fd(space: SpaceSpec, p: FactoredPoly, d: int, M: int,
                      gauge_index: int | None = None) -> TaylorSeries:
    """Projection of ``k_0^(d)`` onto ``span{z^j p : 0 <= j <= M - deg p}``.

    Works from the monomial Gram alone, so it serves any space, including
    non-diagonal ones, and acts as the independent oracle for the kernel
    routes.  The result is an exact polynomial (tail 0), canonically
    normalized at its first significant coefficient.
    """
    check_projection(p, M)
    coeffs = _project(space, p, M, [(0j, d)])[0]
    return _canonicalize(TaylorSeries(coeffs, 0.0), None, gauge_index)[0]


def project_target_fd(space: SpaceSpec, p: FactoredPoly, M: int,
                      targets: list[tuple[complex, int]]) -> list[TaylorSeries]:
    """Raw (un-normalized) projections of ``k_t^(m)`` onto the p-span.

    Probe helper for subspace-equality evidence: one series per ``(t, m)`` in
    ``targets``, all solved against one Gram factor.  A target may be any
    finite point, since the right-hand side only takes derivatives of
    polynomials.
    """
    return [TaylorSeries(c, 0.0) for c in _project(space, p, M, targets)]


def inner_projection_of(space: SpaceSpec, f: FactoredPoly, M: int) -> TaylorSeries:
    """The part of f orthogonal to ``span{z f, z^2 f, ...}``, normalized.

    Computes ``J = f - proj(f onto span{z^j f : 1 <= j <= M - deg f})`` by the
    finite-dimensional Gram method.  At every truncation level this is a scalar
    multiple of ``project_kernel_fd(space, f, ord_0(f), M)``.
    """
    check_projection(f, M)
    span = shift_span(space, f, M)
    # Project f (row 0) onto the span of rows 1..; rhs_i = <f, z^i f> = S[0, i].
    x = span.solve(span.first_row()[1:], first=1)
    coeffs = span.combine(np.concatenate(([1.0], -x)))
    return _canonicalize(TaylorSeries(coeffs, 0.0), None, None)[0]


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


def _cauchy_tail_bound(num: np.ndarray, poles, N: int) -> float:
    """Hardy-norm bound on the Taylor tail past degree N of ``num / prod (1 - q z)^m``.

    ``poles`` holds the pairs ``(q, m)``.  For ``1 < r < 1 / max |q|`` the
    function is at most ``M(r) = sum |num_k| r^k / prod (1 - |q| r)^m`` on
    ``|z| = r``, so Cauchy's estimate ``|c_n| <= M(r) r^-n`` gives
    ``tail^2 <= M(r)^2 r^(-2(N+1)) / (1 - r^-2)``; the bound is the least of
    these over ``r = (1 / max |q|)^t`` for a few t in (0, 1).
    """
    if not poles:
        return 0.0
    r = (1.0 / max(abs(q) for q, _ in poles)) ** np.array([0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995])
    m_r = np.abs(num) @ r ** np.arange(len(num))[:, None]
    for q, m in poles:
        m_r = m_r / (1.0 - abs(q) * r) ** m
    return float(np.min(m_r * r ** -(N + 1.0) / np.sqrt(1.0 - r ** -2.0)))


def _rational_taylor(num: np.ndarray, poles, N: int) -> TaylorSeries:
    """Taylor series through degree N of ``num / prod (1 - q z)^m``, ``(q, m)`` in
    poles, with ``_cauchy_tail_bound`` as its tail bound."""
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[: len(num)] = num[: N + 1]
    for q, m in poles:
        coeffs = np.convolve(coeffs, _geometric_inverse_power(q, m, N))[: N + 1]
    return TaylorSeries(coeffs, _cauchy_tail_bound(num, poles, N))


def classical_blaschke(zeros, taylor_degree: int = 256):
    """Finite product of disk automorphism factors for interior zeros.

    Returns ``(rational, taylor, evaluator)``: the factored rational form, a
    canonical Taylor expansion, and the exact pointwise evaluator, which is
    ``rational`` itself (the canonical scale is baked into both).  Unimodular
    on the circle by construction; the gauge is therefore phase-only -- the coefficient of
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

    num_coeffs = FactoredPoly(scale, tuple(roots)).coefficients()
    poles = [(np.conjugate(point), mult) for point, mult in roots if point != 0]
    return rational, _rational_taylor(num_coeffs, poles, taylor_degree), rational


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
        # With den = (z - z_j)^2 h, the residue of (q r)/den at z_j is zero iff
        # q'(z_j) r h + q(z_j) (r' h - r h') = 0.
        a_j, b_j, _ = _double_pole_parts(r_coeffs, den_coeffs, zj)
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

    poles = [(np.conjugate(p), 2) for p in points]
    return rational, _rational_taylor(num_coeffs, poles, taylor_degree)


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Divide an ascending-coefficient polynomial by (z - root)."""
    n = len(coeffs) - 1
    out = np.zeros(n, dtype=complex)
    acc = 0j
    for i in range(n - 1, -1, -1):
        acc = coeffs[i + 1] + acc * root
        out[i] = acc
    return out


def _double_pole_parts(num: np.ndarray, den: np.ndarray,
                       pole: complex) -> tuple[complex, complex, complex]:
    """``(n h, n' h - n h', h)`` at ``pole``, where ``den = (z - pole)^2 h``.

    ``n`` has ascending coefficients ``num``; two synthetic divisions give h.
    Values and first derivatives are ``_taylor_shift``'s ``d_0`` and ``d_1``.
    """
    h = _deflate(_deflate(den, pole), pole)
    n_val, n_der, h_val, h_der = (complex(d) for c in (num, h)
                                  for d in _taylor_shift(c, pole, 1)[0])
    return n_val * h_val, n_der * h_val - n_val * h_der, h_val


def rational_residue_at_double_pole(rational: RationalRep, pole: complex) -> complex:
    """Residue of the rational function at a double root of its denominator.

    With den = (z - pole)^2 h, the residue is d/dz [num / h] at the pole.
    """
    _, slope, h_val = _double_pole_parts(rational.numerator.coefficients(),
                                         rational.denominator.coefficients(), pole)
    return slope / (h_val * h_val)


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
