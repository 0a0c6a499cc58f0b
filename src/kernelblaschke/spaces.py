"""Hilbert space models on the unit disk and the reproducibility structure of points.

A space is described by its monomial inner products ``<z^m, z^n>``.  The built-in
variants are:

* ``DirichletType(alpha)`` -- diagonal weights ``w_k = (k+1)^alpha``; ``alpha = 0``
  is the Hardy space, ``alpha = -1`` the Bergman space, ``alpha = 1`` the
  Dirichlet space.
* ``WeightedHardy(weight_rule)`` -- diagonal with user-supplied positive weights.
* ``LocalDirichlet(zeta)`` -- Hardy norm plus the local Dirichlet integral at a
  unimodular point ``zeta``; monomial Gram has the closed form
  ``<z^m, z^n> = delta_{mn} + min(m, n) * zeta^(m-n)``.
* ``CustomGram(gram_rule, reproducibility_table)`` -- arbitrary Hermitian monomial
  Gram; reproducibility of points must be declared explicitly.

A point ``beta`` is *reproducible of order m* when ``f -> f^(m)(beta)`` extends to
a bounded functional.  ``reproducible_order`` reports the top such order, and
``reproducible_multiset`` caps the zero multiset of a polynomial accordingly:
a zero of order ``m`` at ``beta`` is kept with multiplicity
``min(m, ro(beta) + 1)`` (the ``+1`` counts the bounded functionals of orders
``0..ro``, which is what the derivative-kernel constructions consume).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (InadmissibleMultiset, MissingReproducibility,
                     ToleranceUnreachable)
from .jsonio import complex_pair, pair_complex

ORIGIN_TOL = 1e-12
BOUNDARY_TOL = 1e-12
POINT_MATCH_TOL = 1e-9


# ---------------------------------------------------------------------------
# Reproducible order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReproducibleOrder:
    """Top derivative order with a bounded evaluation functional at a point.

    ``kind`` is one of ``"infinite"``, ``"finite"``, ``"none"``.  For
    ``"finite"`` the field ``order`` holds the largest bounded order r, so the
    functionals of orders 0..r are exactly the bounded ones (never a gapped
    set).
    """

    kind: str
    order: int | None = None

    def __post_init__(self):
        if self.kind not in ("infinite", "finite", "none"):
            raise ValueError(f"bad reproducible-order kind {self.kind!r}")
        if self.kind == "finite":
            if self.order is None or self.order < 0:
                raise ValueError("finite reproducible order needs order >= 0")
        elif self.order is not None:
            raise ValueError("order is only meaningful for kind='finite'")

    @classmethod
    def infinite(cls) -> "ReproducibleOrder":
        return cls("infinite")

    @classmethod
    def finite(cls, r: int) -> "ReproducibleOrder":
        return cls("finite", int(r))

    @classmethod
    def not_reproducible(cls) -> "ReproducibleOrder":
        return cls("none")

    def admits(self, m: int) -> bool:
        """Whether the order-m derivative functional is bounded at the point."""
        if self.kind == "infinite":
            return True
        if self.kind == "none":
            return False
        return 0 <= m <= self.order

    @property
    def cap(self) -> float:
        """Number of bounded derivative functionals: inf, order + 1, or 0."""
        if self.kind == "infinite":
            return math.inf
        if self.kind == "none":
            return 0
        return self.order + 1

    def to_json(self):
        if self.kind == "finite":
            return self.order
        return self.kind

    @classmethod
    def from_json(cls, obj) -> "ReproducibleOrder":
        if obj == "infinite":
            return cls.infinite()
        if obj == "none":
            return cls.not_reproducible()
        return cls.finite(int(obj))


# ---------------------------------------------------------------------------
# Space variants
# ---------------------------------------------------------------------------

class SpaceSpec:
    """Base class: a space is its monomial Gram plus reproducibility data.

    All variants live on the unit disk (``domain_radius = 1``), are immutable,
    and every method is pure, so instances are safe to share across threads.
    One cache is the exception: a CustomGram with a callable rule keeps its
    largest tabulated Gram (read-only), so the form does not re-run the rule
    per call.  Threads racing on it may each tabulate and overwrite it, which
    wastes work but serves the same values.
    """

    domain_radius = 1.0
    diagonal = False

    def monomial_inner(self, m: int, n: int) -> complex:
        raise NotImplementedError

    def reproducible_order(self, beta: complex) -> ReproducibleOrder:
        """Infinite inside the disk, none outside, ``_boundary_order`` on the circle."""
        beta = complex(beta)
        r = abs(beta)
        if r < 1.0 - BOUNDARY_TOL:
            return ReproducibleOrder.infinite()
        if r > 1.0 + BOUNDARY_TOL:
            return ReproducibleOrder.not_reproducible()
        return self._boundary_order(beta)

    def _boundary_order(self, beta: complex) -> ReproducibleOrder:
        raise NotImplementedError

    def gram(self, upto: int) -> np.ndarray:
        """Dense monomial Gram ``G[m, n] = <z^m, z^n>`` for m, n <= upto."""
        size = upto + 1
        out = np.empty((size, size), dtype=complex)
        for m in range(size):
            for n in range(m, size):
                v = complex(self.monomial_inner(m, n))
                out[m, n] = v
                out[n, m] = v.conjugate()
        return out

    def inner(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """``<f, g>`` for coefficient arrays F, G of equal length, rowwise over
        leading axes: the dense ``F gram(M) G^H``, M = F.shape[-1] - 1.

        Subclasses override it by their structure; ``inner(F, F)`` may then be
        real, so callers read norms as ``.real``.
        """
        return _rowdot(F @ self.gram(F.shape[-1] - 1), G)

    def span_gram(self, pc: np.ndarray, count: int) -> np.ndarray:
        """``S[i, j] = <z^i p, z^j p>`` for ``0 <= i, j < count``, where p has
        ascending coefficients ``pc``: the dense ``rows G rows^H``."""
        rows = np.zeros((count, count + len(pc) - 1), dtype=complex)
        for j in range(count):
            rows[j, j: j + len(pc)] = pc
        return rows @ self.gram(rows.shape[1] - 1) @ rows.conj().T

    def to_json(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__


class DiagonalSpace(SpaceSpec):
    """Space with ``<z^m, z^n> = w_n`` for m = n and 0 otherwise.

    Subclasses give the rule as ``weights_at(ks)`` over an ascending index
    array, and ``_boundary_order(beta)``, the reproducible order of every
    unimodular point.
    The facts about the weights that tail certificates need live here.
    """

    diagonal = True
    # alpha when w_n = (n+1)^alpha exactly; only then are boundary-point
    # series certified.
    decay_exponent: float | None = None
    _served = math.inf  # how many weights the rule can serve

    def weight(self, k: int) -> float:
        """The weight w_k: ``weights_at`` at one index."""
        return float(self.weights_at(np.array([k]))[0])

    def weights(self, upto: int) -> np.ndarray:
        """Weights w_0..w_upto as a vector."""
        return self.weights_at(np.arange(upto + 1))

    def monomial_inner(self, m: int, n: int) -> complex:
        return complex(self.weight(m)) if m == n else 0j

    def gram(self, upto: int) -> np.ndarray:
        return np.diag(self.weights(upto)).astype(complex)

    def inner(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        w = self.weights(F.shape[-1] - 1)
        if G is F:
            return np.abs(F) ** 2 @ w
        return (F * np.conjugate(G)) @ w

    def weight_ratio_sup(self, j0: int) -> float:
        """Upper bound for w_j / w_(j+1) over j >= j0.

        Probes a window and pads; rests on the precondition that the ratio
        drifts to 1.
        """
        try:
            w = self.weights_at(np.arange(j0, j0 + 130))
        except ToleranceUnreachable:  # a table that ends inside the window
            w = self.weights_at(np.arange(j0, j0 + 3))
        return float(np.max(w[:-1] / w[1:])) * 1.0001

    def shift_norm_bound(self, k: int) -> float:
        """Upper bound for the norm of multiplication by z^k.

        Probes sup sqrt(w_(n+k) / w_n) over the first 4097 + k weights (or the
        whole table); heuristic for generic rules.
        """
        w = self.weights(min(4096 + k, self._served - 1))
        return float(np.sqrt(np.max(w[k:] / w[: len(w) - k]))) * 1.0001


@dataclass(frozen=True)
class DirichletType(DiagonalSpace):
    """Diagonal space with weights ``w_k = (k+1)^alpha``."""

    alpha: float

    @property
    def decay_exponent(self) -> float:
        return self.alpha

    def weights_at(self, ks: np.ndarray) -> np.ndarray:
        return (ks + 1.0) ** self.alpha

    def _boundary_order(self, beta: complex) -> ReproducibleOrder:
        # Order-m functionals are bounded exactly when alpha > 2m+1, so the
        # top order is the largest integer strictly below (alpha-1)/2.
        half = (self.alpha - 1.0) / 2.0
        if half <= 0.0:
            return ReproducibleOrder.not_reproducible()
        r_top = math.floor(half)
        if r_top == half:
            r_top -= 1
        if r_top < 0:
            return ReproducibleOrder.not_reproducible()
        return ReproducibleOrder.finite(int(r_top))

    def weight_ratio_sup(self, j0: int) -> float:
        if self.alpha >= 0:
            return 1.0
        return ((j0 + 2.0) / (j0 + 1.0)) ** (-self.alpha)

    def shift_norm_bound(self, k: int) -> float:
        return max(1.0, (k + 1.0) ** (self.alpha / 2.0))

    def to_json(self) -> dict:
        return {"type": "dirichlet", "alpha": self.alpha}

    def label(self) -> str:
        return f"D_{self.alpha:g}"


def hardy_space() -> DirichletType:
    return DirichletType(0.0)


def bergman_space() -> DirichletType:
    return DirichletType(-1.0)


def dirichlet_space() -> DirichletType:
    return DirichletType(1.0)


@dataclass(frozen=True)
class WeightedHardy(DiagonalSpace):
    """Diagonal space with a user-supplied weight rule ``k -> w_k > 0``.

    ``weight_rule`` may be a callable or a sequence (a table).  A table must be
    long enough for every sum it serves: a series that needs an index past its
    end raises ``ToleranceUnreachable``.  The rule is assumed to satisfy
    ``lim w_k / w_{k+1} = 1``; this is a documented precondition, spot-checked on
    the first 10^3 indices (a drift beyond 10^-3 at the end of that window only
    warns, it does not raise).  ``boundary_order`` optionally declares the
    reproducible order of unimodular points; by default they are treated as not
    reproducible, since boundedness cannot be decided numerically from a bare
    rule.
    """

    weight_rule: object
    boundary_order: int | None = None

    def __post_init__(self):
        if not callable(self.weight_rule):
            table = np.array(self.weight_rule, dtype=float)
            table.setflags(write=False)
            object.__setattr__(self, "_table", table)
            object.__setattr__(self, "_served", len(table))
        probe = min(1000, self._served - 2)
        for k in (0, 1, 2, probe // 2, probe):
            if not 0 <= k < self._served:
                continue
            w = self.weight(k)
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"weight w_{k} = {w!r} is not strictly positive")
        if probe >= 16:
            # lim w_k/w_{k+1} = 1 is a documented precondition; warn when the
            # deviation at the end of the probe window exceeds 1e-3 and is not
            # shrinking across the window (a 1/k-type drift passes).
            half = abs(self.weight(probe // 2) / self.weight(probe // 2 + 1) - 1.0)
            drift = abs(self.weight(probe) / self.weight(probe + 1) - 1.0)
            if drift > 1e-3 and drift > 0.7 * half:
                warnings.warn(
                    f"weight ratio w_k/w_(k+1) is {1 + drift:.6g} at k={probe} "
                    "and not drifting to 1 (documented precondition)",
                    stacklevel=2,
                )

    def weights_at(self, ks: np.ndarray) -> np.ndarray:
        if callable(self.weight_rule):
            return np.array([float(self.weight_rule(k)) for k in ks.tolist()])
        if ks[-1] >= self._served:
            raise ToleranceUnreachable(
                f"weight table of length {self._served} cannot serve indices "
                f"up to {ks[-1]}; supply a table of length at least {ks[-1] + 1} "
                "or a callable rule"
            )
        return self._table[ks]

    def _boundary_order(self, beta: complex) -> ReproducibleOrder:
        if self.boundary_order is None:
            return ReproducibleOrder.not_reproducible()
        return ReproducibleOrder.finite(self.boundary_order)

    def to_json(self) -> dict:
        if callable(self.weight_rule):
            raise TypeError("callable weight rules do not serialize; use a table")
        out = {"type": "weights", "rule": "table",
               "values": [float(v) for v in self.weight_rule]}
        if self.boundary_order is not None:
            out["boundary_order"] = self.boundary_order
        return out

    def label(self) -> str:
        return "H2_w"


@dataclass(frozen=True)
class LocalDirichlet(SpaceSpec):
    """Hardy norm plus the local Dirichlet integral at a unimodular point.

    The monomial Gram has the closed form
    ``<z^m, z^n> = delta_{mn} + min(m, n) * zeta^(m-n)``
    (the second summand reads as 0 when ``min(m, n) = 0``).  Point evaluation is
    bounded at ``zeta`` but at no other point of the circle.
    """

    zeta: complex

    diagonal = False

    def __post_init__(self):
        z = complex(self.zeta)
        if abs(abs(z) - 1.0) > 1e-9:
            raise ValueError(f"zeta must be unimodular, got |zeta| = {abs(z)}")
        object.__setattr__(self, "zeta", z / abs(z))

    def monomial_inner(self, m: int, n: int) -> complex:
        base = 1.0 if m == n else 0.0
        k = min(m, n)
        if k == 0:
            return complex(base)
        return base + k * self.zeta ** (m - n)

    def _powers(self, upto: int) -> np.ndarray:
        """``zeta^0..zeta^upto``."""
        return self.zeta ** np.arange(upto + 1)

    def gram(self, upto: int) -> np.ndarray:
        idx = np.arange(upto + 1)
        pw = self._powers(upto)
        return (np.eye(upto + 1, dtype=complex)
                + np.minimum.outer(idx, idx) * np.outer(pw, pw.conj()))

    def _tails(self, F: np.ndarray) -> np.ndarray:
        """``T_k(F) = sum_(n >= k) F_n zeta^n`` for k = M..1 (one reverse cumsum)."""
        T = F[..., ::-1] * self._powers(F.shape[-1] - 1)[::-1]
        np.cumsum(T, axis=-1, out=T)
        return T[..., :-1]

    def inner(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """``sum F_n conj(G_n) + sum_(k >= 1) T_k(F) conj(T_k(G))``.

        The local Dirichlet integral of f is ``||(f - f(zeta)) / (z - zeta)||^2``
        in H^2, whose z^(k-1) coefficient is ``zeta^-k T_k(f)``, k >= 1 (Richter
        and Sundberg, Michigan Math. J. 38, 1991), so each form costs O(M).
        """
        tf = self._tails(F)
        tg = tf if G is F else self._tails(G)
        return _rowdot(F, G) + _rowdot(tf, tg)

    def span_gram(self, pc: np.ndarray, count: int) -> np.ndarray:
        """Closed form of the shift-span Gram, no monomial Gram.

        With ``P_r = sum_(m >= r) p_m zeta^m`` (``P_r = p(zeta)`` for r <= 0),
        ``T_k(z^i p) = zeta^i P_(k-i)``, so for ``i - j = s >= 0``
        ``S[i, j] = h_s + zeta^s (j |p(zeta)|^2 + c_s)`` with the H^2 band
        ``h_s = sum_n p_(n-s) conj(p_n)`` and ``c_s = sum_(r=1..d) P_(r-s)
        conj(P_r)``; for s >= d, ``c_s = p(zeta) conj(zeta p'(zeta))``.  When
        ``p(zeta) = 0`` the Gram is banded.
        """
        d = len(pc) - 1
        P = np.cumsum((pc * self._powers(d))[::-1])[::-1]
        # shifted[s, r - 1] = P_(r-s) for r = 1..d, s = 0..d.
        shifted = P[np.maximum(np.arange(1, d + 1) - np.arange(d + 1)[:, None], 0)]
        c = np.full(count, shifted[-1] @ P[1:].conj())
        c[: d + 1] = (shifted @ P[1:].conj())[:count]
        h = np.zeros(count, dtype=complex)
        for s in range(min(d, count - 1) + 1):
            h[s] = pc[: d + 1 - s] @ pc[s:].conj()
        idx = np.arange(count)
        pw = self._powers(count - 1)
        return (scipy.linalg.toeplitz(h, h.conj())
                + np.outer(pw, pw.conj()) * (np.minimum.outer(idx, idx) * abs(P[0]) ** 2
                                             + scipy.linalg.toeplitz(c, c.conj())))

    def _boundary_order(self, beta: complex) -> ReproducibleOrder:
        if abs(beta - self.zeta) <= POINT_MATCH_TOL:
            return ReproducibleOrder.finite(0)
        return ReproducibleOrder.not_reproducible()

    def to_json(self) -> dict:
        return {"type": "local_dirichlet", "zeta": complex_pair(self.zeta)}

    def label(self) -> str:
        return f"D_local({self.zeta:g})"


@dataclass(frozen=True)
class CustomGram(SpaceSpec):
    """Arbitrary Hermitian monomial Gram with declared reproducibility.

    ``gram_rule`` is a callable ``(m, n) -> complex`` or a square array.
    Whether a point has bounded derivative functionals cannot be decided
    numerically in general, so every queried point must appear in
    ``reproducibility_table`` -- a sequence of ``(point, ReproducibleOrder)``
    pairs; a missing entry raises ``MissingReproducibility``.

    The leading principal minors up to ``probe_size`` are checked positive at
    construction.
    """

    gram_rule: object
    reproducibility_table: tuple = ()
    probe_size: int = 8

    diagonal = False

    def __post_init__(self):
        table = tuple(
            (complex(point), order if isinstance(order, ReproducibleOrder)
             else ReproducibleOrder.from_json(order))
            for point, order in self.reproducibility_table
        )
        object.__setattr__(self, "reproducibility_table", table)
        if callable(self.gram_rule):
            object.__setattr__(self, "_tabulated", np.empty((0, 0), dtype=complex))
        else:
            arr = np.asarray(self.gram_rule, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("gram table must be square")
            object.__setattr__(self, "gram_rule", arr)
        size = min(self.probe_size, self._table_limit())
        # gram() mirrors the upper triangle, so the symmetry is read off the rule.
        raw = np.array([[self.monomial_inner(m, n) for n in range(size)]
                        for m in range(size)], dtype=complex)
        if not np.allclose(raw, raw.conj().T, atol=1e-10):
            raise ValueError("gram rule is not Hermitian on the probe window")
        probe = self.gram(size - 1)
        try:
            np.linalg.cholesky(probe)
        except np.linalg.LinAlgError as exc:
            raise ValueError("gram probe has a nonpositive leading minor") from exc

    def gram(self, upto: int) -> np.ndarray:
        """The table's upper triangle with its conjugate mirrored below (what
        ``monomial_inner`` entry by entry gives).  A callable rule is tabulated
        once, to the largest size asked so far, and served read-only."""
        if callable(self.gram_rule):
            table = self._tabulated
            if len(table) <= upto:
                table = super().gram(upto)
                table.setflags(write=False)
                object.__setattr__(self, "_tabulated", table)
            return table[: upto + 1, : upto + 1]
        size = self.gram_rule.shape[0]
        if upto >= size:
            raise _short_table(size, upto)
        arr = self.gram_rule[: upto + 1, : upto + 1]
        return np.where(np.triu(np.ones(arr.shape, dtype=bool), 1), arr, arr.conj().T)

    def _table_limit(self) -> int:
        if callable(self.gram_rule):
            return 1 << 30
        return self.gram_rule.shape[0]

    def monomial_inner(self, m: int, n: int) -> complex:
        if callable(self.gram_rule):
            return complex(self.gram_rule(m, n))
        arr = self.gram_rule
        if max(m, n) >= arr.shape[0]:
            raise _short_table(arr.shape[0], max(m, n))
        return complex(arr[m, n])

    def reproducible_order(self, beta: complex) -> ReproducibleOrder:
        b = complex(beta)
        for point, order in self.reproducibility_table:
            if abs(point - b) <= POINT_MATCH_TOL:
                return order
        raise MissingReproducibility(
            f"custom space has no reproducibility entry for point {b}"
        )

    def to_json(self) -> dict:
        if callable(self.gram_rule):
            raise TypeError("callable gram rules do not serialize; use a table")
        return {
            "type": "custom",
            "gram": "table",
            "values": [[complex_pair(v) for v in row] for row in self.gram_rule],
            "reproducibility": [
                {"point": complex_pair(p), "order": o.to_json()}
                for p, o in self.reproducibility_table
            ],
            "probe_size": self.probe_size,
        }


def _short_table(size: int, index: int) -> ToleranceUnreachable:
    return ToleranceUnreachable(
        f"gram table of size {size} cannot serve monomial index {index}; "
        f"supply a table of size at least {index + 1} (M + 1 for a span up to "
        "degree M) or a callable rule")


def _rowdot(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``sum_n F_n conj(G_n)`` over the last axis (real sums when G is F)."""
    if G is F:
        return (np.einsum("...n,...n->...", F.real, F.real)
                + np.einsum("...n,...n->...", F.imag, F.imag))
    return np.einsum("...n,...n->...", F, np.conjugate(G))


def space_from_json(obj: dict) -> SpaceSpec:
    kind = obj.get("type")
    if kind == "dirichlet":
        return DirichletType(float(obj["alpha"]))
    if kind == "weights":
        if obj.get("rule") != "table":
            raise ValueError(f"unsupported weight rule {obj.get('rule')!r}")
        return WeightedHardy(tuple(float(v) for v in obj["values"]),
                             boundary_order=obj.get("boundary_order"))
    if kind == "local_dirichlet":
        return LocalDirichlet(pair_complex(obj["zeta"]))
    if kind == "custom":
        values = np.array([[pair_complex(v) for v in row] for row in obj["values"]],
                          dtype=complex)
        table = tuple(
            (pair_complex(e["point"]), ReproducibleOrder.from_json(e["order"]))
            for e in obj.get("reproducibility", ())
        )
        return CustomGram(values, table, probe_size=int(obj.get("probe_size", 8)))
    raise ValueError(f"unknown space type {kind!r}")


# ---------------------------------------------------------------------------
# Factored polynomials
# ---------------------------------------------------------------------------

def polyval_derivative(coeffs: np.ndarray, z, order: int = 0):
    """``order``-th derivative at z of the polynomial with ascending ``coeffs``
    (what ``polyval`` returns, or ``0j`` for empty coefficients)."""
    c = coeffs
    for _ in range(order):
        c = np.polynomial.polynomial.polyder(c)
    if len(c) == 0:
        return 0j
    return np.polynomial.polynomial.polyval(z, c)


@dataclass(frozen=True)
class FactoredPoly:
    """Polynomial in factored form: ``leading * prod (z - point)^mult``.

    Duplicate root entries are merged; roots within ``ORIGIN_TOL`` of 0 are
    snapped to 0 so the origin multiplicity is unambiguous.
    """

    leading: complex
    roots: tuple = ()

    def __post_init__(self):
        lead = complex(self.leading)
        if lead == 0:
            raise ValueError("leading coefficient must be nonzero")
        merged: dict[complex, int] = {}
        for point, mult in self.roots:
            point = complex(point)
            mult = int(mult)
            if mult < 1:
                raise ValueError("root multiplicities must be positive")
            if abs(point) <= ORIGIN_TOL:
                point = 0j
            merged[point] = merged.get(point, 0) + mult
        ordered = tuple(sorted(merged.items(), key=lambda it: (it[0].real, it[0].imag)))
        object.__setattr__(self, "leading", lead)
        object.__setattr__(self, "roots", ordered)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    @property
    def origin_multiplicity(self) -> int:
        for point, mult in self.roots:
            if point == 0:
                return mult
        return 0

    def coefficients(self) -> np.ndarray:
        """Ascending-degree coefficient vector (length degree + 1)."""
        coeffs = np.array([self.leading], dtype=complex)
        for point, mult in self.roots:
            factor = np.array([-point, 1.0], dtype=complex)
            for _ in range(mult):
                coeffs = np.convolve(coeffs, factor)
        return coeffs

    def __call__(self, z: complex) -> complex:
        out = complex(self.leading)
        for point, mult in self.roots:
            out *= (z - point) ** mult
        return out

    def derivative_at(self, z: complex, order: int = 1) -> complex:
        return complex(polyval_derivative(self.coefficients(), z, order))

    def to_json(self) -> dict:
        return {
            "leading": complex_pair(self.leading),
            "roots": [{"point": complex_pair(p), "mult": m} for p, m in self.roots],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FactoredPoly":
        return cls(
            pair_complex(obj["leading"]),
            tuple((pair_complex(r["point"]), int(r["mult"])) for r in obj.get("roots", ())),
        )


# ---------------------------------------------------------------------------
# Reproducible multisets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReproducibleMultiset:
    """Finite multiset of points with derivative multiplicities.

    The origin is recorded separately as ``origin_multiplicity`` (possibly 0,
    always recorded explicitly); ``entries`` hold the distinct nonzero points
    with their multiplicities, sorted for deterministic serialization.
    """

    origin_multiplicity: int = 0
    entries: tuple = ()

    def __post_init__(self):
        m0 = int(self.origin_multiplicity)
        if m0 < 0:
            raise ValueError("origin multiplicity must be >= 0")
        normalized = []
        for point, mult in self.entries:
            point = complex(point)
            mult = int(mult)
            if abs(point) <= ORIGIN_TOL:
                raise ValueError("the origin is recorded via origin_multiplicity only")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            normalized.append((point, mult))
        ordered = tuple(sorted(normalized, key=lambda it: (it[0].real, it[0].imag)))
        for (a, _), (b, _) in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"point {a} listed twice; merge multiplicities")
        object.__setattr__(self, "origin_multiplicity", m0)
        object.__setattr__(self, "entries", ordered)

    @property
    def size(self) -> int:
        return self.origin_multiplicity + sum(m for _, m in self.entries)

    def as_list(self) -> list[complex]:
        """Flat listing with repetitions, origin first."""
        out = [0j] * self.origin_multiplicity
        for point, mult in self.entries:
            out.extend([point] * mult)
        return out

    def polynomial(self) -> FactoredPoly:
        """Monic polynomial whose zero multiset is exactly this multiset."""
        roots = list(self.entries)
        if self.origin_multiplicity:
            roots.append((0j, self.origin_multiplicity))
        return FactoredPoly(1.0, tuple(roots))

    def validate_for(self, space: SpaceSpec) -> None:
        """Raise InadmissibleMultiset unless every multiplicity fits its cap."""
        for point, mult in self.entries:
            cap = space.reproducible_order(point).cap
            if mult > cap:
                raise InadmissibleMultiset(
                    f"point {point} admits at most {cap} derivative functionals, "
                    f"multiset asks for {mult}"
                )

    def approx_equal(self, other: "ReproducibleMultiset", tol: float = 1e-9) -> bool:
        if self.origin_multiplicity != other.origin_multiplicity:
            return False
        if len(self.entries) != len(other.entries):
            return False
        return all(
            abs(p - q) <= tol and mp == mq
            for (p, mp), (q, mq) in zip(self.entries, other.entries)
        )

    def to_json(self) -> dict:
        return {
            "origin": self.origin_multiplicity,
            "points": [{"point": complex_pair(p), "mult": m} for p, m in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ReproducibleMultiset":
        return cls(
            int(obj.get("origin", 0)),
            tuple((pair_complex(e["point"]), int(e["mult"])) for e in obj.get("points", ())),
        )


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------

def monomial_inner(space: SpaceSpec, m: int, n: int) -> complex:
    """Inner product ``<z^m, z^n>`` in the given space."""
    if m < 0 or n < 0:
        raise ValueError("monomial degrees must be nonnegative")
    return space.monomial_inner(int(m), int(n))


def reproducible_order(space: SpaceSpec, beta: complex) -> ReproducibleOrder:
    """Top bounded derivative order of the point ``beta`` in the space."""
    return space.reproducible_order(complex(beta))


def reproducible_multiset(space: SpaceSpec, p: FactoredPoly) -> ReproducibleMultiset:
    """Zero multiset of ``p`` with multiplicities capped by reproducibility.

    A zero of order m at beta contributes ``min(m, cap(beta))`` where the cap
    counts bounded functionals (infinite inside the disk, ``ro + 1`` at a
    finitely reproducible point, 0 at a non-reproducible one).
    """
    m0 = 0
    entries = []
    for point, mult in p.roots:
        if point == 0:
            m0 += mult
            continue
        cap = space.reproducible_order(point).cap
        keep = mult if cap == math.inf else min(mult, int(cap))
        if keep >= 1:
            entries.append((point, keep))
    return ReproducibleMultiset(m0, tuple(entries))
