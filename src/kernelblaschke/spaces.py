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
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (InadmissibleMultiset, MissingReproducibility,
                     ToleranceUnreachable)
from .jsonio import Field, complex_pair, json_number

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
            object.__setattr__(self, "order", json_number(
                self.order, int, "finite reproducible order", "non-negative"))
        elif self.order is not None:
            raise ValueError("order is only meaningful for kind='finite'")

    @classmethod
    def infinite(cls) -> "ReproducibleOrder":
        return cls("infinite")

    @classmethod
    def finite(cls, r: int) -> "ReproducibleOrder":
        return cls("finite", r)

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
        obj = Field.of(obj)
        if obj.value in ("infinite", "none"):
            return cls(obj.value)
        return cls.finite(obj.number(int, "non-negative"))


# ---------------------------------------------------------------------------
# Space variants
# ---------------------------------------------------------------------------

class SpaceSpec:
    """Base class: a space is its monomial Gram plus reproducibility data.

    All variants live on the unit disk (``domain_radius = 1``), are immutable,
    and every method is pure, so instances are safe to share across threads.
    One cache is the exception: a diagonal space, or a CustomGram given by a
    callable rule, keeps the values it has tabulated so far in one read-only
    array, so the rule runs once per index.  Threads racing on it may each
    tabulate and overwrite it, which wastes work but serves the same values.
    """

    domain_radius = 1.0
    diagonal = False
    # The input table as the array the space serves (a custom Gram's complex
    # array, a weight table's float array), or None for a space given by a rule.
    table = None
    _served = math.inf  # how many indices the space can serve: a table's length

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

    def span_gram(self, pc: np.ndarray, count: int) -> tuple[np.ndarray, bool]:
        """``(gram, banded)`` for ``S[i, j] = <z^i p, z^j p>``, ``0 <= i, j < count``,
        where p has ascending coefficients ``pc``.

        ``banded`` says which layout ``gram`` has: S's lower band ``gram[k, i] =
        S[i + k, i]``, k <= deg p (``scipy.linalg.cholesky_banded`` layout), or
        S itself.  Here S is the dense ``rows G rows^H``.
        """
        rows = np.zeros((count, count + len(pc) - 1), dtype=complex)
        for j in range(count):
            rows[j, j: j + len(pc)] = pc
        return rows @ self.gram(rows.shape[1] - 1) @ rows.conj().T, False

    def to_json(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__


class DiagonalSpace(SpaceSpec):
    """Space with ``<z^m, z^n> = w_n`` for m = n and 0 otherwise.

    Weights are served from one read-only array, kept out of equality, hash and
    repr: a table, or the rule's values, each evaluated once, as far as the
    largest index asked so far (8 bytes a weight: at most 16 MB at the default
    ``max_terms``).  Subclasses give the rule as ``_evaluate(ks)`` over the
    indices past the array's end, and ``_boundary_order(beta)``, the
    reproducible order of every unimodular point.
    The facts about the weights that tail certificates need live here.
    """

    diagonal = True
    # alpha when w_n = (n+1)^alpha exactly; only then are boundary-point
    # series certified.
    decay_exponent: float | None = None
    _values = np.empty(0)

    def _table(self, top: int) -> np.ndarray:
        """The served array, tabulated through index ``top`` at least."""
        if top >= self._served:
            raise ToleranceUnreachable(
                f"weight table of length {self._served} cannot serve indices up to {top}; "
                f"supply a table of length at least {top + 1} or a callable rule")
        values = self._values
        if top >= len(values):
            values = np.concatenate((values, self._evaluate(np.arange(len(values), top + 1))))
            values.setflags(write=False)
            object.__setattr__(self, "_values", values)
        return values

    def weight(self, k: int) -> float:
        """The weight w_k."""
        return float(self._table(k)[k])

    def weights(self, upto: int) -> np.ndarray:
        """Weights w_0..w_upto: a read-only view of the served array."""
        return self._table(upto)[: upto + 1]

    def monomial_inner(self, m: int, n: int) -> complex:
        return complex(self.weight(m)) if m == n else 0j

    def gram(self, upto: int) -> np.ndarray:
        return np.diag(self.weights(upto)).astype(complex)

    def span_gram(self, pc: np.ndarray, count: int) -> tuple[np.ndarray, bool]:
        """The lower band of the shift-span Gram, in O(count deg p^2): band k is
        ``S[i + k, i] = sum_(n = k..d) p_(n-k) w_(i+n) conj(p_n)``, d = deg p."""
        d = len(pc) - 1
        window = sliding_window_view(self.weights(count + d - 1), d + 1)  # [i, n] = w_(i+n)
        band = np.zeros((min(d, count - 1) + 1, count), dtype=complex)
        for k in range(len(band)):
            band[k, : count - k] = window[: count - k, k:] @ (pc[: d + 1 - k] * pc[k:].conj())
        return band, True

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
        # A table that ends inside the window is probed at w_j0..w_(j0+2).
        w = self.weights(j0 + (129 if j0 + 130 <= self._served else 2))[j0:]
        return float(np.max(w[:-1] / w[1:])) * 1.0001

    def shift_norm_bound(self, k: int) -> float:
        """Upper bound for the norm of multiplication by z^k.

        Probes sup sqrt(w_(n+k) / w_n) over the first 4097 + k weights (or the
        whole table, which needs at least k + 1); heuristic for generic rules.
        """
        w = self.weights(max(k, min(4096 + k, self._served - 1)))
        return float(np.sqrt(np.max(w[k:] / w[: len(w) - k]))) * 1.0001


@dataclass(frozen=True)
class DirichletType(DiagonalSpace):
    """Diagonal space with weights ``w_k = (k+1)^alpha``."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")

    @property
    def decay_exponent(self) -> float:
        return self.alpha

    def _evaluate(self, ks: np.ndarray) -> np.ndarray:
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

    ``weight_rule`` is a callable or a nonempty 1-D table, served like every
    diagonal space's weights and checked finite and positive as each enters; a
    series that needs an index past a table's end raises ``ToleranceUnreachable``.
    The rule is assumed to satisfy ``lim w_k / w_{k+1} = 1``; this is a
    documented precondition, spot-checked on the first 10^3 indices (a drift
    beyond 10^-3 at the end of that window only warns, it does not raise).
    ``boundary_order`` optionally declares the reproducible order of unimodular
    points; by default they are treated as not reproducible, since boundedness
    cannot be decided numerically from a bare rule.
    """

    weight_rule: object = field(compare=False)
    boundary_order: int | None = None
    _key: object = field(init=False, repr=False)  # compared in place of the rule

    def __post_init__(self):
        if self.boundary_order is not None:
            object.__setattr__(self, "boundary_order",
                               json_number(self.boundary_order, int, "boundary_order"))
        _adopt(self, "weight_rule", float, 1)
        self._checked(self._values, 0)
        # lim w_k/w_{k+1} = 1 is a documented precondition; warn when the
        # deviation at the end of the probe window exceeds 1e-3 and is not
        # shrinking across the window (a 1/k-type drift passes).
        w = self.weights(min(1001, self._served - 1))
        probe = len(w) - 2
        if probe >= 16:
            half = abs(w[probe // 2] / w[probe // 2 + 1] - 1.0)
            drift = abs(w[probe] / w[probe + 1] - 1.0)
            if drift > 1e-3 and drift > 0.7 * half:
                warnings.warn(
                    f"weight ratio w_k/w_(k+1) is {1 + drift:.6g} at k={probe} "
                    "and not drifting to 1 (documented precondition)",
                    stacklevel=2,
                )

    def _evaluate(self, ks: np.ndarray) -> np.ndarray:
        return self._checked(np.array([float(self.weight_rule(k)) for k in ks.tolist()]), ks[0])

    def _checked(self, weights: np.ndarray, start: int) -> np.ndarray:
        """``weights`` (w_start onwards), once each is checked finite and positive."""
        bad = np.flatnonzero(~((weights > 0.0) & np.isfinite(weights)))
        if len(bad):
            raise ValueError(f"weight w_{start + bad[0]} = {float(weights[bad[0]])!r} "
                             "is not strictly positive")
        return weights

    def _boundary_order(self, beta: complex) -> ReproducibleOrder:
        if self.boundary_order is None:
            return ReproducibleOrder.not_reproducible()
        return ReproducibleOrder.finite(self.boundary_order)

    def to_json(self) -> dict:
        if self.table is None:
            raise TypeError("callable weight rules do not serialize; use a table")
        out = {"type": "weights", "rule": "table", "values": self.table.tolist()}
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

    def span_gram(self, pc: np.ndarray, count: int) -> tuple[np.ndarray, bool]:
        """Closed form of the shift-span Gram, no monomial Gram.

        With ``P_r = sum_(m >= r) p_m zeta^m`` (``P_r = p(zeta)`` for r <= 0),
        ``T_k(z^i p) = zeta^i P_(k-i)``, so for ``i - j = s >= 0``
        ``S[i, j] = v_s + zeta^s j |p(zeta)|^2`` with ``v_s = h_s + zeta^s c_s``,
        the H^2 band ``h_s = sum_n p_(n-s) conj(p_n)`` and ``c_s = sum_(r=1..d)
        P_(r-s) conj(P_r)``; for s > d, ``h_s = 0`` and ``c_s = P_0 sum_(r=1..d)
        conj(P_r)``.  Each diagonal holds one value, so an error in it recurs
        all down the diagonal, coherently, where the dense entries' errors are
        independent; the values, and the dense entries with ``zeta^(i-j)``
        from the same powers, are formed in extended precision
        (``np.clongdouble``, where the platform has one) and rounded once.
        When ``p(zeta) = 0`` (``P_0`` computed in double precision is 0 within its
        rounding bound ``gamma_(d+1) sum |p_m|``) S is banded, ``S[i + s, i] = v_s`` for s <= d,
        and its lower band is returned: the terms it drops, ``c_s`` for s > d
        and ``j |P_0|^2``, are below the rounding of the dense entries.
        Otherwise S is returned dense.
        """
        d = len(pc) - 1
        width = min(d, count - 1) + 1
        q = pc.astype(np.clongdouble)
        zp = np.cumprod(np.r_[1.0, np.full(max(d, count - 1), self.zeta)].astype(np.clongdouble))
        P = np.cumsum((q * zp[: d + 1])[::-1])[::-1]
        v = np.array([q[: d + 1 - s] @ q[s:].conj()
                      + zp[s] * (P[np.maximum(np.arange(1 - s, d + 1 - s), 0)] @ P[1:].conj())
                      for s in range(width)])
        if _rounds_to_zero(np.cumsum((pc * self._powers(d))[::-1])[-1], pc):
            lower = np.arange(count) < count - np.arange(width)[:, None]
            return np.where(lower, v.astype(complex)[:, None], 0j), True
        v = np.r_[v, zp[width:count] * P[0] * np.sum(P[1:].conj())]
        zp, i = zp[:count], np.arange(count)
        return (scipy.linalg.toeplitz(v, v.conj()) + scipy.linalg.toeplitz(zp, zp.conj())
                * np.minimum.outer(i, i) * abs(P[0]) ** 2).astype(complex), False

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

    ``gram_rule`` is a callable ``(m, n) -> complex`` or a nonempty square
    table.  Every entry is served from one read-only array of raw entries: the
    table, or the rule's entries up to the largest index asked so far.  The
    whole array is checked as it enters, as the weights of a WeightedHardy
    are: its raw entries finite and Hermitian and the Gram they serve positive
    definite (one Cholesky), a table at construction and a rule each time it
    is tabulated further.
    Whether a point has bounded derivative functionals cannot be decided
    numerically in general, so every queried point must appear in
    ``reproducibility_table`` -- a sequence of ``(point, ReproducibleOrder)``
    pairs; a missing entry raises ``MissingReproducibility``.
    """

    gram_rule: object = field(compare=False)
    reproducibility_table: tuple = ()
    _key: object = field(init=False, repr=False)  # compared in place of the rule

    diagonal = False

    def __post_init__(self):
        table = tuple(
            (complex(point), order if isinstance(order, ReproducibleOrder)
             else ReproducibleOrder.from_json(order))
            for point, order in self.reproducibility_table
        )
        object.__setattr__(self, "reproducibility_table", table)
        _adopt(self, "gram_rule", complex, 2)
        if self.table is not None:
            self._admit(self.table)

    def _entries_upto(self, top: int) -> np.ndarray:
        """The raw entries through index ``top`` at least; a rule is tabulated
        that far, called only for the entries past the array already held."""
        if top >= self._served:
            raise ToleranceUnreachable(
                f"gram table of size {self._served} cannot serve monomial index {top}; "
                f"supply a table of size at least {top + 1} (M + 1 for a span up to "
                "degree M) or a callable rule")
        entries = self._values
        held = len(entries)
        if top >= held:
            grown = np.empty((top + 1, top + 1), dtype=complex)
            grown[:held, :held] = entries
            for m in range(top + 1):
                start = held if m < held else 0
                grown[m, start:] = [complex(self.gram_rule(m, n)) for n in range(start, top + 1)]
            entries = self._admit(grown)
        return entries

    def _admit(self, entries: np.ndarray) -> np.ndarray:
        """Serve ``entries`` from now on, once they are checked finite and
        Hermitian and the Gram ``_mirrored`` from them positive definite."""
        bad = np.argwhere(~np.isfinite(entries))
        if len(bad):
            m, n = bad[0]
            raise ValueError(f"gram entry G[{m}, {n}] = {complex(entries[m, n])!r} "
                             "is not finite")
        # The Gram mirrors the upper triangle, so the symmetry is read off the raw entries.
        top = len(entries) - 1
        if not np.allclose(entries, entries.conj().T, atol=1e-10):
            raise ValueError(f"gram rule is not Hermitian on indices 0..{top}")
        try:
            np.linalg.cholesky(_mirrored(entries))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"gram rule is not positive definite on indices 0..{top}") from exc
        entries.setflags(write=False)
        object.__setattr__(self, "_values", entries)
        return entries

    def gram(self, upto: int) -> np.ndarray:
        return _mirrored(self._entries_upto(upto)[: upto + 1, : upto + 1])

    def monomial_inner(self, m: int, n: int) -> complex:
        return complex(self._entries_upto(max(m, n))[m, n])

    def reproducible_order(self, beta: complex) -> ReproducibleOrder:
        b = complex(beta)
        for point, order in self.reproducibility_table:
            if abs(point - b) <= POINT_MATCH_TOL:
                return order
        raise MissingReproducibility(
            f"custom space has no reproducibility entry for point {b}"
        )

    def to_json(self) -> dict:
        if self.table is None:
            raise TypeError("callable gram rules do not serialize; use a table")
        return {
            "type": "custom",
            "gram": "table",
            "values": [[complex_pair(v) for v in row] for row in self.table],
            "reproducibility": [
                {"point": complex_pair(p), "order": o.to_json()}
                for p, o in self.reproducibility_table
            ],
        }


def _adopt(space: SpaceSpec, name: str, dtype, ndim: int) -> None:
    """Set a WeightedHardy's or CustomGram's ``table``, ``_values`` (the one
    array served) and ``_key`` (read by equality and hash in place of the rule
    field ``name``).  A callable rule has no table, an empty ``_values`` and is
    its own key (a function compares by identity).  A table must be nonempty,
    1-D or square (``ndim`` 2); a read-only ``dtype`` array (a parsed table) is
    adopted, else copied, so no caller can change the space.  It replaces the
    rule, sets ``_served`` and is ``_values``; its key is its shape and bytes.
    """
    rule = getattr(space, name)
    table = None
    if not callable(rule):
        table = rule
        if not (isinstance(rule, np.ndarray) and rule.dtype == dtype
                and not rule.flags.writeable):
            table = np.array(rule, dtype=dtype)
            table.setflags(write=False)
        if table.ndim != ndim or table.size == 0 or len(set(table.shape)) > 1:
            raise ValueError(f"{name.removesuffix('_rule')} table must be "
                             f"{'square' if ndim == 2 else '1-D'} and nonempty, "
                             f"got shape {table.shape}")
        object.__setattr__(space, name, table)
        object.__setattr__(space, "_served", len(table))
    object.__setattr__(space, "table", table)
    object.__setattr__(space, "_values", np.empty((0,) * ndim, dtype) if table is None else table)
    object.__setattr__(space, "_key", rule if table is None else (table.shape, table.tobytes()))


def _mirrored(entries: np.ndarray) -> np.ndarray:
    """A square array's upper triangle with its conjugate mirrored below."""
    return np.where(np.triu(np.ones(entries.shape, dtype=bool), 1), entries, entries.conj().T)


def rounding_gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``, u the unit roundoff: the relative
    rounding bound of a sum of n products."""
    nu = n * float(np.finfo(float).eps) / 2
    return nu / (1.0 - nu)


def _rounds_to_zero(total: complex, coeffs: np.ndarray) -> bool:
    """Whether ``total``, the computed ``sum_m coeffs_m t^m`` at a unimodular t,
    is 0 within its rounding bound ``gamma_(n) sum |coeffs_m|``, n = len(coeffs)."""
    return abs(total) <= rounding_gamma(len(coeffs)) * float(np.sum(np.abs(coeffs)))


def _rowdot(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``sum_n F_n conj(G_n)`` over the last axis (real sums when G is F)."""
    if G is F:
        return (np.einsum("...n,...n->...", F.real, F.real)
                + np.einsum("...n,...n->...", F.imag, F.imag))
    return np.einsum("...n,...n->...", F, np.conjugate(G))


def space_from_json(obj) -> SpaceSpec:
    obj = Field.of(obj)
    kind = obj["type"]
    if kind.value == "dirichlet":
        return DirichletType(obj.only("a dirichlet space", "type", "alpha")["alpha"].number())
    if kind.value == "weights":
        obj.only("a weights space", "type", "rule", "values", "boundary_order")
        if obj["rule"].value != "table":
            raise obj["rule"].error('"table"')
        boundary_order = (obj["boundary_order"].number(int, "non-negative")
                          if "boundary_order" in obj else None)
        return WeightedHardy(obj["values"].table(1, sign="positive"), boundary_order)
    if kind.value == "local_dirichlet":
        obj.only("a local_dirichlet space", "type", "zeta")
        return LocalDirichlet(obj["zeta"].complex())
    if kind.value == "custom":
        obj.only("a custom space", "type", "gram", "values", "reproducibility")
        if obj.get("gram", "table").value != "table":  # optional, and a table
            raise obj["gram"].error('"table"')
        table = tuple((e.only("a reproducibility entry", "point", "order")["point"].complex(),
                       ReproducibleOrder.from_json(e["order"]))
                      for e in obj.get("reproducibility", []).items())
        return CustomGram(obj["values"].table(2, pairs=True), table)
    raise kind.error('one of "dirichlet", "weights", "local_dirichlet", "custom"')


# ---------------------------------------------------------------------------
# Factored polynomials
# ---------------------------------------------------------------------------

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
            mult = json_number(mult, int, "root multiplicity", "positive")
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

    def to_json(self) -> dict:
        return {
            "leading": complex_pair(self.leading),
            "roots": [{"point": complex_pair(p), "mult": m} for p, m in self.roots],
        }

    @classmethod
    def from_json(cls, obj) -> "FactoredPoly":
        obj = Field.of(obj).only("a polynomial", "leading", "roots")
        return cls(obj["leading"].complex(),
                   tuple((r.only("a root", "point", "mult")["point"].complex(),
                          r["mult"].number(int, "positive"))
                         for r in obj.get("roots", []).items()))


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
        m0 = json_number(self.origin_multiplicity, int, "origin multiplicity", "non-negative")
        normalized = []
        for point, mult in self.entries:
            point = complex(point)
            if abs(point) <= ORIGIN_TOL:
                raise ValueError("the origin is recorded via origin_multiplicity only")
            normalized.append((point, json_number(mult, int, "multiplicity", "positive")))
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
    def from_json(cls, obj) -> "ReproducibleMultiset":
        obj = Field.of(obj).only("a multiset", "origin", "points")
        return cls(obj.get("origin", 0).number(int, "non-negative"),
                   tuple((e.only("a multiset point", "point", "mult")["point"].complex(),
                          e["mult"].number(int, "positive"))
                         for e in obj.get("points", []).items()))


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
