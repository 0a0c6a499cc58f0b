"""Kernel functions: Taylor expansions, pairwise inner products, shift products.

In a diagonal space with weights ``w_n`` the derivative kernel at ``beta`` of
order ``m`` (the representer of ``f -> f^(m)(beta)``) has the expansion

    k_beta^(m)(z) = sum_{n >= m} [n! / (n-m)!] * conj(beta)^(n-m) * z^n / w_n

and the pairing of two kernels is the series

    <k_a^(p), k_b^(q)> = sum_n [n!/(n-p)!][n!/(n-q)!] conj(a)^(n-p) b^(n-q) / w_n.

Every summation here returns a certified ``(value, err)``, or a Taylor
series whose ``tail_bound`` is a bound, or raises ``ToleranceUnreachable``;
no sum returns an infinite or estimated ``err``.  A pairing takes one of four
paths.  A kernel at the origin leaves one term.  In ``D_alpha`` the pairing is
a finite sum of polylogarithms ``Li_s(conj(a) b)``: for an integer
``alpha <= 1`` (``H_2``, ``A_2``, ``D_1``) every ``Li_s`` is elementary, and
the closed form serves every interior pair, except that below
``_POLYLOG_SWITCH`` a pair whose closed form cancels past what the loop can
reach falls through to the loop; for any other ``alpha`` the sum is taken by
the expansion about 1 at ``|conj(a) b| >= _POLYLOG_SWITCH``, on the circle too.
Every other pair is the geometric loop, with a term-ratio tail bound.  Each
err covers rounding as well.  Boundary kernel tails use an integral p-series
bound.

All functions are pure; summation order is fixed, so results are deterministic.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaln, zeta as _riemann_zeta

from .errors import (DivergentSeries, ToleranceUnreachable, UnboundedTail,
                     UnsupportedRoute)
from .jsonio import Field, complex_pair, json_number
from .spaces import BOUNDARY_TOL, SpaceSpec

_FLOAT_SLACK = 1.0 + 1e-9  # covers rounding inside computed tail bounds
_EPS = float(np.finfo(float).eps)
# Certified D_alpha pairings with |conj(a) b| at or above the switch sum the
# polylogarithm expansion's first K + ceil|s| terms (see _pair_polylog).
_POLYLOG_SWITCH = 0.9
_POLYLOG_K = 80


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelTerm:
    """Derivative kernel ``k_point^(order)``."""

    point: complex
    order: int = 0

    def __post_init__(self):
        object.__setattr__(self, "point", complex(self.point))
        object.__setattr__(self, "order",
                           json_number(self.order, int, "kernel order", "non-negative"))

    def to_json(self) -> dict:
        return {"point": complex_pair(self.point), "order": self.order}


@dataclass(frozen=True)
class TruncationPolicy:
    """How hard to push a series: the tail to close below, and the term budget.

    Each sum picks its own certificate (geometric tails inside the disk, the
    polylogarithm expansion near and on the circle of ``D_alpha``, p-series
    kernel tails on it) and raises ``ToleranceUnreachable`` when the budget
    runs out first.  ``target_tolerance`` is a positive finite number and
    ``max_terms`` an integer of at least 16, each read by ``json_number``'s rule.
    """

    target_tolerance: float = 1e-12
    max_terms: int = 2_000_000

    def __post_init__(self):
        object.__setattr__(self, "target_tolerance", json_number(
            self.target_tolerance, float, "target_tolerance", "positive"))
        object.__setattr__(self, "max_terms", json_number(
            self.max_terms, int, "max_terms", "positive"))
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True, eq=False)
class TaylorSeries:
    """Truncated power series with a bound on the norm of the discarded tail.

    ``tail_bound`` is a bound on the space norm of the tail (``0`` for exact
    polynomials).  Library routines always give a finite bound; a series built
    by hand with ``inf`` is refused by the shift products (``UnboundedTail``).

    The series takes ownership of a complex ndarray that owns its memory: the
    array is kept, not copied, and marked read-only, so the caller must not
    write to it through another reference.  A view is copied (so a slice does
    not keep its larger base alive), and any other sequence is converted to a
    new array.  Series compare and hash by value: the coefficients' shape and
    bytes, and ``tail_bound``.
    """

    coefficients: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = self.coefficients
        if not (isinstance(arr, np.ndarray) and arr.dtype == complex and arr.base is None):
            arr = np.array(arr, dtype=complex)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)
        object.__setattr__(self, "tail_bound", float(self.tail_bound))

    def _key(self) -> tuple:
        return self.coefficients.shape, self.coefficients.tobytes(), self.tail_bound

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, TaylorSeries) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def truncation_degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> complex:
        if 0 <= n < len(self.coefficients):
            return complex(self.coefficients[n])
        return 0j

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coefficients)

    def scaled(self, factor: complex) -> "TaylorSeries":
        return TaylorSeries(self.coefficients * factor,
                            abs(factor) * self.tail_bound)

    def to_json(self) -> dict:
        return {"coeffs": self.coefficients.view(float).reshape(-1, 2).tolist(),
                "N": self.truncation_degree, "tail": self.tail_bound}

    @classmethod
    def from_json(cls, obj) -> "TaylorSeries":
        obj = Field.of(obj)
        return cls(obj["coeffs"].table(1, pairs=True),
                   obj.get("tail", 0.0).number(float, "non-negative", finite=False))


@dataclass(frozen=True)
class KernelCombo:
    """Finite linear combination ``sum_i coef_i * k_{point_i}^(order_i)``."""

    space: SpaceSpec
    terms: tuple = ()

    def __post_init__(self):
        normalized = []
        seen = set()
        for term, coef in self.terms:
            if not isinstance(term, KernelTerm):
                term = KernelTerm(*term)
            key = (term.point, term.order)
            if key in seen:
                raise ValueError(f"duplicate kernel term {key}")
            seen.add(key)
            normalized.append((term, complex(coef)))
        if not any(c != 0 for _, c in normalized):
            raise ValueError("combo needs at least one nonzero coefficient")
        object.__setattr__(self, "terms", tuple(normalized))

    def scaled(self, factor: complex) -> "KernelCombo":
        return KernelCombo(self.space,
                           tuple((t, c * factor) for t, c in self.terms))

    def support(self) -> list[tuple[complex, int]]:
        """Distinct points with the highest kernel order present at each."""
        top: dict[complex, int] = {}
        for term, coef in self.terms:
            if coef == 0:
                continue
            cur = top.get(term.point)
            if cur is None or term.order > cur:
                top[term.point] = term.order
        return sorted(top.items(), key=lambda it: (it[0].real, it[0].imag))

    def to_json(self) -> dict:
        return {"terms": [{**t.to_json(), "coef": complex_pair(c)}
                          for t, c in self.terms]}

    @classmethod
    def from_json(cls, space: SpaceSpec, obj) -> "KernelCombo":
        obj = Field.of(obj)
        return cls(space, tuple(
            (KernelTerm(e["point"].complex(), e["order"].number(int, "non-negative")),
             e["coef"].complex()) for e in obj["terms"].items()))


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _falling(n: np.ndarray, m: int) -> np.ndarray:
    """n! / (n-m)! elementwise (valid for n >= m)."""
    if m == 0:
        return np.ones(len(n))
    out = n.astype(float)
    for i in range(1, m):
        out *= n - i
    return out


def _require_diagonal(space: SpaceSpec, what: str) -> None:
    if not space.diagonal:
        raise UnsupportedRoute(f"{what} needs a diagonal (weighted) space; "
                               f"got {type(space).__name__} -- use the finite-"
                               "dimensional projection routines instead")


def _require_admissible(space: SpaceSpec, term: KernelTerm) -> None:
    ro = space.reproducible_order(term.point)
    if not ro.admits(term.order):
        raise DivergentSeries(
            f"kernel k_{term.point}^({term.order}) does not lie in the space: "
            f"point has reproducible order {ro.to_json()!r}")


def _blocks(start: int, max_terms: int, width: int, cap: int):
    """Index blocks ``start..max_terms``; widths double from ``width`` up to ``cap``.

    Every series loop iterates these blocks with its own accumulation and
    tail test, so the summation order, hence every result, is fixed.
    """
    n = start
    while n <= max_terms:
        hi = min(n + width, max_terms + 1)
        yield np.arange(n, hi)
        n = hi
        width = min(width * 2, cap)


# Blocks per group at the least: a call with fewer than two groups of this many
# runs in the calling thread, where starting a thread would cost more than it
# saves.
_GROUP_BLOCKS = 3


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each_core(count: int, run) -> None:
    """``run(group)`` over contiguous ranges of the block indices ``0..count-1``,
    one range per core of the process, each range in a thread of its own.

    With fewer than two groups of ``_GROUP_BLOCKS`` blocks the calling thread
    runs ``range(count)`` and no thread starts.  The threads are per call, so
    none outlives it, and the first error raised in a group is raised here.
    Groups must write disjoint outputs: block partials go into rows of their
    own, which the caller sums in block order, so every result is the same
    whatever the number of groups.
    """
    groups = min(_cores(), count // _GROUP_BLOCKS) if count >= 2 * _GROUP_BLOCKS else 1
    if groups < 2:
        run(range(count))
        return
    edges = [count * g // groups for g in range(groups + 1)]
    with ThreadPoolExecutor(groups) as pool:
        for _ in pool.map(run, map(range, edges[:-1], edges[1:])):
            pass


def _alpha_of(space: SpaceSpec) -> float:
    if space.decay_exponent is None:
        raise ToleranceUnreachable(
            "boundary-point series have certified bounds only in Dirichlet-type "
            "spaces")
    return space.decay_exponent


def _pair_terms(space: SpaceSpec, a: KernelTerm, b: KernelTerm,
                ns: np.ndarray) -> np.ndarray:
    """Terms n in the index range ns (each at least both orders) of the pairing
    series: ``[F_p(n) F_q(n) / w_n] conj(a)^(n-p) b^(n-q)``, ``F_m(n) =
    n!/(n-m)!``, multiplied in the order ``(t conj(a)^(n-p)) b^(n-q)``."""
    t = _falling(ns, a.order) * _falling(ns, b.order) / space.weights(int(ns[-1]))[ns[0]:]
    out = _powers(a.point.conjugate(), ns - a.order, np.empty(len(ns), dtype=complex))
    np.multiply(t, out, out=out)
    out *= _powers(b.point, ns - b.order, np.empty(len(ns), dtype=complex))
    return out


@functools.lru_cache(maxsize=256)
def _zeta_row(s: float):
    """For ``k <= n = K + ceil|s|``: ``zeta(s-k)/k!`` (0 at the pole), rounding
    weights from the sizes ``M_k/k!``, ``Gamma(1-s)``, and ``M_(n+1)/(n+1)!``.
    ``M_k = 2 Gamma(u) zeta(u)/(2 pi)^u >= |zeta(s-k)|`` for ``u = k+1-s > 1``
    (functional equation), else ``M_k = |zeta(s-k)|``."""
    ks = np.arange(_POLYLOG_K + math.ceil(abs(s)) + 2.0)
    u = ks + 1.0 - s
    inv_fact = np.exp(-gammaln(ks + 1.0))
    z = np.where(u == 0.0, 0.0, _riemann_zeta(s - ks)) * inv_fact
    size = np.where(u > 1.0, 2 * _riemann_zeta(np.maximum(u, 2.0)) * inv_fact
                    * np.exp(gammaln(u) - u * math.log(2 * math.pi)), np.abs(z))
    row = np.stack([z[:-1], (128 + 4 * ks[:-1] + len(ks)) * _EPS * size[:-1]])
    row.setflags(write=False)  # the cache hands this row to every caller
    return row, gamma(1.0 - s), size[-1]


def _polylog(s: float, mu: complex) -> tuple[complex, float]:
    """``Li_s(e^mu)`` and a bound on its error, for ``Re mu <= 0``, ``|Im mu| <= pi``.

    Wood's expansion ``Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k/k!``; at a
    positive integer s the Gamma pole pairs with ``zeta(1)`` into
    ``mu^(s-1)/(s-1)! (H_(s-1) - log(-mu))``.  The bound covers the terms past
    ``_zeta_row``'s n, geometric in ``|mu|/2 pi`` by its majorant, and the
    rounding of every term and of the sum.  ``mu = 0`` needs ``s > 1``."""
    row, gamma_s, size_tail = _zeta_row(s)
    powers = np.cumprod(np.concatenate(([1.0 + 0j], np.full(row.shape[1] - 1, mu))))
    value, bound = complex(row[0] @ powers), float(row[1] @ np.abs(powers))
    if mu != 0:
        log_mu = cmath.log(-mu)
        if s >= 1 and s == round(s):
            k0 = int(s) - 1
            harmonic = sum(1.0 / i for i in range(1, k0 + 1))
            singular = powers[k0] / math.factorial(k0) * (harmonic - log_mu)
            size = abs(powers[k0]) / math.factorial(k0) * (harmonic + abs(log_mu))
        else:
            singular = gamma_s * np.exp((s - 1.0) * log_mu)
            size = abs(singular)
        value += singular
        bound += (64 + abs(s) + 2 * abs((s - 1.0) * log_mu)) * _EPS * size
        ratio = abs(mu) / (2 * math.pi) * max(1.0, 1.0 - s / (row.shape[1] + 1.0))
        bound += size_tail * abs(powers[-1] * mu) / max(1.0 - ratio, 0.0)
    return complex(value), float(bound) * _FLOAT_SLACK


@functools.lru_cache(maxsize=64)
def _falling_poly(p: int, q: int) -> tuple:
    """Ascending coefficients of ``P(u) = prod_(m = p, q) (u-1)...(u-m)``, exact
    integers (a float product rounds some once ``p + q >= 20``)."""
    poly = [1]
    for r in (*range(1, p + 1), *range(1, q + 1)):
        poly = [low - r * high for low, high in zip([0] + poly, poly + [0])]
    return tuple(poly)


@functools.lru_cache(maxsize=256)
def _stirling_combination(s: int, coeffs: tuple) -> tuple:
    """``(d_k, (k+1) d_k, |fl(d_k) - d_k|)`` for k descending (Horner's order),
    where ``sum_k d_k t^(k+1)`` is ``sum_j coeffs[j] Li_(s-j)(x)`` over the ``s - j
    <= 0``, ``t = x/(1-x)``: by ``Li_(-m)(x) = sum_(k <= m) k! S(m+1, k+1)
    t^(k+1)``, S the Stirling numbers of the second kind, each d_k an exact
    integer sum, rounded once to a float."""
    d, row = {}, [1]  # row: S(n, k) for k = 1..n, from n = 1
    for j, c in enumerate(coeffs):
        m = j - s
        while len(row) < m + 1:
            n = len(row) + 1
            row = [k * r + l for k, r, l in zip(range(1, n + 1), row + [0], [0] + row)]
        if m >= 0 and c:
            for k, stirling in enumerate(row):
                d[k] = d.get(k, 0) + c * math.factorial(k) * stirling
    exact = [d.get(k, 0) for k in range(max(d, default=-1), -1, -1)]
    return tuple((float(dk), float((k + 1) * dk), float(abs(int(float(dk)) - dk)))
                 for k, dk in zip(range(len(exact) - 1, -1, -1), exact))


def _polylog_elementary(s: int, x, coeffs: tuple = (1,)) -> tuple[complex, float]:
    """``sum_j coeffs[j] Li_(s-j)(x)`` (``Li_s(x)`` by default) for an integer
    ``s <= 1``, integer coefficients and ``|x| < 1``, and a bound on its error
    when x carries the rounding of one complex product, ``sqrt 5 u |x|`` (``u =
    eps/2``; Brent, Percival and Zimmermann, *Math. Comp.* 76, 2007).
    ``Li_1(x) = -log(1-x)``; every other order is taken together, ``H = sum_k
    d_k t^(k+1)`` by Horner's rule, from ``_stirling_combination`` (L. Lewin,
    *Polylogarithms and Associated Functions*, 1981, ch. 7; DLMF 25.12).

    x is a float or a complex; for a float every operation is real.  The bound
    covers, to first order:
    - Horner's rounding, by the running bound ``u sum_k |t|^k (m_u |fl(y_(k+1)
      t)| + |y_k|)`` over the computed partial sums y_k (Higham, *Accuracy and
      Stability*, 2nd ed., Alg. 5.1), ``m_u = sqrt 5`` a complex product's, 1 a
      real one's, plus each d_k's own rounding;
    - t's rounding, ``theta <= 7.5u`` (``1 - x`` and Smith's division, 6.5u),
      2u real, which moves H by ``theta |W|``, ``W = sum_k (k+1) d_k t^(k+1) = t
      dH/dt``;
    - x's rounding through ``x d/dx H = W/(1-x)`` and ``x d/dx Li_1 = t``;
    - the log's ``(3 + |Li_1|)u``, and u for each product and the last sum.
    The second order in both roundings, ``q^2/2`` of the terms' sizes with ``q
    = (m + 3)(sqrt 5 u/|1-x| + theta)``, m the top Stirling order, is added."""
    u, w = 0.5 * _EPS, 1.0 - x
    real = isinstance(x, float)
    theta = 2.0 * u if real else 7.5 * u
    value, err, size, slope = 0.0, 0.0, 0.0, 0.0
    if s == 1 and coeffs[0]:
        log = -cmath.log(w)
        value, err = coeffs[0] * log, abs(coeffs[0]) * (3.0 + 2.0 * abs(log)) * u
        slope, size = coeffs[0] * x, abs(coeffs[0])
    terms = _stirling_combination(s, coeffs)
    if terms:
        t = x / w
        at, mul = abs(t), 1.0 if real else math.sqrt(5.0)
        h, weighted, running, sizes = 0.0, 0.0, 0.0, 0.0
        for d, kd, d_err in terms:
            product = h * t
            h = product + d
            running = running * at + mul * abs(product) + abs(h) + d_err / u
            weighted = weighted * t + kd
            sizes = sizes * at + abs(kd)
        h *= t
        value += h
        err += (running * at + mul * abs(h)) * u + theta * abs(weighted * t)
        slope += weighted * t
        size += sizes * at
    q = (len(coeffs) - s + 2) * (math.sqrt(5.0) * u / abs(w) + theta)
    err += math.sqrt(5.0) * u * abs(slope) / abs(w) + u * abs(value) + 0.5 * q * q * size
    return value, err * _FLOAT_SLACK


def _pair_polylog(space, a, b):
    """``sum_j c_j Li_(alpha-j)(x) / (x conj(a)^p b^q)`` with ``x = conj(a) b = e^mu``.

    In ``D_alpha`` the pairing is ``sum_n P(n+1) x^n/(n+1)^alpha``, ``P(u) = sum_j c_j u^j
    = prod_(m = p, q) (u-1)...(u-m)``.  For an integer ``alpha <= 1`` the sum is one
    ``_polylog_elementary`` at the computed x, whose bound covers x's rounding too;
    err adds the division's, ``(3(p+q) + 12)u`` of the value, ``u = eps/2``, which
    takes in x's rounding as a divisor.

    Any other alpha takes Wood's expansion at mu, the difference of the points'
    logarithms (``Re mu = 0`` if both are on the circle).  err covers each
    ``_polylog`` bound, the rounding of the sum and, to first order by ``d/dmu Li_s =
    Li_(s-1)``, that of mu."""
    alpha = _alpha_of(space)
    poly = _falling_poly(a.order, b.order)
    if alpha <= 1 and alpha == int(alpha):
        x = a.point.conjugate() * b.point
        if x.imag == 0.0:
            x = x.real
        total, err = _polylog_elementary(int(alpha), x, poly)
        u = 0.5 * _EPS
        den = x * a.point.conjugate() ** a.order * b.point ** b.order
        if den == 0:
            raise ToleranceUnreachable(f"x conj(a)^p b^q underflows at {a.point}, {b.point}")
        value = complex(total / den)
        err = err / abs(den) + (3 * (a.order + b.order) + 12) * u * abs(value)
        if not math.isfinite(err):
            raise ToleranceUnreachable(f"no finite polylogarithm bound at x = {x}")
        return value, err * _FLOAT_SLACK
    la, lb = np.log(a.point), np.log(b.point)  # cmath.log loses Re mu near |z| = 1
    im = math.remainder(lb.imag - la.imag, 2 * math.pi)
    on_circle = max(abs(abs(a.point) - 1.0), abs(abs(b.point) - 1.0)) <= BOUNDARY_TOL
    mu = complex(0.0 if on_circle else la.real + lb.real, im)
    dmu = 4 * _EPS * (abs(mu.real) + (a.point != b.point)
                      * (abs(la.imag) + abs(lb.imag) + 2 * math.pi))
    if 8 * dmu * (max(abs(alpha - 2), abs(alpha - len(poly) - 1)) + 1) > abs(mu):
        raise ToleranceUnreachable(f"points {a.point}, {b.point} too close to pair")
    total, err = 0j, 0.0
    for j, c in enumerate(poly):
        v, e = _polylog(alpha - j, mu)
        d, de = _polylog(alpha - j - 1, mu) if dmu else (0.0, 0.0)
        total += c * v
        err += abs(c) * (e + (2 * len(poly) + 6) * _EPS * abs(v) + 2 * dmu * (abs(d) + de))
    if not math.isfinite(err):
        raise ToleranceUnreachable(f"no finite polylogarithm bound at mu = {mu}")
    scale = cmath.exp(-mu) / (a.point.conjugate() ** a.order * b.point ** b.order)
    return complex(scale * total), abs(scale) * err * _FLOAT_SLACK


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def kernel_pairing(space: SpaceSpec, a: KernelTerm, b: KernelTerm,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[complex, float]:
    """``<k_a^(p), k_b^(q)>`` with an error bound, once the space is checked
    diagonal and a, then b, admissible.  A kernel at the origin leaves one term
    of the series, n = its order, formed on scalars with ``_pair_terms``' bytes
    (``math.prod`` takes ``_falling``'s products in its order).  ``|ab| > 1``
    diverges.  In ``D_alpha`` at an integer ``alpha <= 1`` every pair goes to
    ``_pair_polylog``'s elementary closed form.  At ``|ab| >= _POLYLOG_SWITCH``
    its value is returned as it is, as Wood's expansion's is for any other
    ``alpha``.  Below the switch it is returned when its err is at most the
    tolerance or ``64 eps P``, P the same closed form at ``(|a|, |b|)``, which is
    the all-positive series ``sum_n |t_n|``; the loop's err is never below
    that.  Otherwise (the closed form cancels, or overflows) the pair falls
    through to the loop.  Any other pair is summed over the ``_blocks`` from
    ``max(p, q)`` until its geometric tail closes below the tolerance.

    The loop's err is that tail plus a rounding bound ``eps sum_n (64 + 4 n L)|t_n|``,
    ``L = |log a| + |log b|``.  ``_powers`` forms ``z^n`` as ``exp(n log z)``
    from n = 100 on, the formula and the bytes of numpy's own complex power,
    with relative error about ``(7 n |log z| + 4) u`` (``u = eps/2``), and by
    repeated squaring below; the constant covers those products, the falling
    factors, the weight and the blocked sum.  The loop stops on the tail
    alone, so the rounding term never blocks a tolerance.
    """
    _require_diagonal(space, "kernel_pairing")
    _require_admissible(space, a)
    _require_admissible(space, b)
    p, q = a.order, b.order
    origin = [t.order for t in (a, b) if t.point == 0]
    if origin:
        n = min(origin)
        if n < max(p, q):
            return 0j, 0.0
        t = math.prod(range(n, n - p, -1), start=1.0) * math.prod(range(n, n - q, -1), start=1.0)
        return t / space.weight(n) * complex(np.power(a.point.conjugate(), n - p)) \
            * complex(np.power(b.point, n - q)), 0.0
    rho = abs(a.point) * abs(b.point)
    if rho > 1.0 + BOUNDARY_TOL:
        raise DivergentSeries(f"pairing series diverges: |a * b| = {rho} > 1")
    tol = policy.target_tolerance
    alpha = space.decay_exponent
    if alpha is not None and alpha <= 1 and alpha == int(alpha):
        try:
            value, err = _pair_polylog(space, a, b)
            if rho >= _POLYLOG_SWITCH or err <= tol or err <= 64 * _EPS * _pair_polylog(
                    space, KernelTerm(abs(a.point), p), KernelTerm(abs(b.point), q))[0].real:
                return value, err
        except ToleranceUnreachable:  # an overflow or underflow: below the switch, the loop
            if rho >= _POLYLOG_SWITCH:
                raise
    elif rho >= _POLYLOG_SWITCH and (rho >= 1 - BOUNDARY_TOL or alpha is not None):
        return _pair_polylog(space, a, b)
    logs = abs(cmath.log(a.point)) + abs(cmath.log(b.point))
    total, size = 0j, 0.0
    for ns in _blocks(max(p, q), policy.max_terms, 256, 1 << 16):
        t = _pair_terms(space, a, b, ns)
        total += t.sum()
        size += float(np.abs(t) @ (64.0 + 4.0 * logs * ns))
        j0 = int(ns[-1])
        ratio = rho * ((j0 + 1.0) / (j0 + 1.0 - p)) * ((j0 + 1.0) / (j0 + 1.0 - q)) \
            * space.weight_ratio_sup(j0)
        if ratio < 1.0:
            bound = abs(t[-1]) * ratio / (1.0 - ratio) * _FLOAT_SLACK
            if bound <= tol:
                return total, float(bound + _EPS * size * _FLOAT_SLACK)
    raise ToleranceUnreachable(
        f"geometric pairing did not close below {tol} within {policy.max_terms} terms")


def pairing_gram(space: SpaceSpec, terms: list[KernelTerm],
                 policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, float]:
    """Hermitian matrix ``G[i, j] = <v_i, v_j>`` with accumulated pairing error.

    The ``kernel_pairing`` of each pair ``i <= j``, in row-major order, so the
    first that fails raises its error.
    """
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


def _powers(t: complex, ns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``t**n`` into out for an ascending array ``ns`` of indices ``n >= 0``, as
    ``np.power`` gives it.

    numpy's complex power squares repeatedly below n = 100 and is C ``cpow``,
    ``exp(n log t)``, from there on; this forms the latter in place with
    ``log t`` taken once, where ``np.power`` takes a ``clog`` per element.  A real
    ``t`` keeps ``np.power`` throughout.  Each value depends on its own n alone,
    so ``combo_taylor`` reads a table of ``t^k`` and the scalar ``t^s`` that
    scales it from this one rule.
    """
    cut = len(ns)
    if isinstance(t, complex) and cut and ns[-1] >= 100:
        cut = int(np.searchsorted(ns, 100)) if ns[0] < 100 else 0
    if cut:
        np.power(t, ns[:cut], out=out[:cut])
    if cut == len(ns):
        return out
    if t == 0:
        out[cut:] = 0.0
    else:
        np.multiply(ns[cut:], np.log(t), out=out[cut:])
        np.exp(out[cut:], out=out[cut:])
    return out


def _functional_at(point: complex, order: int, ns: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """``n!/(n-order)! * point^(n-order)`` into out at the ascending indices ns,
    0 for n < order."""
    j = int(np.searchsorted(ns, order))
    out[:j] = 0.0
    _powers(point, ns[j:] - order, out[j:])
    if order:
        out[j:] *= _falling(ns[j:], order)
    return out


def derivative_functional(point: complex, order: int, N: int) -> np.ndarray:
    """Vector v with ``v @ c = f^(order)(point)`` for ``f = sum_{n<=N} c_n z^n``.

    ``v_n = n!/(n-order)! * point^(n-order)`` for n >= order and 0 below, formed
    in place in the output by ``_powers``.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    return _functional_at(point, order, np.arange(N + 1), np.empty(N + 1, dtype=complex))


def _taylor_shift(coeffs: np.ndarray, center: complex,
                  K: int) -> tuple[np.ndarray, np.ndarray]:
    """The Taylor coefficients ``d_k = sum_n C(n, k) c_n center^(n-k)`` at
    ``center``, k <= K, of the polynomial of ascending ``coeffs``, so that its
    k-th derivative there is ``k! d_k``, and their rounding bounds ``gamma *
    sum_n C(n, k) |c_n| |center|^(n-k)``.  Powers by repeated complex products
    (3u each, Higham, *Accuracy and Stability*, 2nd ed., Lemma 3.5, for any
    centre), binomials by 2K roundings and sums of N+1 complex products make
    ``(4N + 2K + 4) u``, which ``gamma = 4(N + K + 2) eps`` covers twice over.
    """
    N = len(coeffs) - 1
    ns, ks = np.arange(N + 1), np.arange(K + 1)[:, None]
    powers = np.cumprod(np.r_[1.0 + 0j, np.full(N, complex(center))])
    binoms = np.cumprod(np.where(ks > 0, (ns - ks + 1) / np.maximum(ks, 1), 1.0), axis=0)
    shift = binoms * powers[np.maximum(ns - ks, 0)]
    gamma = 4.0 * (N + K + 2) * _EPS
    return shift @ coeffs, gamma * (np.abs(shift) @ np.abs(coeffs))


def _taylor_tail(space: SpaceSpec, term: KernelTerm, N: int,
                 policy: TruncationPolicy) -> float:
    """Bound on the space norm of the Taylor tail of ``k_term`` past degree N."""
    m = term.order
    beta = abs(term.point)
    if beta == 0:
        if N >= m:
            return 0.0
        return math.factorial(m) / math.sqrt(space.weight(m))
    if beta < 1.0 - BOUNDARY_TOL:
        rho2 = beta * beta
        total = 0.0
        for ns in _blocks(N + 1, policy.max_terms, 256, 1 << 16):
            q = _falling(ns, m) ** 2 * rho2 ** (ns - m) / space.weights(int(ns[-1]))[ns[0]:]
            total += q.sum()
            j0 = int(ns[-1])
            ratio = rho2 * ((j0 + 1.0) / (j0 + 1.0 - m)) ** 2 \
                * space.weight_ratio_sup(j0)
            if ratio < 1.0:
                return math.sqrt(total + q[-1] * ratio / (1.0 - ratio)) * _FLOAT_SLACK
        raise ToleranceUnreachable(
            f"Taylor tail of k_{term.point}^({m}) past degree {N} did not close "
            f"within {policy.max_terms} terms")
    # On the circle (admissible, so s > 1): w_n |c_n|^2 <= (n+1)^(-s), an
    # integral tail bound.
    s = _alpha_of(space) - 2 * m
    return math.sqrt((N + 1.0) ** (1.0 - s) / (s - 1.0)) * _FLOAT_SLACK


def kernel_taylor(space: SpaceSpec, term: KernelTerm, N: int,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> TaylorSeries:
    """Taylor expansion of a derivative kernel through degree N: ``combo_taylor``
    of the one-term combination ``((term, 1),)``."""
    return combo_taylor(space, KernelCombo(space, ((term, 1),)), N, policy)


# Indices per block of ``combo_taylor``: a block's weights and term coefficients
# are small beside the output, however long the series.
TAYLOR_BLOCK = 1 << 16


def combo_taylor(space: SpaceSpec, B: KernelCombo, N: int,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> TaylorSeries:
    """Taylor expansion of a kernel combination (linear in the terms).

    Coefficient n is ``sum_i coef_i conj(v_n) / w_n`` over the terms, v each
    term's ``derivative_functional`` at ``conj(point)``.  Each term walks
    ``TAYLOR_BLOCK``-sized index blocks and adds its coefficients into the
    output in place, so every coefficient receives its terms in term order, and
    the output and the space's weights are the only arrays of length N + 1.  A
    kernel at the origin has one coefficient, n = its order.  A term's blocks
    run in contiguous groups, one per core (``_each_core``), each group with a
    block buffer of its own; blocks write disjoint slices of the output with
    the same operations in any group, so the bytes do not depend on the
    number of workers.

    Every other term forms one power table ``t^k = _powers(t, k)``, ``t =
    conj(point)``, for k below the block length.  A block whose first power is
    ``t^s`` takes ``table[k] * t^s``, the scalar by ``_powers``' rule too, one
    complex product per coefficient in place of an ``exp``.  Block 0 (s = 0)
    takes the table itself, so every coefficient below ``TAYLOR_BLOCK`` is the
    one that ``_powers`` over its block gives, with the same floating-point
    operations, term by term, as whole-array products ``array * coef`` take.
    Past it the relative error of ``t^n`` is that of the two powers, whose
    exponents sum to n, plus one complex product: about ``(7 n |log t| + 11)
    u``, u = eps / 2.
    """
    _require_diagonal(space, "combo_taylor")
    if B.space != space:
        raise ValueError("combo was built for a different space")
    if N < 0:
        raise ValueError(f"Taylor degree N must be nonnegative; got N = {N}")
    for term, _ in B.terms:
        _require_admissible(space, term)
    space.weight(N)  # a weight table shorter than N + 1 raises here, naming N + 1
    tail = sum(abs(coef) * _taylor_tail(space, term, N, policy) for term, coef in B.terms)
    w = space.weights(N)  # taken after the tail grows the table, so one table is held
    coeffs = np.zeros(N + 1, dtype=complex)
    size = min(N + 1, TAYLOR_BLOCK)
    table = np.empty(size, dtype=complex)

    def fill(t, m, coef, group):
        buf = np.empty(size, dtype=complex)
        for lo in range(group.start * size, min(group.stop * size, N + 1), size):
            hi = min(lo + size, N + 1)
            part = buf[: hi - lo]
            j = min(max(m - lo, 0), hi - lo)  # below n = m the term has no coefficient
            part[:j] = 0.0
            s = lo + j - m
            if s > 0:  # then j = 0
                ts = _powers(t, np.array([s]), np.empty(1, dtype=complex))[0]
                np.multiply(table[: hi - lo], ts, out=part)
            else:
                part[j:] = table[: hi - lo - j]
            if m:
                part[j:] *= _falling(np.arange(lo + j, hi), m)
            part /= w[lo:hi]
            part *= coef
            coeffs[lo:hi] += part

    for term, coef in B.terms:
        m = term.order
        if term.point == 0:
            if m <= N:  # the block pass's operations at n = m
                coeffs[m] += math.prod(range(m, 0, -1), start=1.0) * (1.0 / float(w[m])) * coef
            continue
        t = np.conjugate(term.point)
        _powers(t, np.arange(size), table)
        _each_core(-(-(N + 1) // size), functools.partial(fill, t, m, coef))
    return TaylorSeries(coeffs, tail)


def combo_derivative_at(space: SpaceSpec, B: KernelCombo, beta: complex, ell: int,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[complex, float]:
    """``B^(ell)(beta)`` evaluated as a sum of kernel pairings against
    ``k_beta^(ell)``, in term order."""
    target = KernelTerm(beta, ell)
    _require_admissible(space, target)
    value, err = 0j, 0.0
    for term, coef in B.terms:
        v, e = kernel_pairing(space, term, target, policy)
        value += coef * v
        err += abs(coef) * e
    return value, err


# Coefficients per block of ``shift_inner_products``: the block's slices of b,
# w and the products stay in a core's L2 cache across the shifts.  At most
# 8192, so OpenBLAS runs each dot, alone or inside a correlate, on one thread
# (its threshold is 10000) and sums in one order, fixed for a given host and
# BLAS build.  Blocks run in groups, one per core, in threads of their own.
SHIFT_BLOCK = 1 << 13
# Lags past those asked for that a block's one correlate may compute.
_SPARE_LAGS = 4


def shift_inner_products(space: SpaceSpec, B: TaylorSeries,
                         shifts) -> list[tuple[complex, float]]:
    """``<z^k B, B>`` for each k in ``shifts``, with tail error bounds.

    The finite part is the exact quadratic form of the truncation; the error
    combines the tail bound with Cauchy--Schwarz cross terms, using a bound on
    the shift norm.  A polynomial input (tail 0) gives err 0.

    In a diagonal space one pass over ``SHIFT_BLOCK``-sized blocks of b reads
    one weight vector.  Each block forms ``|b_n|^2`` once, and
    ``c_n = w_n conj(b_n)`` once when a shift is positive.  When the shifts
    are dense (lags ``0..max`` at most ``_SPARE_LAGS`` more than asked for), a
    block takes the sums of ``w_(n+k) |b_n|^2`` (for the err), when more
    than one is read, by one ``np.correlate(w[lo:hi+K], |b|^2)``, and, if it
    starts at or past the largest shift K, the sums of ``b_(n-k) c_n`` by one
    ``np.correlate(b[lo-K:hi], conj(c))`` read backwards; numpy conjugates
    the second argument back and calls, per lag, the BLAS dot that ``np.dot``
    calls over the same slices, so each partial has the bytes of that dot.
    Other blocks and sparse shifts take one dot per shift.  The blocks run in
    contiguous groups, one per core of the process (``_each_core``); each
    partial goes into a row of its own and the rows are added in block
    order, so the bytes do not depend on the number of workers.  The partial
    arrays have one column per shift, however large the largest.
    """
    shifts = [int(k) for k in shifts]
    if not shifts:
        raise ValueError("shift_inner_products needs at least one shift")
    if min(shifts) < 0:
        raise ValueError(f"shift {min(shifts)} is negative; shifts must be non-negative")
    top = max(shifts)
    b = B.coefficients
    N = len(b) - 1
    tau = B.tail_bound
    if math.isinf(tau):
        raise UnboundedTail("shift_inner_product needs a finite tail bound")
    if not space.diagonal:
        if tau != 0.0:
            raise UnboundedTail(
                "non-diagonal spaces support shift products only for exact polynomials")
        shifted = np.zeros((len(shifts), N + top + 1), dtype=complex)
        for row, k in zip(shifted, shifts):
            row[k: k + N + 1] = b
        padded = np.zeros(N + top + 1, dtype=complex)
        padded[: N + 1] = b
        return [(complex(v), 0.0) for v in space.inner(shifted, padded)]
    w = space.weights(N + top)
    # Shifts whose w_(n+k) |b_n|^2 sum is read: k = 0 is <B, B> and ||B||.
    norms = sorted({0, *shifts}) if tau else [0] if 0 in shifts else []
    blocks = range(0, N + 1, SHIFT_BLOCK)
    cross = np.zeros((len(blocks), len(shifts)), dtype=complex)
    square = np.zeros((len(blocks), len(norms)))
    # One correlate per block computes every lag 0..top: taken only where that
    # is at most a few lags beyond those asked for.
    sweep = top + 1 - len(set(shifts)) <= _SPARE_LAGS
    lags = top - np.array(shifts) if sweep and top else None

    def run(group):
        for i in group:
            lo = blocks[i]
            hi = min(lo + SHIFT_BLOCK, N + 1)
            abs_sq = np.abs(b[lo:hi]) ** 2
            if len(norms) > 1 and sweep:
                square[i] = np.correlate(w[lo: hi + norms[-1]], abs_sq)[norms]
            else:
                for j, k in enumerate(norms):
                    square[i, j] = np.dot(w[lo + k: hi + k], abs_sq)
            if top == 0:
                continue
            c = w[lo:hi] * b[lo:hi].conj()
            if sweep and lo >= top:
                # correlate conjugates its second argument, back to c here.
                cross[i] = np.correlate(b[lo - top: hi], np.conjugate(c, out=c))[lags]
                continue
            for j, k in enumerate(shifts):
                start = max(lo, k)
                if 0 < k and start < hi:
                    cross[i, j] = np.dot(b[start - k: hi - k], c[start - lo:])

    _each_core(len(blocks), run)
    cross, square = cross.sum(axis=0), dict(zip(norms, square.sum(axis=0)))
    out = []
    for k, value in zip(shifts, cross):
        err = 0.0
        if tau:
            mk = space.shift_norm_bound(k)
            znorm = math.sqrt(float(square[k]))
            bnorm = math.sqrt(float(square[0]))
            err = znorm * tau + mk * tau * (bnorm + tau)
        out.append((complex(square[0]) if k == 0 else complex(value), err))
    return out


def shift_inner_product(space: SpaceSpec, B: TaylorSeries, k: int) -> tuple[complex, float]:
    """``<z^k B, B>`` with a tail error bound: ``shift_inner_products`` at one shift."""
    return shift_inner_products(space, B, (k,))[0]
