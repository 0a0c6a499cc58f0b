"""Kernel functions: Taylor expansions, pairwise inner products, shift products.

In a diagonal space with weights ``w_n`` the derivative kernel at ``beta`` of
order ``m`` (the representer of ``f -> f^(m)(beta)``) has the expansion

    k_beta^(m)(z) = sum_{n >= m} [n! / (n-m)!] * conj(beta)^(n-m) * z^n / w_n

and the pairing of two kernels is the series

    <k_a^(p), k_b^(q)> = sum_n [n!/(n-p)!][n!/(n-q)!] conj(a)^(n-p) b^(n-q) / w_n.

Every summation here returns a certified ``(value, err)``, or a Taylor
series whose ``tail_bound`` is a bound, or raises ``ToleranceUnreachable``;
no sum returns an infinite or estimated ``err``.  Sums inside the disk use a
geometric tail bound (term-ratio majorant) plus a bound on their rounding.  In
``D_alpha`` a pairing with ``|conj(a) b| >= _POLYLOG_SWITCH``, on the circle
too, is a finite sum of polylogarithms ``Li_s(conj(a) b)``, summed by their
expansion about 1; its err covers rounding as well.  Boundary kernel tails use
an integral p-series bound.

All functions are pure; summation order is fixed, so results are deterministic.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaln, zeta as _riemann_zeta

from .errors import (DivergentSeries, ToleranceUnreachable, UnboundedTail,
                     UnsupportedRoute)
from .jsonio import complex_pair, pair_complex
from .spaces import BOUNDARY_TOL, SpaceSpec, polyval_derivative

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
        object.__setattr__(self, "order", int(self.order))
        if self.order < 0:
            raise ValueError("kernel order must be nonnegative")

    def to_json(self) -> dict:
        return {"point": complex_pair(self.point), "order": self.order}


@dataclass(frozen=True)
class TruncationPolicy:
    """How hard to push a series: the tail to close below, and the term budget.

    Each sum picks its own certificate (geometric tails inside the disk, the
    polylogarithm expansion near and on the circle of ``D_alpha``, p-series
    kernel tails on it) and raises ``ToleranceUnreachable`` when the budget
    runs out first.
    """

    target_tolerance: float = 1e-12
    max_terms: int = 2_000_000

    def __post_init__(self):
        if not self.target_tolerance > 0:
            raise ValueError("target_tolerance must be positive")
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power series with a bound on the norm of the discarded tail.

    ``tail_bound`` is a bound on the space norm of the tail (``0`` for exact
    polynomials).  Library routines always give a finite bound; a series built
    by hand with ``inf`` is refused by the shift products (``UnboundedTail``).
    """

    coefficients: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=complex)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)
        object.__setattr__(self, "tail_bound", float(self.tail_bound))

    @property
    def truncation_degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> complex:
        if 0 <= n < len(self.coefficients):
            return complex(self.coefficients[n])
        return 0j

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coefficients)

    def derivative_at(self, z, order: int = 0):
        return polyval_derivative(self.coefficients, z, order)

    def scaled(self, factor: complex) -> "TaylorSeries":
        return TaylorSeries(self.coefficients * factor,
                            abs(factor) * self.tail_bound)

    def padded(self, degree: int) -> "TaylorSeries":
        if degree <= self.truncation_degree:
            return self
        out = np.zeros(degree + 1, dtype=complex)
        out[: len(self.coefficients)] = self.coefficients
        return TaylorSeries(out, self.tail_bound)

    def to_json(self) -> dict:
        return {"coeffs": [complex_pair(c) for c in self.coefficients],
                "N": self.truncation_degree, "tail": self.tail_bound}

    @classmethod
    def from_json(cls, obj: dict) -> "TaylorSeries":
        return cls(np.array([pair_complex(c) for c in obj["coeffs"]], dtype=complex),
                   float(obj.get("tail", 0.0)))


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
    def from_json(cls, space: SpaceSpec, obj: dict) -> "KernelCombo":
        return cls(space, tuple((KernelTerm(pair_complex(e["point"]), int(e["order"])),
                                 pair_complex(e["coef"])) for e in obj["terms"]))


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _falling(n: np.ndarray, m: int) -> np.ndarray:
    """n! / (n-m)! elementwise (valid for n >= m)."""
    out = np.ones_like(n, dtype=float)
    for i in range(m):
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


def _alpha_of(space: SpaceSpec) -> float:
    if space.decay_exponent is None:
        raise ToleranceUnreachable(
            "boundary-point series have certified bounds only in Dirichlet-type "
            "spaces")
    return space.decay_exponent


def _pair_terms(space: SpaceSpec, a: KernelTerm, b: KernelTerm,
                ns: np.ndarray) -> np.ndarray:
    t = _falling(ns, a.order) * _falling(ns, b.order) / space.weights_at(ns)
    return t.astype(complex) * np.conjugate(a.point) ** (ns - a.order) \
        * b.point ** (ns - b.order)


def _pair_geometric(space, a, b, policy):
    """The pairing series summed in blocks until its geometric tail is below tol.

    err is that tail plus a rounding bound ``eps sum_n (64 + 4 n L)|t_n|``,
    ``L = |log a| + |log b|``.  numpy forms ``z^n`` as ``exp(n log z)`` from
    n = 100 on, with relative error about ``(7 n |log z| + 4) u``
    (``u = eps/2``), and by repeated squaring below; the constant covers those
    products, the falling factors, the weight and the blocked sum.  The loop
    stops on the tail alone, so the rounding term never blocks a tolerance.
    """
    rho = abs(a.point) * abs(b.point)
    tol = policy.target_tolerance
    logs = abs(cmath.log(a.point)) + abs(cmath.log(b.point))
    total = 0j
    size = 0.0
    for ns in _blocks(max(a.order, b.order), policy.max_terms, 256, 1 << 16):
        t = _pair_terms(space, a, b, ns)
        total += t.sum()
        size += float(np.abs(t) @ (64.0 + 4.0 * logs * ns))
        j0 = int(ns[-1])
        ratio = rho * ((j0 + 1.0) / (j0 + 1.0 - a.order)) \
                    * ((j0 + 1.0) / (j0 + 1.0 - b.order)) \
                    * space.weight_ratio_sup(j0)
        if ratio < 1.0:
            bound = abs(t[-1]) * ratio / (1.0 - ratio) * _FLOAT_SLACK
            if bound <= tol:
                return total, float(bound + _EPS * size * _FLOAT_SLACK)
    raise ToleranceUnreachable(
        f"geometric pairing did not close below {tol} within {policy.max_terms} terms")


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


def _pair_polylog(space, a, b, policy):
    """``sum_j c_j Li_(alpha-j)(x) / (x conj(a)^p b^q)`` with ``x = conj(a) b = e^mu``.

    In ``D_alpha`` the pairing is ``sum_n P(n+1) x^n/(n+1)^alpha``, ``P(u) = sum_j c_j u^j
    = prod_(m = p, q) (u-1)...(u-m)``; ``mu`` is the difference of the points' logarithms
    (``Re mu = 0`` if both are on the circle).  err covers each ``_polylog`` bound, the
    rounding of the sum and, to first order by ``d/dmu Li_s = Li_(s-1)``, that of mu."""
    alpha = _alpha_of(space)
    poly = np.atleast_1d(np.poly(np.r_[1:a.order + 1, 1:b.order + 1]))[::-1]
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
    """``<k_a^(ma), k_b^(mb)>`` with an error bound (see the module docstring)."""
    _require_diagonal(space, "kernel_pairing")
    _require_admissible(space, a)
    _require_admissible(space, b)
    # A kernel at the origin leaves one term of the series: n = its order.
    origin = [t.order for t in (a, b) if t.point == 0]
    if origin:
        n = min(origin)
        if n < max(a.order, b.order):
            return 0j, 0.0
        return complex(_pair_terms(space, a, b, np.array([n]))[0]), 0.0
    rho = abs(a.point) * abs(b.point)
    if rho > 1.0 + BOUNDARY_TOL:
        raise DivergentSeries(f"pairing series diverges: |a * b| = {rho} > 1")
    if rho < _POLYLOG_SWITCH or (rho < 1 - BOUNDARY_TOL and space.decay_exponent is None):
        return _pair_geometric(space, a, b, policy)
    return _pair_polylog(space, a, b, policy)


def derivative_functional(point: complex, order: int, N: int) -> np.ndarray:
    """Vector v with ``v @ c = f^(order)(point)`` for ``f = sum_{n<=N} c_n z^n``.

    ``v_n = n!/(n-order)! * point^(n-order)`` for n >= order and 0 below.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    out = np.zeros(N + 1, dtype=complex)
    ns = np.arange(order, N + 1)
    # Formed in out itself: no full-length complex temporary at a Taylor degree of 10^6.
    np.power(point, ns - order, out=out[order:])
    out[order:] *= _falling(ns, order)
    return out


def _taylor_coefficients(term: KernelTerm, w: np.ndarray) -> np.ndarray:
    # Coefficient n of k_t^(m) is conj(v_n) / w_n, v = derivative_functional(t, m, N),
    # for the weights w = w_0..w_N.
    return derivative_functional(np.conjugate(term.point), term.order, len(w) - 1) / w


def _taylor_tail(space: SpaceSpec, term: KernelTerm, N: int,
                 policy: TruncationPolicy) -> float:
    """Bound on the space norm of the discarded tail of ``kernel_taylor``."""
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
            q = _falling(ns, m) ** 2 * rho2 ** (ns - m) / space.weights_at(ns)
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
    """Taylor expansion of a derivative kernel through degree N."""
    _require_diagonal(space, "kernel_taylor")
    _require_admissible(space, term)
    return TaylorSeries(_taylor_coefficients(term, space.weights(N)),
                        _taylor_tail(space, term, N, policy))


def combo_taylor(space: SpaceSpec, B: KernelCombo, N: int,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> TaylorSeries:
    """Taylor expansion of a kernel combination (linear in the terms)."""
    _require_diagonal(space, "combo_taylor")
    if B.space != space:
        raise ValueError("combo was built for a different space")
    w = space.weights(N)
    coeffs = np.zeros(N + 1, dtype=complex)
    tail = 0.0
    for term, coef in B.terms:
        _require_admissible(space, term)
        coeffs += coef * _taylor_coefficients(term, w)
        tail += abs(coef) * _taylor_tail(space, term, N, policy)
    return TaylorSeries(coeffs, tail)


def combo_derivative_at(space: SpaceSpec, B: KernelCombo, beta: complex, ell: int,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[complex, float]:
    """``B^(ell)(beta)`` evaluated as a sum of kernel pairings."""
    target = KernelTerm(beta, ell)
    _require_admissible(space, target)
    value, err = 0j, 0.0
    for term, coef in B.terms:
        v, e = kernel_pairing(space, term, target, policy)
        value += coef * v
        err += abs(coef) * e
    return value, err


# Coefficients per block of ``shift_inner_products``: the block's slices of b,
# conj(b), w and the products stay in a core's L2 cache across the shifts.
SHIFT_BLOCK = 1 << 13


def shift_inner_products(space: SpaceSpec, B: TaylorSeries,
                         shifts) -> list[tuple[complex, float]]:
    """``<z^k B, B>`` for each k in ``shifts``, with tail error bounds.

    The finite part is the exact quadratic form of the truncation; the error
    combines the tail bound with Cauchy--Schwarz cross terms, using a bound on
    the shift norm.  A polynomial input (tail 0) gives err 0.

    In a diagonal space one pass over ``SHIFT_BLOCK``-sized blocks of b forms,
    for every shift, the partial sums of ``w_n b_(n-k) conj(b_n)`` and (for
    the err) of ``w_(n+k) |b_n|^2`` from one weight vector; the block partials
    are then added.  An input of at most ``SHIFT_BLOCK`` coefficients is one
    block, summed exactly as a sum over the whole array.
    """
    shifts = [int(k) for k in shifts]
    b = B.coefficients
    N = len(b) - 1
    tau = B.tail_bound
    if math.isinf(tau):
        raise UnboundedTail("shift_inner_product needs a finite tail bound")
    if not space.diagonal:
        if tau != 0.0:
            raise UnboundedTail(
                "non-diagonal spaces support shift products only for exact polynomials")
        top = max(shifts)
        shifted = np.zeros((len(shifts), N + top + 1), dtype=complex)
        for row, k in zip(shifted, shifts):
            row[k: k + N + 1] = b
        padded = np.zeros(N + top + 1, dtype=complex)
        padded[: N + 1] = b
        return [(complex(v), 0.0) for v in space.inner(shifted, padded)]
    w = space.weights(N + max(shifts))
    # Shifts whose w_(n+k) |b_n|^2 sum is read: k = 0 is <B, B> and ||B||.
    norms = sorted({0, *shifts}) if tau else [0] if 0 in shifts else []
    blocks = range(0, N + 1, SHIFT_BLOCK)
    cross = np.zeros((len(blocks), len(shifts)), dtype=complex)
    square = np.zeros((len(blocks), len(norms)))
    for i, lo in enumerate(blocks):
        hi = min(lo + SHIFT_BLOCK, N + 1)
        abs_sq = np.abs(b[lo:hi]) ** 2
        conj = b[lo:hi].conj()
        for j, k in enumerate(norms):
            square[i, j] = np.sum(w[lo + k: hi + k] * abs_sq)
        for j, k in enumerate(shifts):
            start = max(lo, k)
            if 0 < k and start < hi:
                cross[i, j] = np.sum(w[start:hi] * b[start - k: hi - k]
                                     * conj[start - lo:])
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
