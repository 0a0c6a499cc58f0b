"""Kernel functions: Taylor expansions, pairwise inner products, shift products.

In a diagonal space with weights ``w_n`` the derivative kernel at ``beta`` of
order ``m`` (the representer of ``f -> f^(m)(beta)``) has the expansion

    k_beta^(m)(z) = sum_{n >= m} [n! / (n-m)!] * conj(beta)^(n-m) * z^n / w_n

and the pairing of two kernels is the series

    <k_a^(p), k_b^(q)> = sum_n [n!/(n-p)!][n!/(n-q)!] conj(a)^(n-p) b^(n-q) / w_n.

Every summation here returns ``(value, err)`` where ``err`` bounds the
truncation error.  Interior points use a geometric tail bound (term-ratio
majorant), boundary points of Dirichlet-type spaces use an integral p-series
bound, an exact zeta reduction when ``conj(a) * b = 1``, and an alternating /
Dirichlet-test bound otherwise.  ``bound_kind="none"`` disables certification
and stops heuristically (the returned err is then an estimate, not a bound).

All functions are pure; summation order is fixed, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _riemann_zeta

from .errors import DivergentSeries, ToleranceUnreachable, UnboundedTail
from .jsonio import complex_pair, pair_complex
from .spaces import BOUNDARY_TOL, SpaceSpec, polyval_derivative

_X_ONE_TOL = 1e-14
_FLOAT_SLACK = 1.0 + 1e-9  # covers rounding inside computed tail bounds


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
    """How hard to push a series and which tail certificate to use.

    ``bound_kind`` selects the certification family: ``"geometric"`` and
    ``"p_series"`` both mean *certified* (the applicable bound is picked from
    the structure of each pairing: geometric inside the disk, p-series/zeta on
    the boundary); ``"none"`` disables certification and stops heuristically.
    """

    target_tolerance: float = 1e-12
    max_terms: int = 2_000_000
    bound_kind: str = "geometric"

    def __post_init__(self):
        if not self.target_tolerance > 0:
            raise ValueError("target_tolerance must be positive")
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")
        if self.bound_kind not in ("geometric", "p_series", "none"):
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")

    @property
    def certified(self) -> bool:
        return self.bound_kind != "none"


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power series with a bound on the norm of the discarded tail.

    ``tail_bound`` is a bound on the space norm of the tail (``0`` for exact
    polynomials, ``inf`` when no bound is available).
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
        return {
            "coeffs": [complex_pair(c) for c in self.coefficients],
            "N": self.truncation_degree,
            "tail": self.tail_bound,
        }

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
        return cls(space, tuple(
            (KernelTerm(pair_complex(e["point"]), int(e["order"])),
             pair_complex(e["coef"]))
            for e in obj["terms"]
        ))


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
        raise TypeError(f"{what} needs a diagonal (weighted) space; "
                        f"got {type(space).__name__} -- use the finite-dimensional "
                        "projection routines instead")


def _require_admissible(space: SpaceSpec, term: KernelTerm) -> None:
    ro = space.reproducible_order(term.point)
    if not ro.admits(term.order):
        raise DivergentSeries(
            f"kernel k_{term.point}^({term.order}) does not lie in the space: "
            f"point has reproducible order {ro.to_json()!r}"
        )


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
    alpha = space.decay_exponent
    if alpha is None:
        raise ToleranceUnreachable(
            "boundary-point series have certified bounds only in Dirichlet-type "
            "spaces; use bound_kind='none' for a heuristic sum"
        )
    return alpha


def _pair_terms(space: SpaceSpec, a: KernelTerm, b: KernelTerm,
                ns: np.ndarray) -> np.ndarray:
    t = _falling(ns, a.order) * _falling(ns, b.order) / space.weights(ns[-1])[ns[0]:]
    t = t.astype(complex)
    t *= np.conjugate(a.point) ** (ns - a.order)
    t *= b.point ** (ns - b.order)
    return t


def _sum_heuristic(space, a, b, policy):
    """Uncertified summation for bound_kind='none': stop on 8 tiny terms."""
    tol = policy.target_tolerance
    total = 0j
    quiet = 0
    window = []
    for ns in _blocks(max(a.order, b.order), policy.max_terms, 512, 512):
        for v in _pair_terms(space, a, b, ns):
            total += v
            window.append(abs(v))
            if len(window) > 8:
                window.pop(0)
            quiet = quiet + 1 if abs(v) <= tol * 1e-3 else 0
            if quiet >= 8:
                return total, float(sum(window))
    raise ToleranceUnreachable("max_terms reached before the series settled")


def _pair_geometric(space, a, b, policy):
    rho = abs(a.point) * abs(b.point)
    tol = policy.target_tolerance
    total = 0j
    for ns in _blocks(max(a.order, b.order), policy.max_terms, 256, 1 << 16):
        t = _pair_terms(space, a, b, ns)
        total += t.sum()
        j0 = int(ns[-1])
        ratio = rho * ((j0 + 1.0) / (j0 + 1.0 - a.order)) \
                    * ((j0 + 1.0) / (j0 + 1.0 - b.order)) \
                    * space.weight_ratio_sup(j0)
        if ratio < 1.0:
            bound = abs(t[-1]) * ratio / (1.0 - ratio) * _FLOAT_SLACK
            if bound <= tol:
                return total, float(bound)
    raise ToleranceUnreachable(
        f"geometric pairing did not close below {tol} within {policy.max_terms} terms"
    )


def _zeta_poly_value(orders: tuple[int, ...], alpha: float) -> tuple[float, float]:
    """sum_{n>=0} prod_m [n!/(n-m)!] / (n+1)^alpha via the Riemann zeta function.

    The falling-factorial product is a polynomial in u = n+1, so the sum is an
    exact finite combination sum_j c_j zeta(alpha - j).
    """
    poly = np.array([1.0])
    for m in orders:
        for i in range(m):
            poly = np.convolve(poly, np.array([-(1.0 + i), 1.0]))
    value = 0.0
    scale = 0.0
    for j, c in enumerate(poly):
        if c == 0.0:
            continue
        s = alpha - j
        if s <= 1.0:
            raise DivergentSeries("zeta reduction hit a divergent exponent")
        z = float(_riemann_zeta(s))
        value += c * z
        scale += abs(c) * z
    return value, scale * 32 * np.finfo(float).eps


def _pair_boundary(space, a, b, policy):
    alpha = _alpha_of(space)
    s = alpha - a.order - b.order
    if s <= 1.0:
        raise DivergentSeries(
            f"boundary pairing needs alpha > {a.order + b.order + 1}, got {alpha}"
        )
    x = np.conjugate(a.point) * b.point
    prefactor = a.point ** a.order * np.conjugate(b.point) ** b.order
    if abs(x - 1.0) <= _X_ONE_TOL:
        value, err = _zeta_poly_value((a.order, b.order), alpha)
        return prefactor * value, err
    tol = policy.target_tolerance
    inv_gap = 1.0 / abs(1.0 - x)
    total = 0j
    for ns in _blocks(max(a.order, b.order), policy.max_terms, 1024, 1 << 18):
        total += _pair_terms(space, a, b, ns).sum()
        j0 = int(ns[-1])
        # Absolute p-series tail: |t_n| <= (n+1)^(ma+mb-alpha), integral bound.
        p_tail = (j0 + 1.0) ** (1.0 - s) / (s - 1.0)
        bound = p_tail
        # Dirichlet-test refinement.  d/dn log|t_n| < 0 persists once
        # (n+1) * sum_i 1/(n-i) - alpha < 0, because (n+1) d/dn log|t_n| is
        # decreasing; then |sum_{n>j0} t_n| <= 4 |t_{j0+1}| / |1-x|.
        slope = sum(1.0 / (j0 - i) for i in range(a.order)) \
            + sum(1.0 / (j0 - i) for i in range(b.order))
        if (j0 + 1.0) * slope - alpha < 0.0:
            nxt = float(_falling(np.array([j0 + 1]), a.order)[0]
                        * _falling(np.array([j0 + 1]), b.order)[0]
                        / (j0 + 2.0) ** alpha)
            bound = min(bound, 4.0 * nxt * inv_gap)
        if bound <= tol:
            return total, float(bound)
    raise ToleranceUnreachable(
        f"boundary pairing did not close below {tol} within {policy.max_terms} terms"
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def kernel_pairing(space: SpaceSpec, a: KernelTerm, b: KernelTerm,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[complex, float]:
    """Inner product ``<k_a^(ma), k_b^(mb)>`` with a truncation-error bound."""
    _require_diagonal(space, "kernel_pairing")
    _require_admissible(space, a)
    _require_admissible(space, b)
    pa, pb = a.point, b.point
    # A kernel at the origin collapses the series to a single exact term.
    if pa == 0 and pb == 0:
        if a.order != b.order:
            return 0j, 0.0
        m = a.order
        return complex(math.factorial(m) ** 2 / space.weight(m)), 0.0
    if pa == 0:
        if a.order < b.order:
            return 0j, 0.0
        n = a.order
        v = math.factorial(n) * _falling(np.array([n]), b.order)[0] \
            * pb ** (n - b.order) / space.weight(n)
        return complex(v), 0.0
    if pb == 0:
        if b.order < a.order:
            return 0j, 0.0
        n = b.order
        v = _falling(np.array([n]), a.order)[0] * math.factorial(n) \
            * np.conjugate(pa) ** (n - a.order) / space.weight(n)
        return complex(v), 0.0
    if not policy.certified:
        return _sum_heuristic(space, a, b, policy)
    rho = abs(pa) * abs(pb)
    if rho < 1.0 - BOUNDARY_TOL:
        return _pair_geometric(space, a, b, policy)
    if rho <= 1.0 + BOUNDARY_TOL:
        return _pair_boundary(space, a, b, policy)
    raise DivergentSeries(f"pairing series diverges: |a * b| = {rho} > 1")


def _taylor_coefficients(space: SpaceSpec, term: KernelTerm, N: int) -> np.ndarray:
    m = term.order
    out = np.zeros(N + 1, dtype=complex)
    if m > N:
        return out
    ns = np.arange(m, N + 1)
    vals = _falling(ns, m).astype(complex)
    vals *= np.conjugate(term.point) ** (ns - m)
    vals /= space.weights(N)[m:]
    out[m:] = vals
    return out


def _taylor_tail(space: SpaceSpec, term: KernelTerm, N: int,
                 policy: TruncationPolicy) -> float:
    """Bound on the space norm of the discarded tail of ``kernel_taylor``."""
    if not policy.certified:
        return math.inf
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
            q = _falling(ns, m) ** 2 * rho2 ** (ns - m) / space.weights(ns[-1])[ns[0]:]
            total += q.sum()
            j0 = int(ns[-1])
            ratio = rho2 * ((j0 + 1.0) / (j0 + 1.0 - m)) ** 2 \
                * space.weight_ratio_sup(j0)
            if ratio < 1.0:
                return math.sqrt(total + q[-1] * ratio / (1.0 - ratio)) * _FLOAT_SLACK
        return math.inf
    if beta <= 1.0 + BOUNDARY_TOL:
        alpha = _alpha_of(space)
        s = alpha - 2 * m
        if s <= 1.0:
            raise DivergentSeries(
                f"boundary kernel of order {m} needs alpha > {2 * m + 1}")
        # w_n |c_n|^2 <= (n+1)^(2m - alpha); integral tail bound.
        return math.sqrt((N + 1.0) ** (1.0 - s) / (s - 1.0)) * _FLOAT_SLACK
    raise DivergentSeries(f"kernel point lies outside the closed disk: |beta| = {beta}")


def kernel_taylor(space: SpaceSpec, term: KernelTerm, N: int,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> TaylorSeries:
    """Taylor expansion of a derivative kernel through degree N."""
    _require_diagonal(space, "kernel_taylor")
    _require_admissible(space, term)
    return TaylorSeries(_taylor_coefficients(space, term, N),
                        _taylor_tail(space, term, N, policy))


def combo_taylor(space: SpaceSpec, B: KernelCombo, N: int,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> TaylorSeries:
    """Taylor expansion of a kernel combination (linear in the terms)."""
    if B.space != space:
        raise ValueError("combo was built for a different space")
    coeffs = np.zeros(N + 1, dtype=complex)
    tail = 0.0
    for term, coef in B.terms:
        _require_admissible(space, term)
        coeffs += coef * _taylor_coefficients(space, term, N)
        tail += abs(coef) * _taylor_tail(space, term, N, policy)
    return TaylorSeries(coeffs, tail)


def combo_derivative_at(space: SpaceSpec, B: KernelCombo, beta: complex, ell: int,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> tuple[complex, float]:
    """``B^(ell)(beta)`` evaluated as a sum of kernel pairings."""
    target = KernelTerm(beta, ell)
    _require_admissible(space, target)
    value = 0j
    err = 0.0
    for term, coef in B.terms:
        v, e = kernel_pairing(space, term, target, policy)
        value += coef * v
        err += abs(coef) * e
    return value, err


def shift_inner_product(space: SpaceSpec, B: TaylorSeries, k: int) -> tuple[complex, float]:
    """``<z^k B, B>`` from the truncated coefficients, with a tail error bound.

    The finite part is the exact quadratic form of the truncation; the error
    combines the tail bound with Cauchy--Schwarz cross terms, using a bound on
    the shift norm.  A polynomial input (tail 0) gives err 0.
    """
    b = B.coefficients
    N = len(b) - 1
    tau = B.tail_bound
    if math.isinf(tau):
        raise UnboundedTail("shift_inner_product needs a finite tail bound")
    if space.diagonal:
        w = space.weights(N + k)
        if k == 0:
            value = complex(np.sum(w[: N + 1] * np.abs(b) ** 2))
        elif k <= N:
            value = complex(np.sum(w[k: N + 1] * b[: N + 1 - k] * b[k:].conj()))
        else:
            value = 0j
        if tau == 0.0:
            return value, 0.0
        mk = space.shift_norm_bound(k)
        znorm = math.sqrt(float(np.sum(w[k: k + N + 1] * np.abs(b) ** 2)))
        bnorm = math.sqrt(float(np.sum(w[: N + 1] * np.abs(b) ** 2)))
        err = znorm * tau + mk * tau * (bnorm + tau)
        return value, err
    if tau != 0.0:
        raise UnboundedTail(
            "non-diagonal spaces support shift products only for exact polynomials")
    G = space.gram(N + k)
    block = G[k: k + N + 1, : N + 1]
    value = complex(np.einsum("m,mn,n->", b, block, b.conj()))
    return value, 0.0
