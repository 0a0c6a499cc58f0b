"""The tests' mpmath references, and the helpers several test modules share.

Each reference works at the caller's ``mpmath.workdps`` and reads a space's
parameter alone (``alpha`` of ``D_alpha``, ``zeta`` of the local Dirichlet
space): none calls kernelblaschke to compute its value.
"""

import functools
import json
import math

import mpmath
import numpy as np
import scipy.linalg

import kernelblaschke as kb
from kernelblaschke import cli

H2, A2, D1 = kb.hardy_space(), kb.bergman_space(), kb.dirichlet_space()
D2, D4 = kb.DirichletType(2.0), kb.DirichletType(4.0)
# Callable-rule twins of H2 and A2: the same weights on the generic diagonal
# path, so their interior pairings take the geometric loop, which D_alpha at
# an integer alpha <= 1 leaves to its closed form.
H2_W = kb.WeightedHardy(lambda k: 1.0)
A2_W = kb.WeightedHardy(lambda k: 1.0 / (k + 1))


def falling_poly(orders):
    """Coefficients c_j (ascending in u = n + 1) of prod_m n!/(n-m)!."""
    poly = [mpmath.mpf(1)]
    for m in orders:
        for i in range(m):
            poly = [s - (1 + i) * t for s, t in zip([0] + poly, poly + [0])]
    return poly


def closed_form(power, u, v, p, q):
    """d^p/du^p d^q/dv^q (1 - u v)^(-power): the D_0 (power 1), D_-1 (2) kernel."""
    total = mpmath.mpc(0)
    for i in range(min(p, q) + 1):
        total += (mpmath.binomial(p, i) * mpmath.ff(q, i) * u ** (q - i)
                  * mpmath.rf(power, q) * mpmath.rf(power + q, p - i) * v ** (p - i)
                  * (1 - u * v) ** (-power - q - p + i))
    return total


def lerch_form(alpha, u, v, p, q, on_circle=False):
    """The same derivative of the D_alpha kernel sum_n (u v)^n / (n+1)^alpha:
    sum_n P(n+1) x^n / (n+1)^alpha / (u^p v^q), x = u v, P = ``falling_poly``,
    by Lerch's Phi (zeta at x = 1)."""
    x = u * v
    if on_circle:  # the points are unimodular up to the rounding of their input
        x /= abs(x)
    total = mpmath.mpc(0)
    for j, c in enumerate(falling_poly((p, q))):
        if c:
            s = mpmath.mpf(alpha) - j
            total += c * (mpmath.zeta(s) if x == 1 else mpmath.lerchphi(x, s, 1))
    return total * x / (u * v) / (u ** p * v ** q)


def eulerian_polylog(s, x):
    """``Li_s(x)`` for an integer ``s <= 1``: ``-log(1 - x)``, and ``x A_m(x) /
    (1 - x)^(m+1)`` for s = -m, A_m the Eulerian polynomial (Graham, Knuth and
    Patashnik, *Concrete Mathematics*, 2nd ed., section 6.2)."""
    if s == 1:
        return -mpmath.log(1 - x)
    row = [1]  # A_0
    for n in range(1, 1 - s):
        row = [(k + 1) * (row[k] if k < len(row) else 0) + (n - k) * (row[k - 1] if k else 0)
               for k in range(n)]
    return x * mpmath.polyval(row[::-1], x) / (1 - x) ** (1 - s)


def elementary_form(alpha, u, v, p, q):
    """``lerch_form``'s pairing for an integer ``alpha <= 1``, each ``Li_s`` by
    ``eulerian_polylog``."""
    x = u * v
    total = mpmath.fsum(c * eulerian_polylog(alpha - j, x)
                        for j, c in enumerate(falling_poly((p, q))))
    return total / x / (u ** p * v ** q)


def functional(t, order, n):
    """F_m(n) t^(n-m), F_m(n) = n!/(n-m)!, m = ``order``: the n-th coefficient
    of the functional f -> f^(m)(t), and 0 for n < m."""
    return mpmath.ff(n, order) * mpmath.mpc(t) ** (n - order) if n >= order else mpmath.mpc(0)


def taylor_shift(coeffs, center, K):
    """``d_k = f^(k)(center) / k!`` for k <= K, f the polynomial of ascending
    ``coeffs``: the remainders of K + 1 synthetic divisions by ``z - center``."""
    t = mpmath.mpc(center)
    rest, shift = [mpmath.mpc(c) for c in coeffs[::-1]], []
    for _ in range(K + 1):
        acc, quotient = mpmath.mpc(0), []
        for c in rest:
            acc = acc * t + c
            quotient.append(acc)
        shift.append(quotient.pop() if quotient else mpmath.mpc(0))
        rest = quotient
    return shift


def monomial_inner(space, zeta=None):
    """``(a, b) -> <z^a, z^b>`` in ``space``: ``(a + 1)^alpha`` if a = b, else 0,
    in D_alpha; ``delta_ab + min(a, b) zeta^a conj(zeta)^b`` in the local
    Dirichlet space at ``zeta``, the space's own unless one is given."""
    if isinstance(space, kb.DirichletType):
        alpha, zero = mpmath.mpf(space.alpha), mpmath.mpf(0)
        return lambda a, b: mpmath.mpf(a + 1) ** alpha if a == b else zero
    if isinstance(space, kb.LocalDirichlet):
        z = mpmath.mpc(space.zeta if zeta is None else zeta)
        power = functools.lru_cache(maxsize=None)(lambda a: z ** a)
        return lambda a, b: (a == b) + min(a, b) * power(a) * mpmath.conj(power(b))
    raise TypeError(f"no mpmath monomial rule for {space!r}")


def span_gram(space, pc, count, zeta=None):
    """The lower band of ``S[i, j] = <z^i p, z^j p> = sum_(m, k) p_m conj(p_k)
    <z^(i+m), z^(j+k)>`` for i, j < count, p = sum p_m z^m: ``band[k][i] =
    S[i + k, i]``, zero past ``count - k``.  In a diagonal space only the
    band |i - j| <= deg p is formed, else all of S; ``zeta`` is passed to
    ``monomial_inner``."""
    inner = monomial_inner(space, zeta)
    pc = [mpmath.mpc(c) for c in pc]
    d = len(pc) - 1
    pairs = [(m, k, pc[m] * mpmath.conj(pc[k])) for m in range(d + 1) for k in range(d + 1)]
    band = []
    for off in range(min(d, count - 1) + 1 if space.diagonal else count):
        terms = [t for t in pairs if not space.diagonal or t[1] == t[0] + off]
        band.append([mpmath.fsum(c * inner(i + off + m, i + k) for m, k, c in terms)
                     for i in range(count - off)] + [mpmath.mpc(0)] * off)
    return band


def projection(space, pc, M):
    """The coefficients z^0..z^M of the projection of k_0 onto the span of
    z^j p, j = 0..M - deg p: ``sum_j x_j z^j p`` with ``sum_j x_j S[j, i] =
    <k_0, z^i p>``, which is conj(p_0) for i = 0 and 0 otherwise.

    Iterative refinement: each residual in mpmath from ``span_gram``'s band,
    each correction from one LU factor (scipy) of the equilibrated S^T rounded
    to double, until a correction falls below 1e-30 of x."""
    pc = [mpmath.mpc(c) for c in pc]
    d = len(pc) - 1
    count = M - d + 1
    band = span_gram(space, pc, count)
    St = dense(np.array(band, dtype=complex)).T
    scale = 1.0 / np.sqrt(St.diagonal().real)
    lu = scipy.linalg.lu_factor(scale[:, None] * St * scale)
    rhs = [mpmath.conj(pc[0])] + [mpmath.mpc(0)] * (count - 1)
    x = [mpmath.mpc(0)] * count
    for _ in range(20):
        # (S^T x)_i = sum_k S[i + k, i] x_(i+k) + sum_(k >= 1) conj(S[i, i - k]) x_(i-k).
        r = [rhs[i] - mpmath.fsum(
            [band[k][i] * x[i + k] for k in range(min(len(band), count - i))]
            + [mpmath.conj(band[k][i - k]) * x[i - k] for k in range(1, min(len(band), i + 1))])
            for i in range(count)]
        dx = scale * scipy.linalg.lu_solve(lu, scale * np.array(r, dtype=complex))
        x = [a + mpmath.mpc(b) for a, b in zip(x, dx)]
        if np.max(np.abs(dx)) <= 1e-30 * float(max(abs(v) for v in x)):
            break
    else:
        raise AssertionError("refinement did not converge")
    return [mpmath.fsum(x[j] * pc[n - j] for j in range(max(0, n - d), min(count - 1, n) + 1))
            for n in range(M + 1)]


def expand(roots):
    """The coefficients (ascending) of prod (z - r)^m over ``roots``, (r, m)
    pairs, formed in mpmath."""
    pc = [mpmath.mpc(1)]
    for r, m in roots:
        for _ in range(m):
            pc = [(pc[i - 1] if i else 0) - mpmath.mpc(r) * (pc[i] if i < len(pc) else 0)
                  for i in range(len(pc) + 1)]
    return pc


def K(point, order=0):
    return kb.KernelTerm(point, order)


def Z_of(*entries, origin=0):
    return kb.ReproducibleMultiset(origin, tuple((complex(p), m) for p, m in entries))


def run_cli(tmp_path, command, cfg, out="r"):
    """The exit code of ``command`` on ``cfg``, written to ``tmp_path/cfg.json``,
    with its reports in ``tmp_path/out``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / out), "--quiet"])


def shift_rows(p, M):
    """The rows z^j p, j = 0..M - deg p, as coefficients of z^0..z^M."""
    pc = p.coefficients()
    rows = np.zeros((M - p.degree + 1, M + 1), dtype=complex)
    for j in range(len(rows)):
        rows[j, j: j + len(pc)] = pc
    return rows


def dense(band):
    """The Hermitian matrix whose lower band is ``band``."""
    count = band.shape[1]
    S = np.zeros((count, count), dtype=complex)
    for k, row in enumerate(band):
        i = np.arange(count - k)
        S[i + k, i] = row[: count - k]
        S[i, i + k] = np.conjugate(row[: count - k])
    return S


def sample_multiset(rng, max_points=4, max_total=5, rlo=0.45, rhi=0.72, sep=0.52):
    """Seeded admissible multisets: <= 4 interior points, zero orders <= 2.

    Moduli, separations and the single-double-point cap keep the kernel Gram
    well conditioned, so the literal cofactor route retains the accuracy the
    1e-8 agreement gates demand in double precision.
    """
    while True:
        npts = int(rng.integers(1, max_points + 1))
        pts, mults = [], []
        for _ in range(400):
            if len(pts) == npts:
                break
            c = rng.uniform(rlo, rhi) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            if all(abs(c - q) > sep for q in pts):
                pts.append(complex(c))
                m = int(rng.integers(1, 3))
                mults.append(1 if 2 in mults else m)
        if len(pts) < npts:
            continue
        m0 = int(rng.integers(0, 3))
        if m0 + sum(mults) <= max_total:
            return kb.ReproducibleMultiset(m0, tuple(zip(pts, mults)))
