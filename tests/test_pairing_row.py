"""The pairing layer keeps its bytes: ``_pair_terms`` against ``np.power``, and
``kernel_pairing``, ``pairing_gram`` and ``combo_derivative_at`` against a
per-pair reference, errors included.  The reference takes the library's path
for each pair: a pair that takes the geometric loop or the origin's term is
compared byte for byte with a copy of that code, and one that takes the
elementary closed form of H2 or A2 is the library's closed form, held within
its err of mpmath's ``closed_form``."""

import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernelblaschke as kb
from kernelblaschke import kernels
from kernelblaschke.construct import pairing_gram
from kernelblaschke.spaces import BOUNDARY_TOL

from mpref import A2, D4, H2, K, closed_form

D3 = kb.DirichletType(3.0)
D_M25 = kb.DirichletType(-2.5)
RULE = kb.WeightedHardy(lambda k: 1.0 / (k + 1.0) ** 0.5)
SHORT = kb.WeightedHardy((1.0,) * 300)


# ---------------------------------------------------------------------------
# The per-pair loop as it was: np.power for every power, one pair at a time
# ---------------------------------------------------------------------------

def _falling_ref(n, m):
    out = np.ones_like(n, dtype=float)
    for i in range(m):
        out *= n - i
    return out


def _terms_ref(space, a, b, ns):
    t = _falling_ref(ns, a.order) * _falling_ref(ns, b.order) / space.weights(int(ns.max()))[ns]
    return t.astype(complex) * np.conjugate(a.point) ** (ns - a.order) \
        * b.point ** (ns - b.order)


def _geometric_ref(space, a, b, policy):
    rho = abs(a.point) * abs(b.point)
    tol = policy.target_tolerance
    logs = abs(cmath.log(a.point)) + abs(cmath.log(b.point))
    total = 0j
    size = 0.0
    for ns in kernels._blocks(max(a.order, b.order), policy.max_terms, 256, 1 << 16):
        t = _terms_ref(space, a, b, ns)
        total += t.sum()
        size += float(np.abs(t) @ (64.0 + 4.0 * logs * ns))
        j0 = int(ns[-1])
        ratio = rho * ((j0 + 1.0) / (j0 + 1.0 - a.order)) \
            * ((j0 + 1.0) / (j0 + 1.0 - b.order)) \
            * space.weight_ratio_sup(j0)
        if ratio < 1.0:
            bound = abs(t[-1]) * ratio / (1.0 - ratio) * kernels._FLOAT_SLACK
            if bound <= tol:
                return total, float(bound + kernels._EPS * size * kernels._FLOAT_SLACK)
    raise kb.ToleranceUnreachable(
        f"geometric pairing did not close below {tol} within {policy.max_terms} terms")


def _admissible_ref(space, term):
    ro = space.reproducible_order(term.point)
    if not ro.admits(term.order):
        raise kb.DivergentSeries(
            f"kernel k_{term.point}^({term.order}) does not lie in the space: "
            f"point has reproducible order {ro.to_json()!r}")


@functools.lru_cache(maxsize=None)
def _closed_form_ref(power, a, p, b, q):
    with mpmath.workdps(40):
        return closed_form(power, mpmath.conj(mpmath.mpc(a)), mpmath.mpc(b), p, q)


def _elementary_ref(space, a, b, policy):
    """H2's and A2's closed form, held within its err of mpmath, or None where
    the pair falls through to the loop: below the switch, when its err is past
    the tolerance and 64 eps of the all-positive series, or it overflows."""
    rho = abs(a.point) * abs(b.point)
    try:
        value, err = kernels._pair_polylog(space, a, b)
        if not (rho >= kernels._POLYLOG_SWITCH or err <= policy.target_tolerance
                or err <= 64 * kernels._EPS * kernels._pair_polylog(
                    space, K(abs(a.point), a.order), K(abs(b.point), b.order))[0].real):
            return None
    except kb.ToleranceUnreachable:
        if rho >= kernels._POLYLOG_SWITCH:
            raise
        return None
    ref = _closed_form_ref({H2: 1, A2: 2}[space], a.point, a.order, b.point, b.order)
    assert abs(mpmath.mpc(value) - ref) <= err, (space, a, b, value, err)
    return value, err


def _pairing_ref(space, a, b, policy=kb.DEFAULT_POLICY):
    kernels._require_diagonal(space, "kernel_pairing")
    _admissible_ref(space, a)
    _admissible_ref(space, b)
    origin = [t.order for t in (a, b) if t.point == 0]
    if origin:
        n = min(origin)
        if n < max(a.order, b.order):
            return 0j, 0.0
        return complex(_terms_ref(space, a, b, np.array([n]))[0]), 0.0
    rho = abs(a.point) * abs(b.point)
    if rho > 1.0 + BOUNDARY_TOL:
        raise kb.DivergentSeries(f"pairing series diverges: |a * b| = {rho} > 1")
    if space in (H2, A2):
        closed = _elementary_ref(space, a, b, policy)
        if closed is not None:
            return closed
    elif not (rho < kernels._POLYLOG_SWITCH or (rho < 1 - BOUNDARY_TOL
                                                and space.decay_exponent is None)):
        return kernels._pair_polylog(space, a, b)
    return _geometric_ref(space, a, b, policy)


def _gram_ref(space, terms, policy=kb.DEFAULT_POLICY):
    n = len(terms)
    G = np.zeros((n, n), dtype=complex)
    err = 0.0
    for i in range(n):
        for j in range(i, n):
            v, e = _pairing_ref(space, terms[i], terms[j], policy)
            G[i, j] = v
            G[j, i] = np.conjugate(v)
            err += e if i == j else 2 * e
    return G, err


def _combo_ref(space, combo, beta, ell, policy=kb.DEFAULT_POLICY):
    target = K(beta, ell)
    _admissible_ref(space, target)
    value, err = 0j, 0.0
    for term, coef in combo.terms:
        v, e = _pairing_ref(space, term, target, policy)
        value += coef * v
        err += abs(coef) * e
    return value, err


def _row(space, terms, target, policy):
    """The library's pairings of each term with the target, in term order."""
    return [kb.kernel_pairing(space, a, target, policy) for a in terms]


def _bytes(pairs):
    return [(np.complex128(v).tobytes(), np.float64(e).tobytes()) for v, e in pairs]


def _same(got, want):
    """Both calls returned pairs of the same bytes, or raised alike."""
    if want[0] == "ok":
        assert got[0] == "ok" and _bytes(got[1]) == _bytes(want[1])
    else:
        assert got == want


def _outcome(call):
    """The call's result, or the type and message of the error it raises."""
    try:
        return "ok", call()
    except kb.KernelSpaceError as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def _point(rng):
    """The origin, a point on the real axis either side of it, or a complex point."""
    r, theta = rng.uniform(0.05, 0.97), rng.uniform(-np.pi, np.pi)
    return (0j, complex(r, 0.0), complex(-r, 0.0),
            complex(r * np.cos(theta), r * np.sin(theta)))[rng.integers(0, 4)]


def test_pair_terms_match_numpy_power_bytes():
    # Blocks that start below n = 100 and cross it, and blocks far past it;
    # complex points, points on the real axis (a conjugate of imaginary part
    # -0.0) and the origin; orders 0-2 on both sides.
    rng = np.random.default_rng(21)
    blocks = 0
    for start in (0, 1, 2, 37, 95, 99, 100, 101, 513, 2047, 3000):
        for _ in range(12):
            length = int(rng.integers(1, 400))
            p, q = (int(m) for m in rng.integers(0, 3, size=2))
            ns = np.arange(max(start, p, q), max(start, p, q) + length)
            a, b = K(_point(rng), p), K(_point(rng), q)
            for space in (A2, D3, RULE):
                got = kernels._pair_terms(space, a, b, ns)
                assert got.tobytes() == _terms_ref(space, a, b, ns).tobytes(), \
                    (space, a, b, int(ns[0]), len(ns))
                blocks += 1
    assert blocks == 11 * 12 * 3


@pytest.mark.parametrize("space", [A2, H2, D4, RULE], ids=["A2", "H2", "D4", "rule"])
def test_origin_pairings_are_the_one_term_bytes(space):
    # A pairing with a kernel at the origin is one term of the series, formed
    # on scalars; it must keep _pair_terms' bytes at that term, with the origin
    # on either side, against the origin, the real axis either side of 0, a
    # complex point and (in D_4) unimodular points, whose top order is 1.
    # Origin order 120 leaves powers past n = 100, where _powers takes
    # exp(n log t).
    targets = [0j, 0.6 + 0j, -0.6 + 0j, 0.3 - 0.45j]
    if space is D4:
        targets += [1.0 + 0j, -1j, complex(math.cos(2.0), math.sin(2.0))]
    pairs = 0
    for m in (0, 1, 2, 3, 120):
        for point in targets:
            for q in range(4 if abs(point) < 1 else 2):
                for a, b in ((K(0, m), K(point, q)), (K(point, q), K(0, m))):
                    n = min(t.order for t in (a, b) if t.point == 0)
                    want = 0j if n < max(m, q) else \
                        kernels._pair_terms(space, a, b, np.array([n]))[0]
                    got, err = kb.kernel_pairing(space, a, b)
                    assert np.complex128(got).tobytes() == np.complex128(want).tobytes(), \
                        (a, b, got, want)
                    assert err == 0.0
                    pairs += 1
    assert pairs == 2 * 5 * (16 + (6 if space is D4 else 0))


def test_falling_factors_match_the_product():
    ns = np.arange(0, 600)
    for m in range(5):
        assert kernels._falling(ns[m:], m).tobytes() == _falling_ref(ns[m:], m).tobytes()


# ---------------------------------------------------------------------------
# Rows, Grams, combos
# ---------------------------------------------------------------------------

def _d4_terms():
    """Mixed orders in D_4: the origin, interior points, points with
    |conj(a) b| >= 0.9 against each other, and boundary kernels."""
    return [K(0, 0), K(0, 2), K(0.3 - 0.4j, 0), K(0.3 - 0.4j, 1), K(-0.6j, 2),
            K(0.96, 0), K(0.95 + 0.1j, 1), K(0.5 + 0.2j, 0), K(1.0, 0), K(1j, 1),
            K(-0.2 + 0.1j, 1)]


@pytest.mark.parametrize("space", [D4, A2, H2, RULE], ids=["D4", "A2", "H2", "rule"])
def test_pairing_row_matches_the_per_pair_loop(space):
    terms = _d4_terms()
    if space is not D4:  # no boundary kernels
        terms = [t for t in terms if abs(t.point) < 0.9]
    for target in terms:
        for a in terms:
            _same(_outcome(lambda: [kb.kernel_pairing(space, a, target)]),
                  _outcome(lambda: [_pairing_ref(space, a, target)]))


@pytest.mark.parametrize("space", [D4, A2, RULE], ids=["D4", "A2", "rule"])
def test_pairing_gram_and_combo_match_the_per_pair_loop(space):
    terms = _d4_terms() if space is D4 else [t for t in _d4_terms() if abs(t.point) < 0.9]
    G, err = pairing_gram(space, terms)
    G_ref, err_ref = _gram_ref(space, terms)
    assert G.tobytes() == G_ref.tobytes()
    assert np.float64(err).tobytes() == np.float64(err_ref).tobytes()
    rng = np.random.default_rng(7)
    combo = kb.KernelCombo(space, tuple(
        (t, complex(*rng.standard_normal(2))) for t in terms))
    for beta, ell in ((0.2 + 0.3j, 0), (0.2 + 0.3j, 2), (0, 1), (-0.93, 0),
                      (0.7 - 0.6j, 1), (-1.0, 1)):
        _same(_outcome(lambda: [kb.combo_derivative_at(space, combo, beta, ell)]),
              _outcome(lambda: [_combo_ref(space, combo, beta, ell)]))


def test_row_and_gram_errors_are_the_per_pair_loop_errors():
    tight = kb.TruncationPolicy(target_tolerance=1e-12, max_terms=16)
    edge = 1.0 + 0.45 * BOUNDARY_TOL  # |edge|^2 admissible, |edge| * |over| > 1
    over = 1.0 + 0.95 * BOUNDARY_TOL
    cases = [
        # |a b| > 1 for two boundary kernels that each lie in the space.
        (D4, [K(over), K(0.5)], K(over), kb.DEFAULT_POLICY),
        # An inadmissible term, and an inadmissible target.
        (D4, [K(0.5), K(1.0, 2), K(2.0)], K(0.3), kb.DEFAULT_POLICY),
        (D4, [K(0.5), K(0.2j)], K(1.0, 3), kb.DEFAULT_POLICY),
        (H2, [K(0.5), K(1.0)], K(0.4), kb.DEFAULT_POLICY),
        # A term budget too small for every geometric pair but the origin's.
        (D_M25, [K(0), K(0.9), K(0.8j, 1), K(0.7, 2)], K(0.9), tight),
        (D4, [K(0.9), K(0.5, 1)], K(0.9j), tight),
        # Several failing pairs in a Gram: (1, 1) fails on its term budget
        # before (0, 2) diverges in column order, and (0, 2) comes first in
        # row-major order.
        (D4, [K(edge), K(0.9j), K(over)], K(0.5), tight),
        (D_M25, [K(0.1), K(0.95), K(0.2, 1), K(3.0)], K(0.99), tight),
        # A weight table too short for pairs of two start indices: each
        # block schedule fails at its own index, and the first pair's decides.
        (SHORT, [K(0.97), K(0.97j, 2), K(0.1)], K(0.97), kb.DEFAULT_POLICY),
    ]
    for space, terms, target, policy in cases:
        _same(_outcome(lambda: _row(space, terms, target, policy)),
              _outcome(lambda: [_pairing_ref(space, a, target, policy) for a in terms]))
        gram = terms + [target]
        want = _outcome(lambda: _gram_ref(space, gram, policy))
        assert want[0] != "ok", gram
        assert _outcome(lambda: pairing_gram(space, gram, policy)) == want, gram
    # The crafted Gram fails on its term budget in column order first.
    with pytest.raises(kb.ToleranceUnreachable):
        _pairing_ref(D4, K(0.9j), K(0.9j), tight)
    with pytest.raises(kb.DivergentSeries, match=r"\|a \* b\|"):
        pairing_gram(D4, [K(edge), K(0.9j), K(over)], tight)


def test_non_diagonal_space_is_refused_before_any_term():
    LD = kb.LocalDirichlet(1.0)
    for call in (lambda: kb.kernel_pairing(LD, K(3.0), K(0.2)),
                 lambda: pairing_gram(LD, [K(3.0)])):
        with pytest.raises(kb.UnsupportedRoute, match="kernel_pairing needs a diagonal"):
            call()
    assert pairing_gram(LD, [])[0].shape == (0, 0)


# ---------------------------------------------------------------------------
# Fuzz against the reference
# ---------------------------------------------------------------------------

def _fuzz_point(where, r, theta):
    return {"inside": cmath.rect(r, theta), "origin": 0j, "circle": cmath.rect(1.0, theta)}[where]


# Inside the disk three times in five, the origin and the circle once each.
_TERM = st.builds(K, st.builds(_fuzz_point,
                               st.sampled_from(("inside",) * 3 + ("origin", "circle")),
                               st.floats(0.05, 0.97), st.floats(-math.pi, math.pi)),
                  st.integers(0, 3))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([A2, H2, D4, D_M25, RULE]),
       st.lists(_TERM, min_size=1, max_size=6, unique_by=lambda t: (t.point, t.order)),
       _TERM, st.sampled_from([kb.DEFAULT_POLICY, kb.TruncationPolicy(max_terms=64)]))
def test_rows_grams_and_combos_match_the_reference(space, terms, target, policy):
    _same(_outcome(lambda: _row(space, terms, target, policy)),
          _outcome(lambda: [_pairing_ref(space, a, target, policy) for a in terms]))
    _same(_outcome(lambda: [pairing_gram(space, terms, policy)]),
          _outcome(lambda: [_gram_ref(space, terms, policy)]))
    combo = kb.KernelCombo(space, tuple((t, complex(1 + k, -0.5 * k))
                                        for k, t in enumerate(terms)))
    _same(_outcome(lambda: [kb.combo_derivative_at(space, combo, target.point,
                                                   target.order, policy)]),
          _outcome(lambda: [_combo_ref(space, combo, target.point, target.order, policy)]))
