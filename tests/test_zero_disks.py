"""Property tests: Pellet's disk count is the true count or None, never wrong;
the moment locator finds exactly the unprescribed zeros."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import kernelblaschke as kb  # noqa: E402
from kernelblaschke import verify  # noqa: E402
from mpref import H2  # noqa: E402

# Roots on the grid (a + b i) / 16 keep every coefficient of a product of at
# most nine linear factors exact in double precision, so the polynomial whose
# zeros are counted has exactly the drawn roots.
grid_point = st.builds(lambda a, b: complex(a, b) / 16,
                       st.integers(-14, 14), st.integers(-14, 14)).filter(
                           lambda z: abs(z) < 0.9)
roots = st.lists(st.tuples(grid_point, st.integers(1, 3)), min_size=1, max_size=3,
                 unique_by=lambda e: e[0])


@st.composite
def cases(draw):
    entries = draw(roots)
    center = draw(st.one_of(st.sampled_from([p for p, _ in entries]),
                            st.complex_numbers(max_magnitude=0.9)))
    rho = draw(st.floats(1e-6, 1.0)) * (1.0 - abs(center)) / 2
    tail = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
    return entries, center, rho, tail


@settings(max_examples=300, deadline=None)
@given(cases())
def test_disk_count_is_true_count_or_none(case):
    entries, center, rho, tail = case
    coeffs = kb.FactoredPoly(1.0, tuple(entries)).coefficients()
    count = verify._disk_count(coeffs, center, rho, tail)
    inside = sum(m for p, m in entries if abs(p - center) < rho)
    assert count is None or count == inside


# Classical products at degree 600, some of whose zeros are not prescribed.
# Past the truncation they are below 1e-40 on |z| = 0.99, so the Taylor
# array has exactly the drawn zeros inside the scan circle.  Unprescribed
# zeros are simple or double: a triple one is located to about 1e-8 when
# others crowd it (9.5e-9 at worst in 1500 draws), simple and double ones to
# 5e-11 and 2.2e-10.
polar_point = st.builds(lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
                        st.floats(0.05, 0.85), st.floats(0.0, 2.0 * math.pi))


@st.composite
def planted_products(draw):
    points = draw(st.lists(polar_point, min_size=2, max_size=5).filter(
        lambda ps: all(abs(a - b) >= 0.05 for i, a in enumerate(ps) for b in ps[:i])))
    k = draw(st.integers(max(1, len(points) - 2), min(3, len(points) - 1)))
    orders = [draw(st.integers(1, 3 if i < k else 2)) for i in range(len(points))]
    return list(zip(points[:k], orders)), list(zip(points[k:], orders[k:]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planted_products())
# Unpolished, the pencil puts the first planted zero here 2.2e-9 off.
@example(([(0.14465245729911347 - 0.06290134543834795j, 2),
           (0.5359147712745773 + 0.5834883005864896j, 3),
           (0.6134388456984363 + 0.35140064802325033j, 3)],
          [(-0.018711075740859624 + 0.3618453809680516j, 1),
           (0.08940071737229492 + 0.07663832899407708j, 1)]))
def test_moment_zeros_find_exactly_the_unprescribed_zeros(case):
    prescribed, planted = case
    _, taylor, _ = kb.classical_blaschke(prescribed + planted, 600)
    result = kb.ConstructionResult(taylor, 1.0, "closed_form", None, 0.0)

    def refuse(coeffs):
        raise AssertionError("the certified count should locate without np.roots")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "roots", refuse)
        rep = kb.zero_report(H2, result, kb.ReproducibleMultiset(0, tuple(prescribed)),
                             radius=0.99, tol=1e-8)
    assert not rep.verdict
    assert len(rep.extraneous) == len(planted)
    for point, order in planted:
        extra, = [e for e in rep.extraneous if abs(e.location - point) <= 1e-9]
        assert extra.estimated_multiplicity == order
