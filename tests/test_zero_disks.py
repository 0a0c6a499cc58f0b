"""Property test: Pellet's disk count is the true count or None, never wrong."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import kernelblaschke as kb  # noqa: E402
from kernelblaschke import verify  # noqa: E402

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
