"""Fundamental-domain reduction, grids, torsion orders, rational points."""

from collections import Counter
from fractions import Fraction as F

import pytest

import weylorbits as w
from weylorbits.affine import (
    element_orders,
    fundamental_vertices,
    grid_fm,
    in_fundamental_domain,
    interior_base_point,
    is_rational_element,
    lattice_tm,
    orbit_count,
    rational_elements,
    reduce_to_fundamental,
    reflect_r0,
    tm_level_for_grid,
    torsion_grid,
)

from tables import RATIONAL_C2, RATIONAL_G2


def test_reduce_golden_a1():
    rs = w.root_system("A1")
    red, steps = reduce_to_fundamental(w.point(rs, (F(7, 10),)))
    assert red.coords == (F(3, 10),)
    assert steps == 1


def test_reduce_invariants(rng):
    from conftest import random_rational_point
    for name in ("A2", "C2", "G2", "B3", "A1xA1"):
        rs = w.root_system(name)
        for _ in range(10):
            x = random_rational_point(rs, rng)
            red, _ = reduce_to_fundamental(x)
            assert red.exact
            assert in_fundamental_domain(red)
            # idempotent, zero further steps
            again, steps = reduce_to_fundamental(red)
            assert again.coords == red.coords and steps == 0
            # reflection images and lattice translates reduce identically
            for i in range(1, rs.rank + 1):
                y = w.reflect_simple_point(i, x)
                assert reduce_to_fundamental(y)[0].coords == red.coords
            shifted = w.point(rs, tuple(c + 2 for c in x.coords))
            assert reduce_to_fundamental(shifted)[0].coords == red.coords


def test_reduce_r0_invariance(rng):
    from conftest import random_rational_point
    for name in ("C2", "G2", "C3"):
        rs = w.root_system(name)
        for _ in range(6):
            x = random_rational_point(rs, rng)
            red = reduce_to_fundamental(x)[0]
            assert reduce_to_fundamental(reflect_r0(x))[0].coords == red.coords


def test_reflect_r0_involution():
    rs = w.root_system("G2")
    x = w.point(rs, (F(1, 5), F(1, 7)))
    assert reflect_r0(reflect_r0(x)).coords == x.coords
    # fixes the affine wall
    v = fundamental_vertices(rs)[1]
    lvl = sum(a * c for a, c in zip(rs.xi_omega, v.coords))
    assert lvl == 1
    assert reflect_r0(v).coords == v.coords


def test_fundamental_vertices():
    for name in ("A2", "C2", "G2", "B3", "F4"):
        rs = w.root_system(name)
        verts = fundamental_vertices(rs)
        assert len(verts) == rs.rank + 1
        assert verts[0].coords == tuple([0] * rs.rank)
        for v in verts:
            assert in_fundamental_domain(v)
        for v in verts[1:]:
            assert sum(a * c for a, c in zip(rs.xi_omega, v.coords)) == 1


def test_interior_base_point_is_interior():
    for name in ("A2", "C2", "G2", "A3", "B3", "C3"):
        rs = w.root_system(name)
        x = interior_base_point(rs)
        pairs = [
            sum(rs.cartan[j][k] * x.coords[k] for k in range(rs.rank))
            for j in range(rs.rank)
        ]
        assert all(p > 0 for p in pairs)
        assert sum(a * c for a, c in zip(rs.xi_omega, x.coords)) < 1


def test_barycentric_vertices_and_errors():
    rs = w.root_system("C2")
    verts = fundamental_vertices(rs)
    for i in range(3):
        bary = [int(j == i) for j in range(3)]
        assert w.barycentric_point(rs, bary).coords == verts[i].coords
    with pytest.raises(w.DomainError):
        w.barycentric_point(rs, [1, 0])
    assert not w.barycentric_point(rs, [0.5, 0.25, 0.25]).exact


def test_grid_counts():
    assert len(grid_fm(w.root_system("A2"), 3)) == 10
    assert len(grid_fm(w.root_system("C2"), 2)) == 4
    assert len(grid_fm(w.root_system("G2"), 6)) == 7
    assert len(grid_fm(w.root_system("A1xA1"), 4)) == 25


def test_grid_points_golden():
    pts = {gp.kac: gp.point.coords for gp in grid_fm(w.root_system("A2"), 3)}
    assert pts[(0, 1, 2)] == (F(4, 9), F(5, 9))
    assert pts[(3, 0, 0)] == (0, 0)
    for gp in grid_fm(w.root_system("C2"), 5):
        assert gp.point.exact
        assert in_fundamental_domain(gp.point)


def test_grid_kac_identity():
    for name, level in [("A2", 4), ("C2", 5), ("G2", 7), ("B3", 3)]:
        rs = w.root_system(name)
        for gp in grid_fm(rs, level):
            s = gp.kac
            assert s[0] + sum(m * si for m, si in zip(rs.marks, s[1:])) == level
            assert in_fundamental_domain(gp.point)


def test_grid_errors():
    with pytest.raises(w.DomainError):
        grid_fm(w.root_system("A2"), 0)
    with pytest.raises(w.CapExceeded):
        grid_fm(w.root_system("A2"), 1000, cap=100)


def test_lattice_tm():
    rs = w.root_system("A2")
    pts = lattice_tm(rs, 3)
    assert len(pts) == 9
    assert all(p.exact for p in pts)
    assert len({p.coords for p in pts}) == 9
    with pytest.raises(w.CapExceeded):
        lattice_tm(w.root_system("B3"), 100, cap=10)


def _reduced_counts(rs, m):
    """Reference: reduce every point of T_m into F and count the images."""
    return Counter(reduce_to_fundamental(x)[0].coords for x in lattice_tm(rs, m))


@pytest.mark.parametrize("name, top", [
    ("A1", 8), ("A2", 8), ("C2", 10), ("G2", 10), ("A3", 5), ("B3", 4), ("C3", 4),
    ("A4", 3), ("B4", 3), ("C4", 3), ("D4", 3), ("F4", 3), ("A1xG2", 4), ("C2xA1", 4),
    ("E8", 2),
])
def test_orbit_count_matches_reduction(name, top):
    """The grid points of F in (1/m) Q^vee, weighted by orbit_count, are
    the images of T_m under reduction, with their multiplicities."""
    rs = w.root_system(name)
    for m in range(1, top + 1) if rs.rank < 8 else [top]:
        grid = {
            gp.point.coords: orbit_count(gp)
            for gp in grid_fm(rs, m)
            if all(m % c.denominator == 0 for c in gp.point.coords)
        }
        assert grid == _reduced_counts(rs, m), m
        assert sum(grid.values()) == m**rs.rank


@pytest.mark.parametrize("name, ms", [
    ("A1", range(1, 9)), ("A2", range(1, 9)), ("C2", range(1, 11)), ("G2", range(1, 11)),
    ("A3", range(1, 6)), ("B3", range(1, 5)), ("C3", range(1, 5)), ("A4", range(1, 4)),
    ("B4", range(1, 4)), ("C4", range(1, 4)), ("D4", range(1, 4)), ("F4", range(1, 4)),
    ("A1xG2", range(1, 5)), ("C2xA1", range(1, 5)), ("E8", [2]),
])
def test_torsion_grid_matches_grid_filter(name, ms):
    """Reference: the grid points of F whose coordinates have denominators
    dividing m, sorted by coordinates, each with its orbit_count."""
    rs = w.root_system(name)
    for m in ms:
        want = [
            (gp.point.coords, orbit_count(gp))
            for gp in sorted(grid_fm(rs, m), key=lambda gp: gp.point.coords)
            if all(m % c.denominator == 0 for c in gp.point.coords)
        ]
        got = torsion_grid(rs, m)
        assert [(x.coords, count) for x, count in got] == want, m
        assert all(x.rs == rs and x.exact for x, _ in got)
        assert all(type(c) is F for x, _ in got for c in x.coords)
    with pytest.raises(w.CapExceeded):
        torsion_grid(rs, 12, cap=10)


def test_tm_level_for_grid():
    rs = w.root_system("A2")
    pts = [w.point(rs, (F(4, 9), F(5, 9))), w.point(rs, (F(1, 3), 0))]
    assert tm_level_for_grid(pts) == 9
    # level-2 grid points have alpha-check coordinates with denominator 6
    assert tm_level_for_grid(grid_fm(rs, 2)) == 6


def test_element_orders_golden():
    a1 = w.root_system("A1")
    assert element_orders(w.point(a1, (F(1, 2),))) == (1, 2)
    c2 = w.root_system("C2")
    assert element_orders(w.point(c2, (F(1, 4), F(1, 2)))) == (2, 4)
    assert element_orders(w.zero_point(c2)) == (1, 1)
    adj, full = element_orders(w.point(c2, (F(1, 6), F(1, 4))))
    assert full % adj == 0
    with pytest.raises(w.DomainError):
        element_orders(w.point(c2, (0.5, 0.5)))


def test_order_divisibility(rng):
    from conftest import random_rational_point
    for name in ("A2", "C2", "G2", "C3"):
        rs = w.root_system(name)
        for _ in range(8):
            x = random_rational_point(rs, rng)
            adj, full = element_orders(x)
            assert full % adj == 0
            # k*x with gcd(k, full) = 1 has the same orders
            assert element_orders(x.scale(full + 1)) == (adj, full)


def test_is_rational_element_golden():
    a2 = w.root_system("A2")
    assert is_rational_element(w.point(a2, (F(1, 3), F(1, 3))))
    # the two order-3 vertex classes swap under the power map k = 2
    assert not is_rational_element(w.point(a2, (F(1, 3), F(2, 3))))
    c2 = w.root_system("C2")
    assert is_rational_element(w.point(c2, (F(1, 4), F(1, 2))))


# The tabulated C2 catalog omits one genuine order-3 element; its C3
# analog [1,1,0,0] is tabulated.  See also the acceptance suite.
C2_SURPLUS = (3, 3, (1, 1, 0), (F(1, 3), F(0)))


def test_rational_elements_small_prefix():
    got = {
        (r.adjoint_order, r.full_order, r.kac, r.fractions)
        for r in rational_elements(w.root_system("C2"), 4)
    }
    want = {row for row in map(tuple, RATIONAL_C2) if row[0] <= 4}
    assert got == want | {C2_SURPLUS}
    got = {
        (r.adjoint_order, r.full_order, r.kac, r.fractions)
        for r in rational_elements(w.root_system("G2"), 4)
    }
    want = {row for row in map(tuple, RATIONAL_G2) if row[0] <= 4}
    assert got == want


def test_c2_surplus_element_is_rational():
    """x = (1/3, 1/3): 2x folds back to x through the affine wall."""
    rs = w.root_system("C2")
    x = w.point(rs, (F(1, 3), F(1, 3)))
    assert element_orders(x) == (3, 3)
    doubled, steps = reduce_to_fundamental(x.scale(2))
    assert doubled.coords == x.coords and steps == 1
    assert is_rational_element(x)


def test_rational_elements_unsupported():
    with pytest.raises(w.UnsupportedType):
        rational_elements(w.root_system("B4"), 3)
    with pytest.raises(w.UnsupportedType):
        rational_elements(w.root_system("A1xA1"), 3)


def test_affine_pieces_reject_products():
    rs = w.root_system("A1xA1")
    with pytest.raises(w.UnsupportedType):
        reflect_r0(w.zero_point(rs))
    with pytest.raises(w.UnsupportedType):
        fundamental_vertices(rs)
