"""Weight/point coordinate systems, pairings, orthogonal conversions."""

from fractions import Fraction

import pytest

import weylorbits as w
from weylorbits.weights import (
    coord_str,
    coroot_point,
    coweight_coords,
    fundamental_copoint,
    orthogonal_dominant,
    parse_coords,
    simple_root_weight,
)

F = Fraction


def test_pairing_duality():
    """<omega_j, alpha-check_k> = delta_jk in every system."""
    for name in ("A2", "C2", "G2", "B3", "C3", "D4", "F4", "A1xG2"):
        rs = w.root_system(name)
        for j in range(1, rs.rank + 1):
            om = w.fundamental_weight(rs, j)
            for k in range(1, rs.rank + 1):
                assert w.pairing(om, coroot_point(rs, k)) == int(j == k)
                cop = fundamental_copoint(rs, k)
                al = simple_root_weight(rs, j)
                assert w.pairing(al, cop) == int(j == k)


def test_weight_point_roundtrip():
    rs = w.root_system("C3")
    lam = w.weight(rs, (1, -2, 3))
    assert w.point_to_weight(w.weight_to_point(lam)).coords == lam.coords


def test_inner_product_matches_pairing():
    """<lam, mu> equals the pairing of lam with mu's point."""
    rs = w.root_system("G2")
    lam, mu = w.weight(rs, (1, 2)), w.weight(rs, (0, 3))
    assert w.inner_product(lam, mu) == w.pairing(lam, w.weight_to_point(mu))


def test_coweight_coords_inverse():
    rs = w.root_system("B3")
    x = w.point(rs, (F(1, 3), F(1, 2), F(2, 5)))
    c = coweight_coords(x)
    from weylorbits.weights import point_from_coweights
    assert point_from_coweights(rs, c).coords == x.coords


@pytest.mark.parametrize("name,coords,m", [
    ("A2", (1, 0), (F(2, 3), F(-1, 3), F(-1, 3))),
    ("A2", (1, 1), (1, 0, -1)),
    ("B3", (1, 1, 1), (F(5, 2), F(3, 2), F(1, 2))),
    ("C3", (1, 1, 1), (3, 2, 1)),
    ("D4", (1, 0, 1, 1), (2, 1, 1, 0)),
    ("D4", (0, 0, 0, 2), (1, 1, 1, -1)),
])
def test_to_orthogonal_golden(name, coords, m):
    rs = w.root_system(name)
    got = w.to_orthogonal(w.weight(rs, coords))
    assert tuple(got) == tuple(F(v) for v in m)


def _to_orthogonal_reference(lam):
    """The Fraction formulas for orthogonal coordinates, series by series."""
    series, n, a = lam.rs.series, lam.rs.rank, lam.coords
    if series == "A":
        tail = [F(0)] * (n + 1)
        for i in range(n - 1, -1, -1):
            tail[i] = tail[i + 1] + a[i]
        shift = sum(tail) / (n + 1)
        return tuple(t - shift for t in tail)
    if series == "B":
        return tuple(sum(a[i:n - 1], F(0)) + a[n - 1] / 2 for i in range(n))
    if series == "C":
        return tuple(sum(a[i:], F(0)) for i in range(n))
    half = (a[n - 2] + a[n - 1]) / 2
    return tuple([sum(a[i:n - 2], F(0)) + half for i in range(n - 1)]
                 + [(a[n - 2] - a[n - 1]) / 2])


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "A5", "B3", "B4", "C2", "C3", "C4", "C5", "D4", "D5",
])
def test_to_orthogonal_matches_fraction_formula(name, rng):
    """Orbits of two integral and one non-integral dominant weight, and one
    weight with signed Fraction coordinates."""
    rs = w.root_system(name)
    lams = [w.weight(rs, [rng.randrange(3) for _ in range(rs.rank)]) for _ in range(2)]
    lams.append(w.weight(rs, [F(rng.randrange(7), rng.randrange(1, 5)) for _ in range(rs.rank)]))
    pts = [p for lam in lams for p in w.orbit(lam).points]
    pts.append(w.weight(rs, [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(rs.rank)]))
    assert any(c.denominator > 1 for p in pts for c in p.coords)
    for p in pts:
        got = w.to_orthogonal(p)
        assert got == _to_orthogonal_reference(p), p.coords
        assert all(type(c) is F for c in got)


def test_orthogonal_roundtrip():
    for name, coords in [
        ("A3", (2, 1, 3)), ("B3", (1, 0, 2)), ("C4", (1, 2, 0, 1)),
        ("D5", (1, 2, 3, 1, 4)),
    ]:
        rs = w.root_system(name)
        lam = w.weight(rs, coords)
        back = w.from_orthogonal(rs.series, w.to_orthogonal(lam))
        assert back.coords == lam.coords


def test_orthogonal_unsupported_series():
    with pytest.raises(w.UnsupportedSeries):
        w.to_orthogonal(w.weight(w.root_system("G2"), (1, 0)))


def test_orthogonal_dominant():
    assert orthogonal_dominant("A", (3, 1, 0)) is True
    assert orthogonal_dominant("A", (1, 3, 0)) is False
    assert orthogonal_dominant("B", (2, 1, 0)) is True
    assert orthogonal_dominant("B", (2, 1, -1)) is False
    assert orthogonal_dominant("D", (2, 1, -1)) is True
    assert orthogonal_dominant("D", (1, 2, 1)) is False


def test_dominance_predicates():
    rs = w.root_system("C2")
    assert w.is_dominant(w.weight(rs, (0, 2)))
    assert not w.is_dominant(w.weight(rs, (-1, 2)))
    assert w.is_strictly_dominant(w.weight(rs, (1, 2)))
    assert not w.is_strictly_dominant(w.weight(rs, (0, 2)))


def test_highest_root_is_dominant_and_maximal():
    for name in ("A4", "C3", "F4", "E6"):
        rs = w.root_system(name)
        _, _, xi = w.highest_root(rs)
        assert w.is_dominant(xi)
        assert w.orbit_size(xi) <= rs.weyl_order


def test_point_arithmetic_and_exactness():
    rs = w.root_system("A2")
    x = w.point(rs, (F(1, 2), F(1, 3)))
    y = w.point(rs, (0.25, 0.5))
    assert x.exact and not y.exact
    assert (x + x).coords == (F(1), F(2, 3))
    assert not (x + y).exact
    assert x.scale(3).coords == (F(3, 2), F(1))


def test_parsing_and_formatting():
    rs = w.root_system("C2")
    assert parse_coords("1,2") == (1, 2)
    assert parse_coords("1/2, -3/4") == (F(1, 2), F(-3, 4))
    assert w.parse_weight(rs, "2,0").coords == (2, 0)
    pt = w.parse_point(rs, "1/6,1/3")
    assert pt.exact and pt.coords == (F(1, 6), F(1, 3))
    # decimal literals parse to exact rationals
    assert w.parse_point(rs, "0.5,1").coords == (F(1, 2), 1)
    assert coord_str(F(1, 2)) == "1/2"
    assert coord_str(F(4, 2)) == "2"
    assert coord_str(3) == "3"
    with pytest.raises(w.DomainError):
        w.parse_weight(rs, "1")
    with pytest.raises(w.DomainError):
        w.parse_weight(rs, "1,2,3")


def test_weight_mismatch_guard():
    a2 = w.root_system("A2")
    c2 = w.root_system("C2")
    with pytest.raises(w.MismatchedSystem):
        w.weight(a2, (1, 0)) + w.weight(c2, (1, 0))
    with pytest.raises(w.MismatchedSystem):
        w.pairing(w.weight(a2, (1, 0)), w.point(c2, (0, 0)))
