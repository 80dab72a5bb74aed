"""Cartan data, highest-root data and Weyl orders."""

from fractions import Fraction

import pytest

import weylorbits as w
from weylorbits.root_system import factor_slices, parabolic_order

F = Fraction

GOLDEN_CARTANS = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "G2": [[2, -3], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}

GOLDEN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "C2": 8, "B3": 48, "C3": 48, "B4": 384, "C4": 384,
    "D4": 192, "D5": 1920,
    "G2": 12, "F4": 1152,
    "E6": 51840, "E7": 2903040, "E8": 696729600,
}

GOLDEN_MARKS = {
    "A3": (1, 1, 1),
    "B3": (1, 2, 2),
    "C3": (2, 2, 1),
    "D5": (1, 2, 2, 1, 1),
    "G2": (2, 3),
    "F4": (2, 3, 4, 2),
    "E6": (1, 2, 3, 2, 1, 2),
    "E7": (2, 3, 4, 3, 2, 1, 2),
    "E8": (2, 3, 4, 5, 6, 4, 2, 3),
}

GOLDEN_COMARKS = {
    "B3": (1, 2, 1),
    "C3": (1, 1, 1),
    "F4": (2, 3, 2, 1),
    "G2": (2, 1),
    "E8": (2, 3, 4, 5, 6, 4, 2, 3),
}


@pytest.mark.parametrize("name,rows", sorted(GOLDEN_CARTANS.items()))
def test_cartan_matrices(name, rows):
    rs = w.root_system(name)
    assert [list(r) for r in rs.cartan] == rows


@pytest.mark.parametrize("name,order", sorted(GOLDEN_ORDERS.items()))
def test_weyl_orders(name, order):
    assert w.root_system(name).weyl_order == order


@pytest.mark.parametrize("name,marks", sorted(GOLDEN_MARKS.items()))
def test_marks(name, marks):
    assert w.root_system(name).marks == marks


@pytest.mark.parametrize("name,comarks", sorted(GOLDEN_COMARKS.items()))
def test_comarks(name, comarks):
    assert w.root_system(name).comarks == comarks


@pytest.mark.parametrize("name", [
    "A1", "A2", "A5", "C2", "B2", "B3", "C3", "B5", "C5", "D4", "D6",
    "E6", "E7", "E8", "F4", "G2",
])
def test_highest_root_consistency(name):
    """The highest root has squared length 2 and comark_i relates to
    mark_i through the squared root length."""
    rs = w.root_system(name)
    marks, comarks, xi = w.highest_root(rs)
    assert w.inner_product(xi, xi) == 2
    for i in range(rs.rank):
        assert comarks[i] == marks[i] * rs.lengths_sq[i] / 2
    # xi in the omega basis equals marks . cartan
    expect = tuple(
        sum(marks[j] * rs.cartan[j][k] for j in range(rs.rank))
        for k in range(rs.rank)
    )
    assert xi.coords == expect


def test_b2_is_aliased():
    b2 = w.root_system("B2")
    c2 = w.root_system("C2")
    assert b2 == c2
    assert b2.name == "C2"
    assert b2.aliased_from == "B2"
    assert c2.aliased_from is None


def test_gram_is_symmetric_and_dualizes():
    for name in ("A3", "B3", "C3", "G2", "F4", "E6"):
        rs = w.root_system(name)
        n = rs.rank
        for j in range(n):
            for k in range(n):
                assert rs.gram[j][k] == rs.gram[k][j]
        # cartan . gram recovers <alpha_j, omega_k> = delta * len^2 / 2
        for j in range(n):
            for k in range(n):
                val = sum(rs.cartan[j][i] * rs.gram[i][k] for i in range(n))
                expect = rs.lengths_sq[j] / 2 if j == k else 0
                assert val == expect


@pytest.mark.parametrize("name", ["D3", "E9", "F5", "G3", "H3", "A0", "A"])
def test_rank_bounds(name):
    with pytest.raises(w.UnsupportedType):
        w.root_system(name)


def test_products():
    rs = w.root_system("A1xC2")
    assert rs.rank == 3
    assert rs.weyl_order == 2 * 8
    assert [f.name for f in rs.factors] == ["A1", "C2"]
    slices = factor_slices(rs)
    assert [sl for _, sl in slices] == [slice(0, 1), slice(1, 3)]
    # block diagonal cartan
    assert rs.cartan[0] == (2, 0, 0)
    assert rs.cartan[1] == (0, 2, -1)
    assert w.root_system("A1xA1").name == "A1xA1"


def test_parabolic_order_matches_composition():
    rs = w.root_system("F4")
    # sub-diagram on nodes {0,1} is a doubled bond at the end: order 8
    assert parabolic_order(rs.cartan_int, [1, 2]) == 8
    assert parabolic_order(rs.cartan_int, [0, 1, 2, 3]) == rs.weyl_order
    assert parabolic_order(rs.cartan_int, []) == 1
    g2 = w.root_system("G2")
    assert parabolic_order(g2.cartan_int, [0, 1]) == 12
    e8 = w.root_system("E8")
    assert parabolic_order(e8.cartan_int, list(range(8))) == 696729600


def test_parabolic_order_vs_enumeration(rng):
    """Stabilizer orders from diagram shape agree with direct counts."""
    for name in ("A2", "C2", "G2", "A3", "B3", "C3", "D4", "F4", "A1xC2"):
        rs = w.root_system(name)
        elements = w.group_elements(rs)
        assert len(elements) == rs.weyl_order
        for _ in range(6):
            coords = tuple(rng.randrange(3) for _ in range(rs.rank))
            lam = w.weight(rs, coords)
            fixed = sum(
                1 for mat in elements
                if w.weyl.apply_matrix_to_weight(mat, lam).coords == lam.coords
            )
            assert fixed == w.stabilizer_order(lam)
