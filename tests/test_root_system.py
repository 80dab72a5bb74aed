"""Cartan data, highest-root data and Weyl orders."""

import signal
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from operator import mul

import pytest

import weylorbits as w
from weylorbits._linalg import mat_inv
from weylorbits.affine import fundamental_vertices, reflect_r0
from weylorbits.orbit_fn import laplace_coefficients
from weylorbits.orbit_algebra import _recognize_component
from weylorbits.root_system import _cartan_and_lengths, dynkin_components, factor_slices
from weylorbits.root_system import parabolic_order, weyl_order_formula
from weylorbits.weights import coweight_coords, point_to_weight, simple_root_weight
from weylorbits.weyl import reflect_simple, reflect_simple_point

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
    assert parabolic_order(rs.cartan, [1, 2]) == 8
    assert parabolic_order(rs.cartan, [0, 1, 2, 3]) == rs.weyl_order
    assert parabolic_order(rs.cartan, []) == 1
    g2 = w.root_system("G2")
    assert parabolic_order(g2.cartan, [0, 1]) == 12
    e8 = w.root_system("E8")
    assert parabolic_order(e8.cartan, list(range(8))) == 696729600


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


# The sub-diagram classifier against the two classifiers it replaced: a
# bond-and-degree reading that returned Weyl orders, and a search over the
# series comparing Cartan matrices.

_REFERENCE_EXCEPTIONAL = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600}


def _reference_component_order(cartan, nodes):
    k = len(nodes)
    if k == 1:
        return 2
    bonds = {}
    adj = {v: [] for v in nodes}
    for i in nodes:
        for j in nodes:
            if i < j and cartan[i][j] != 0:
                b = cartan[i][j] * cartan[j][i]
                bonds[(i, j)] = b
                adj[i].append(j)
                adj[j].append(i)
    if any(b == 3 for b in bonds.values()):
        if k != 2:
            raise w.UnsupportedType("unrecognized sub-diagram")
        return 12
    degrees = {v: len(adj[v]) for v in nodes}
    is_path = all(d <= 2 for d in degrees.values()) and sum(
        1 for d in degrees.values() if d == 1
    ) == 2
    doubles = [e for e, b in bonds.items() if b == 2]
    if doubles:
        if len(doubles) != 1 or not is_path:
            raise w.UnsupportedType("unrecognized sub-diagram")
        i, j = doubles[0]
        if degrees[i] == 1 or degrees[j] == 1:
            return 2**k * factorial(k)
        if k == 4:
            return 1152
        raise w.UnsupportedType("unrecognized sub-diagram")
    if is_path:
        return factorial(k + 1)
    centers = [v for v, d in degrees.items() if d == 3]
    if len(centers) != 1 or any(d > 3 for d in degrees.values()):
        raise w.UnsupportedType("unrecognized sub-diagram")
    center = centers[0]
    arms = []
    for start in adj[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] != 1:
        raise w.UnsupportedType("unrecognized sub-diagram")
    if arms[1] == 1:
        return 2 ** (k - 1) * factorial(k)
    try:
        return _REFERENCE_EXCEPTIONAL[("E", k)]
    except KeyError:
        raise w.UnsupportedType("unrecognized sub-diagram") from None


def _reference_parabolic_order(cartan, indices):
    order = 1
    for comp in dynkin_components(cartan, indices):
        order *= _reference_component_order(cartan, comp)
    return order


def _reference_recognize(rows):
    k = len(rows)
    for series in "ABCDEFG":
        try:
            cand = w.root_system(f"{series}{k}")
        except w.UnsupportedType:
            continue
        if all(cand.cartan[i][j] == rows[i][j] for i in range(k) for j in range(k)):
            return cand
    raise w.UnknownPair("sub-diagram does not match a supported type in this order")


def _extended_rows(rs):
    """Cartan rows of the extended diagram, the extra node first."""
    return [(2, *(-a for a in rs.xi_omega))] + [
        (-sum(map(mul, rs.comarks, row)), *row) for row in rs.cartan
    ]


CLASSIFIED_SYSTEMS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(3, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_parabolic_order_matches_reference_classifier():
    """Every nonempty node subset of a finite diagram, and every nonempty
    proper subset of an extended one."""
    cases = 0
    for name in CLASSIFIED_SYSTEMS:
        rs = w.root_system(name)
        for rows, top in ((rs.cartan, rs.rank), (_extended_rows(rs), rs.rank)):
            for size in range(1, top + 1):
                for nodes in combinations(range(len(rows)), size):
                    assert parabolic_order(rows, nodes) == _reference_parabolic_order(
                        rows, nodes), (name, rows, nodes)
                    cases += 1
    assert cases == 7365


def test_recognize_component_matches_series_search():
    """Every node order of a simple diagram: the same type, or the same error."""
    cases = 0
    for name in ["A1", "A2", "A3", "A4", "A5", "B3", "B4", "B5", "C2", "C3",
                 "C4", "C5", "D4", "D5", "F4", "G2"]:
        c = w.root_system(name).cartan
        for perm in permutations(range(len(c))):
            rows = [[c[i][j] for j in perm] for i in perm]
            try:
                want = _reference_recognize(rows)
            except w.UnknownPair:
                with pytest.raises(w.UnknownPair):
                    _recognize_component(rows)
            else:
                assert _recognize_component(rows) == want
            cases += 1
    assert cases == 625


@pytest.mark.parametrize("name", CLASSIFIED_SYSTEMS)
def test_parabolic_order_rejects_extended_diagrams(name):
    rows = _extended_rows(w.root_system(name))
    with pytest.raises(w.UnsupportedType):
        parabolic_order(rows, range(len(rows)))


def _simply_laced(n, edges):
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return rows


def test_parabolic_order_rejects_cycles_and_wide_trees():
    def hung(signum, frame):
        raise TimeoutError("parabolic_order did not return")

    triangle_with_tail = ((2, -1, -1, -1), (-1, 2, -1, 0), (-1, -1, 2, 0), (-1, 0, 0, 2))
    # One trivalent node (1) and one four-valent node (3).
    wide_tree = _simply_laced(7, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (3, 6)])
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for rows in (triangle_with_tail, wide_tree):
            with pytest.raises(w.UnsupportedType):
                parabolic_order(rows, range(len(rows)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("series,rank", [("E", 9), ("F", 3), ("Q", 3)])
def test_weyl_order_formula_rejects_unknown_types(series, rank):
    with pytest.raises(w.UnsupportedType):
        weyl_order_formula(series, rank)


# Integer Cartan data against a Fraction construction of the same matrices.

INT_CARTAN_SYSTEMS = (
    [f"A{n}" for n in range(1, 9)] + [f"C{n}" for n in range(2, 6)]
    + [f"B{n}" for n in range(3, 6)] + [f"D{n}" for n in range(4, 7)]
    + ["E6", "E7", "E8", "F4", "G2", "A1xG2", "C2xA1", "A1xA1xA1"]
)


def _fraction_cartan(rs):
    """The reference Cartan matrix in Fractions: each factor's rows as
    Fractions, padded with ``Fraction(0)`` for products."""
    blocks = [
        [[F(v) for v in row] for row in _cartan_and_lengths(f.series, f.rank)[0]]
        for f in rs.factors
    ]
    rows, offset = [], 0
    for b in blocks:
        for row in b:
            rows.append(tuple([F(0)] * offset + row + [F(0)] * (rs.rank - offset - len(row))))
        offset += len(b)
    return tuple(rows)


def _same(got, want):
    """Equal values of equal types; floats bit for bit."""
    return len(got) == len(want) and all(
        type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b)
        for a, b in zip(got, want)
    )


@pytest.mark.parametrize("name", INT_CARTAN_SYSTEMS)
def test_cartan_data_are_ints(name):
    rs = w.root_system(name)
    fc = _fraction_cartan(rs)
    assert all(type(v) is int for row in rs.cartan for v in row)
    assert rs.cartan == fc
    inv = mat_inv(fc)
    assert rs.cartan_inv == inv
    assert rs.gram == tuple(
        tuple(inv[i][j] * rs.lengths_sq[j] / 2 for j in range(rs.rank))
        for i in range(rs.rank)
    )
    assert all(type(v) is F for m in (rs.cartan_inv, rs.gram) for row in m for v in row)
    for f in rs.factors:
        xi = tuple(sum(F(m) * f.cartan[j][k] for j, m in enumerate(f.marks))
                   for k in range(f.rank))
        assert all(type(v) is int for v in f.xi_omega)
        assert f.xi_omega == xi
    assert (rs.xi_omega is None) is not rs.is_simple


@pytest.mark.parametrize("name", INT_CARTAN_SYSTEMS)
def test_api_values_and_types_unchanged(name, rng):
    """Weights and points built from the integer Cartan data have the
    values and coordinate types the Fraction matrix gave them."""
    rs = w.root_system(name)
    fc, n = _fraction_cartan(rs), rs.rank
    for i in range(1, n + 1):
        assert _same(simple_root_weight(rs, i).coords, fc[i - 1])
    assert _same(sum(laplace_coefficients(rs), ()),
                 tuple(fc[j][k] / rs.lengths_sq[j] for j in range(n) for k in range(n)))
    if rs.is_simple:
        fxi = tuple(sum(F(m) * fc[j][k] for j, m in enumerate(rs.marks)) for k in range(n))
        assert _same(w.highest_root(rs)[2].coords, fxi)
        inv = mat_inv(fc)
        verts = [(F(0),) * n] + [
            tuple(inv[i][k] * rs.lengths_sq[k] / 2 / rs.comarks[i] for k in range(n))
            for i in range(n)
        ]
        assert all(_same(v.coords, want)
                   for v, want in zip(fundamental_vertices(rs), verts))
    for _ in range(4):
        lam = w.weight(rs, [F(rng.randrange(-9, 10), rng.choice((1, 2, 3)))
                            for _ in range(n)])
        x = w.point(rs, [F(rng.randrange(-40, 41), 12) for _ in range(n)])
        y = w.point(rs, [rng.uniform(-2, 2) for _ in range(n)])
        i = rng.randrange(1, n + 1)
        row = fc[i - 1]
        a_i = lam.coords[i - 1]
        want = lam.coords if a_i == 0 else tuple(
            a - a_i * row[j] for j, a in enumerate(lam.coords))
        assert _same(reflect_simple(i, lam).coords, want)
        pairs = [tuple(sum(fc[j][k] * p.coords[k] for k in range(n)) for j in range(n))
                 for p in (x, y)]
        for p, pair in zip((x, y), pairs):
            assert _same(coweight_coords(p), pair)
            want = list(p.coords)
            want[i - 1] -= pair[i - 1]
            got = reflect_simple_point(i, p)
            assert got.exact is p.exact and _same(got.coords, tuple(want))
            if rs.is_simple:
                shift = 1 - sum(a * b for a, b in zip(fxi, p.coords))
                got = reflect_r0(p)
                assert got.exact is p.exact and _same(
                    got.coords, tuple(b + shift * q for b, q in zip(p.coords, rs.comarks)))
        assert _same(point_to_weight(x).coords, tuple(
            sum(F(2, 1) / rs.lengths_sq[j] * fc[j][k] * x.coords[k] for k in range(n))
            for j in range(n)))
