"""Continuous quadrature transforms and exact finite lattice transforms."""

import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylorbits as w
import weylorbits.transform as transform_mod
from weylorbits import affine
from weylorbits.cyclotomic import Cyc
from weylorbits.orbit_fn import eval_exact_cyc, eval_fn, eval_many, orbit_function
from weylorbits.transform import (
    SpectrumEntry,
    build_quadrature,
    finite_forward,
    finite_fourier,
    forward_transform,
    inverse_transform,
    minimal_separating_m,
    orthogonality_gram,
    plancherel,
    quadrature_integrate,
    separates,
    synthesize,
    synthesize_spectrum,
    tm_scalar_product,
)


def _wt(name, coords):
    return w.weight(w.root_system(name), coords)


def test_quadrature_rule_shape():
    rs = w.root_system("C2")
    rule = build_quadrature(rs, 3)
    assert rule.nodes.shape == (rule.weights.shape[0], 2)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    # barycentric rows are convex combinations of the simplex vertices
    assert np.all(rule.nodes_bary >= -1e-15)
    assert np.allclose(rule.nodes_bary.sum(axis=1), 1.0)
    assert build_quadrature(rs, 3) is rule  # cached


def test_quadrature_constant():
    for name in ("A1", "A2", "C2", "G2", "A3", "B3", "C3"):
        rs = w.root_system(name)
        got = quadrature_integrate(rs, lambda pts: np.ones(pts.shape[0]), 2)
        assert abs(got - 1.0) < 1e-13


def _moment_average(rs, const, lin, quad):
    """Exact average of a quadratic polynomial over the simplex.

    Uses the uniform-simplex moments E[b_a] = 1/(n+1) and
    E[b_a b_c] = (1 + delta_ac) / ((n+1)(n+2)) in barycentric terms.
    """
    verts = [v.coords for v in w.fundamental_vertices(rs)]
    n = rs.rank
    s = [sum(v[i] for v in verts) for i in range(n)]
    tot = F(const)
    for i, c in enumerate(lin):
        tot += c * s[i] / (n + 1)
    for (i, j), c in quad.items():
        e2 = (sum(v[i] * v[j] for v in verts) + s[i] * s[j])
        tot += c * e2 / ((n + 1) * (n + 2))
    return tot


def test_quadrature_polynomial_exactness():
    cases = [
        ("A2", [3, -1], {(0, 0): 1, (0, 1): 4}),
        ("B3", [3, -1, 2], {(0, 0): 1, (0, 1): 4, (1, 2): -2}),
    ]
    for name, lin, quad in cases:
        rs = w.root_system(name)
        want = _moment_average(rs, 2, lin, quad)

        def g(nodes):
            tot = np.full(nodes.shape[0], 2.0, dtype=complex)
            for i, c in enumerate(lin):
                tot = tot + c * nodes[:, i]
            for (i, j), c in quad.items():
                tot = tot + c * nodes[:, i] * nodes[:, j]
            return tot

        got = quadrature_integrate(rs, g, 2)
        assert abs(got - complex(want)) < 1e-13


def test_quadrature_scalar_callable_fallback():
    rs = w.root_system("A2")
    got = quadrature_integrate(rs, lambda p: 1.5, 1)
    assert abs(got - 1.5) < 1e-14


def test_quadrature_errors():
    with pytest.raises(w.UnsupportedRank):
        build_quadrature(w.root_system("A4"), 2)
    with pytest.raises(w.UnsupportedType):
        build_quadrature(w.root_system("A1xA1"), 2)
    with pytest.raises(w.DomainError):
        build_quadrature(w.root_system("A2"), 0)


@pytest.mark.parametrize("level", [2.5, "3", True, 0, -2])
def test_levels_must_be_positive_integers(level):
    """Every quadrature and grid level goes through one check: an integer
    by ``operator.index``, not a bool, and at least 1."""
    rs = w.root_system("A2")
    ones = lambda pts: np.ones(len(pts))
    for call in (lambda: build_quadrature(rs, level),
                 lambda: quadrature_integrate(rs, ones, level),
                 lambda: forward_transform(rs, ones, [_wt("A2", (1, 0))], level),
                 lambda: plancherel(rs, [], ones, level),
                 lambda: orthogonality_gram(rs, [_wt("A2", (1, 0))], level),
                 lambda: w.grid_fm(rs, level),
                 lambda: affine.torsion_grid(rs, level),
                 lambda: w.rational_elements(rs, level)):
        with pytest.raises(w.DomainError, match="positive integer"):
            call()


def test_numpy_integer_levels_read_as_int(monkeypatch):
    cache = _fresh_cache(monkeypatch, "_rule_cache")
    rs = w.root_system("A2")
    rule = build_quadrature(rs, np.int64(3))
    assert type(rule.level) is int and list(cache.entries) == [("A2", 3)]
    assert build_quadrature(rs, 3) is rule
    lams = _pool("A2", 2)
    assert np.array_equal(orthogonality_gram(rs, lams, np.int64(5)), orthogonality_gram(rs, lams, 5))


def _meshgrid_rule(rs, level):
    """``(nodes_bary, nodes, weights)`` built from full meshgrids and
    column products, the way the rule was first built: the builder from
    1-D factors must match it bit for bit."""
    rank = rs.rank
    xg, wg = np.polynomial.legendre.leggauss(transform_mod._GAUSS_Q)
    axis_pts = ((np.arange(level)[:, None] + (xg[None, :] + 1) / 2) / level).reshape(-1)
    axis_wts = np.tile(wg / (2 * level), level)
    grids = np.meshgrid(*([axis_pts] * rank), indexing="ij")
    cube = np.stack([g.reshape(-1) for g in grids], axis=1)
    cube_w = np.ones(cube.shape[0])
    for g in np.meshgrid(*([axis_wts] * rank), indexing="ij"):
        cube_w = cube_w * g.reshape(-1)
    cols, jac = [], np.ones(cube.shape[0])
    for k in range(rank):
        col = cube[:, k]
        for j in range(k):
            col = col * (1 - cube[:, j])
        cols.append(col)
        jac = jac * (1 - cube[:, k]) ** (rank - 1 - k)
    simplex = np.stack(cols, axis=1)
    weights = cube_w * jac
    weights = weights / weights.sum()
    nodes_bary = np.concatenate([(1 - simplex.sum(axis=1))[:, None], simplex], axis=1)
    verts = np.array([[float(c) for c in v.coords] for v in w.fundamental_vertices(rs)[1:]])
    return nodes_bary, simplex @ verts, weights


@pytest.mark.parametrize("name", ["A1", "A2", "C2", "G2", "A3", "B3", "C3"])
def test_rule_matches_meshgrid_reference(monkeypatch, name):
    _fresh_cache(monkeypatch, "_rule_cache")
    rs = w.root_system(name)
    for level in (1, 2, 5, 12):
        rule = build_quadrature(rs, level)
        for got, want in zip((rule.nodes_bary, rule.nodes, rule.weights),
                             _meshgrid_rule(rs, level)):
            assert got.shape == want.shape and np.array_equal(got, want), (name, level)


@pytest.mark.parametrize("name, level", [("C3", 12), ("G2", 64)])
def test_rule_build_peak_memory(monkeypatch, name, level):
    """Building a rule allocates little beyond the rule itself: no full
    meshgrid or column product is held next to it."""
    cache = _fresh_cache(monkeypatch, "_rule_cache")
    rs = w.root_system(name)
    tracemalloc.start()
    try:
        rule = build_quadrature(rs, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * cache.size(rule)


def _fraction_node_gram(rs, lams, level):
    """The Gram with its nodes built as Fraction points of
    :func:`affine.torsion_grid`, converted coordinate by coordinate."""
    grid = affine.torsion_grid(rs, level)
    nodes = np.array([[float(c) for c in x.coords] for x, _ in grid])
    weights = np.array([count for _, count in grid], dtype=float) / level**rs.rank
    block = np.empty((len(grid), len(lams)), dtype=complex)
    for j, lam in enumerate(lams):
        block[:, j] = eval_many(orbit_function(lam), nodes)
    return block.conj().T @ (weights[:, None] * block)


@pytest.mark.parametrize("name, level, top", [
    ("A2", 64, 3), ("C2", 64, 3), ("G2", 64, 3), ("A3", 24, 3), ("B3", 24, 3), ("C3", 24, 3),
    ("D4", None, 2), ("A1xG2", None, 2), ("F4", None, 2),
])
def test_gram_matches_fraction_node_reference(name, level, top):
    """Nodes read from the integer torsion grid as ``v / M`` are the
    floats of the Fraction points."""
    rs, lams = w.root_system(name), _pool(name, top)
    level = level or minimal_separating_m(lams)
    assert np.array_equal(orthogonality_gram(rs, lams, level), _fraction_node_gram(rs, lams, level))


def test_orthogonality_gram_diagonal():
    for name, coords_list in [
        ("A2", [(0, 0), (1, 0), (0, 1), (1, 1)]),
        ("C2", [(1, 0), (0, 1), (1, 1)]),
    ]:
        rs = w.root_system(name)
        lams = [w.weight(rs, c) for c in coords_list]
        gram = orthogonality_gram(rs, lams, level=12)
        want = np.diag([float(w.orbit_size(l)) for l in lams])
        assert np.max(np.abs(gram - want)) < 1e-8


def _gram_error(rs, lams, level):
    """Largest deviation of the Gram from diag(|O(lambda)|), relative to
    the largest orbit."""
    gram = orthogonality_gram(rs, lams, level)
    sizes = [float(w.orbit_size(lam)) for lam in lams]
    assert gram.shape == (len(lams), len(lams)) and gram.dtype == complex
    return np.max(np.abs(gram - np.diag(sizes))) / max(sizes)


@pytest.mark.parametrize("name, level", [
    ("A2", 64), ("C2", 64), ("G2", 64), ("A3", 24), ("B3", 24), ("C3", 24),
])
def test_orthogonality_gram_on_criterion_7_sets(name, level):
    assert _gram_error(w.root_system(name), _pool(name), level) < 1e-12


@pytest.mark.parametrize("name", ["F4", "A4", "D4", "E6", "A1xG2", "C2xA1"])
def test_orthogonality_gram_any_rank_and_products(name):
    """Grams beyond rank 3 and on product systems, at the smallest
    separating level."""
    rs = w.root_system(name)
    if rs.rank <= 4:
        lams = _pool(name, 2)
    else:
        lams = [w.weight(rs, c) for c in [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
                                          (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 1, 0)]]
    assert _gram_error(rs, lams, minimal_separating_m(lams)) < 1e-12


def test_orthogonality_gram_needs_a_separating_level():
    lam = _wt("A2", (1, 1))
    with pytest.raises(w.SeparationFailure) as exc:
        orthogonality_gram(lam.rs, [lam], 3)
    assert exc.value.pair == (lam, lam)


def test_orthogonality_gram_of_no_weights():
    gram = orthogonality_gram(w.root_system("A2"), [], 5)
    assert gram.shape == (0, 0) and gram.dtype == complex


def test_orthogonality_gram_builds_no_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("orthogonality_gram built a quadrature rule")

    monkeypatch.setattr(transform_mod, "build_quadrature", refuse)
    assert _gram_error(w.root_system("B3"), _pool("B3", 2), 11) < 1e-12


def _fresh_cache(monkeypatch, name):
    old = getattr(transform_mod, name)
    cache = type(old)(old.budget, old.size)
    monkeypatch.setattr(transform_mod, name, cache)
    return cache


def test_rule_cache_bounded_in_bytes(monkeypatch):
    """Only the newest entry may hold more than the budget, and then alone."""
    cache = _fresh_cache(monkeypatch, "_rule_cache")
    rs = w.root_system("C3")
    for level in [*range(10, 17), 2, 3]:
        rule = build_quadrature(rs, level)
        held = [cache.size(r) for r in cache.entries.values()]
        assert cache.held == sum(held)
        assert cache.held <= cache.budget or len(held) == 1
        assert list(cache.entries.values())[-1] is rule
    assert [r.level for r in cache.entries.values()] == [2, 3]
    assert build_quadrature(rs, 2) is cache.entries[("C3", 2)]


def test_phi_cache_keeps_forward_entries(monkeypatch):
    """The node values of the C2 level-40 and A2 level-24 forward
    transforms (3.25 MB) stay cached together."""
    cache = _fresh_cache(monkeypatch, "_phi_cache")
    cases = [("C2", 40, [(1, 0), (0, 1), (1, 1), (2, 0)]), ("A2", 24, [(1, 0), (0, 1), (1, 1)])]

    def forward_all():
        for name, level, coords in cases:
            rs = w.root_system(name)
            forward_transform(rs, lambda pts: np.ones(len(pts)),
                              [w.weight(rs, c) for c in coords], level)

    forward_all()
    kept = list(cache.entries.values())
    forward_all()
    assert len(kept) == 7 and cache.held <= cache.budget
    assert all(a is b for a, b in zip(kept, cache.entries.values()))


def test_forward_inverse_roundtrip():
    rs = w.root_system("A2")
    spec = [
        SpectrumEntry(w.weight(rs, c), v)
        for c, v in [((1, 0), 0.5), ((0, 1), -0.25j), ((1, 1), 1.0), ((2, 0), 0.75)]
    ]
    g = synthesize(spec)
    rec = forward_transform(rs, g, [e.weight for e in spec], level=16)
    by_coords = {e.weight.coords: e.coeff for e in rec}
    for e in spec:
        assert abs(by_coords[e.weight.coords] - complex(e.coeff)) < 1e-12
    # sorted by (height, coords)
    keys = [(sum(e.weight.coords), e.weight.coords) for e in rec]
    assert keys == sorted(keys)
    x = w.point(rs, (0.21, 0.34))
    direct = complex(g(np.array([[0.21, 0.34]]))[0])
    assert abs(inverse_transform(rec, x) - direct) < 1e-12


def test_plancherel():
    rs = w.root_system("A2")
    spec = [
        SpectrumEntry(w.weight(rs, c), v)
        for c, v in [((1, 0), 0.5), ((0, 1), -0.25j), ((1, 1), 1.0), ((2, 0), 0.75)]
    ]
    g = synthesize(spec)
    spectral, avg = plancherel(rs, spec, g, level=16)
    # sum |O(lam)| |c|^2 = 3/4 + 3/16 + 6 + 27/16 = 69/8
    assert abs(spectral - 69 / 8) < 1e-13
    assert abs(spectral - avg) < 1e-10


def test_separates():
    lam = _wt("A2", (1, 0))
    assert separates(lam, lam, 2)
    assert not separates(lam, lam, 1)
    lam11 = _wt("A2", (1, 1))
    assert not separates(lam11, lam11, 3)
    assert separates(lam11, lam11, 4)
    with pytest.raises(w.MismatchedSystem):
        separates(lam, _wt("C2", (1, 0)), 4)
    with pytest.raises(w.DomainError):
        separates(_wt("A2", (-1, 0)), lam, 4)


def _separates_pairwise(lam, mu, m):
    """Reference: no two distinct orbit points congruent coordinate-wise mod m."""
    pts = list(dict.fromkeys(w.orbit(lam).points + w.orbit(mu).points))
    return not any(
        all((a - b) % m == 0 for a, b in zip(p.coords, q.coords))
        for i, p in enumerate(pts)
        for q in pts[i + 1:]
    )


def _pool(name, top=3):
    rs = w.root_system(name)
    return [w.weight(rs, c) for c in iproduct(range(top), repeat=rs.rank)]


def test_separates_matches_pairwise_collisions():
    cases = [("A2", range(1, 7)), ("C2", range(1, 7)), ("G2", range(1, 7)), ("A3", (2, 3))]
    seen = set()
    for name, ms in cases:
        pool = _pool(name)
        for m in ms:
            for i, lam in enumerate(pool):
                for mu in pool[i:]:
                    got = separates(lam, mu, m)
                    assert got == _separates_pairwise(lam, mu, m), (name, m, lam, mu)
                    seen.add(got)
    assert seen == {True, False}


def test_minimal_separating_m():
    assert minimal_separating_m([_wt("A2", (1, 1))]) == 4
    assert minimal_separating_m([_wt("A2", (1, 0)), _wt("A2", (0, 1))]) == 3
    with pytest.raises(w.DomainError):
        minimal_separating_m([])


# -- the content rule against the residue scan it replaced ---------------------------

CONTENT_SYSTEMS = ["A1", "A2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4",
                   "A1xG2", "C2xA1", "A1xA1xA1"]


def _ref_residues(lam, m):
    return Counter(tuple(int(c) % m for c in p.coords) for p in w.orbit(lam).points)


def _ref_first_unseparated(lambdas, res):
    """Reference: given each weight's residue Counter, a pair is unseparated
    when a residue holds two points of one orbit, or, for two different
    weights, a point of each."""
    for i, a in enumerate(lambdas):
        for b, rb in zip(lambdas[i:], res[i:]):
            ra = res[i]
            if not (max(ra.values()) == 1 == max(rb.values())
                    and (a.coords == b.coords or ra.keys().isdisjoint(rb))):
                return a, b
    return None


def _coordinate_spread(lambdas):
    columns = zip(*(p.coords for lam in lambdas for p in w.orbit(lam).points))
    return max(int(max(col) - min(col)) for col in columns)


@st.composite
def weight_sets(draw):
    rs = w.root_system(draw(st.sampled_from(CONTENT_SYSTEMS)))
    top = 2 if rs.rank <= 3 else 1
    coords = st.lists(st.integers(0, top), min_size=rs.rank, max_size=rs.rank)
    return [w.weight(rs, c) for c in draw(st.lists(coords, min_size=1, max_size=4))]


@settings(max_examples=60, deadline=None)
@given(weight_sets())
def test_content_rule_matches_residue_scan(lams):
    """First unseparated pair, least separating order and T_m scalar
    products (coefficients and their types) against the residue scan, for
    every order up to the coordinate spread plus one."""
    ms = range(1, _coordinate_spread(lams) + 2)
    res = {m: [_ref_residues(lam, m) for lam in lams] for m in ms}
    assert minimal_separating_m(lams) == next(
        m for m in ms if _ref_first_unseparated(lams, res[m]) is None)
    for m in ms:
        assert transform_mod._first_unseparated(lams, m) == _ref_first_unseparated(lams, res[m])
        for i, (lam, a) in enumerate(zip(lams, res[m])):
            for mu, b in zip(lams[i:], res[m][i:]):
                got = tm_scalar_product(lam, mu, m)
                want = Cyc.from_rational(m, m**lam.rs.rank * sum(c * b[r] for r, c in a.items()))
                assert got.coeffs == want.coeffs, (m, lam, mu)
                assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("name,coords,m", [
    ("F4", (1, 1, 1, 1), 12),
    ("E6", (1, 0, 0, 0, 0, 1), 4),
    ("E7", (1, 0, 0, 0, 0, 0, 0), 3),
    ("D5", (1, 1, 0, 0, 1), 5),
])
def test_minimal_separating_m_large_orbits(name, coords, m):
    lam = _wt(name, coords)
    assert minimal_separating_m([lam]) == m
    assert separates(lam, lam, m) and not separates(lam, lam, m - 1)


@pytest.mark.parametrize("m", [0, -4, 2.5, "3", True, -2])
def test_lattice_orders_below_one(m):
    """Lattice orders and moduli below 1, or not integers, raise the same
    error as levels."""
    lam = _wt("A2", (1, 0))
    x = w.point(lam.rs, (F(1, 3), F(1, 3)))
    for call in (lambda: separates(lam, lam, m), lambda: tm_scalar_product(lam, lam, m),
                 lambda: finite_forward(lambda x: 1, [lam], m),
                 lambda: synthesize_spectrum([SpectrumEntry(lam, F(1))], m),
                 lambda: eval_exact_cyc(orbit_function(lam), x, modulus=m),
                 lambda: w.lattice_tm(lam.rs, m)):
        with pytest.raises(w.DomainError, match="positive integer"):
            call()


@pytest.mark.parametrize("name,coords,m,pair", [
    ("A1", [(0,), (1,)], 2, (0, 1)),
    ("A2", [(0, 0), (3, 0)], 3, (0, 1)),
    ("A2", [(1, 1), (1, 1)], 3, (0, 0)),
])
@pytest.mark.parametrize("run", ["finite_forward", "orthogonality_gram"])
def test_separation_failure_reports_first_pair(name, coords, m, pair, run):
    rs = w.root_system(name)
    lams = [w.weight(rs, c) for c in coords]
    with pytest.raises(w.SeparationFailure) as exc:
        if run == "finite_forward":
            finite_forward(lambda x: 1, lams, m)
        else:
            orthogonality_gram(rs, lams, m)
    a, b = lams[pair[0]], lams[pair[1]]
    assert exc.value.pair == (a, b)
    assert str(exc.value) == f"order {m} does not separate {a.coords} and {b.coords}"


def test_tm_scalar_product_orthogonality():
    for name, m in [("A2", 4), ("C2", 4), ("G2", 5)]:
        rs = w.root_system(name)
        lams = [w.weight(rs, c) for c in [(0, 0), (1, 0), (0, 1), (1, 1)]]
        for i, lam in enumerate(lams):
            for mu in lams[i:]:
                if not separates(lam, mu, m):
                    continue
                got = tm_scalar_product(lam, mu, m)
                assert got.is_rational()
                if lam.coords == mu.coords:
                    assert got.as_rational() == m**2 * w.orbit_size(lam)
                else:
                    assert got.as_rational() == 0


def _tm_sum(lam, mu, m):
    """Reference: the scalar product as an explicit sum over the lattice."""
    f, g = orbit_function(lam), orbit_function(mu)
    total = Cyc.zero(m)
    for x in w.lattice_tm(lam.rs, m):
        total = total + eval_exact_cyc(f, x, modulus=m) * eval_exact_cyc(g, x, modulus=m).conj()
    return total


@pytest.mark.parametrize("name,ms,top", [
    ("A2", (1, 2, 3, 5), 3),
    ("C2", (1, 3, 4), 3),
    ("G2", (2, 5), 3),
    ("A3", (1, 2, 3), 2),
    ("B3", (2,), 2),
])
def test_tm_scalar_product_matches_lattice_sum(name, ms, top):
    pool = _pool(name, top)
    unseparated = 0
    for m in ms:
        for i, lam in enumerate(pool):
            for mu in pool[i:]:
                got = tm_scalar_product(lam, mu, m)
                want = _tm_sum(lam, mu, m)
                assert got == want and got.reduced() == want.reduced(), (m, lam, mu)
                unseparated += not separates(lam, mu, m)
    assert unseparated


def test_tm_scalar_product_guards():
    lam = _wt("A2", (1, 0))
    with pytest.raises(w.CapExceeded):
        tm_scalar_product(lam, lam, 1000, cap=100)
    with pytest.raises(w.MismatchedSystem):
        tm_scalar_product(lam, _wt("C2", (1, 0)), 4)
    with pytest.raises(w.DomainError):
        tm_scalar_product(_wt("A2", (-1, 0)), lam, 4)
    with pytest.raises(w.DomainError):
        tm_scalar_product(_wt("A2", (F(1, 2), 0)), lam, 4)


def _full_lattice_forward(f, lambdas, m):
    """Reference: coefficients from the sum over every lattice point."""
    pts = w.lattice_tm(lambdas[0].rs, m)
    n = lambdas[0].rs.rank
    out = {}
    for lam in lambdas:
        func = orbit_function(lam)
        if isinstance(f(pts[0]), complex):
            acc = sum(f(x) * eval_fn(func, x).conjugate() for x in pts)
            out[lam.coords] = acc / (m**n * w.orbit_size(lam))
            continue
        acc = Cyc.zero(m)
        for x in pts:
            acc = acc + f(x) * eval_exact_cyc(func, x, modulus=m).conj()
        out[lam.coords] = (acc * F(1, m**n * w.orbit_size(lam))).as_rational()
    return out


FORWARD_CASES = [
    ("A2", [(1, 0), (0, 1), (1, 1)], 6, [F(3, 2), F(-2), F(5)]),
    ("C2", [(1, 0), (0, 1), (1, 1)], 8, [F(1, 3), F(0), F(-7, 2)]),
    ("G2", [(1, 0), (0, 1), (1, 1)], 7, [F(2), F(-1, 5), F(1)]),
    ("B3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 4, [F(-1), F(3, 4), F(2)]),
    ("A1xG2", [(1, 1, 0), (0, 0, 1), (1, 0, 1)], 5, [F(5), F(1, 2), F(-3)]),
    ("G2", [(1, 0), (0, 1), (1, 1)], 7, [0.5 - 0.25j, 1.5, -2j]),  # complex spectrum
]


def test_finite_forward_exact():
    for name, coords, m, coeffs in FORWARD_CASES:
        rs = w.root_system(name)
        lams = [w.weight(rs, c) for c in coords]
        f = synthesize_spectrum([SpectrumEntry(l, c) for l, c in zip(lams, coeffs)], m=m)
        rec = finite_forward(f, lams, m)
        got = {e.weight.coords: e.coeff for e in rec}
        want = _full_lattice_forward(f, lams, m)
        if isinstance(coeffs[0], complex):
            assert all(isinstance(e.coeff, complex) for e in rec)
            for c, coeff in zip(coords, coeffs):
                assert abs(got[c] - coeff) < 1e-12 and abs(got[c] - want[c]) < 1e-12
        else:
            assert got == dict(zip(coords, coeffs)) == want, name
            assert all(isinstance(e.coeff, F) for e in rec)


def test_finite_forward_cap_bounds_grid():
    """``cap`` bounds the 45 grid points of A2 at m = 8, not the 64
    lattice points."""
    rs = w.root_system("A2")
    lams = [w.weight(rs, (1, 0)), w.weight(rs, (1, 1))]
    f = synthesize_spectrum([SpectrumEntry(lams[0], F(2))], m=8)
    with pytest.raises(w.CapExceeded):
        finite_forward(f, lams, 8, cap=44)
    rec = finite_forward(f, lams, 8, cap=45)
    assert {e.weight.coords: e.coeff for e in rec} == {(1, 0): 2, (1, 1): 0}


def test_finite_forward_reduces_no_point(monkeypatch):
    def refuse(*args):
        raise RuntimeError("affine reduction reached")

    monkeypatch.setattr(affine, "_reduce_scaled", refuse)
    with pytest.raises(RuntimeError):
        w.reduce_to_fundamental(w.point(w.root_system("A2"), (F(1, 2), F(1, 3))))
    for name, coords, m, coeffs in FORWARD_CASES[1:5]:
        rs = w.root_system(name)
        lams = [w.weight(rs, c) for c in coords]
        f = synthesize_spectrum([SpectrumEntry(l, c) for l, c in zip(lams, coeffs)], m=m)
        got = {e.weight.coords: e.coeff for e in finite_forward(f, lams, m)}
        assert got == dict(zip(coords, coeffs))


def test_finite_forward_float():
    rs = w.root_system("A2")
    lams = [w.weight(rs, c) for c in [(1, 0), (1, 1)]]
    spec = [SpectrumEntry(lams[0], 0.5 - 0.25j), SpectrumEntry(lams[1], 1.5)]
    f = synthesize_spectrum(spec)
    rec = finite_forward(f, lams, 6)
    got = {e.weight.coords: e.coeff for e in rec}
    assert abs(got[(1, 0)] - (0.5 - 0.25j)) < 1e-12
    assert abs(got[(1, 1)] - 1.5) < 1e-12


def test_finite_forward_errors():
    rs = w.root_system("A2")
    lam = w.weight(rs, (0, 0))
    bad = w.weight(rs, (3, 0))
    with pytest.raises(w.SeparationFailure) as exc:
        finite_forward(lambda x: 1, [lam, bad], 3)
    assert exc.value.pair is not None
    with pytest.raises(w.DomainError):
        finite_forward(lambda x: 1, [], 4)


def test_synthesize_spectrum_exact_values():
    rs = w.root_system("A2")
    spec = [SpectrumEntry(w.weight(rs, (1, 0)), F(2))]
    f = synthesize_spectrum(spec, m=3)
    val = f(w.point(rs, (F(1, 3), F(1, 3))))
    assert isinstance(val, Cyc)
    # phi_(1,0)(1/3,1/3) = 1 + 2 cos(2 pi / 3) = 0
    assert val.is_rational() and val.as_rational() == 0


def test_synthesize_spectrum_builds_orbit_functions_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return orbit_function(*args, **kwargs)

    monkeypatch.setattr(transform_mod, "orbit_function", counting)
    rs = w.root_system("A2")
    lams = [w.weight(rs, (1, 0)), w.weight(rs, (1, 1))]
    for coeffs in [(F(2), F(-1, 3)), (F(2), 0.5j)]:  # exact and complex paths
        calls.clear()
        f = synthesize_spectrum([SpectrumEntry(l, c) for l, c in zip(lams, coeffs)], m=4)
        for x in w.lattice_tm(rs, 4):
            f(x)
        assert len(calls) <= len(lams)


def test_synthesize_builds_orbit_functions_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return orbit_function(*args, **kwargs)

    monkeypatch.setattr(transform_mod, "orbit_function", counting)
    rs = w.root_system("A2")
    spec = [SpectrumEntry(w.weight(rs, (1, 0)), 0.5), SpectrumEntry(w.weight(rs, (1, 1)), -0.25j)]
    g = synthesize(spec)
    made = len(calls)
    nodes = np.array([[0.21, 0.34], [0.1, 0.05]])
    first = g(nodes)
    assert np.array_equal(g(nodes), first)
    assert len(calls) == made <= len(spec)


def test_finite_fourier_unitary():
    rng = np.random.default_rng(20260814)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    fv = finite_fourier(v)
    assert np.max(np.abs(finite_fourier(fv, inverse=True) - v)) < 1e-13
    assert abs(np.linalg.norm(fv) - np.linalg.norm(v)) < 1e-13
    m = rng.normal(size=(4, 4))
    fm = finite_fourier(m)
    assert np.max(np.abs(finite_fourier(fm, inverse=True) - m)) < 1e-13


def test_finite_fourier_kernel_convention():
    d = np.zeros(4, dtype=complex)
    d[1] = 1.0
    fd = finite_fourier(d)
    want = np.array([np.exp(2j * np.pi * 2 * (k + 1) / 4) / 2 for k in range(4)])
    assert np.max(np.abs(fd - want)) < 1e-14


def test_finite_fourier_errors():
    with pytest.raises(w.DomainError):
        finite_fourier(np.float64(1.0))
    with pytest.raises(w.DomainError):
        finite_fourier(np.zeros((2, 3)))
