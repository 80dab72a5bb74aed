"""The integer Weyl kernel against straightforward Fraction loops.

The references below are the plain ``Fraction`` algorithms the kernel
replaced: every result must match them exactly, in value, type and order.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylorbits as w
from weylorbits import cyclotomic, weyl
from weylorbits.orbit_fn import _residue_counts
from weylorbits.root_system import RootSystem, factor_slices
from weylorbits.weights import coweight_coords, point_from_coweights
from weylorbits.weyl import orthogonal_orbit, reflect_simple

SYSTEMS = ["A1", "A2", "C2", "G2", "A3", "B3", "C3", "D4", "A1xG2", "A1xA2", "C2xA1"]
SMALL_SYSTEMS = ["A1", "A2", "C2", "G2", "A3", "B3", "A1xG2", "A1xA2"]


# -- Fraction references ---------------------------------------------------------

def ref_dominant_representative(lam):
    cur = list(lam.coords)
    cartan = lam.rs.cartan
    word = []
    while True:
        idx = next((j for j, a in enumerate(cur) if a < 0), None)
        if idx is None:
            break
        a_i = cur[idx]
        row = cartan[idx]
        for j in range(len(cur)):
            cur[j] -= a_i * row[j]
        word.append(idx + 1)
    return tuple(cur), (-1) ** len(word), tuple(word)


def ref_orbit(lam):
    """Breadth first over every nonzero coordinate, deduplicated globally."""
    seen = {lam.coords}
    points = [lam.coords]
    layer = [lam]
    while layer:
        nxt = []
        for p in layer:
            for i in range(1, lam.rs.rank + 1):
                if p.coords[i - 1] == 0:
                    continue
                img = reflect_simple(i, p)
                if img.coords not in seen:
                    seen.add(img.coords)
                    nxt.append(img)
        nxt.sort(key=lambda p: p.coords)
        points.extend(p.coords for p in nxt)
        layer = nxt
    return points


def ref_reduce(x):
    rs = x.rs
    coords = list(x.coords)
    steps = 0
    for f, sl in factor_slices(rs):
        for i in range(sl.start, sl.stop):
            coords[i] -= math.floor(coords[i])
        while True:
            pairs = [
                sum(f.cartan[j][k] * coords[sl.start + k] for k in range(f.rank))
                for j in range(f.rank)
            ]
            worst = min(range(f.rank), key=lambda j: (pairs[j], j))
            if pairs[worst] < 0:
                coords[sl.start + worst] -= pairs[worst]
            else:
                level = sum(a * coords[sl.start + k] for k, a in enumerate(f.xi_omega))
                if level > 1:
                    for k in range(f.rank):
                        coords[sl.start + k] += (1 - level) * f.comarks[k]
                else:
                    break
            steps += 1
    return tuple(coords), steps


def ref_element_orders(x):
    cw = coweight_coords(x)
    return (
        math.lcm(*(c.denominator for c in cw)),
        math.lcm(*(b.denominator for b in x.coords)),
    )


def ref_is_rational(x):
    n_ord = ref_element_orders(x)[1]
    base = ref_reduce(x)[0]
    return all(
        ref_reduce(x.scale(k))[0] == base
        for k in range(2, n_ord)
        if math.gcd(k, n_ord) == 1
    )


def ref_residue_counts(f, x):
    exps = [w.pairing(mu, x) for mu in f.orbit.points]
    denom = math.lcm(*(t.denominator for t in exps))
    return denom, Counter(t.numerator * (denom // t.denominator) % denom for t in exps)


# -- strategies ------------------------------------------------------------------

def _fractions(lo, hi, dens=(1, 2, 3, 4)):
    return st.builds(Fraction, st.integers(lo, hi), st.sampled_from(dens))


@st.composite
def dominant_weights(draw, names=SMALL_SYSTEMS, rational=True):
    rs = w.root_system(draw(st.sampled_from(names)))
    values = _fractions(0, 6) if rational else st.integers(0, 3)
    return w.weight(rs, [draw(values) for _ in range(rs.rank)])


@st.composite
def any_weights(draw, names=SYSTEMS):
    rs = w.root_system(draw(st.sampled_from(names)))
    return w.weight(rs, [draw(_fractions(-12, 12)) for _ in range(rs.rank)])


@st.composite
def exact_points(draw, names=SYSTEMS):
    rs = w.root_system(draw(st.sampled_from(names)))
    return w.point(rs, [draw(_fractions(-40, 40, (1, 2, 3, 5, 8, 40)))
                        for _ in range(rs.rank)])


@st.composite
def float_points(draw, names=SYSTEMS):
    rs = w.root_system(draw(st.sampled_from(names)))
    values = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    return w.point(rs, [draw(values) for _ in range(rs.rank)])


def _all_fractions(coords):
    return all(type(c) is Fraction for c in coords)


# -- dominant representatives and orbits -------------------------------------------

@settings(max_examples=200, deadline=None)
@given(any_weights())
def test_dominant_representative_matches_reference(lam):
    mu, parity, word = w.dominant_representative(lam)
    assert (mu.coords, parity, word) == ref_dominant_representative(lam)
    assert _all_fractions(mu.coords)


@settings(max_examples=120, deadline=None)
@given(dominant_weights())
def test_orbit_matches_reference(lam):
    orb = w.orbit(lam)
    assert [p.coords for p in orb.points] == ref_orbit(lam)
    assert orb.points[0] is lam
    assert all(_all_fractions(p.coords) for p in orb.points)


@pytest.mark.parametrize("name, coords", [
    ("A1xG2", (Fraction(1, 2), 1, Fraction(2, 3))),
    ("A1xG2", (0, 1, 1)),
    ("C2xA1", (Fraction(3, 4), 0, Fraction(1, 3))),
    ("F4", (1, 0, Fraction(1, 2), 1)),
    ("D4", (Fraction(1, 3), 0, 1, 1)),
])
def test_orbit_matches_reference_examples(name, coords):
    lam = w.weight(w.root_system(name), coords)
    assert [p.coords for p in w.orbit(lam).points] == ref_orbit(lam)


@settings(max_examples=60, deadline=None)
@given(dominant_weights(names=["A2", "A3", "B3", "C3", "D4", "C2", "A4"]))
def test_classical_orbit_matches_orthogonal_orbit(lam):
    rs = lam.rs
    got = {w.to_orthogonal(p) for p in w.orbit(lam).points}
    assert got == orthogonal_orbit(rs.series, w.to_orthogonal(lam))


def test_orbit_point_count_is_checked(monkeypatch):
    rs = w.root_system("C2")
    monkeypatch.setattr(weyl, "orbit_size", lambda lam: 7)
    with pytest.raises(w.InvariantViolation):
        w.orbit(w.weight(rs, (1, 1)))


def test_group_order_is_checked():
    a1 = w.root_system("A1")
    fake = RootSystem("fake", "A", a1.cartan, a1.lengths_sq, a1.marks,
                      a1.comarks, weyl_order=3)
    with pytest.raises(w.InvariantViolation):
        w.group_elements(fake)


def test_cyclotomic_division_is_checked(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_poly_divmod_exact", lambda num, den: ((1,), (1,)))
    with pytest.raises(w.InvariantViolation):
        cyclotomic.cyclotomic_poly.__wrapped__(6)


def test_integral_coordinates_share_objects():
    rs = w.root_system("B3")
    a = w.weight(rs, (2, 0, 1))
    orb = w.orbit(a)
    assert a.coords[1] is w.weight(rs, (0, 0, 0)).coords[0]
    values = {id(c) for p in orb.points for c in p.coords}
    assert len(values) == len({c for p in orb.points for c in p.coords})



def test_exact_table_takes_only_ints_and_fractions():
    rs = w.root_system("A1")
    assert w.weight(rs, (Fraction(6, 2),)).coords == (3,)
    assert w.weight(rs, (True,)).coords == (1,)
    # A float-like value equal to a table entry still goes through Fraction().
    value = np.float32(3.0)
    try:
        want = Fraction(value)
    except TypeError:
        with pytest.raises(TypeError):
            w.weight(rs, (value,))
    else:
        assert w.weight(rs, (value,)).coords == (want,)


# -- affine reduction ---------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(exact_points())
def test_reduce_exact_matches_reference(x):
    red, steps = w.reduce_to_fundamental(x)
    assert (red.coords, steps) == ref_reduce(x)
    assert red.exact and _all_fractions(red.coords)
    assert w.in_fundamental_domain(red)
    again, _ = w.reduce_to_fundamental(red)
    assert again.coords == red.coords


@settings(max_examples=200, deadline=None)
@given(float_points())
def test_reduce_float_matches_reference(x):
    red, steps = w.reduce_to_fundamental(x)
    want, want_steps = ref_reduce(x)
    assert steps == want_steps
    assert red.coords == want  # same float operations, so bit for bit
    assert not red.exact
    assert all(type(c) is float for c in red.coords)


@settings(max_examples=100, deadline=None)
@given(exact_points(names=["A1", "A2", "C2", "G2", "A1xA1"]))
def test_orders_and_rationality_match_reference(x):
    assert w.element_orders(x) == ref_element_orders(x)
    assert w.is_rational_element(x) == ref_is_rational(x)


@pytest.mark.parametrize("name, level", [("G2", 7), ("C2xA1", 4), ("B3", 5)])
def test_grid_matches_reference(name, level):
    rs = w.root_system(name)
    for gp in w.grid_fm(rs, level):
        fracs, start = [], 0
        for f in rs.factors:
            block = gp.kac[start + 1:start + 1 + f.rank]
            fracs += [Fraction(s, level) for s in block]
            start += f.rank + 1
        want = point_from_coweights(rs, fracs).coords
        assert gp.point.coords == want
        assert _all_fractions(gp.point.coords)


# -- orbit functions ----------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(dominant_weights(), exact_points(names=SMALL_SYSTEMS))
def test_residue_counts_match_reference(lam, x):
    if x.rs != lam.rs:
        x = w.point(lam.rs, [Fraction(k, 7) for k in range(1, lam.rs.rank + 1)])
    f = w.orbit_function(lam)
    assert _residue_counts(f, x) == ref_residue_counts(f, x)



def test_exact_evaluation_rejects_other_systems():
    f = w.orbit_function(w.weight(w.root_system("A2"), (1, 0)))
    for name in ("G2", "A3"):
        x = w.point(w.root_system(name), [Fraction(1, 3)] * w.root_system(name).rank)
        with pytest.raises(w.MismatchedSystem):
            w.eval_exact_cyc(f, x)
        with pytest.raises(w.WeylOrbitsError):
            w.eval_fn(f, x)


# -- regrouping -----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_auto_equals_brute(data):
    name = data.draw(st.sampled_from(["A2", "C2", "G2", "A3", "B3", "A1xG2"]))
    rs = w.root_system(name)
    coords = st.lists(st.integers(0, 3), min_size=rs.rank, max_size=rs.rank)
    lam = w.weight(rs, data.draw(coords))
    mu = w.weight(rs, data.draw(coords))
    brute = w.product(lam, mu, method="brute")
    assert w.product(lam, mu, method="auto") == brute
    assert brute.total_points() == w.orbit_size(lam) * w.orbit_size(mu)
    assert all(_all_fractions(t.coords) for t, _ in brute.terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rational_product_conserves_pairs(data):
    rs = w.root_system(data.draw(st.sampled_from(["A2", "C2", "G2"])))
    lam = w.weight(rs, [data.draw(_fractions(0, 4)) for _ in range(rs.rank)])
    mu = w.weight(rs, [data.draw(_fractions(0, 4)) for _ in range(rs.rank)])
    out = w.product(lam, mu, method="brute")
    assert out.total_points() == w.orbit_size(lam) * w.orbit_size(mu)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["C3->C2", "B4->B3", "A4->A1xA2", "G2->A1", "C2->A1xA1",
                        "G2->A2", "C4->A3", "D5->C2xC2"]),
       st.data())
def test_branch_restrict_conserves_points(pair, data):
    proj = w.builtin_projection(pair)
    coords = [data.draw(st.integers(0, 2)) for _ in range(proj.source.rank)]
    lam = w.weight(proj.source, coords)
    out = w.branch_restrict(lam, proj)
    assert out.rs == proj.target
    assert out.total_points() == w.orbit_size(lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_branch_equal_rank_conserves_points(a, b):
    g2 = w.root_system("G2")
    lam = w.weight(g2, (a, b))
    long_roots = [w.weight(g2, (2, -3)), w.weight(g2, (-1, 3))]
    out = w.branch_equal_rank(lam, long_roots)
    assert out.rs.name == "A2"
    assert out.total_points() == w.orbit_size(lam)
    c2 = w.root_system("C2")
    lam = w.weight(c2, (a, b))
    # the long roots 2e1 and 2e2 of C2 span A1xA1
    out = w.branch_equal_rank(lam, [w.weight(c2, (2, 0)), w.weight(c2, (-2, 2))])
    assert out.rs.name == "A1xA1"
    assert out.total_points() == w.orbit_size(lam)
