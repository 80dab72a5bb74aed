"""Orbit enumeration against hand-checked point lists."""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import weylorbits as w
from weylorbits.weyl import orthogonal_orbit, reflect_simple

from tables import RANK2_ORBITS, RANK3_ORBITS


def _orbit_set(name, coords):
    rs = w.root_system(name)
    return {p.coords for p in w.orbit(w.weight(rs, coords)).points}


# positive integer assignments per number of free letters in a pattern
_ASSIGNMENTS = {
    1: [(1,), (2,), (7,)],
    2: [(1, 2), (2, 1), (3, 3), (2, 5)],
    3: [(1, 2, 3), (2, 1, 4), (1, 1, 1), (3, 1, 2)],
}


def _instances(pattern):
    """Yield (lambda_coords, args) pairs instantiating a letter pattern."""
    letters = [ch for ch in pattern if ch != "0"]
    for args in _ASSIGNMENTS[len(letters)]:
        vals = dict(zip(letters, args))
        coords = tuple(vals.get(ch, 0) for ch in pattern)
        yield coords, args


@pytest.mark.parametrize("name", sorted(RANK2_ORBITS))
def test_rank2_orbit_tables(name):
    for pattern, expected_fn in RANK2_ORBITS[name]:
        for coords, args in _instances(pattern):
            got = _orbit_set(name, coords)
            assert got == expected_fn(*args), (name, pattern, coords)


@pytest.mark.parametrize("name", sorted(RANK3_ORBITS))
def test_rank3_orbit_tables(name):
    for pattern, expected_fn in RANK3_ORBITS[name]:
        for coords, args in _instances(pattern):
            got = _orbit_set(name, coords)
            assert got == expected_fn(*args), (name, pattern, coords)


def test_orbit_size_and_stabilizer():
    rs = w.root_system("G2")
    orb = w.orbit(w.weight(rs, (1, 0)))
    assert orb.size == 6
    assert orb.size * orb.stabilizer_order == rs.weyl_order
    assert w.orbit(w.weight(rs, (1, 1))).size == 12
    assert w.orbit(w.weight(rs, (0, 0))).size == 1


def test_orbit_size_formula_vs_enumeration(rng):
    """Stabilizer-subgroup formula vs the length of the enumerated orbit."""
    from conftest import random_dominant
    for name in ("A2", "C2", "G2", "A3", "B3", "C3", "D4", "A1xC2"):
        rs = w.root_system(name)
        for _ in range(6):
            lam = random_dominant(rs, rng)
            assert w.orbit_size(lam) == len(w.orbit(lam).points)


def test_orbit_requires_dominant():
    rs = w.root_system("A2")
    with pytest.raises(w.DomainError):
        w.orbit(w.weight(rs, (-1, 2)))


def _a2_set():
    rs = w.root_system("A2")
    return rs, [w.weight(rs, c) for c in ((1, 0), (0, 1), (1, 1))]


_B3 = w.root_system("B3")
_GATED_CALLS = {
    "gram": lambda: w.orthogonality_gram(*_a2_set(), 48),
    "finite_forward": lambda: w.finite_forward(lambda x: 1, _a2_set()[1], 12),
    "tm_scalar_product": lambda: w.tm_scalar_product(*_a2_set()[1][1:], 12),
    "product_auto": lambda: w.product(w.weight(_B3, (1, 0, 2)), w.weight(_B3, (0, 1, 1))),
    "product_brute": lambda: w.product(w.weight(_B3, (1, 0, 2)), w.weight(_B3, (0, 1, 1)),
                                       method="brute"),
    "branch": lambda: w.branch_restrict(w.weight(_B3, (1, 0, 2)), w.builtin_projection("B3->C2")),
}


@pytest.mark.parametrize("call,orbits,checks", [
    ("gram", 3, 3),
    ("finite_forward", 3, 3),
    ("tm_scalar_product", 1, 2),
    ("product_auto", 1, 3),
    ("product_brute", 2, 4),
    ("branch", 1, 1),
])
def test_each_weight_checked_and_enumerated_once(monkeypatch, call, orbits, checks):
    """Only the stabilizer checks dominance, once per sized orbit, and a
    call enumerates each orbit it reads once: ``_scaled_orbit`` and
    ``is_dominant`` are counted wherever a library module imports them."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in [m for n, m in sys.modules.items() if n.startswith("weylorbits.")]:
        for name in ("_scaled_orbit", "is_dominant"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    _GATED_CALLS[call]()
    assert counts == {"_scaled_orbit": orbits, "is_dominant": checks}


@pytest.mark.parametrize("call", [
    lambda lam: w.product(lam, lam),
    lambda lam: w.product(lam, lam, method="brute"),
    lambda lam: w.branch_restrict(lam, w.builtin_projection("A2->A1")),
    lambda lam: w.orthogonality_gram(lam.rs, [lam], 5),
    lambda lam: w.finite_forward(lambda x: 1, [lam], 5),
    lambda lam: w.tm_scalar_product(lam, lam, 5),
], ids=["product", "brute", "branch", "gram", "finite_forward", "tm_scalar_product"])
def test_non_dominant_weights_meet_the_stabilizer_check(call):
    with pytest.raises(w.DomainError, match="start from a dominant weight"):
        call(w.weight(w.root_system("A2"), (-1, 2)))


def test_orbit_scaling_covariance():
    rs = w.root_system("C2")
    base = _orbit_set("C2", (1, 2))
    scaled = _orbit_set("C2", (3, 6))
    assert scaled == {tuple(3 * c for c in p) for p in base}


def test_dominant_representative(rng):
    from conftest import random_dominant
    for name in ("A3", "B3", "G2", "D4"):
        rs = w.root_system(name)
        for _ in range(8):
            lam = random_dominant(rs, rng)
            for p in w.orbit(lam).points:
                dom, parity, word = w.dominant_representative(p)
                assert dom.coords == lam.coords
                assert parity == (-1) ** len(word)
                # the word, applied left to right, carries p to dom
                q = p
                for i in word:
                    q = reflect_simple(i, q)
                assert q.coords == dom.coords


def test_reflect_is_involution():
    rs = w.root_system("F4")
    lam = w.weight(rs, (1, 2, 0, 1))
    for i in range(1, 5):
        assert reflect_simple(i, reflect_simple(i, lam)).coords == lam.coords
    x = w.weight_to_point(lam)
    for i in range(1, 5):
        y = w.reflect_simple_point(i, w.reflect_simple_point(i, x))
        assert y.coords == x.coords


def test_point_and_weight_reflections_agree():
    rs = w.root_system("G2")
    lam = w.weight(rs, (2, -1))
    for i in (1, 2):
        via_weight = w.weight_to_point(reflect_simple(i, lam))
        via_point = w.reflect_simple_point(i, w.weight_to_point(lam))
        assert via_weight.coords == via_point.coords


def test_orbit_closed_under_reflections():
    rs = w.root_system("B3")
    orb = w.orbit(w.weight(rs, (1, 0, 2)))
    pts = {p.coords for p in orb.points}
    for p in orb.points:
        for i in range(1, 4):
            assert reflect_simple(i, p).coords in pts


def test_orthogonal_orbit_cross_check():
    """Orthogonal-coordinate enumeration matches omega-basis enumeration."""
    for name, coords in [("A3", (1, 2, 1)), ("B3", (1, 1, 2)),
                         ("C3", (2, 0, 1)), ("D4", (1, 0, 1, 1))]:
        rs = w.root_system(name)
        lam = w.weight(rs, coords)
        direct = {p.coords for p in w.orbit(lam).points}
        via_orth = {w.from_orthogonal(rs.series, m).coords
                    for m in orthogonal_orbit(rs.series, w.to_orthogonal(lam))}
        assert via_orth == direct


def test_orthogonal_orbit_sizes():
    assert len(orthogonal_orbit("A", (2, 1, 0))) == 6
    assert len(orthogonal_orbit("B", (2, 1, 0))) == 24
    assert len(orthogonal_orbit("C", (3, 2, 1))) == 48
    # a zero entry lets every sign pattern through the even-sign rule
    assert len(orthogonal_orbit("D", (3, 2, 1, 0))) == 192
    assert len(orthogonal_orbit("D", (2, 1))) == 4


def test_product_orbit_is_cartesian():
    rs = w.root_system("A1xA2")
    orb = w.orbit(w.weight(rs, (1, 1, 0)))
    assert orb.size == 2 * 3
    assert {p.coords for p in orb.points} == {
        (e, a, b) for e in (1, -1) for (a, b) in {(1, 0), (-1, 1), (0, -1)}
    }


def test_orbit_cap():
    rs = w.root_system("E8")
    with pytest.raises(w.CapExceeded) as exc:
        w.orbit(w.weight(rs, (1, 1, 1, 1, 1, 1, 1, 1)), cap=1000)
    assert exc.value.size == rs.weyl_order
    pts = w.orbit(w.weight(rs, (1, 0, 0, 0, 0, 0, 0, 0))).points
    assert len(pts) == 240  # the root orbit


def test_group_elements_g2():
    rs = w.root_system("G2")
    mats = w.group_elements(rs)
    assert len(mats) == 12
    # identity present exactly once
    eye = tuple(tuple(int(i == j) for j in range(2)) for i in range(2))
    assert sum(1 for m in mats if tuple(tuple(r) for r in m) == eye) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A2", "C2", "G2"]),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_dominant_representative_property(name, coords):
    rs = w.root_system(name)
    lam = w.weight(rs, coords)
    dom, parity, word = w.dominant_representative(lam)
    assert w.is_dominant(dom)
    assert parity == (-1) ** len(word)
    q = lam
    for i in word:
        q = reflect_simple(i, q)
    assert q.coords == dom.coords
    assert w.orbit_size(dom) * w.stabilizer_order(dom) == rs.weyl_order
