"""Orbit products, branchings and congruence classes."""

from fractions import Fraction as F
from itertools import product as tuples

import pytest

import weylorbits as w
from weylorbits import orbit_algebra
from weylorbits.orbit_algebra import product_fastpath_classify

from tables import (
    C2_SHORT_SQUARE_PRINTED,
    C2_SHORT_SQUARE_TRUE,
    PRODUCT_LINES,
    a_drop,
    a_split,
    b_drop,
    c_drop,
    c_split,
    d_drop,
    instantiate,
)


def _product_dict(name, lam, mu, **kw):
    rs = w.root_system(name)
    out = w.product(w.weight(rs, lam), w.weight(rs, mu), **kw)
    return out.as_dict()


@pytest.mark.parametrize("idx", range(len(PRODUCT_LINES)))
def test_product_lines(idx):
    name, lam_fn, mu_fn, expected_fn, constraint = PRODUCT_LINES[idx]
    for a, b in instantiate(constraint, k=2):
        got = _product_dict(name, lam_fn(a, b), mu_fn(a, b))
        assert got == expected_fn(a, b), (name, idx, a, b)


def test_short_root_square_discrepancy():
    """The tabulated square of the C2 4-point orbit is off in one term."""
    for a in (1, 3):
        got = _product_dict("C2", (a, 0), (a, 0))
        assert got == C2_SHORT_SQUARE_TRUE(a)
        assert got != C2_SHORT_SQUARE_PRINTED(a)


def test_product_commutes_and_counts(rng):
    from conftest import random_dominant
    for name in ("A2", "C2", "G2", "A3", "B3"):
        rs = w.root_system(name)
        for _ in range(4):
            lam = random_dominant(rs, rng)
            mu = random_dominant(rs, rng)
            left = w.product(lam, mu)
            assert left == w.product(mu, lam)
            assert left.total_points() == w.orbit_size(lam) * w.orbit_size(mu)


def test_brute_and_auto_agree(rng):
    from conftest import random_dominant
    hits = 0
    for name in ("A2", "C2", "G2", "A3", "C3"):
        rs = w.root_system(name)
        for _ in range(8):
            lam = random_dominant(rs, rng)
            mu = random_dominant(rs, rng)
            assert w.product(lam, mu, method="auto") == w.product(lam, mu, method="brute")
            hits += product_fastpath_classify(lam, mu) != "General"
    assert 0 < hits < 40  # both closed-form and General classes are met


def _pool(rs, values):
    return [w.weight(rs, c) for c in tuples(values, repeat=rs.rank)]


def test_auto_equals_brute_exhaustive():
    """Same terms in the same order, with the same Fraction coordinates."""
    cases = [(name, (0, 1, 2)) for name in ("A1", "A2", "C2", "G2")]
    cases += [(name, (0, 1)) for name in ("A3", "B3", "C3", "C2xA1")]
    pairs = [(lam, mu) for name, values in cases
             for lam in _pool(w.root_system(name), values)
             for mu in _pool(w.root_system(name), values)]
    for name, lam, mu in [("A2", (F(1, 3), F(2, 3)), (1, 0)),
                          ("C2", (F(1, 2), 0), (F(1, 2), F(1, 3))),
                          ("G2", (F(1, 5), F(2, 7)), (0, F(1, 2))),
                          ("B3", (0, F(1, 2), 0), (1, 0, F(3, 2)))]:
        rs = w.root_system(name)
        pairs.append((w.weight(rs, lam), w.weight(rs, mu)))
    for lam, mu in pairs:
        auto = w.product(lam, mu).terms
        brute = w.product(lam, mu, method="brute").terms
        assert auto == brute, (lam, mu)
        assert all(type(c) is F for t, _ in auto for c in t.coords)


def test_auto_reaches_no_pair_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("auto fell back to the pair loop")

    monkeypatch.setattr(orbit_algebra, "_product_brute", refuse)
    rs = w.root_system("G2")
    lam, mu = w.weight(rs, (1, 2)), w.weight(rs, (2, 1))
    assert product_fastpath_classify(lam, mu) == "General"
    out = w.product(lam, mu)
    assert out.total_points() == 12 * 12


def test_e8_product_conserves_points():
    """E8 omega_7 x omega_7: 4.7M point pairs, class General."""
    rs = w.root_system("E8")
    om7 = w.weight(rs, (0, 0, 0, 0, 0, 0, 1, 0))
    out = w.product(om7, om7)
    assert out.total_points() == w.orbit_size(om7) ** 2
    assert all(w.is_dominant(t) for t, _ in out.terms)


def test_classifier_golden():
    rs = w.root_system("A2")
    lam = w.weight(rs, (1, 0))
    assert product_fastpath_classify(lam, w.weight(rs, (5, 5))) == "StrictAll"
    assert product_fastpath_classify(lam, w.weight(rs, (1, 1))) == "DominantAll"
    assert product_fastpath_classify(lam, w.weight(rs, (0, 0))) == "General"
    # DominantAll weights the translated points by their stabilizers
    assert _product_dict("A2", (1, 0), (1, 1)) == {(2, 1): 1, (0, 2): 2, (1, 0): 2}
    # ... divided by the stabilizer of mu, here W(G2)
    a1g2 = w.root_system("A1xG2")
    omega = w.weight(a1g2, (1, 0, 0))
    assert product_fastpath_classify(omega, omega) == "DominantAll"
    assert _product_dict("A1xG2", (1, 0, 0), (1, 0, 0)) == {(2, 0, 0): 1, (0, 0, 0): 2}


def test_product_errors():
    a2 = w.root_system("A2")
    c2 = w.root_system("C2")
    with pytest.raises(w.MismatchedSystem):
        w.product(w.weight(a2, (1, 0)), w.weight(c2, (1, 0)))
    with pytest.raises(w.DomainError):
        w.product(w.weight(a2, (-1, 0)), w.weight(a2, (1, 0)))
    with pytest.raises(w.CapExceeded):
        w.product(w.weight(a2, (1, 1)), w.weight(a2, (1, 1)), cap=30)
    for method in ("quick", "fastpath"):  # a DominantAll pair: fastpath would not raise
        with pytest.raises(w.DomainError):
            w.product(w.weight(a2, (1, 0)), w.weight(a2, (1, 1)), method=method)


def test_conjecture_probe_is_clean(rng):
    from conftest import random_dominant
    for name in ("A2", "C2", "G2"):
        rs = w.root_system(name)
        for _ in range(6):
            lam = random_dominant(rs, rng)
            mu = random_dominant(rs, rng)
            assert w.conjecture_probe(lam, mu) == []


# ---------------------------------------------------------------------------
# Branchings.


def _branch_dict(name, coords, pair):
    rs = w.root_system(name)
    out = w.branch_restrict(w.weight(rs, coords), w.builtin_projection(pair))
    return out.as_dict()


def test_branch_a3_to_a2():
    rs = w.root_system("A3")
    lam = w.weight(rs, (1, 2, 1))
    m = w.to_orthogonal(lam)
    assert _branch_dict("A3", (1, 2, 1), "A3->A2") == a_drop(m)


def test_branch_a3_split():
    rs = w.root_system("A3")
    lam = w.weight(rs, (2, 1, 3))
    m = w.to_orthogonal(lam)
    assert _branch_dict("A3", (2, 1, 3), "A3->A1xA1") == a_split(m, 2)


def test_branch_c3_to_c2():
    rs = w.root_system("C3")
    lam = w.weight(rs, (1, 1, 2))
    m = w.to_orthogonal(lam)
    assert _branch_dict("C3", (1, 1, 2), "C3->C2") == c_drop(m)


def test_branch_b4_to_b3():
    rs = w.root_system("B4")
    lam = w.weight(rs, (1, 2, 1, 2))
    m = w.to_orthogonal(lam)
    assert _branch_dict("B4", (1, 2, 1, 2), "B4->B3") == b_drop(m)


def test_branch_b3_to_b2_swaps_to_alias():
    """Rank-2 orthogonal labels land in the aliased two-long-roots order."""
    rs = w.root_system("B3")
    lam = w.weight(rs, (2, 1, 2))
    m = w.to_orthogonal(lam)
    expected = {(y, x): mult for (x, y), mult in b_drop(m).items()}
    assert _branch_dict("B3", (2, 1, 2), "B3->B2") == expected


def test_branch_c4_split():
    rs = w.root_system("C4")
    lam = w.weight(rs, (1, 1, 1, 1))
    m = w.to_orthogonal(lam)
    assert _branch_dict("C4", (1, 1, 1, 1), "C4->A1xC2") == c_split(m, 2)


def test_branch_d5_to_d4():
    rs = w.root_system("D5")
    for coords in [(1, 1, 1, 2, 1), (1, 1, 1, 1, 2)]:
        lam = w.weight(rs, coords)
        m = w.to_orthogonal(lam)
        assert _branch_dict("D5", coords, "D5->D4") == d_drop(m)


def test_branch_multiplicity_counts():
    """Branching preserves total point counts."""
    cases = [("A4", (1, 0, 2, 1), "A4->A3"), ("C3", (0, 1, 1), "C3->C2"),
             ("B3", (1, 0, 1), "B3->B2"), ("D5", (0, 1, 0, 1, 1), "D5->D4"),
             ("C4", (0, 1, 0, 1), "C4->A1xC2")]
    for name, coords, pair in cases:
        rs = w.root_system(name)
        lam = w.weight(rs, coords)
        out = w.branch_restrict(lam, w.builtin_projection(pair))
        assert out.total_points() == w.orbit_size(lam)


def test_branch_projection_errors():
    with pytest.raises(w.UnknownPair):
        w.builtin_projection("A2-A1")
    with pytest.raises(w.UnknownPair):
        w.builtin_projection("G2->C2")
    with pytest.raises(w.UnsupportedType):
        w.builtin_projection("Q2->A1")
    proj = w.builtin_projection("A3->A2")
    with pytest.raises(w.MismatchedSystem):
        w.branch_restrict(w.weight(w.root_system("C3"), (1, 0, 0)), proj)
    with pytest.raises(w.DomainError):
        w.branch_restrict(w.weight(w.root_system("A3"), (-1, 0, 1)), proj)


def test_branch_equal_rank_g2_long_roots():
    """The long roots of G2 close into an A2; orbits split in two."""
    rs = w.root_system("G2")
    alpha1 = w.weight(rs, (2, -3))
    other_long = w.weight(rs, (-1, 3))  # alpha1 + 3 alpha2
    for a, b in [(1, 1), (1, 2), (3, 1)]:
        lam = w.weight(rs, (a, b))
        out = w.branch_equal_rank(lam, [alpha1, other_long])
        assert out.rs.name == "A2"
        assert out.as_dict() == {(a + b, a): 1, (a, a + b): 1}


def test_branch_equal_rank_c2_long_roots():
    rs = w.root_system("C2")
    long1 = w.weight(rs, (2, 0))   # 2 alpha1 + alpha2
    long2 = w.weight(rs, (-2, 2))  # alpha2
    out = w.branch_equal_rank(w.weight(rs, (1, 1)), [long1, long2])
    assert out.rs.name == "A1xA1"
    assert out.total_points() == 8


def test_branch_equal_rank_errors():
    rs = w.root_system("G2")
    alpha1 = w.weight(rs, (2, -3))
    other_long = w.weight(rs, (-1, 3))
    with pytest.raises(w.NotStrictlyDominant):
        w.branch_equal_rank(w.weight(rs, (1, 0)), [alpha1, other_long])
    with pytest.raises(w.DomainError):
        w.branch_equal_rank(w.weight(rs, (1, 1)), [alpha1, alpha1])
    with pytest.raises(w.DomainError):
        w.branch_equal_rank(w.weight(rs, (1, 1)), [alpha1])


def test_branch_equal_rank_unknown_bases():
    """Roots closing into a cycle, and a base given out of node order,
    name no target."""
    a3 = w.root_system("A3")
    a1, a2 = w.weight(a3, (2, -1, 0)), w.weight(a3, (-1, 2, -1))
    cycle = [a1, a2, w.weight(a3, (-1, -1, 1))]  # alpha1, alpha2, -(alpha1 + alpha2)
    with pytest.raises(w.UnknownPair):
        w.branch_equal_rank(w.weight(a3, (1, 1, 1)), cycle)
    b3 = w.root_system("B3")
    reversed_base = [w.weight(b3, row) for row in reversed(b3.cartan)]
    with pytest.raises(w.UnknownPair):
        w.branch_equal_rank(w.weight(b3, (1, 1, 1)), reversed_base)


# ---------------------------------------------------------------------------
# Congruence classes.


def test_congruence_golden():
    a1 = w.root_system("A1")
    a2 = w.root_system("A2")
    c2 = w.root_system("C2")
    g2 = w.root_system("G2")
    assert w.congruence_number(w.weight(a1, (3,))) == 1
    assert w.congruence_number(w.weight(a2, (1, 0))) == 2
    assert w.congruence_number(w.weight(a2, (0, 1))) == 1
    assert w.congruence_number(w.weight(a2, (1, 1))) == 0
    assert w.congruence_number(w.weight(c2, (1, 0))) == 1
    assert w.congruence_number(w.weight(c2, (0, 1))) == 0
    assert w.congruence_number(w.weight(g2, (2, 1))) == 0
    assert w.congruence_modulus(a2) == 3


def test_congruence_orbit_invariant(rng):
    from conftest import random_dominant
    for name in ("A1", "A2", "C2", "G2"):
        rs = w.root_system(name)
        for _ in range(5):
            lam = random_dominant(rs, rng)
            want = w.congruence_number(lam)
            assert all(w.congruence_number(p) == want
                       for p in w.orbit(lam).points)


def test_congruence_additive_under_products(rng):
    from conftest import random_dominant
    for name in ("A1", "A2", "C2"):
        rs = w.root_system(name)
        mod = w.congruence_modulus(rs)
        for _ in range(4):
            lam = random_dominant(rs, rng)
            mu = random_dominant(rs, rng)
            want = (w.congruence_number(lam) + w.congruence_number(mu)) % mod
            for nu, _m in w.product(lam, mu).terms:
                assert w.congruence_number(nu) == want


def test_congruence_unsupported():
    with pytest.raises(w.UnsupportedType):
        w.congruence_modulus(w.root_system("B3"))
    with pytest.raises(w.UnsupportedType):
        w.congruence_number(w.weight(w.root_system("A1xA1"), (1, 0)))


def test_height_key_matches_root_coordinates(rng):
    """The cached heights give the key of the full simple-root expansion."""
    for name in ("A3", "B3", "G2", "F4", "A1xG2"):
        rs = w.root_system(name)
        n = rs.rank
        for _ in range(20):
            coords = tuple(F(rng.randrange(-6, 7), rng.choice((1, 2, 3))) for _ in range(n))
            lam = w.weight(rs, coords)
            root = [sum(coords[i] * rs.cartan_inv[i][j] for i in range(n)) for j in range(n)]
            assert orbit_algebra._height_key(lam) == (sum(root), coords)
