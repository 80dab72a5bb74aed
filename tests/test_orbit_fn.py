"""Orbit functions: closed forms, symmetries, the second-order operator."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

import weylorbits as w
from weylorbits.orbit_fn import (
    an_identity_suite,
    contragredient_partner,
    directional_derivative_fd,
    duality_double_sum,
    dy_eigencheck,
    eval_exact_cyc,
    eval_fn,
    eval_many,
    laplace_apply_fd,
    laplace_eigenvalue,
    monomial,
    monomial_eval,
    orbit_function,
    point_orthogonal,
    realness_class,
    wall_inward_normal,
)


def _theta_point(rs, thetas, half=False):
    """x = sum theta_j omega_j (halved for the 12-point rank-2 system)."""
    x = w.weight_to_point(w.weight(rs, thetas))
    return x.scale(F(1, 2)) if half else x


def _phi(name, lam, x):
    return eval_fn(orbit_function(w.weight(w.root_system(name), lam)), x)


TWO_PI = 2j * math.pi


def test_gram_matrices_rank2():
    c2 = w.root_system("C2")
    assert c2.gram == ((F(1, 2), F(1, 2)), (F(1, 2), F(1)))
    g2 = w.root_system("G2")
    assert g2.gram == ((F(2), F(1)), (F(1), F(2, 3)))


def test_closed_form_a1():
    rs = w.root_system("A1")
    for m in (1, 2, 5):
        for th in (F(1, 3), F(2, 7)):
            x = _theta_point(rs, (th,))
            want = 2 * math.cos(math.pi * m * th)
            assert abs(_phi("A1", (m,), x) - want) < 1e-12
    assert _phi("A1", (0,), _theta_point(rs, (F(1, 3),))) == 1


def test_closed_form_a2_generic():
    rs = w.root_system("A2")
    for a, b in ((2, 1), (1, 3)):
        for t1, t2 in ((F(1, 3), F(1, 7)), (F(2, 5), F(3, 4))):
            x = _theta_point(rs, (t1, t2))
            want = sum(
                cmath.exp(TWO_PI * F(phase, 3))
                for phase in (
                    (2 * a + b) * t1 + (a + 2 * b) * t2,
                    (-a + b) * t1 + (a + 2 * b) * t2,
                    (2 * a + b) * t1 + (a - b) * t2,
                    -((a - b) * t1 + (2 * a + b) * t2),
                    -((a + 2 * b) * t1 + (-a + b) * t2),
                    -((a + 2 * b) * t1 + (2 * a + b) * t2),
                )
            )
            assert abs(_phi("A2", (a, b), x) - want) < 1e-12


def test_closed_form_a2_special():
    rs = w.root_system("A2")
    t1, t2 = F(1, 5), F(2, 7)
    x = _theta_point(rs, (t1, t2))
    for a in (1, 2):
        want = 2 * (
            math.cos(2 * math.pi * a * (t1 + t2))
            + math.cos(2 * math.pi * a * t1)
            + math.cos(2 * math.pi * a * t2)
        )
        assert abs(_phi("A2", (a, a), x) - want) < 1e-12
    for a in (1, 3):
        want = sum(
            cmath.exp(TWO_PI * F(a, 3) * phase)
            for phase in (2 * t1 + t2, -t1 + t2, -t1 - 2 * t2)
        )
        assert abs(_phi("A2", (a, 0), x) - want) < 1e-12
    for b in (2,):
        want = sum(
            cmath.exp(TWO_PI * F(b, 3) * phase)
            for phase in (t1 + 2 * t2, t1 - t2, -2 * t1 - t2)
        )
        assert abs(_phi("A2", (0, b), x) - want) < 1e-12


def test_closed_form_c2():
    rs = w.root_system("C2")
    t1, t2 = F(1, 5), F(3, 8)
    x = _theta_point(rs, (t1, t2))
    for a, b in ((1, 2), (2, 1)):
        want = 2 * (
            math.cos(math.pi * ((a + b) * t1 + (a + 2 * b) * t2))
            + math.cos(math.pi * (b * t1 + (a + 2 * b) * t2))
            + math.cos(math.pi * ((a + b) * t1 + a * t2))
            + math.cos(math.pi * (b * t1 - a * t2))
        )
        assert abs(_phi("C2", (a, b), x) - want) < 1e-12
    for a in (1, 2):
        want = 2 * (math.cos(math.pi * a * (t1 + t2)) + math.cos(math.pi * a * t2))
        assert abs(_phi("C2", (a, 0), x) - want) < 1e-12
    for b in (1, 3):
        want = 2 * (math.cos(math.pi * b * (t1 + 2 * t2)) + math.cos(math.pi * b * t1))
        assert abs(_phi("C2", (0, b), x) - want) < 1e-12


def test_closed_form_g2():
    rs = w.root_system("G2")
    t1, t2 = F(2, 7), F(1, 4)
    x = _theta_point(rs, (t1, t2), half=True)
    third = 1.0 / 3.0
    for a, b in ((1, 1), (2, 1)):
        want = 2 * (
            math.cos(math.pi * ((2 * a + b) * t1 + (a + 2 * b * third) * t2))
            + math.cos(math.pi * ((a + b) * t1 + (a + 2 * b * third) * t2))
            + math.cos(math.pi * ((2 * a + b) * t1 + (a + b * third) * t2))
            + math.cos(math.pi * ((a + b) * t1 + b * third * t2))
            + math.cos(math.pi * (a * t1 + (a + b * third) * t2))
            + math.cos(math.pi * (a * t1 - b * third * t2))
        )
        assert abs(_phi("G2", (a, b), x) - want) < 1e-12
    for a in (1, 2):
        want = 2 * (
            math.cos(math.pi * a * (2 * t1 + t2))
            + math.cos(math.pi * a * (t1 + t2))
            + math.cos(math.pi * a * t1)
        )
        assert abs(_phi("G2", (a, 0), x) - want) < 1e-12
    for b in (1, 2):
        want = 2 * (
            math.cos(math.pi * b * (t1 + 2 * third * t2))
            + math.cos(math.pi * b * (t1 + third * t2))
            + math.cos(math.pi * third * b * t2)
        )
        assert abs(_phi("G2", (0, b), x) - want) < 1e-12


# ---------------------------------------------------------------------------
# Evaluation paths.


def test_eval_paths_agree(rng):
    from conftest import random_dominant, random_rational_point
    for name in ("A2", "C2", "G2", "B3"):
        rs = w.root_system(name)
        for _ in range(4):
            lam = random_dominant(rs, rng)
            f = orbit_function(lam)
            x = random_rational_point(rs, rng)
            exact = eval_fn(f, x)
            via_cyc = eval_exact_cyc(f, x).to_complex()
            xf = w.point(rs, tuple(float(c) for c in x.coords))
            assert not xf.exact
            floaty = eval_fn(f, xf)
            batch = eval_many(f, np.array([[float(c) for c in x.coords]]))
            assert abs(exact - via_cyc) < 1e-10
            assert abs(exact - floaty) < 1e-9
            assert abs(exact - batch[0]) < 1e-9


@pytest.mark.parametrize("coords", [np.zeros((4, 3)), np.zeros(2), 0.5, np.zeros((2, 2, 2))],
                         ids=["three-columns", "one-axis", "scalar", "three-axes"])
def test_eval_many_needs_n_by_rank_coordinates(coords):
    f = orbit_function(w.weight(w.root_system("A2"), (1, 0)))
    with pytest.raises(w.DomainError, match=r"\(N, 2\) array"):
        eval_many(f, coords)
    assert eval_many(f, np.zeros((0, 2))).shape == (0,)


def test_value_at_zero_is_orbit_size():
    for name, lam in [("A2", (1, 1)), ("C2", (2, 1)), ("G2", (1, 0))]:
        rs = w.root_system(name)
        weight = w.weight(rs, lam)
        f = orbit_function(weight)
        assert eval_fn(f, w.zero_point(rs)) == w.orbit_size(weight)


def test_modified_multiplier():
    rs = w.root_system("C2")
    lam = w.weight(rs, (1, 0))
    x = w.point(rs, (F(1, 5), F(1, 3)))
    plain = eval_fn(orbit_function(lam), x)
    mod = eval_fn(orbit_function(lam, modified=True), x)
    assert abs(mod - w.stabilizer_order(lam) * plain) < 1e-12
    strict = w.weight(rs, (1, 2))
    assert eval_exact_cyc(orbit_function(strict, modified=True), x) == \
        eval_exact_cyc(orbit_function(strict), x)


def test_eval_exact_cyc_modulus_and_errors():
    rs = w.root_system("A2")
    f = orbit_function(w.weight(rs, (1, 0)))
    x = w.point(rs, (F(1, 3), F(1, 3)))
    v = eval_exact_cyc(f, x)
    lifted = eval_exact_cyc(f, x, modulus=v.m * 2)
    assert abs(v.to_complex() - lifted.to_complex()) < 1e-12
    with pytest.raises(w.DomainError):
        eval_exact_cyc(f, x, modulus=v.m + 1)
    with pytest.raises(w.DomainError):
        eval_exact_cyc(f, w.point(rs, (0.5, 0.5)))
    with pytest.raises(w.DomainError):
        eval_fn(f, w.zero_point(w.root_system("C2")))


def test_rational_element_values_are_integers():
    """At every cataloged rational point, every integral orbit function
    evaluates to a rational integer."""
    rs = w.root_system("G2")
    lams = [w.weight(rs, c) for c in ((1, 0), (0, 1), (1, 1), (2, 1))]
    for r in w.rational_elements(rs, 8):
        for lam in lams:
            val = eval_exact_cyc(orbit_function(lam), r.point)
            assert val.is_rational()
            assert val.as_rational().denominator == 1


# ---------------------------------------------------------------------------
# Symmetries.


def test_w_invariance_exact(rng):
    from conftest import random_dominant, random_rational_point
    for name in ("A3", "C2", "G2"):
        rs = w.root_system(name)
        for _ in range(4):
            lam = random_dominant(rs, rng)
            f = orbit_function(lam)
            x = random_rational_point(rs, rng)
            base = eval_exact_cyc(f, x)
            for i in range(1, rs.rank + 1):
                assert eval_exact_cyc(f, w.reflect_simple_point(i, x)) == base
            shifted = w.point(rs, tuple(c + 3 for c in x.coords))
            assert eval_exact_cyc(f, shifted) == base
            from weylorbits.affine import reflect_r0
            assert eval_exact_cyc(f, reflect_r0(x)) == base


def test_scaling_symmetry(rng):
    from conftest import random_dominant, random_rational_point
    rs = w.root_system("C2")
    for _ in range(5):
        lam = random_dominant(rs, rng)
        c = rng.randint(2, 5)
        scaled = w.weight(rs, tuple(c * v for v in lam.coords))
        x = random_rational_point(rs, rng)
        lhs = eval_exact_cyc(orbit_function(scaled), x)
        rhs = eval_exact_cyc(orbit_function(lam), x.scale(c))
        assert lhs.lift(rhs.m) == rhs if lhs.m != rhs.m else lhs == rhs


def test_contragredient_golden():
    a3 = w.root_system("A3")
    assert contragredient_partner(w.weight(a3, (1, 2, 3))).coords == (3, 2, 1)
    assert realness_class(w.weight(a3, (1, 2, 1)))[0] == "real"
    c2 = w.root_system("C2")
    assert realness_class(w.weight(c2, (2, 1)))[0] == "real"
    g2 = w.root_system("G2")
    assert realness_class(w.weight(g2, (1, 2)))[0] == "real"
    d5 = w.root_system("D5")
    kind, partner = realness_class(w.weight(d5, (1, 0, 0, 2, 1)))
    assert kind == "conjugate_pair" and partner.coords == (1, 0, 0, 1, 2)
    assert realness_class(w.weight(w.root_system("D4"), (1, 0, 2, 1)))[0] == "real"
    e6 = w.root_system("E6")
    kind, partner = realness_class(w.weight(e6, (1, 0, 0, 0, 0, 0)))
    assert kind == "conjugate_pair" and partner.coords == (0, 0, 0, 0, 1, 0)
    mixed = w.root_system("A2xA1")
    assert contragredient_partner(w.weight(mixed, (1, 0, 2))).coords == (0, 1, 2)


def test_conjugation_relation(rng):
    from conftest import random_dominant, random_rational_point
    for name in ("A2", "A3", "D5"):
        rs = w.root_system(name)
        for _ in range(4):
            lam = random_dominant(rs, rng)
            partner = contragredient_partner(lam)
            x = random_rational_point(rs, rng)
            lhs = eval_exact_cyc(orbit_function(partner), x)
            rhs = eval_exact_cyc(orbit_function(lam), x).conj()
            assert lhs == rhs


def test_realness_numeric(rng):
    from conftest import random_rational_point
    for name, lam in [("C2", (1, 2)), ("G2", (2, 1)), ("B3", (1, 1, 2)),
                      ("A2", (2, 2)), ("D4", (1, 0, 1, 2))]:
        rs = w.root_system(name)
        f = orbit_function(w.weight(rs, lam))
        for _ in range(3):
            x = random_rational_point(rs, rng)
            assert abs(eval_fn(f, x).imag) < 1e-12


# ---------------------------------------------------------------------------
# The second-order operator.


def test_laplace_eigenvalue_golden():
    a2 = w.root_system("A2")
    for a, b in ((1, 0), (2, 1)):
        _, coeff = laplace_eigenvalue(w.weight(a2, (a, b)))
        assert coeff == -F(4, 3) * (a * a + a * b + b * b)
    g2 = w.root_system("G2")
    for a, b in ((1, 1), (0, 1)):
        _, coeff = laplace_eigenvalue(w.weight(g2, (a, b)))
        assert coeff == -F(4, 3) * (3 * a * a + 3 * a * b + b * b)
    c2 = w.root_system("C2")
    _, coeff = laplace_eigenvalue(w.weight(c2, (a := 1, b := 2)))
    assert coeff == -(a * a + 2 * a * b + 2 * b * b)


def test_laplace_fd_matches_eigenvalue():
    # asymmetric barycentric weights keep the point away from zeros of f
    primes = [2, 3, 5, 7, 11]
    for name, lam in [("A2", (1, 1)), ("C2", (1, 2)), ("G2", (1, 0)),
                      ("A3", (1, 0, 1))]:
        rs = w.root_system(name)
        weight = w.weight(rs, lam)
        f = orbit_function(weight)
        bary = primes[: rs.rank + 1]
        tot = sum(bary)
        x0 = w.barycentric_point(rs, [F(p, tot) for p in bary])
        x = w.point(rs, tuple(float(c) for c in x0.coords))
        eig, _ = laplace_eigenvalue(weight)
        got = laplace_apply_fd(lambda p: eval_fn(f, p), x)
        want = eig * eval_fn(f, x)
        assert abs(want) > 0.05
        assert abs(got - want) / abs(want) < 1e-5


def test_wall_normals_and_vanishing_derivative():
    rs = w.root_system("C2")
    assert wall_inward_normal(rs, 0).coords == (-1, -1)
    assert wall_inward_normal(rs, 1).coords == (1, 0)
    with pytest.raises(w.DomainError):
        wall_inward_normal(rs, 3)
    with pytest.raises(w.UnsupportedType):
        wall_inward_normal(w.root_system("A1xA1"), 0)
    f = orbit_function(w.weight(rs, (1, 1)))
    # bary coordinate k = 0 puts the point on wall k
    for wall, bary in [(0, (0, F(1, 3), F(2, 3))), (1, (F(1, 2), 0, F(1, 2))),
                       (2, (F(1, 4), F(1, 4), 0))]:
        x = w.barycentric_point(rs, bary)
        xf = w.point(rs, tuple(float(c) for c in x.coords))
        d = wall_inward_normal(rs, wall)
        dd = directional_derivative_fd(lambda p: eval_fn(f, p), xf, d)
        assert abs(dd) < 1e-6


def test_dy_eigencheck_and_duality(rng):
    from conftest import random_dominant, random_rational_point
    for name in ("A2", "C2"):
        rs = w.root_system(name)
        for _ in range(3):
            lam = random_dominant(rs, rng)
            x = random_rational_point(rs, rng)
            y = random_rational_point(rs, rng)
            lhs, rhs = dy_eigencheck(lam, y, x)
            assert abs(lhs - rhs) < 1e-8
            lhs, rhs = duality_double_sum(lam, x)
            assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# A-series identities and monomials.


def test_an_identities(rng):
    from conftest import random_interior_point
    for n in (2, 3):
        rs = w.root_system(f"A{n}")
        for _ in range(3):
            x = random_interior_point(rs, rng)
            for name, residual in an_identity_suite(n, 5, x):
                assert residual < 1e-9, name
    with pytest.raises(w.DomainError):
        an_identity_suite(2, 4, w.zero_point(w.root_system("A3")))


def test_point_orthogonal_pairing(rng):
    from conftest import random_dominant, random_rational_point
    for name in ("A2", "A3", "B3", "C3", "D4"):
        rs = w.root_system(name)
        for _ in range(4):
            lam = random_dominant(rs, rng)
            x = random_rational_point(rs, rng)
            mo = w.to_orthogonal(lam)
            xo = point_orthogonal(x)
            assert sum(a * b for a, b in zip(mo, xo)) == w.pairing(lam, x)
    with pytest.raises(w.UnsupportedSeries):
        point_orthogonal(w.zero_point(w.root_system("G2")))


def test_monomial_matches_orbit_function(rng):
    from conftest import random_rational_point
    for name, lam in [("A2", (1, 1)), ("A2", (2, 0)), ("C2", (1, 2)),
                      ("B3", (1, 0, 2)), ("D4", (0, 1, 1, 1)),
                      ("D4", (0, 0, 0, 2))]:
        rs = w.root_system(name)
        weight = w.weight(rs, lam)
        mono = monomial(weight)
        assert len(mono.exponents) == w.orbit_size(weight)
        f = orbit_function(weight)
        for _ in range(3):
            x = random_rational_point(rs, rng)
            ys = [cmath.exp(TWO_PI * float(v)) for v in point_orthogonal(x)]
            got = monomial_eval(mono, ys)
            assert abs(got - eval_fn(f, x)) < 1e-9


def test_monomial_shift_nonnegative():
    rs = w.root_system("A2")
    mono = monomial(w.weight(rs, (1, 1)))
    assert all(all(e >= 0 for e in expo) for expo in mono.exponents)
    assert all(
        all(F(e).denominator == 1 for e in expo) for expo in mono.exponents
    )


def test_monomial_errors():
    with pytest.raises(w.UnsupportedSeries):
        monomial(w.weight(w.root_system("G2"), (1, 0)))
    mono = monomial(w.weight(w.root_system("A2"), (1, 0)))
    with pytest.raises(w.DomainError):
        monomial_eval(mono, [1.0, 1.0])
    c_mono = monomial(w.weight(w.root_system("C2"), (1, 0)))
    with pytest.raises(w.DomainError):
        monomial_eval(c_mono, [0.0, 1.0])
