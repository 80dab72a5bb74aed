"""Orbit functions: symmetrized exponential sums over Weyl orbits.

For a dominant weight lambda, the orbit function is

    phi_lambda(x) = sum over mu in O(lambda) of exp(2 pi i <mu, x>),

and the modified variant multiplies by the stabilizer order so the sum
effectively runs over the whole group.  Evaluation is exact (roots of
unity bucketed by residue) whenever the point is exact, with a Kahan
compensated float path otherwise.  The module also exposes the symmetry
toolkit: realness classification, the second-order operator the
functions diagonalize, group-averaged sums and the A-series polynomial
identities.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .cyclotomic import Cyc
from .errors import DomainError, UnsupportedSeries, UnsupportedType
from .root_system import RootSystem, factor_slices
from .weights import Point, Weight, _order, _same_system, _scale, from_orthogonal
from .weights import inner_product, pairing, to_orthogonal
from .weyl import Orbit, apply_matrix_to_point, group_elements, orbit, stabilizer_order


@dataclass(frozen=True)
class OrbitFunction:
    """A (possibly modified) orbit function, with its orbit enumerated."""

    lam: Weight
    modified: bool
    orbit: Orbit

    @property
    def rs(self) -> RootSystem:
        return self.lam.rs

    @property
    def multiplier(self) -> int:
        return self.orbit.stabilizer_order if self.modified else 1

    @cached_property
    def _scaled_points(self) -> tuple[int, list[tuple[int, ...]]]:
        d = _scale(self.lam.coords)[0]  # orbit points share lam's denominators
        return d, [_scale(mu.coords, d)[1] for mu in self.orbit.points]


def orbit_function(lam: Weight, modified: bool = False, cap: int = 10**7) -> OrbitFunction:
    return OrbitFunction(lam, modified, orbit(lam, cap=cap))


def _kahan_complex(values) -> complex:
    total = complex(0)
    comp = complex(0)
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _residue_counts(f: OrbitFunction, x: Point) -> tuple[int, Counter]:
    _same_system(f.lam, x)
    dw, points = f._scaled_points
    dx, v = _scale(x.coords)
    # <mu, x> = t / (dw * dx) for an integer t: residues r / denom mod 1.
    ts = [sum(map(mul, p, v)) for p in points]
    g = math.gcd(dw * dx, *ts)
    denom = dw * dx // g
    return denom, Counter(t // g % denom for t in ts)


def eval_fn(f: OrbitFunction, x: Point) -> complex:
    """Evaluate at one point; exact points go through root-of-unity buckets."""
    if x.rs != f.rs:
        raise DomainError(f"point of {x.rs.name} fed to a {f.rs.name} function")
    if x.exact:
        denom, counts = _residue_counts(f, x)
        value = _kahan_complex(
            counts[r] * cmath.exp(2j * cmath.pi * r / denom)
            for r in sorted(counts)
        )
    else:
        value = _kahan_complex(
            cmath.exp(2j * cmath.pi * float(pairing(mu, x)))
            for mu in f.orbit.points
        )
    return f.multiplier * value


def eval_exact_cyc(f: OrbitFunction, x: Point, modulus: int | None = None) -> Cyc:
    """Exact value as a cyclotomic integer (the point must be exact)."""
    if not x.exact:
        raise DomainError("cyclotomic evaluation needs an exact point")
    denom, counts = _residue_counts(f, x)
    modulus = denom if modulus is None else _order(modulus)
    if modulus % denom:
        raise DomainError(f"modulus {modulus} incompatible with denominator {denom}")
    step = modulus // denom
    coeffs = [0] * modulus
    for r, c in counts.items():
        coeffs[r * step] += c
    return Cyc(modulus, coeffs) * f.multiplier


def eval_many(f: OrbitFunction, coords: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (N, rank) array of point coordinates."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != f.rs.rank:
        raise DomainError(f"eval_many needs an (N, {f.rs.rank}) array, got shape {pts.shape}")
    weights_mat = np.array(
        [[float(c) for c in mu.coords] for mu in f.orbit.points], dtype=float
    )
    phases = pts @ weights_mat.T
    return f.multiplier * np.exp(2j * np.pi * phases).sum(axis=1)


# ---------------------------------------------------------------------------
# Symmetries.

def contragredient_partner(lam: Weight) -> Weight:
    """The weight whose orbit function is the complex conjugate."""
    coords = list(lam.coords)
    for f, sl in factor_slices(lam.rs):
        block = list(coords[sl])
        if f.series == "A" and f.rank >= 2:
            block = block[::-1]
        elif f.series == "D" and f.rank % 2 == 1:
            block[-2], block[-1] = block[-1], block[-2]
        elif f.series == "E" and f.rank == 6:
            block = [block[4], block[3], block[2], block[1], block[0], block[5]]
        coords[sl] = block
    return Weight(lam.rs, tuple(coords))


def realness_class(lam: Weight) -> tuple[str, Weight | None]:
    """``("real", None)`` or ``("conjugate_pair", partner)``."""
    partner = contragredient_partner(lam)
    if partner.coords == lam.coords:
        return "real", None
    return "conjugate_pair", partner


# ---------------------------------------------------------------------------
# The symmetric second-order operator.

def laplace_coefficients(rs: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """Symmetric matrix A with the operator sum_jk A_jk d_j d_k in the
    fundamental-weight directions."""
    return tuple(
        tuple(rs.cartan[j][k] / rs.lengths_sq[j] for k in range(rs.rank))
        for j in range(rs.rank)
    )


def laplace_eigenvalue(lam: Weight) -> tuple[float, Fraction]:
    """Eigenvalue on ``phi_lambda``: returns (float value, coefficient of pi^2)."""
    coeff = -2 * inner_product(lam, lam)
    return float(coeff) * math.pi**2, coeff


def laplace_apply_fd(
    func: Callable[[Point], complex], x: Point, h: float = 1e-4
) -> complex:
    """Apply the operator by central finite differences at a float point."""
    rs = x.rs
    base = [float(b) for b in x.coords]
    omegas = [[float(v) for v in row] for row in rs.gram]

    def at(*shifts) -> complex:
        coords = list(base)
        for j, t in shifts:
            for k in range(rs.rank):
                coords[k] += t * omegas[j][k]
        return func(Point(rs, tuple(coords), exact=False))

    coeffs = laplace_coefficients(rs)
    f0 = at()
    total = complex(0)
    for j in range(rs.rank):
        a = float(coeffs[j][j])
        total += a * (at((j, h)) - 2 * f0 + at((j, -h))) / h**2
    for j in range(rs.rank):
        for k in range(j + 1, rs.rank):
            a = float(coeffs[j][k])
            if a == 0:
                continue
            mixed = (
                at((j, h), (k, h))
                - at((j, h), (k, -h))
                - at((j, -h), (k, h))
                + at((j, -h), (k, -h))
            ) / (4 * h**2)
            total += 2 * a * mixed
    return total


def point_norm(d: Point) -> float:
    """Euclidean length of a point (direction) vector."""
    rs = d.rs
    total = 0.0
    for i in range(rs.rank):
        for j in range(rs.rank):
            g = 2 * float(rs.cartan[i][j]) / float(rs.lengths_sq[i])
            total += float(d.coords[i]) * float(d.coords[j]) * g
    return math.sqrt(total)


def directional_derivative_fd(
    func: Callable[[Point], complex], x: Point, d: Point, h: float = 1e-4
) -> complex:
    """One-sided O(h^2) derivative along the unit vector in direction d."""
    scale = point_norm(d)
    if scale == 0:
        raise DomainError("direction must be nonzero")
    unit = [float(c) / scale for c in d.coords]
    base = [float(b) for b in x.coords]

    def at(t: float) -> complex:
        return func(
            Point(x.rs, tuple(b + t * u for b, u in zip(base, unit)), exact=False)
        )

    return (-3 * at(0.0) + 4 * at(h) - at(2 * h)) / (2 * h)


def wall_inward_normal(rs: RootSystem, wall: int) -> Point:
    """Inward normal direction of a wall of the fundamental domain
    (wall 0 is the affine wall, wall i >= 1 the i-th reflection wall)."""
    if not rs.is_simple:
        raise UnsupportedType("domain walls are defined per simple factor")
    if not 0 <= wall <= rs.rank:
        raise DomainError(f"wall index {wall} outside 0..{rs.rank}")
    if wall == 0:
        return Point(rs, tuple(-Fraction(q) for q in rs.comarks), exact=True)
    coords = [Fraction(0)] * rs.rank
    coords[wall - 1] = Fraction(1)
    return Point(rs, tuple(coords), exact=True)


def group_average_sum(
    func: Callable[[Point], complex], y: Point, x: Point
) -> complex:
    """The group-averaged shift sum ``sum_w func(w x + y)``."""
    if y.rs != x.rs:
        raise DomainError("mixed systems in group averaging")
    return _kahan_complex(
        func(apply_matrix_to_point(mat, x) + y)
        for mat in group_elements(x.rs)
    )


def dy_eigencheck(lam: Weight, y: Point, x: Point) -> tuple[complex, complex]:
    """Shift-sum identity: averaging ``phi_lambda`` over ``w x + y`` equals
    ``|W_lambda| phi_lambda(y) phi_lambda(x)``.  Returns both sides."""
    f = orbit_function(lam)
    lhs = group_average_sum(lambda p: eval_fn(f, p), y, x)
    rhs = stabilizer_order(lam) * eval_fn(f, y) * eval_fn(f, x)
    return lhs, rhs


def duality_double_sum(lam: Weight, x: Point) -> tuple[complex, complex]:
    """Both evaluations of the full double sum over the group:
    weight-side (via the orbit with stabilizer multiplicity) and
    point-side (moving x through all group matrices)."""
    f = orbit_function(lam, modified=True)
    lhs = eval_fn(f, x)
    rhs = _kahan_complex(
        cmath.exp(2j * cmath.pi * _pairing_float(lam, apply_matrix_to_point(m, x)))
        for m in group_elements(x.rs)
    )
    return lhs, rhs


def _pairing_float(lam: Weight, x: Point) -> float:
    return sum(float(a) * float(b) for a, b in zip(lam.coords, x.coords))


# ---------------------------------------------------------------------------
# A-series polynomial identities.

def _partitions(total: int, max_parts: int, max_val: int | None = None):
    if max_val is None:
        max_val = total
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_val), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first, *rest)


def _det(mat: list[list[complex]]) -> complex:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = complex(0)
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def an_identity_suite(n: int, s_max: int, x: Point) -> list[tuple[str, float]]:
    """Residuals of the symmetric-function identities for the A_n system.

    Checks, at the given point: the generating product for the
    elementary sums, the alternating convolution tying elementary and
    complete sums, both Newton recursions, and (up to order 4) the
    determinant formulas.  Returns ``(name, residual)`` pairs.
    """
    if n < 1:
        raise DomainError("need rank at least 1")
    from .root_system import build_root_system

    rs = build_root_system("A", n)
    if x.rs != rs:
        raise DomainError(f"point must live in A{n}")

    cache: dict[tuple, complex] = {}

    def phi(m_vec: Sequence[int]) -> complex:
        lam = from_orthogonal("A", list(m_vec))
        key = lam.coords
        if key not in cache:
            cache[key] = eval_fn(orbit_function(lam), x)
        return cache[key]

    def e(r: int) -> complex:
        if r < 0 or r > n + 1:
            return complex(0)
        return phi([1] * r + [0] * (n + 1 - r))

    def p(r: int) -> complex:
        if r == 0:
            return complex(n + 1)
        return phi([r] + [0] * n)

    def h(s: int) -> complex:
        if s == 0:
            return complex(1)
        total = complex(0)
        for part in _partitions(s, n + 1):
            total += phi(list(part) + [0] * (n + 1 - len(part)))
        return total

    out: list[tuple[str, float]] = []

    # Generating product: prod_j (1 + y_j t) has the elementary sums as
    # coefficients, with y_j the exponentials of the orthogonal
    # coordinates of x.
    orth = point_orthogonal(x)
    ys = [cmath.exp(2j * cmath.pi * float(v)) for v in orth]
    poly = [complex(1)]
    for yj in ys:
        poly = [
            (poly[k] if k < len(poly) else 0)
            + yj * (poly[k - 1] if k >= 1 else 0)
            for k in range(len(poly) + 1)
        ]
    res = max(abs(poly[r] - e(r)) for r in range(n + 2))
    out.append(("elementary-generating-product", res))

    res = 0.0
    for s in range(1, s_max + 1):
        acc = sum((-1) ** r * e(r) * h(s - r) for r in range(s + 1))
        res = max(res, abs(acc))
    out.append(("alternating-convolution", res))

    res = 0.0
    for s in range(1, s_max + 1):
        acc = s * h(s) - sum(p(r) * h(s - r) for r in range(1, s + 1))
        res = max(res, abs(acc))
    out.append(("newton-complete", res))

    res = 0.0
    for s in range(1, min(s_max, n + 1) + 1):
        acc = s * e(s) - sum(
            (-1) ** (r - 1) * p(r) * e(s - r) for r in range(1, s + 1)
        )
        res = max(res, abs(acc))
    out.append(("newton-elementary", res))

    for name, target, sign in (
        ("determinant-elementary", e, 1),
        ("determinant-complete", h, -1),
    ):
        res = 0.0
        for r in range(1, min(4, s_max, n + 1 if sign == 1 else s_max) + 1):
            mat = [
                [
                    p(i - j + 1) if j <= i else
                    (sign * (i + 1) if j == i + 1 else complex(0))
                    for j in range(r)
                ]
                for i in range(r)
            ]
            res = max(res, abs(_det(mat) - math.factorial(r) * target(r)))
        out.append((name, res))
    return out


# ---------------------------------------------------------------------------
# Orthogonal coordinates of points and orbit monomials.

def point_orthogonal(x: Point) -> tuple:
    """Euclidean coordinates of a point of a classical simple system
    (n+1 of them for A, summing to zero)."""
    rs = x.rs
    if not rs.is_simple or rs.series not in "ABCD":
        raise UnsupportedSeries("orthogonal point coordinates need an A/B/C/D system")
    n = rs.rank
    b = x.coords
    zero = Fraction(0) if x.exact else 0.0
    if rs.series == "A":
        ext = (zero, *b, zero)
        return tuple(ext[j] - ext[j - 1] for j in range(1, n + 2))
    prev = (zero, *b)
    out = [b[j] - prev[j] for j in range(n)]
    if rs.series == "B":
        out[n - 1] = 2 * b[n - 1] - b[n - 2]
    elif rs.series == "D":
        out[n - 2] = b[n - 2] + b[n - 1] - b[n - 3]
        out[n - 1] = b[n - 2] - b[n - 1]
    return tuple(out)


@dataclass(frozen=True)
class Monomial:
    """Symmetrized Laurent monomial attached to an orbit.

    ``exponents`` lists one exponent vector per orbit point; A-series
    exponents are shifted to non-negative integers.
    """

    series: str
    exponents: tuple[tuple[Fraction, ...], ...]


def monomial(lam: Weight) -> Monomial:
    rs = lam.rs
    if not rs.is_simple or rs.series not in "ABCD":
        raise UnsupportedSeries("orbit monomials need an A/B/C/D system")
    from .weyl import orthogonal_orbit

    m = list(to_orthogonal(lam))
    if rs.series == "A":
        shift = m[-1]
        m = [v - shift for v in m]
    pts = sorted(orthogonal_orbit(rs.series, m), reverse=True)
    return Monomial(rs.series, tuple(pts))


def monomial_eval(mono: Monomial, ys: Sequence[complex]) -> complex:
    """Evaluate the symmetrized monomial at the given variables."""
    total = complex(0)
    for expo in mono.exponents:
        if len(expo) != len(ys):
            raise DomainError(f"need {len(expo)} variables, got {len(ys)}")
        term = complex(1)
        for y, e in zip(ys, expo):
            if e == 0:
                continue
            if Fraction(e).denominator != 1:
                raise DomainError(f"non-integer exponent {e}")
            k = int(e)
            if y == 0:
                if k < 0:
                    raise DomainError("zero variable with negative exponent")
                term = complex(0)
                break
            term *= y**k
        total += term
    return total
