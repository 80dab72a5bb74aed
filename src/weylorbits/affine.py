"""Affine Weyl machinery: the fundamental domain, grids and torsion orders.

The affine Weyl group adds to the reflections the translation lattice
of coroots; its fundamental domain F is the simplex with vertices at
the origin and the fundamental coweights divided by the comarks.  This
module reduces arbitrary points into F, enumerates the two natural
finite point families (the level grid inside F and the full torsion
lattice of a given denominator) and classifies points by the orders at
which their multiples return to the coweight and coroot lattices.  The
level-``m`` grid points in ``(1/m) Q^vee``, each weighted by its
:func:`orbit_count`, stand for the whole torsion lattice of order ``m``;
:func:`torsion_grid` and its integer form serve both transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from operator import mul

from ._linalg import block_diagonal
from .errors import CapExceeded, DomainError, NonTermination, UnsupportedType
from .root_system import RootSystem, factor_slices, parabolic_order
from .weights import Point, _order, _scale, _unscale, fundamental_weight, weight_to_point
from .weights import zero_point


def reflect_r0(x: Point) -> Point:
    """Affine reflection in the wall ``<y, xi> = 1`` of a simple system."""
    rs = x.rs
    if not rs.is_simple:
        raise UnsupportedType("the affine reflection r_0 is defined per simple factor")
    level = sum(a * b for a, b in zip(rs.xi_omega, x.coords))
    shift = 1 - level
    coords = tuple(b + shift * q for b, q in zip(x.coords, rs.comarks))
    return Point(rs, coords, x.exact)


def fundamental_vertices(rs: RootSystem) -> list[Point]:
    """Vertices of the fundamental simplex: the origin and ``omega_i / q_i``."""
    if not rs.is_simple:
        raise UnsupportedType("the fundamental simplex is defined per simple factor")
    verts = [zero_point(rs)]
    for i in range(1, rs.rank + 1):
        w = weight_to_point(fundamental_weight(rs, i))
        verts.append(w.scale(Fraction(1, rs.comarks[i - 1])))
    return verts


def in_fundamental_domain(x: Point) -> bool:
    """Membership of a point in the closed fundamental domain."""
    d, v = _scale(x.coords) if x.exact else (1, x.coords)
    for f, sl in factor_slices(x.rs):
        b = v[sl]
        if min(sum(map(mul, row, b)) for row in f.cartan) < 0:
            return False
        if sum(map(mul, f.xi_omega, b)) > d:
            return False
    return True


def _reduce_scaled(rs: RootSystem, v: list, d: int) -> int:
    """Carry ``v = d*x`` into ``d*F`` in place and count the steps; ``v``
    holds ints for exact points, floats (with ``d = 1``) otherwise."""
    steps = 0
    for f, sl in factor_slices(rs):
        b = v[sl]
        for k in range(f.rank):
            b[k] -= b[k] // d * d if d > 1 else math.floor(b[k])
        budget = 10 * (f.rank + 1) * f.weyl_order
        local = 0
        while True:
            pairs = [sum(map(mul, row, b)) for row in f.cartan]
            low = min(pairs)
            if low < 0:
                b[pairs.index(low)] -= low
            else:
                level = sum(map(mul, f.xi_omega, b))
                if level <= d:
                    break
                shift = d - level
                b = [c + shift * q for c, q in zip(b, f.comarks)]
            local += 1
            if local > budget:
                raise NonTermination(
                    f"reduction exceeded {budget} steps on factor {f.name}"
                )
        v[sl] = b
        steps += local
    return steps


def reduce_to_fundamental(x: Point) -> tuple[Point, int]:
    """Carry a point into the fundamental domain.

    Returns the reduced point and the number of reflection steps taken
    (translations are folded in up front and not counted).  Reflections
    pick the most negative simple pairing first, lowest index on ties,
    and fall back to the affine reflection while ``<x, xi> > 1``.
    """
    d, v = _scale(x.coords) if x.exact else (1, x.coords)
    v = list(v)
    steps = _reduce_scaled(x.rs, v, d)
    return Point(x.rs, _unscale(v, d) if x.exact else tuple(v), x.exact), steps


@dataclass(frozen=True)
class GridPoint:
    """A point of the level-``M`` grid in the fundamental domain.

    ``kac`` concatenates, factor by factor, the non-negative integers
    ``(s_0, s_1, ..., s_r)`` with ``s_0 + sum_i s_i m_i = M``; the point
    itself has fundamental-coweight coordinates ``s_i / M``.
    """

    rs: RootSystem
    level: int
    kac: tuple[int, ...]
    point: Point


def _factor_kacs(f: RootSystem, level: int) -> list[tuple[int, ...]]:
    out = []

    def rec(i: int, budget: int, acc: list[int]):
        if i == f.rank:
            out.append((budget, *acc))
            return
        mark = f.marks[i]
        for s in range(budget // mark + 1):
            acc.append(s)
            rec(i + 1, budget - s * mark, acc)
            acc.pop()

    rec(0, level, [])
    out.sort()
    return out


def _scaled_grid(rs: RootSystem, level: int, cap: int) -> tuple[int, list]:
    """``(dinv, [(kac, v), ...])`` for the level-``M`` grid of F, in kac
    order: ``v`` holds the point's coroot coordinates times ``dinv * M``,
    ``dinv`` the lcm of the denominators of ``cartan_inv``."""
    per_factor = [_factor_kacs(f, level) for f, _ in factor_slices(rs)]
    total = 1
    for kacs in per_factor:
        total *= len(kacs)
        if total > cap:
            raise CapExceeded(f"grid would have over {cap} points", total)
    # Point coordinates are cartan_inv @ (s / level); each factor's kacs
    # are sorted, so their product comes in kac order.
    dinv, flat = _scale([c for row in rs.cartan_inv for c in row])
    n = rs.rank
    inv_rows = [flat[k * n:(k + 1) * n] for k in range(n)]
    grid = []
    for combo in iproduct(*per_factor):
        s = [v for block in combo for v in block[1:]]
        grid.append((sum(combo, ()), [sum(map(mul, row, s)) for row in inv_rows]))
    return dinv, grid


def grid_fm(rs: RootSystem, level: int, cap: int = 10**7) -> list[GridPoint]:
    """All level-``M`` grid points of the fundamental domain, in kac order."""
    level = _order(level)
    dinv, grid = _scaled_grid(rs, level, cap)
    return [
        GridPoint(rs, level, kac, Point(rs, _unscale(v, dinv * level), exact=True))
        for kac, v in grid
    ]


@lru_cache(maxsize=1024)
def _orbit_count(rs: RootSystem, zero: tuple[int, ...]) -> int:
    """:func:`orbit_count` of the grid points with zero Kac labels at ``zero``."""
    ext = block_diagonal([
        [(2, *(-a for a in f.xi_omega))]
        + [(-sum(map(mul, f.comarks, row)), *row) for row in f.cartan]
        for f in rs.factors
    ])
    return rs.weyl_order // parabolic_order(ext, zero)


def orbit_count(gp: GridPoint) -> int:
    """Size ``|W| / |Stab|`` of the W-orbit of a grid point on the torus
    ``R^n / Q^vee``; ``Stab`` is the parabolic subgroup of the extended
    Dynkin diagram (nodes in Kac-label order) on the labels that are 0,
    never the whole diagram since the labels sum to the level."""
    return _orbit_count(gp.rs, tuple(k for k, s in enumerate(gp.kac) if s == 0))


def _torsion_ints(rs: RootSystem, m: int, cap: int = 10**7) -> list[tuple[tuple[int, ...], int]]:
    """:func:`torsion_grid` in integers: ``(v, count)`` with ``x = v / m``."""
    dinv, grid = _scaled_grid(rs, m, cap)
    # x = v / (dinv m) lies in (1/m) Q^vee iff dinv divides every v_k.
    kept = sorted((tuple(c // dinv for c in v), kac) for kac, v in grid
                  if all(c % dinv == 0 for c in v))
    return [(v, _orbit_count(rs, tuple(k for k, s in enumerate(kac) if s == 0)))
            for v, kac in kept]


def torsion_grid(rs: RootSystem, m: int, cap: int = 10**7) -> list[tuple[Point, int]]:
    """The points of ``T_m`` in F with their :func:`orbit_count`, sorted by
    coordinates: the level-``m`` grid points in ``(1/m) Q^vee``.  ``cap``
    bounds the grid points enumerated.  The counts sum to ``m**rank``."""
    m = _order(m)
    return [(Point(rs, _unscale(v, m), exact=True), n) for v, n in _torsion_ints(rs, m, cap)]


def lattice_tm(rs: RootSystem, m: int, cap: int = 10**7) -> list[Point]:
    """The ``m**rank`` torsion points ``(1/m) * coroot lattice mod 1``."""
    m = _order(m)
    if m**rs.rank > cap:
        raise CapExceeded(f"lattice would have {m**rs.rank} points, cap is {cap}")
    return [Point(rs, _unscale(s, m), exact=True) for s in iproduct(range(m), repeat=rs.rank)]


def element_orders(x: Point | GridPoint) -> tuple[int, int]:
    """Orders ``(M, N)``: least multiples landing in the coweight
    (adjoint) and coroot lattices respectively.  ``M`` divides ``N``."""
    if isinstance(x, GridPoint):
        x = x.point
    if not x.exact:
        raise DomainError("element orders need exact coordinates")
    n_ord, v = _scale(x.coords)
    # <x, alpha_j> = (cartan @ v)_j / N, so its denominator is N / gcd.
    m_ord = math.lcm(
        *(n_ord // math.gcd(sum(map(mul, row, v)), n_ord) for row in x.rs.cartan)
    )
    return m_ord, n_ord


def is_rational_element(x: Point | GridPoint) -> bool:
    """True when every power map ``x -> k x`` with ``gcd(k, N) = 1``
    fixes the reduced point."""
    n_ord = element_orders(x)[1]
    x = x.point if isinstance(x, GridPoint) else x
    v = _scale(x.coords, n_ord)[1]
    base = list(v)
    _reduce_scaled(x.rs, base, n_ord)
    for k in range(2, n_ord):
        if math.gcd(k, n_ord) != 1:
            continue
        img = [k * c for c in v]
        _reduce_scaled(x.rs, img, n_ord)
        if img != base:
            return False
    return True


@dataclass(frozen=True)
class RationalElement:
    """A rational grid point together with its torsion orders."""

    rs: RootSystem
    adjoint_order: int
    full_order: int
    kac: tuple[int, ...]
    fractions: tuple[Fraction, ...]
    point: Point


_RATIONAL_TABLE_TYPES = {"A1", "A2", "A3", "A4", "C2", "G2", "B3", "C3"}


def rational_elements(rs: RootSystem, max_level: int, cap: int = 10**7) -> list[RationalElement]:
    """All rational conjugacy-class representatives up to adjoint order
    ``max_level``, sorted by (order, kac); ``cap`` bounds each grid."""
    if rs.name not in _RATIONAL_TABLE_TYPES:
        raise UnsupportedType(
            f"rational-element tables cover {sorted(_RATIONAL_TABLE_TYPES)},"
            f" not {rs.name}"
        )
    out = []
    for level in range(1, _order(max_level) + 1):
        for gp in grid_fm(rs, level, cap):
            if math.gcd(*gp.kac) != 1:
                continue
            if not is_rational_element(gp.point):
                continue
            _, n_ord = element_orders(gp.point)
            out.append(
                RationalElement(
                    rs,
                    level,
                    n_ord,
                    gp.kac,
                    tuple(Fraction(s, level) for s in gp.kac[1:]),
                    gp.point,
                )
            )
    return out


def tm_level_for_grid(points) -> int:
    """Smallest torsion denominator containing every given exact point."""
    denoms = [1]
    for p in points:
        if isinstance(p, GridPoint):
            p = p.point
        denoms.extend(c.denominator for c in p.coords)
    return math.lcm(*denoms)


def barycentric_point(rs: RootSystem, bary) -> Point:
    """Point of the fundamental simplex with the given barycentric weights."""
    verts = fundamental_vertices(rs)
    if len(bary) != len(verts):
        raise DomainError(f"need {len(verts)} barycentric coordinates")
    coords = [Fraction(0)] * rs.rank
    exact = all(not isinstance(b, float) for b in bary)
    if exact:
        bary = [Fraction(b) for b in bary]
        for b, v in zip(bary, verts):
            for k in range(rs.rank):
                coords[k] += b * v.coords[k]
        return Point(rs, tuple(coords), exact=True)
    fl = [0.0] * rs.rank
    for b, v in zip(bary, verts):
        for k in range(rs.rank):
            fl[k] += float(b) * float(v.coords[k])
    return Point(rs, tuple(fl), exact=False)


def interior_base_point(rs: RootSystem) -> Point:
    """Barycenter of the fundamental simplex (a convenient interior point)."""
    n = rs.rank + 1
    return barycentric_point(rs, [Fraction(1, n)] * n)
