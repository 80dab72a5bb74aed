"""Weights, points and the coordinate systems connecting them.

A :class:`Weight` holds row-vector coordinates in the fundamental-weight
basis; a :class:`Point` holds column-vector coordinates in the
simple-coroot basis.  With these conventions the natural pairing is a
plain dot product, ``<lambda, x> = sum_j a_j b_j``.

Exact coordinates are :class:`fractions.Fraction`; points may instead
carry floats, in which case ``exact`` is False and downstream code uses
floating-point evaluation paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from numbers import Rational
from operator import index
from typing import Iterable, Sequence

from . import _linalg
from .errors import (
    DomainError,
    MismatchedSystem,
    UnsupportedRank,
    UnsupportedSeries,
    UnsupportedType,
)
from .root_system import RootSystem, build_root_system


# Equal exact coordinates share one Fraction (it is immutable), so weights
# and points kept in bulk hold one object per distinct value: integers
# |v| <= 256 from the start, other values as they are met while the
# table holds fewer than _SHARED_MAX entries.
_SHARED_MAX = 4096
_SHARED = {v: Fraction(v) for v in range(-256, 257)}


def exact(value) -> Fraction:
    """``Fraction(value)``, shared with an equal int or Fraction met before."""
    if isinstance(value, float):
        raise DomainError(f"expected an exact rational, got float {value!r}")
    if type(value) not in (int, Fraction):
        return Fraction(value)
    f = _SHARED.get(value)
    if f is None:
        f = Fraction(value)
        if len(_SHARED) < _SHARED_MAX:
            _SHARED[f] = f
    return f


def _order(value) -> int:
    """An order, level or modulus as an int: an index, not a bool, of at least 1."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or index(value) < 1:
        raise DomainError(f"expected a positive integer order or level, got {value!r}")
    return index(value)


# The integer kernel: Cartan matrices are integral and reflections linear,
# so a coordinate tuple x is carried as d*x in plain ints, d a common
# multiple of its denominators, and divided by d at the end.

def _scale(coords, d: int | None = None) -> tuple[int, tuple[int, ...]]:
    """``(d, d*coords)``; ``d`` defaults to the lcm of the denominators."""
    if d is None:
        d = lcm(*(c.denominator for c in coords))
    return d, tuple(c.numerator * (d // c.denominator) for c in coords)


def _unscale(ints, d: int) -> tuple[Fraction, ...]:
    """``ints / d`` as Fractions."""
    return tuple(Fraction(v, d) if v % d else exact(v // d) for v in ints)


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates."""

    rs: RootSystem
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.rs.rank:
            raise DomainError(
                f"{self.rs.name} weight needs {self.rs.rank} coordinates,"
                f" got {len(self.coords)}"
            )

    def __add__(self, other: "Weight") -> "Weight":
        _same_system(self, other)
        return Weight(self.rs, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        _same_system(self, other)
        return Weight(self.rs, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(self.rs, tuple(-a for a in self.coords))

    def scale(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(self.rs, tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


@dataclass(frozen=True)
class Point:
    """A point of the real span, in simple-coroot coordinates."""

    rs: RootSystem
    coords: tuple
    exact: bool

    def __post_init__(self):
        if len(self.coords) != self.rs.rank:
            raise DomainError(
                f"{self.rs.name} point needs {self.rs.rank} coordinates,"
                f" got {len(self.coords)}"
            )

    def __add__(self, other: "Point") -> "Point":
        _same_system(self, other)
        return Point(
            self.rs,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            self.exact and other.exact,
        )

    def __sub__(self, other: "Point") -> "Point":
        _same_system(self, other)
        return Point(
            self.rs,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
            self.exact and other.exact,
        )

    def scale(self, c) -> "Point":
        exact = self.exact and isinstance(c, (int, Rational))
        if exact:
            c = Fraction(c)
        return Point(self.rs, tuple(c * b for b in self.coords), exact)


def _same_system(a, b) -> None:
    if a.rs != b.rs:
        raise MismatchedSystem(f"{a.rs.name} does not match {b.rs.name}")


def weight(rs: RootSystem, coords: Iterable) -> Weight:
    return Weight(rs, tuple(exact(c) for c in coords))


def point(rs: RootSystem, coords: Iterable) -> Point:
    vals = tuple(coords)
    if any(isinstance(v, float) for v in vals):
        return Point(rs, tuple(float(v) for v in vals), exact=False)
    return Point(rs, tuple(exact(v) for v in vals), exact=True)


def zero_weight(rs: RootSystem) -> Weight:
    return Weight(rs, (Fraction(0),) * rs.rank)


def zero_point(rs: RootSystem) -> Point:
    return Point(rs, (Fraction(0),) * rs.rank, exact=True)


def pairing(lam: Weight, x: Point):
    """Natural pairing ``<lambda, x>``; exact iff the point is exact."""
    _same_system(lam, x)
    return sum(a * b for a, b in zip(lam.coords, x.coords))


def inner_product(lam: Weight, mu: Weight) -> Fraction:
    """Invariant bilinear form on weights, via the fundamental-weight Gram matrix."""
    _same_system(lam, mu)
    s_mu = _linalg.mat_vec(lam.rs.gram, mu.coords)
    return sum(a * b for a, b in zip(lam.coords, s_mu))


def weight_to_point(lam: Weight) -> Point:
    """Geometric embedding: the point whose pairing with every weight
    reproduces the invariant form."""
    return Point(lam.rs, _linalg.vec_mat(lam.coords, lam.rs.gram), exact=True)


def point_to_weight(x: Point) -> Weight:
    """Inverse of :func:`weight_to_point` for exact points."""
    if not x.exact:
        raise DomainError("point_to_weight needs an exact point")
    rs = x.rs
    # gram^{-1} = diag(2 / lengths_sq) @ cartan, row i scaled by 2/len_i^2.
    coords = tuple(
        sum(Fraction(2, 1) / rs.lengths_sq[i] * rs.cartan[i][j] * x.coords[j]
            for j in range(rs.rank))
        for i in range(rs.rank)
    )
    return Weight(rs, coords)


def simple_root_weight(rs: RootSystem, i: int) -> Weight:
    """Simple root ``alpha_i`` (1-based) in fundamental-weight coordinates."""
    if not 1 <= i <= rs.rank:
        raise DomainError(f"simple-root index {i} outside 1..{rs.rank}")
    return Weight(rs, tuple(map(exact, rs.cartan[i - 1])))


def fundamental_weight(rs: RootSystem, i: int) -> Weight:
    if not 1 <= i <= rs.rank:
        raise DomainError(f"fundamental-weight index {i} outside 1..{rs.rank}")
    return Weight(
        rs, tuple(Fraction(1) if j == i - 1 else Fraction(0) for j in range(rs.rank))
    )


def coroot_point(rs: RootSystem, i: int) -> Point:
    """Simple coroot ``alpha_i^vee`` (1-based) as a point."""
    if not 1 <= i <= rs.rank:
        raise DomainError(f"coroot index {i} outside 1..{rs.rank}")
    return Point(
        rs, tuple(Fraction(1) if j == i - 1 else Fraction(0) for j in range(rs.rank)),
        exact=True,
    )


def fundamental_copoint(rs: RootSystem, i: int) -> Point:
    """Fundamental coweight ``omega_i^vee`` (1-based) as a point."""
    if not 1 <= i <= rs.rank:
        raise DomainError(f"coweight index {i} outside 1..{rs.rank}")
    col = tuple(rs.cartan_inv[k][i - 1] for k in range(rs.rank))
    return Point(rs, col, exact=True)


def point_from_coweights(rs: RootSystem, coeffs: Sequence) -> Point:
    """Point with the given fundamental-coweight coordinates."""
    c = tuple(Fraction(v) for v in coeffs)
    return Point(rs, _linalg.mat_vec(rs.cartan_inv, c), exact=True)


def coweight_coords(x: Point) -> tuple:
    """Fundamental-coweight coordinates ``<x, alpha_j>`` of a point."""
    rs = x.rs
    return tuple(
        sum(rs.cartan[j][k] * x.coords[k] for k in range(rs.rank))
        for j in range(rs.rank)
    )


def highest_root(rs: RootSystem) -> tuple[tuple[int, ...], tuple[int, ...], Weight]:
    """Marks, comarks and the highest root (as a weight) of a simple system."""
    if not rs.is_simple:
        raise UnsupportedType("highest root is defined per simple factor")
    return rs.marks, rs.comarks, Weight(rs, tuple(map(exact, rs.xi_omega)))


def is_dominant(lam: Weight) -> bool:
    return all(a >= 0 for a in lam.coords)


def is_strictly_dominant(lam: Weight) -> bool:
    return all(a > 0 for a in lam.coords)


# ---------------------------------------------------------------------------
# Orthogonal coordinates for the four classical series.

def _check_classical(series: str, n: int) -> None:
    limits = {"A": 1, "B": 3, "C": 2, "D": 4}
    if series not in limits:
        raise UnsupportedSeries(
            f"orthogonal coordinates are defined for A/B/C/D, not {series!r}"
        )
    if n < limits[series]:
        raise UnsupportedRank(f"{series}{n} has no native orthogonal presentation")


def to_orthogonal(lam: Weight) -> tuple[Fraction, ...]:
    """Orthogonal coordinates of a weight of a classical simple system.

    For the A series the representative with coordinate sum zero is
    returned (n+1 entries); B/C/D use n entries.
    """
    rs = lam.rs
    if not rs.is_simple:
        raise UnsupportedSeries("orthogonal coordinates apply to simple systems")
    series, n = rs.series, rs.rank
    _check_classical(series, n)
    # Suffix sums of the scaled coordinates over one common denominator:
    # d for C, 2d for the halves of B and D, (n+1)d for the A shift.
    d, v = _scale(lam.coords)
    if series in "AC":
        u, den = v, d
    elif series == "B":
        u, den = [2 * c for c in v[:-1]] + [v[-1]], 2 * d
    else:
        u, den = [2 * c for c in v[:-2]] + [v[-2] + v[-1]], 2 * d
    m = [*accumulate(reversed(u))][::-1]
    if series == "A":
        m.append(0)
        total = sum(m)
        return _unscale([(n + 1) * t - total for t in m], (n + 1) * d)
    if series == "D":
        m.append(v[-2] - v[-1])
    return _unscale(m, den)


def from_orthogonal(series: str, m: Sequence) -> Weight:
    """Weight of the classical system matching the given orthogonal coordinates."""
    vals = [Fraction(v) for v in m]
    n = len(vals) - 1 if series == "A" else len(vals)
    _check_classical(series, n)
    rs = build_root_system(series, n)
    if series == "A":
        coords = [vals[i] - vals[i + 1] for i in range(n)]
    elif series == "B":
        coords = [vals[i] - vals[i + 1] for i in range(n - 1)] + [2 * vals[n - 1]]
    elif series == "C":
        coords = [vals[i] - vals[i + 1] for i in range(n - 1)] + [vals[n - 1]]
    else:
        coords = [vals[i] - vals[i + 1] for i in range(n - 2)]
        coords += [vals[n - 2] + vals[n - 1], vals[n - 2] - vals[n - 1]]
    return Weight(rs, tuple(coords))


def orthogonal_dominant(series: str, m: Sequence[Fraction]) -> bool:
    """Dominance test in orthogonal coordinates."""
    vals = list(m)
    if series == "A":
        return all(x >= y for x, y in zip(vals, vals[1:]))
    if series in ("B", "C"):
        return all(x >= y for x, y in zip(vals, vals[1:])) and vals[-1] >= 0
    if series == "D":
        head = vals[:-1]
        return all(x >= y for x, y in zip(head, head[1:])) and head[-1] >= abs(
            vals[-1]
        )
    raise UnsupportedSeries(f"no orthogonal dominance rule for {series!r}")


# ---------------------------------------------------------------------------
# Parsing and formatting.

def parse_coords(text: str) -> tuple[Fraction, ...]:
    """Parse ``"1,0,3/2"`` into exact coordinates."""
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse coordinates {text!r}: {exc}") from None


def parse_weight(rs: RootSystem, text: str) -> Weight:
    return Weight(rs, parse_coords(text))


def parse_point(rs: RootSystem, text: str) -> Point:
    return Point(rs, parse_coords(text), exact=True)


def coord_str(value) -> str:
    """Render an exact coordinate: integers bare, fractions as ``p/q``."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
