"""Weyl group actions: reflections, orbits, stabilizers.

Orbits are enumerated breadth first from the dominant representative,
reflecting each point in its positive coordinates; within a BFS layer
points are ordered by ascending coordinate tuple, which makes orbit
listings reproducible.  Orbit sizes never require enumeration: the
stabilizer of a dominant weight is the parabolic subgroup generated by
the simple reflections fixing it, so ``|orbit| = |W| / |W_stab|``.

Orbits, dominant representatives, regrouping into orbit sums and affine
reduction run on the integer kernel below, on scaled plain Python ints;
results are divided back and stay exact ``Fraction`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable

from .errors import CapExceeded, DomainError, IndexOutOfRange
from .errors import InvariantViolation, UnsupportedRank
from .root_system import RootSystem, parabolic_order
from .weights import Point, Weight, _scale, _unscale, exact, is_dominant, orthogonal_dominant


def reflect_simple(i: int, lam: Weight) -> Weight:
    """Simple reflection ``r_i`` (1-based) acting on a weight."""
    rs = lam.rs
    if not 1 <= i <= rs.rank:
        raise IndexOutOfRange(f"reflection index {i} outside 1..{rs.rank}")
    a_i = lam.coords[i - 1]
    if a_i == 0:
        return lam
    row = rs.cartan[i - 1]
    return Weight(rs, tuple(a - a_i * row[j] for j, a in enumerate(lam.coords)))


def reflect_simple_point(i: int, x: Point) -> Point:
    """Simple reflection ``r_i`` (1-based) acting on a point."""
    rs = x.rs
    if not 1 <= i <= rs.rank:
        raise IndexOutOfRange(f"reflection index {i} outside 1..{rs.rank}")
    row = rs.cartan[i - 1]
    level = sum(row[j] * x.coords[j] for j in range(rs.rank))
    coords = list(x.coords)
    coords[i - 1] = coords[i - 1] - level
    return Point(rs, tuple(coords), x.exact)


# ---------------------------------------------------------------------------
# Integer kernel on d-scaled ints (``weights._scale`` and ``_unscale``).

@lru_cache(maxsize=64)
def _bonds(rs: RootSystem) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per node ``i``, the ``(j, M[i][j])`` with ``j != i`` and ``M[i][j] != 0``."""
    return tuple(
        tuple((j, c) for j, c in enumerate(row) if j != i and c)
        for i, row in enumerate(rs.cartan)
    )


def _reflect(v: list[int], i: int, bonds) -> None:
    """Simple reflection ``r_{i+1}`` of the scaled weight ``v``, in place."""
    a = v[i]
    v[i] = -a
    for j, c in bonds[i]:
        v[j] -= a * c


def _dominate(p: Iterable[int], bonds) -> tuple[tuple[int, ...], list[int]]:
    """Reflect the scaled weight ``p`` into the dominant chamber, lowest
    negative index first; returns the image and the 1-based word."""
    v, word = list(p), []
    while True:
        for i, a in enumerate(v):
            if a < 0:
                break
        else:
            return tuple(v), word
        _reflect(v, i, bonds)
        word.append(i + 1)


def _scaled_orbit(lam: Weight, cap: int = 10**7, d: int | None = None):
    """``(d, orbit points as d-scaled int tuples)``, in :func:`orbit` order.

    Reflecting a point in a positive coordinate lengthens its minimal
    coset word by one, so layer ``k + 1`` is exactly the set of such
    images of layer ``k``; each layer is sorted by coordinate tuple.
    """
    size = orbit_size(lam)
    if size > cap:
        raise CapExceeded(f"orbit has {size} points, cap is {cap}", size=size)
    d, v = _scale(lam.coords, d)
    bonds = _bonds(lam.rs)
    points, layer = [v], [v]
    while layer:
        nxt = set()
        for p in layer:
            for i, a in enumerate(p):
                if a > 0:
                    q = list(p)
                    _reflect(q, i, bonds)
                    nxt.add(tuple(q))
        layer = sorted(nxt)
        points += layer
    if len(points) != size:
        raise InvariantViolation(f"{len(points)} orbit points, expected {size}")
    return d, points


# ---------------------------------------------------------------------------
# Dominant representatives and orbits.

def dominant_representative(lam: Weight) -> tuple[Weight, int, tuple[int, ...]]:
    """Dominant representative of a weight's orbit.

    Returns ``(mu, parity, word)`` where ``mu`` is dominant,
    ``parity = (-1)**len(word)`` and applying the reflections in ``word``
    left to right to ``lam`` yields ``mu``.  Among negative coordinates
    the lowest index is reflected first.
    """
    d, v = _scale(lam.coords)
    v, word = _dominate(v, _bonds(lam.rs))
    return Weight(lam.rs, _unscale(v, d)), (-1) ** len(word), tuple(word)


@dataclass(frozen=True)
class Orbit:
    """A Weyl-group orbit with its dominant representative."""

    dominant: Weight
    points: tuple[Weight, ...]
    size: int
    stabilizer_order: int


def stabilizer_order(lam: Weight) -> int:
    """Order of the stabilizer of a dominant weight: the parabolic
    subgroup of the simple reflections at its zero coordinates."""
    if not is_dominant(lam):
        raise DomainError("stabilizers and orbits start from a dominant weight")
    return parabolic_order(lam.rs.cartan, [j for j, a in enumerate(lam.coords) if a == 0])


def orbit_size(lam: Weight) -> int:
    """Number of points in the orbit of a dominant weight."""
    return lam.rs.weyl_order // stabilizer_order(lam)


def orbit(lam: Weight, cap: int = 10**7) -> Orbit:
    """Enumerate the orbit of a dominant weight.

    Raises :class:`CapExceeded` (carrying the size) when the orbit is
    larger than ``cap``.
    """
    d, points = _scaled_orbit(lam, cap)
    rs = lam.rs
    # Replace in place, so each int tuple is freed as its Weight is made.
    points[0] = lam
    for k in range(1, len(points)):
        points[k] = Weight(rs, _unscale(points[k], d))
    return Orbit(lam, tuple(points), len(points), rs.weyl_order // len(points))


def orthogonal_orbit(series: str, m: Iterable) -> set[tuple[Fraction, ...]]:
    """Orbit of a dominant point given in orthogonal coordinates.

    A acts by permutations; B and C additionally flip signs; D flips an
    even number of signs (any number once a coordinate vanishes, since
    flipping a zero entry is the identity).
    """
    vals = tuple(Fraction(v) for v in m)
    if not orthogonal_dominant(series, vals):
        raise DomainError("orthogonal coordinates must be dominant")
    perms = set(permutations(vals))
    if series == "A":
        return perms
    out: set[tuple[Fraction, ...]] = set()
    for p in perms:
        nz = [j for j, v in enumerate(p) if v != 0]
        for mask in range(1 << len(nz)):
            if series == "D" and len(nz) == len(p) and bin(mask).count("1") % 2:
                continue
            q = list(p)
            for bit, j in enumerate(nz):
                if mask >> bit & 1:
                    q[j] = -q[j]
            out.add(tuple(q))
    return out


_GROUP_RANK_CAP = 4


def group_elements(rs: RootSystem, cap: int = 20_000) -> tuple[tuple, ...]:
    """All Weyl-group elements as integer matrices (rank at most 4).

    The matrices act on weight rows from the right and on point columns
    from the left; the set is closed under both conventions.
    """
    if rs.rank > _GROUP_RANK_CAP:
        raise UnsupportedRank(
            f"group enumeration is limited to rank {_GROUP_RANK_CAP}"
        )
    if rs.weyl_order > cap:
        raise CapExceeded(
            f"Weyl group has {rs.weyl_order} elements, cap is {cap}",
            size=rs.weyl_order,
        )
    # W acts simply transitively on the orbit of rho = (1, ..., 1): the word
    # carrying w.rho back to rho spells w^-1, and row k of w's matrix is
    # w(omega_k).
    bonds = _bonds(rs)
    n = rs.rank
    mats = set()
    for p in _scaled_orbit(Weight(rs, (exact(1),) * n))[1]:
        word = _dominate(p, bonds)[1][::-1]
        rows = [[int(j == k) for j in range(n)] for k in range(n)]
        for row in rows:
            for i in word:
                _reflect(row, i - 1, bonds)
        mats.add(tuple(map(tuple, rows)))
    if len(mats) != rs.weyl_order:
        raise InvariantViolation(f"{len(mats)} group elements, |W| is {rs.weyl_order}")
    return tuple(sorted(mats))


def apply_matrix_to_weight(matrix, lam: Weight) -> Weight:
    n = lam.rs.rank
    coords = tuple(
        sum(lam.coords[i] * matrix[i][j] for i in range(n)) for j in range(n)
    )
    return Weight(lam.rs, coords)


def apply_matrix_to_point(matrix, x: Point) -> Point:
    n = x.rs.rank
    coords = tuple(
        sum(matrix[i][j] * x.coords[j] for j in range(n)) for i in range(n)
    )
    return Point(x.rs, coords, x.exact)
