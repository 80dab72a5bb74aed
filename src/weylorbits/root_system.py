"""Root-system data: Cartan matrices, length data, marks and Weyl orders.

A :class:`RootSystem` bundles the exact rational data attached to a
simple root system (or an ordered product of simple ones): the Cartan
matrix ``M`` with entries ``M[j][k] = 2<alpha_j, alpha_k>/<alpha_k,
alpha_k>``, its inverse, squared root lengths normalized so long roots
have length squared 2, the Gram matrix of fundamental weights, the
marks/comarks of the highest root, and the Weyl group order.

Weights are row vectors in the fundamental-weight basis and points are
column vectors in the simple-coroot basis; both conventions live in
:mod:`weylorbits.weights`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import _linalg
from ._linalg import Matrix
from .errors import UnsupportedType

_EXCEPTIONAL_WEYL = {
    ("E", 6): 51_840,
    ("E", 7): 2_903_040,
    ("E", 8): 696_729_600,
    ("F", 4): 1_152,
    ("G", 2): 12,
}


def weyl_order_formula(series: str, rank: int) -> int:
    """Order of the Weyl group of one simple factor."""
    if series == "A":
        return factorial(rank + 1)
    if series in ("B", "C"):
        return 2**rank * factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return _EXCEPTIONAL_WEYL[(series, rank)]


def _chain_cartan(rank: int) -> list[list[int]]:
    m = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 2
        if i + 1 < rank:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


def _cartan_and_lengths(series: str, rank: int):
    """Integer Cartan matrix and squared simple-root lengths."""
    two = Fraction(2)
    if series == "A":
        return _chain_cartan(rank), [two] * rank
    if series == "B":
        m = _chain_cartan(rank)
        m[rank - 2][rank - 1] = -2
        return m, [two] * (rank - 1) + [Fraction(1)]
    if series == "C":
        m = _chain_cartan(rank)
        m[rank - 1][rank - 2] = -2
        return m, [Fraction(1)] * (rank - 1) + [two]
    if series == "D":
        m = _chain_cartan(rank)
        m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 2] = 0
        m[rank - 3][rank - 1] = -1
        m[rank - 1][rank - 3] = -1
        return m, [two] * rank
    if series == "E":
        # Nodes 1..rank-1 form a chain; the last node hangs off the chain
        # node carrying the largest mark (node 3 for E6/E7, node 5 for E8).
        m = _chain_cartan(rank)
        m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 2] = 0
        branch = {6: 2, 7: 2, 8: 4}[rank]
        m[branch][rank - 1] = -1
        m[rank - 1][branch] = -1
        return m, [two] * rank
    if series == "F":
        m = _chain_cartan(4)
        m[1][2] = -2
        return m, [two, two, Fraction(1), Fraction(1)]
    if series == "G":
        return [[2, -3], [-1, 2]], [two, Fraction(2, 3)]
    raise UnsupportedType(f"unknown series {series!r}")


_MARKS = {
    "A": lambda n: [1] * n,
    "B": lambda n: [1] + [2] * (n - 1),
    "C": lambda n: [2] * (n - 1) + [1],
    "D": lambda n: [1] + [2] * (n - 3) + [1, 1],
    "E": lambda n: {
        6: [1, 2, 3, 2, 1, 2],
        7: [2, 3, 4, 3, 2, 1, 2],
        8: [2, 3, 4, 5, 6, 4, 2, 3],
    }[n],
    "F": lambda n: [2, 3, 4, 2],
    "G": lambda n: [2, 3],
}

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),  # rank 2 is normalized to C2
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class RootSystem:
    """Exact data of a (possibly reducible) root system.

    Attributes
    ----------
    name : str
        Canonical name, e.g. ``"C2"`` or ``"A1xG2"``.
    series : str
        Series letter for simple systems, ``"product"`` otherwise.
    rank : int
        Total rank.
    cartan : tuple of tuples of int
        Cartan matrix, in the plain ints the integer kernel reads.
    cartan_inv, gram : tuple of tuples of Fraction
        Exact inverse of the Cartan matrix, and the Gram matrix
        ``S = cartan_inv @ diag(lengths_sq / 2)`` of fundamental weights.
    lengths_sq : tuple of Fraction
        Squared lengths of the simple roots (long roots have 2).
    marks, comarks : tuple of int
        Highest-root coefficients over simple roots / coroots,
        concatenated per factor for products.
    xi_omega : tuple of int or None
        Highest root ``marks . cartan`` in the fundamental-weight basis
        (simple systems only).
    weyl_order : int
        Order of the Weyl group.
    aliased_from : str or None
        Original name when the requested type was normalized (``"B2"``).
    """

    __slots__ = (
        "name",
        "series",
        "rank",
        "cartan",
        "cartan_inv",
        "lengths_sq",
        "gram",
        "marks",
        "comarks",
        "weyl_order",
        "aliased_from",
        "xi_omega",
        "_factors",
    )

    def __init__(
        self,
        name: str,
        series: str,
        cartan: Matrix,
        lengths_sq: tuple[Fraction, ...],
        marks: tuple[int, ...],
        comarks: tuple[int, ...],
        weyl_order: int,
        aliased_from: str | None = None,
        factors: tuple["RootSystem", ...] | None = None,
        xi_omega: tuple[int, ...] | None = None,
    ):
        self.name = name
        self.series = series
        self.rank = len(cartan)
        self.cartan = cartan
        self.cartan_inv = _linalg.mat_inv(cartan)
        self.lengths_sq = lengths_sq
        self.gram = tuple(
            tuple(self.cartan_inv[i][j] * lengths_sq[j] / 2 for j in range(self.rank))
            for i in range(self.rank)
        )
        self.marks = marks
        self.comarks = comarks
        self.weyl_order = weyl_order
        self.aliased_from = aliased_from
        self.xi_omega = xi_omega
        self._factors = factors

    @property
    def is_simple(self) -> bool:
        return self._factors is None

    @property
    def factors(self) -> tuple["RootSystem", ...]:
        return (self,) if self._factors is None else self._factors

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"


@lru_cache(maxsize=None)
def _build_simple(series: str, rank: int) -> RootSystem:
    lo, hi = _RANK_RANGE.get(series, (None, None))
    if lo is None or rank < lo or (hi is not None and rank > hi):
        raise UnsupportedType(f"no simple root system of type {series}{rank}")
    aliased = None
    if series == "B" and rank == 2:
        series, aliased = "C", "B2"
    cartan_rows, lengths = _cartan_and_lengths(series, rank)
    cartan = tuple(map(tuple, cartan_rows))
    marks = tuple(_MARKS[series](rank))
    comarks = tuple(m * l // 2 for m, l in zip(marks, lengths))
    return RootSystem(
        name=f"{series}{rank}",
        series=series,
        cartan=cartan,
        lengths_sq=tuple(lengths),
        marks=marks,
        comarks=comarks,
        weyl_order=weyl_order_formula(series, rank),
        aliased_from=aliased,
        xi_omega=_linalg.vec_mat(marks, cartan),
    )


def build_root_system(series: str, rank: int) -> RootSystem:
    """Build a simple root system from a series letter and rank."""
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise UnsupportedType(f"rank must be an integer, got {rank!r}")
    if series not in _RANK_RANGE:
        raise UnsupportedType(f"unknown series {series!r}")
    return _build_simple(series, rank)


_FACTOR_RE = re.compile(r"([A-G])([0-9]+)$")


@lru_cache(maxsize=None)
def root_system(name: str) -> RootSystem:
    """Parse a type name like ``"G2"`` or ``"A1xC3"`` into a root system."""
    parts = name.split("x")
    factors = []
    for part in parts:
        m = _FACTOR_RE.match(part)
        if not m:
            raise UnsupportedType(f"cannot parse root-system name {part!r}")
        factors.append(build_root_system(m.group(1), int(m.group(2))))
    if len(factors) == 1:
        return factors[0]
    order = 1
    for f in factors:
        order *= f.weyl_order
    return RootSystem(
        name="x".join(f.name for f in factors),
        series="product",
        cartan=_linalg.block_diagonal([f.cartan for f in factors]),
        lengths_sq=tuple(l for f in factors for l in f.lengths_sq),
        marks=tuple(m for f in factors for m in f.marks),
        comarks=tuple(q for f in factors for q in f.comarks),
        weyl_order=order,
        factors=tuple(factors),
    )


def factor_slices(rs: RootSystem) -> list[tuple["RootSystem", slice]]:
    """Coordinate slice of each simple factor inside the full coordinate tuple."""
    out = []
    start = 0
    for f in rs.factors:
        out.append((f, slice(start, start + f.rank)))
        start += f.rank
    return out


def _component_order(cartan, nodes: list[int]) -> int:
    """Weyl order of one connected sub-diagram given by ``nodes``."""
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
            raise UnsupportedType("unrecognized sub-diagram")
        return 12
    degrees = {v: len(adj[v]) for v in nodes}
    is_path = all(d <= 2 for d in degrees.values()) and sum(
        1 for d in degrees.values() if d == 1
    ) == 2
    doubles = [e for e, b in bonds.items() if b == 2]
    if doubles:
        if len(doubles) != 1 or not is_path:
            raise UnsupportedType("unrecognized sub-diagram")
        i, j = doubles[0]
        if degrees[i] == 1 or degrees[j] == 1:
            return 2**k * factorial(k)  # B- or C-type chain
        if k == 4:
            return 1_152
        raise UnsupportedType("unrecognized sub-diagram")
    if is_path:
        return factorial(k + 1)
    # Simply-laced tree with one trivalent node: D or E type.
    centers = [v for v, d in degrees.items() if d == 3]
    if len(centers) != 1 or any(d > 3 for d in degrees.values()):
        raise UnsupportedType("unrecognized sub-diagram")
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
        raise UnsupportedType("unrecognized sub-diagram")
    if arms[1] == 1:
        return 2 ** (k - 1) * factorial(k)  # D-type
    try:
        return _EXCEPTIONAL_WEYL[("E", k)]
    except KeyError:
        raise UnsupportedType("unrecognized sub-diagram") from None


def dynkin_components(cartan, nodes) -> list[list[int]]:
    """Sorted connected components of the sub-diagram on ``nodes``, in
    order of their lowest node; nonzero entries of ``cartan`` are bonds."""
    components: list[list[int]] = []
    for v in sorted(nodes):
        linked = [c for c in components if any(cartan[v][u] for u in c)]
        components = [c for c in components if c not in linked]
        components.append(sorted([v, *(u for c in linked for u in c)]))
    return sorted(components)


def parabolic_order(cartan, indices) -> int:
    """Order of the subgroup generated by the reflections in ``indices``.

    ``cartan`` holds the rows of a Cartan matrix, finite or extended, and
    ``indices`` are 0-based node positions; the subgroup is a product of
    Weyl groups of the connected components of the induced sub-diagram.
    """
    order = 1
    for comp in dynkin_components(cartan, indices):
        order *= _component_order(cartan, comp)
    return order
