"""Decomposing orbit products and orbit branchings into orbit sums.

The product of two orbits ``O(lam) (x) O(mu)`` is the multiset
``{nu1 + nu2}`` over all point pairs, regrouped into dominant orbits.
It is computed by double cosets, with no pair loop: each W-orbit of pairs
meets ``O(lam) x {mu}`` once, in a point ``a`` dominant for ``W_mu``
(``a_j >= 0`` wherever ``mu_j = 0``), and adds ``|W_nu| / |W_J|`` copies
of ``O(nu)``: ``nu = dom(a + mu)``, and ``W_J = W_a & W_mu`` is the
parabolic subgroup on ``J = {j : a_j = 0 = mu_j}``.  Regrouping every
point pair (``method="brute"``) stays as the reference.

Branching carries an orbit of a system to an orbit sum of a subsystem,
either through an explicit integer projection matrix acting on
fundamental-weight coordinates, or (for subsystems of equal rank) by
reflecting in a chosen set of roots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul
from typing import Sequence

from .errors import (
    CapExceeded,
    DomainError,
    MismatchedSystem,
    NotStrictlyDominant,
    UnknownPair,
    UnsupportedType,
)
from .root_system import RootSystem, _component_type, dynkin_components
from .root_system import parabolic_order, root_system
from .weights import Weight, _scale, _unscale, inner_product, is_dominant
from .weights import is_strictly_dominant, weight_to_point
from .weyl import _bonds, _dominate, _scaled_orbit, orbit_size


@lru_cache(maxsize=64)
def _heights(rs: RootSystem) -> tuple:
    """Row sums of ``cartan_inv``: entry ``i`` is the height of ``omega_i``."""
    return tuple(sum(row) for row in rs.cartan_inv)


def _height_key(lam: Weight):
    # Height of the weight in the simple-root basis, then the coordinates
    # themselves; sorting descending on this key puts the highest
    # component first.
    return (sum(map(mul, lam.coords, _heights(lam.rs))), lam.coords)


@dataclass(frozen=True)
class OrbitSum:
    """A finite multiset of dominant-weight orbits with multiplicities."""

    rs: RootSystem
    terms: tuple[tuple[Weight, int], ...]

    @staticmethod
    def from_counter(rs: RootSystem, counts) -> "OrbitSum":
        items = [(w, m) for w, m in counts.items() if m != 0]
        items.sort(key=lambda t: _height_key(t[0]), reverse=True)
        return OrbitSum(rs, tuple(items))

    def multiplicity(self, lam: Weight) -> int:
        for w, m in self.terms:
            if w.coords == lam.coords:
                return m
        return 0

    def total_points(self) -> int:
        return sum(m * orbit_size(w) for w, m in self.terms)

    def as_dict(self) -> dict[tuple, int]:
        return {w.coords: m for w, m in self.terms}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrbitSum)
            and self.rs == other.rs
            and self.as_dict() == other.as_dict()
        )

    def __hash__(self):
        return hash((self.rs, frozenset(self.as_dict().items())))


def _check_product_args(lam: Weight, mu: Weight, cap: int) -> None:
    if lam.rs != mu.rs:
        raise MismatchedSystem(f"{lam.rs.name} does not match {mu.rs.name}")
    if not (is_dominant(lam) and is_dominant(mu)):
        raise DomainError("orbit product takes dominant weights")
    pairs = orbit_size(lam) * orbit_size(mu)
    if pairs > cap:
        raise CapExceeded(f"product needs {pairs} point pairs, cap is {cap}", pairs)


def product_fastpath_classify(lam: Weight, mu: Weight) -> str:
    """Classify ``O(lam) (x) O(mu)`` by its translated points ``w.lam + mu``.

    A diagnostic only: :func:`product` selects no code by it.  Returns
    one of ``"StrictAll"`` (every translated point is strictly
    dominant), ``"DominantAll"`` (every translated point is dominant),
    ``"SeparatedGeneric"`` (``mu`` strictly dominant and no translated
    point touches a reflection hyperplane), or ``"General"``.
    """
    if lam.rs != mu.rs:
        raise MismatchedSystem(f"{lam.rs.name} does not match {mu.rs.name}")
    if lam.is_zero() or mu.is_zero():
        return "General"
    shifts = _shifts(lam, mu)[1]
    if all(min(s) > 0 for s in shifts):
        return "StrictAll"
    if all(min(s) >= 0 for s in shifts):
        return "DominantAll"
    bonds = _bonds(lam.rs)
    if is_strictly_dominant(mu) and all(min(_dominate(s, bonds)[0]) > 0 for s in shifts):
        return "SeparatedGeneric"
    return "General"


def _shifts(lam: Weight, mu: Weight, cap: int = 10**7):
    """``(d, the translated points w.lam + mu as d-scaled int tuples)``."""
    d, m = _scale(mu.coords, _scale(lam.coords + mu.coords)[0])
    return d, [tuple(map(add, p, m)) for p in _scaled_orbit(lam, cap, d)[1]]


def _regroup(counts: Counter, target: RootSystem, d: int) -> OrbitSum:
    """Regroup a Weyl-invariant multiset of ``d``-scaled int points of
    ``target`` into an orbit sum: every orbit, met through its dominant
    representative, must hold a whole multiple of its size."""
    bonds = _bonds(target)
    dominant: Counter = Counter()
    for p, count in counts.items():
        dominant[_dominate(p, bonds)[0]] += count
    terms = {}
    for v, count in dominant.items():
        rep = Weight(target, _unscale(v, d))
        mult, rem = divmod(count, orbit_size(rep))
        if rem:
            raise DomainError(f"point counts are not aligned with the {target.name} orbits")
        terms[rep] = mult
    return OrbitSum.from_counter(target, terms)


def _product_brute(lam: Weight, mu: Weight, cap: int) -> OrbitSum:
    small, large = (lam, mu) if orbit_size(lam) <= orbit_size(mu) else (mu, lam)
    d = _scale(lam.coords + mu.coords)[0]
    large_points = _scaled_orbit(large, cap, d)[1]
    bonds = _bonds(lam.rs)
    counts: Counter = Counter()
    for p in _scaled_orbit(small, cap, d)[1]:
        counts.update(_dominate(map(add, p, q), bonds)[0] for q in large_points)
    return _regroup(counts, lam.rs, d)


def _product_cosets(lam: Weight, mu: Weight, cap: int) -> OrbitSum:
    """The double-coset sum over the smaller orbit; where ``mu_j = 0``,
    the translated point ``s = a + mu`` has ``s_j = a_j``."""
    if orbit_size(lam) > orbit_size(mu):
        lam, mu = mu, lam
    rs = lam.rs
    d, shifts = _shifts(lam, mu, cap)
    fixed = [j for j, c in enumerate(mu.coords) if c == 0]
    bonds, cartan = _bonds(rs), rs.cartan
    terms: Counter = Counter()
    for s in shifts:
        if all(s[j] >= 0 for j in fixed):
            nu = _dominate(s, bonds)[0]
            stab = tuple(j for j, c in enumerate(nu) if c == 0)
            shared = tuple(j for j in fixed if s[j] == 0)
            terms[nu] += parabolic_order(cartan, stab) // parabolic_order(cartan, shared)
    reps = {Weight(rs, _unscale(v, d)): c for v, c in terms.items()}
    return OrbitSum.from_counter(rs, reps)


def product(lam: Weight, mu: Weight, cap: int = 10**7, method: str = "auto") -> OrbitSum:
    """Decompose ``O(lam) (x) O(mu)`` into an orbit sum.

    ``method="auto"`` sums one term per W-class of point pairs: the class
    of ``(a, mu)``, ``a`` in ``O(lam)`` dominant for ``W_mu``, adds
    ``|W_nu| / |W_J|`` copies of ``O(nu)``, ``nu = dom(a + mu)``,
    ``J = {j : a_j = 0 = mu_j}``.  ``"brute"`` regroups every point pair.
    """
    _check_product_args(lam, mu, cap)
    if method == "auto":
        return _product_cosets(lam, mu, cap)
    if method == "brute":
        return _product_brute(lam, mu, cap)
    raise DomainError(f"unknown product method {method!r}")


def conjecture_probe(lam: Weight, mu: Weight, cap: int = 10**6) -> list[dict]:
    """Empirically probe the sharper decomposition predictions.

    Checks, on the brute-force decomposition, that (a) when ``mu`` is
    strictly dominant every strictly dominant translated point
    ``w.lam + mu`` appears with multiplicity exactly 1, and (b) when the
    stabilizer of ``mu`` is a parabolic generated by coordinates on
    which every translated point is positive, the decomposition is the
    regrouped translated-point list.  Returns a (hopefully empty) list
    of counterexample records.
    """
    _check_product_args(lam, mu, cap)
    if lam.is_zero() or mu.is_zero():
        return []
    reports: list[dict] = []
    decomp = _product_brute(lam, mu, cap).as_dict()
    d, shifts = _shifts(lam, mu, cap)
    if is_strictly_dominant(mu):
        for s in shifts:
            shift = _unscale(s, d)
            if min(s) > 0 and decomp.get(shift, 0) != 1:
                reports.append(
                    {
                        "claim": "strict-shift multiplicity",
                        "lam": lam.coords,
                        "mu": mu.coords,
                        "shift": shift,
                        "multiplicity": decomp.get(shift, 0),
                    }
                )
    moved = [j for j, c in enumerate(mu.coords) if c != 0]
    if all(s[j] > 0 for s in shifts for j in moved):
        bonds = _bonds(lam.rs)
        expected = Counter(_unscale(_dominate(s, bonds)[0], d) for s in shifts)
        if dict(expected) != decomp:
            reports.append(
                {
                    "claim": "stabilized-shift decomposition",
                    "lam": lam.coords,
                    "mu": mu.coords,
                    "expected": dict(expected),
                    "actual": decomp,
                }
            )
    return reports


# ---------------------------------------------------------------------------
# Branching via projection matrices.

@dataclass(frozen=True)
class ProjectionMatrix:
    """Integer matrix carrying source fundamental-weight coordinates to
    target ones (one row per target coordinate)."""

    source: RootSystem
    target: RootSystem
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.target.rank or any(
            len(row) != self.source.rank for row in self.matrix
        ):
            raise DomainError(
                f"projection shape must be {self.target.rank}x{self.source.rank}"
            )


_FIXED_PROJECTIONS = {
    ("C2", "A1"): [[3, 4]],
    ("G2", "A1"): [[10, 6]],
    ("C2", "A1xA1"): [[1, 1], [0, 1]],
    ("G2", "A2"): [[1, 1], [1, 0]],
    ("C4", "A3"): [[1, 1, 0, 0], [0, 0, 1, 2], [0, 1, 1, 0]],
    ("D5", "C2xC2"): [
        [0, 0, 2, 1, 1],
        [1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 1, 1, 0, 0],
    ],
}


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _rank_reduction_matrix(src: RootSystem, tgt: RootSystem) -> list[list[int]] | None:
    n = src.rank
    if tgt.rank != n - 1:
        return None
    series = src.series
    if series == "A" and tgt.series == "A":
        return _identity_rows(n)[:-1]
    if series == "B" and (tgt.series == "B" or (n == 3 and tgt.name == "C2")):
        if n == 3:
            # The rank-2 target is realized as C2, whose node order swaps
            # the short and long roots relative to a B-chain.
            return [[0, 2, 1], [1, 0, 0]]
        rows = _identity_rows(n)[: n - 2]
        last = [0] * n
        last[n - 2], last[n - 1] = 2, 1
        rows.append(last)
        return rows
    if series == "C" and tgt.series == "C":
        rows = _identity_rows(n)[: n - 2]
        last = [0] * n
        last[n - 2], last[n - 1] = 1, 1
        rows.append(last)
        return rows
    if series == "D" and tgt.series == "D" and n >= 5:
        rows = _identity_rows(n)[: n - 3]
        mid = [0] * n
        mid[n - 3], mid[n - 2], mid[n - 1] = 1, 1, 1
        tail = [0] * n
        tail[n - 3] = 1
        rows.extend([mid, tail])
        return rows
    return None


def _split_matrix(src: RootSystem, tgt: RootSystem) -> list[list[int]] | None:
    """Node-deletion projection onto a two-factor subsystem."""
    if len(tgt.factors) != 2 or tgt.rank != src.rank - 1:
        return None
    first, second = tgt.factors
    if first.series != "A":
        return None
    p = first.rank + 1
    if src.series == "A":
        ok = second.series == "A"
    elif src.series == "C":
        ok = second.series == "C"
    elif src.series == "D":
        ok = second.series == "D"
    else:
        ok = False
    if not ok or second.rank != src.rank - p:
        return None
    rows = _identity_rows(src.rank)
    del rows[p - 1]
    return rows


def builtin_projection(pair: str) -> ProjectionMatrix:
    """Projection matrix for a named branching, e.g. ``"C3->C2"``.

    Known pairs: a fixed table of special reductions, same-series rank
    reductions, node-deletion splits ``A->AxA``, ``C->AxC``, ``D->AxD``,
    and the identity.
    """
    try:
        src_name, tgt_name = pair.split("->")
    except ValueError:
        raise UnknownPair(f"pair must look like 'C3->C2', got {pair!r}") from None
    src = root_system(src_name.strip())
    tgt = root_system(tgt_name.strip())
    if (src.name, tgt.name) in _FIXED_PROJECTIONS:
        rows = _FIXED_PROJECTIONS[(src.name, tgt.name)]
    elif src == tgt:
        rows = _identity_rows(src.rank)
    else:
        rows = _rank_reduction_matrix(src, tgt) or _split_matrix(src, tgt)
    if rows is None:
        raise UnknownPair(f"no built-in projection for {src.name}->{tgt.name}")
    return ProjectionMatrix(src, tgt, tuple(tuple(r) for r in rows))


def branch_restrict(lam: Weight, proj: ProjectionMatrix, cap: int = 10**7) -> OrbitSum:
    """Decompose the restriction of ``O(lam)`` through ``proj``."""
    if lam.rs != proj.source:
        raise MismatchedSystem(
            f"{lam.rs.name} weight fed to a {proj.source.name} projection"
        )
    if not is_dominant(lam):
        raise DomainError("branching takes a dominant weight")
    d, points = _scaled_orbit(lam, cap)
    counts = Counter(
        tuple(sum(map(mul, row, p)) for row in proj.matrix) for p in points
    )
    return _regroup(counts, proj.target, d)


# ---------------------------------------------------------------------------
# Equal-rank branching through a root subsystem.

def _recognize_component(cartan_rows: list[list[int]]) -> RootSystem:
    """The simple system whose Cartan matrix is ``cartan_rows``, nodes in order."""
    try:
        cand = root_system("%s%d" % _component_type(cartan_rows, range(len(cartan_rows))))
    except UnsupportedType:  # not of finite type
        cand = None
    if cand is None or cand.cartan != tuple(map(tuple, cartan_rows)):
        raise UnknownPair("sub-diagram does not match a supported type in this order")
    return cand


def branch_equal_rank(lam: Weight, sub_roots: Sequence[Weight], cap: int = 10**7) -> OrbitSum:
    """Decompose ``O(lam)`` under the reflection subgroup of ``sub_roots``.

    ``sub_roots`` must be ``rank`` roots of the ambient system forming a
    base of an equal-rank subsystem; ``lam`` must be strictly dominant.
    """
    rs = lam.rs
    if len(sub_roots) != rs.rank:
        raise DomainError(f"need {rs.rank} roots, got {len(sub_roots)}")
    for beta in sub_roots:
        if beta.rs != rs:
            raise MismatchedSystem("sub-roots must live in the ambient system")
    if not is_strictly_dominant(lam):
        raise NotStrictlyDominant(
            "equal-rank branching is implemented for strictly dominant weights"
        )
    n = rs.rank
    norms = [inner_product(b, b) for b in sub_roots]
    sub_cartan: list[list[int]] = []
    for j in range(n):
        row = []
        for k in range(n):
            val = 2 * inner_product(sub_roots[j], sub_roots[k]) / norms[k]
            if val.denominator != 1:
                raise DomainError("chosen roots do not close into a root base")
            row.append(int(val))
        sub_cartan.append(row)
    if any(sub_cartan[j][j] != 2 for j in range(n)) or any(
        sub_cartan[j][k] > 0 for j in range(n) for k in range(n) if j != k
    ):
        raise DomainError("chosen roots do not form a root base")

    groups = dynkin_components(sub_cartan, range(n))
    parts = [
        _recognize_component([[sub_cartan[i][j] for j in g] for i in g])
        for g in groups
    ]
    target = (
        parts[0]
        if len(parts) == 1
        else root_system("x".join(p.name for p in parts))
    )
    # Target coordinate i of a weight p is 2<p, beta_i>/<beta_i, beta_i>,
    # the pairing of p with the coroot of beta_i: a linear map on p.
    coroots = [
        weight_to_point(sub_roots[i]).scale(2 / norms[i]).coords
        for g in groups
        for i in g
    ]
    dk, flat = _scale([c for col in coroots for c in col])
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    d, points = _scaled_orbit(lam, cap)
    counts = Counter(tuple(sum(map(mul, row, p)) for row in rows) for p in points)
    return _regroup(counts, target, d * dk)


# ---------------------------------------------------------------------------
# Congruence numbers.

def congruence_modulus(rs: RootSystem) -> int:
    mods = {"A1": 2, "A2": 3, "C2": 2, "G2": 1}
    try:
        return mods[rs.name]
    except KeyError:
        raise UnsupportedType(
            f"congruence numbers are implemented for A1, A2, C2, G2,"
            f" not {rs.name}"
        ) from None


def congruence_number(lam: Weight) -> int:
    """Congruence class of a weight (A1, A2, C2 and G2 only)."""
    mod = congruence_modulus(lam.rs)
    a = lam.coords
    for c in a:
        if c.denominator != 1:
            raise DomainError("congruence numbers take integral weights")
    name = lam.rs.name
    if name == "A1":
        return int(a[0]) % 2
    if name == "A2":
        return int(2 * a[0] + a[1]) % 3
    if name == "C2":
        return int(a[0]) % 2
    return 0  # G2
