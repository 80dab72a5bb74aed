"""Continuous and finite orbit-function transforms.

Continuous side: a composite quadrature over the fundamental simplex
(rank at most 3), a tensor Gauss rule on the unit cube pushed through
the collapsing map and built from its 1-D factors: the cube weights,
the Jacobian and each simplex coordinate are broadcast products of
per-axis vectors.  Node weights sum to one, so weighted sums are
averages over the domain, in which distinct orbit functions are
orthogonal and ``|phi_lambda|^2`` averages to the orbit size.  Rules
and orbit-function node values are cached, each cache bounded in bytes.
Orthogonality Grams use no rule: ``phi_lam . conj(phi_mu)`` has the
differences of orbit points as frequencies, so its average over F
equals, up to rounding, its average over the torsion points below at
any separating level ``M``, at every rank and on product systems.

Finite side: scalar products over the torsion lattice ``T_m`` are
computed in closed form.  Summing ``exp(2 pi i <a - b, s/m>)`` over ``s``
in ``(Z/m)^n`` gives ``m^n`` when ``a = b`` mod ``m`` coordinate-wise and
0 otherwise.  W acts on the weight lattice by automorphisms, so such a
pair of orbit points is W-conjugate to ``(lam, nu)`` with ``m`` dividing
the content (coordinate gcd) of ``lam - nu``; ``m`` separates the orbits
when it divides no content but that of a point with itself.  Expansion
coefficients of a function over separated weights are recovered exactly
from the level-``m`` grid points of F in ``(1/m) Q^vee`` alone, each
weighted by its torus orbit count ``|W| / |Stab|`` (Moody & Patera, Adv.
Appl. Math. 47 (2011)); no lattice point is enumerated or reduced.

Weights are checked once per call: system and integrality by
``_check_weight``, dominance by the stabilizer as each orbit is sized.
Separation contents are read from the orbit functions a call evaluates.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import sub
from typing import Callable, Sequence

import numpy as np

from .affine import _torsion_ints, fundamental_vertices, torsion_grid
from .cyclotomic import Cyc
from .errors import (
    CapExceeded,
    DomainError,
    MismatchedSystem,
    SeparationFailure,
    UnsupportedRank,
    UnsupportedType,
)
from .root_system import RootSystem
from .weights import Point, Weight, _order
from .weyl import _scaled_orbit, orbit_size
from .orbit_fn import OrbitFunction, eval_exact_cyc, eval_fn, eval_many, orbit_function


@dataclass(frozen=True)
class SpectrumEntry:
    """One recovered expansion coefficient."""

    weight: Weight
    coeff: object  # Fraction for exact recoveries, complex otherwise

    def coeff_complex(self) -> complex:
        return self.coeff.to_complex() if isinstance(self.coeff, Cyc) else complex(self.coeff)


def _sorted_spectrum(entries) -> list[SpectrumEntry]:
    return sorted(entries, key=lambda e: (sum(e.weight.coords), e.weight.coords))


# ---------------------------------------------------------------------------
# Quadrature over the fundamental simplex.

@dataclass(frozen=True)
class QuadratureRule:
    """Composite rule on the fundamental simplex: ``(5 level)**rank``
    Gauss points of the unit cube, axis 0 slowest, collapsed onto it.

    ``nodes_bary`` holds barycentric coordinates against the simplex
    vertices (origin first); its last ``rank`` columns times the other
    vertices give ``nodes``, the same points in coroot coordinates.
    ``weights`` sums to one.  ``order`` is a conservative per-cell
    polynomial exactness degree.
    """

    rs: RootSystem
    level: int
    nodes_bary: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    order: int


class _ByteLRU:
    """LRU cache of at most ``budget`` bytes of values, as ``size`` counts
    them; the newest entry always stays, even alone over the budget."""

    def __init__(self, budget: int, size: Callable[[object], int]):
        self.budget, self.size = budget, size
        self.entries: OrderedDict = OrderedDict()
        self.held = 0

    def get(self, key, make: Callable[[], object]):
        if key in self.entries:
            self.entries.move_to_end(key)
            return self.entries[key]
        value = self.entries[key] = make()
        self.held += self.size(value)
        while self.held > self.budget and len(self.entries) > 1:
            self.held -= self.size(self.entries.popitem(last=False)[1])
        return value


_GAUSS_Q = 5
_rule_cache = _ByteLRU(16 << 20, lambda r: r.nodes_bary.nbytes + r.nodes.nbytes + r.weights.nbytes)
_phi_cache = _ByteLRU(8 << 20, lambda values: values.nbytes)


def build_quadrature(rs: RootSystem, level: int) -> QuadratureRule:
    """Composite tensor-Gauss rule with ``level**rank`` cells."""
    if not rs.is_simple:
        raise UnsupportedType("quadrature is built per simple system")
    if rs.rank > 3:
        raise UnsupportedRank("quadrature covers rank 1 to 3")
    level = _order(level)
    return _rule_cache.get((rs.name, level), lambda: _composite_rule(rs, level))


def _composite_rule(rs: RootSystem, level: int) -> QuadratureRule:
    rank = rs.rank
    xg, wg = np.polynomial.legendre.leggauss(_GAUSS_Q)
    u = ((np.arange(level)[:, None] + (xg[None, :] + 1) / 2) / level).reshape(-1)
    # Collapsing map x_k = u_k (1 - u_0) ... (1 - u_{k-1}), with Jacobian
    # the product of (1 - u_k)^(rank - 1 - k).  Each factor multiplies per-axis
    # vectors (``np.ix_``) left to right, full size only at the last product.
    nodes_bary = np.empty((u.size**rank, rank + 1))
    cube = nodes_bary.reshape((u.size,) * rank + (rank + 1,))
    ax, om = np.ix_(*[u] * rank), np.ix_(*[1 - u] * rank)
    for k in range(rank):
        cube[..., k + 1] = reduce(np.multiply, om[:k], ax[k])
    simplex = nodes_bary[:, 1:]
    cube_w = reduce(np.multiply, np.ix_(*[np.tile(wg / (2 * level), level)] * rank))
    jac = reduce(np.multiply, np.ix_(*[(1 - u) ** (rank - 1 - k) for k in range(rank)]))
    weights = (cube_w * jac).reshape(-1)
    weights /= weights.sum()
    nodes_bary[:, 0] = 1 - simplex.sum(axis=1)
    verts = np.array([[float(c) for c in v.coords] for v in fundamental_vertices(rs)[1:]])
    return QuadratureRule(rs, level, nodes_bary, simplex @ verts, weights, order=7)


def _integrand_values(g, nodes: np.ndarray, rs: RootSystem) -> np.ndarray:
    try:
        vals = np.asarray(g(nodes), dtype=complex)
        if vals.shape == (nodes.shape[0],):
            return vals
    except (TypeError, ValueError, AttributeError):
        pass
    return np.array([complex(g(Point(rs, tuple(row), exact=False))) for row in nodes],
                    dtype=complex)


def quadrature_integrate(rs: RootSystem, g, level: int) -> complex:
    """Average of ``g`` over the fundamental simplex.

    ``g`` should accept an ``(N, rank)`` float array of coroot
    coordinates and return ``(N,)`` complex values; a scalar callable on
    points is accepted as a fallback.
    """
    rule = build_quadrature(rs, level)
    vals = _integrand_values(g, rule.nodes, rs)
    return complex(np.sum(rule.weights * vals))


def forward_transform(
    rs: RootSystem, g, lambdas: Sequence[Weight], level: int
) -> list[SpectrumEntry]:
    """Recover expansion coefficients against the given dominant weights."""
    rule = build_quadrature(rs, level)
    vals = _integrand_values(g, rule.nodes, rs)
    entries = []
    for lam in lambdas:
        _check_weight(rs, lam)
        phi = _phi_cache.get((rs.name, lam.coords, level),
                             lambda: eval_many(orbit_function(lam), rule.nodes))
        coeff = complex(np.sum(rule.weights * vals * np.conj(phi)))
        entries.append(SpectrumEntry(lam, coeff / orbit_size(lam)))
    return _sorted_spectrum(entries)


def inverse_transform(spectrum: Sequence[SpectrumEntry], x: Point) -> complex:
    """The spectrum summed at one point, as a complex number.  Each call
    builds the orbit functions anew: for many points, build
    ``synthesize_spectrum(spectrum)`` once and call it instead."""
    return synthesize_spectrum(spectrum)(x)


def synthesize(spectrum: Sequence[SpectrumEntry]):
    """Vectorized callable summing the spectrum on an (N, rank) array."""
    terms = [(e.coeff_complex(), orbit_function(e.weight)) for e in spectrum]

    def g(nodes: np.ndarray) -> np.ndarray:
        total = np.zeros(nodes.shape[0], dtype=complex)
        for c, f in terms:
            total = total + c * eval_many(f, nodes)
        return total

    return g


def plancherel(
    rs: RootSystem, spectrum: Sequence[SpectrumEntry], g, level: int
) -> tuple[float, float]:
    """Both sides of the norm identity: spectral sum and domain average."""
    spectral = sum(
        orbit_size(e.weight) * abs(e.coeff_complex()) ** 2 for e in spectrum
    )
    avg = quadrature_integrate(rs, lambda pts: np.abs(
        _integrand_values(g, pts, rs)
    ) ** 2, level)
    return float(spectral), float(avg.real)


def orthogonality_gram(rs: RootSystem, lambdas: Sequence[Weight], level: int) -> np.ndarray:
    """Gram matrix of orbit functions under the average over F.

    ``level`` is the grid level ``M``: the nodes are the points of
    ``T_M`` in F (:func:`~weylorbits.affine.torsion_grid`), each weighted
    by its orbit count over ``M**rank``.  The result is
    ``diag(|O(lambda)|)`` up to rounding, for any rank and for product
    systems.  Raises :class:`SeparationFailure` when ``M`` does not
    separate two weights, where the grid average would not be exact.
    """
    level = _order(level)
    funcs = _orbit_functions(rs, lambdas)
    _require_separated(funcs, level)
    grid = _torsion_ints(rs, level)
    nodes = np.array([v for v, _ in grid]) / level
    weights = np.array([count for _, count in grid], dtype=float) / level**rs.rank
    block = np.empty((len(grid), len(funcs)), dtype=complex)
    for j, func in enumerate(funcs):
        block[:, j] = eval_many(func, nodes)
    return block.conj().T @ (weights[:, None] * block)


# ---------------------------------------------------------------------------
# Finite (lattice) transform.

def _check_weight(rs: RootSystem, lam: Weight) -> None:
    if lam.rs != rs:
        raise MismatchedSystem(f"{lam.rs.name} weight in a {rs.name} transform")
    if any(c.denominator != 1 for c in lam.coords):
        raise DomainError("transform weights must be integral")


def _orbit_functions(rs: RootSystem, lambdas: Sequence[Weight]) -> list[OrbitFunction]:
    """Check the transform weights, then enumerate each orbit once."""
    for lam in lambdas:
        _check_weight(rs, lam)
    return [orbit_function(lam) for lam in lambdas]


def _contents(funcs: Sequence[OrbitFunction]) -> dict[tuple[int, int], set[int]]:
    """Per pair ``i <= j``, the contents of ``lambda_i - nu``, ``nu`` in
    ``O(lambda_j)`` but ``lambda_i``, from the orbit functions' int points
    (integral weights: ``d = 1``; each orbit starts at its weight)."""
    pts = [f._scaled_points[1] for f in funcs]
    return {(i, j): {math.gcd(*map(sub, pts[i][0], nu)) for nu in pts[j] if nu != pts[i][0]}
            for i in range(len(pts)) for j in range(i, len(pts))}


def _unseparated(funcs: Sequence[OrbitFunction], m: int) -> tuple[Weight, Weight] | None:
    """The first pair ``(a, b)``, ``b`` at or after ``a``, that ``m`` does
    not separate, or None: ``m`` divides a content of ``(a, a)``,
    ``(b, b)`` or ``(a, b)``."""
    hit = {ij: any(c % m == 0 for c in found) for ij, found in _contents(funcs).items()}
    return next(((funcs[i].lam, funcs[j].lam) for i, j in hit
                 if hit[i, i] or hit[j, j] or hit[i, j]), None)


def _first_unseparated(lambdas: Sequence[Weight], m: int) -> tuple[Weight, Weight] | None:
    return _unseparated(_orbit_functions(lambdas[0].rs, lambdas), m)


def _require_separated(funcs: Sequence[OrbitFunction], m: int) -> None:
    pair = _unseparated(funcs, m)
    if pair is not None:
        raise SeparationFailure(
            f"order {m} does not separate {pair[0].coords} and {pair[1].coords}", pair=pair)


def separates(lam: Weight, mu: Weight, m: int) -> bool:
    """Whether the order-``m`` lattice distinguishes the two orbits: no
    pair of distinct orbit points is congruent coordinate-wise mod m."""
    return _first_unseparated([lam, mu], _order(m)) is None


def minimal_separating_m(lambdas: Sequence[Weight]) -> int:
    """Smallest lattice order separating every pair (including each
    weight against itself): the least ``m`` dividing no content."""
    if not lambdas:
        raise DomainError("need at least one weight")
    found = set().union(*_contents(_orbit_functions(lambdas[0].rs, lambdas)).values())
    return next(m for m in range(1, max(found, default=0) + 2) if all(c % m for c in found))


def tm_scalar_product(lam: Weight, mu: Weight, m: int, cap: int = 10**7) -> Cyc:
    """Exact scalar product ``sum over T_m of phi_lam . conj(phi_mu)``:
    ``m**rank |O(lam)|`` times the number of ``nu`` in ``O(mu)`` congruent
    to ``lam`` mod ``m``.  ``cap`` bounds ``m**rank``, the lattice the sum
    is defined over."""
    m = _order(m)
    for weight in (lam, mu):
        _check_weight(lam.rs, weight)
    size, orbit = orbit_size(lam), _scaled_orbit(mu)[1]  # integral: d = 1
    points = m**lam.rs.rank
    if points > cap:
        raise CapExceeded(f"lattice would have {points} points")
    a = tuple(map(int, lam.coords))
    congruent = sum(all((x - y) % m == 0 for x, y in zip(a, nu)) for nu in orbit)
    return Cyc.from_rational(m, points * size * congruent)


def finite_forward(
    f: Callable[[Point], object],
    lambdas: Sequence[Weight],
    m: int,
    cap: int = 10**7,
) -> list[SpectrumEntry]:
    """Expansion coefficients of ``f`` over the order-``m`` lattice.

    ``f`` is read as W-invariant: called once on each point of ``T_m``
    in the fundamental domain, in coordinate order, weighted by its
    torus orbit count (:func:`~weylorbits.affine.orbit_count`).  ``cap``
    bounds the grid points, not ``m**rank``.  Int, Fraction and
    :class:`Cyc` values keep the sum exact, others make it complex.
    Raises :class:`SeparationFailure` when ``m`` does not separate two weights.
    """
    if not lambdas:
        raise DomainError("need at least one weight")
    m, rs = _order(m), lambdas[0].rs
    funcs = _orbit_functions(rs, lambdas)
    _require_separated(funcs, m)
    pts = torsion_grid(rs, m, cap)
    values = [f(x) for x, _ in pts]
    exact = all(isinstance(v, (int, Fraction, Cyc)) and not isinstance(v, bool) for v in values)
    values = values if exact else [complex(v) for v in values]
    entries = []
    for func in funcs:
        acc = Cyc.zero(m) if exact else complex(0)
        for (x, count), v in zip(pts, values):
            phi_bar = (eval_exact_cyc(func, x, modulus=m).conj() if exact
                       else eval_fn(func, x).conjugate())
            acc = acc + count * v * phi_bar
        size = m**rs.rank * func.orbit.size
        coeff = acc * Fraction(1, size) if exact else acc / size
        if exact and coeff.is_rational():
            coeff = coeff.as_rational()
        entries.append(SpectrumEntry(func.lam, coeff))
    return _sorted_spectrum(entries)


def synthesize_spectrum(spectrum: Sequence[SpectrumEntry], m: int | None = None):
    """Callable on exact points summing the spectrum.

    With ``m`` given and rational coefficients the result is an exact
    cyclotomic value; otherwise complex.
    """
    m = None if m is None else _order(m)
    terms = [(e, orbit_function(e.weight)) for e in spectrum]
    rational = all(isinstance(e.coeff, (int, Fraction)) for e in spectrum)

    def f(x: Point):
        if m is not None and x.exact and rational:
            total = Cyc.zero(m)
            for e, func in terms:
                val = eval_exact_cyc(func, x, modulus=m)
                total = total + val * Fraction(e.coeff)
            return total
        return sum((e.coeff_complex() * eval_fn(func, x) for e, func in terms), complex(0))

    return f


# ---------------------------------------------------------------------------
# Plain multidimensional finite Fourier transform.

def finite_fourier(values, inverse: bool = False) -> np.ndarray:
    """Unitary finite Fourier transform with 1-based index convention.

    All axes must share one length N; the kernel is
    ``exp(+-2 pi i (j+1)(k+1) / N) / sqrt(N)`` on 0-based array indices.
    """
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 0:
        raise DomainError("values must have at least one axis")
    n = arr.shape[0]
    if any(s != n for s in arr.shape):
        raise DomainError("all axes must have equal length")
    idx = np.arange(1, n + 1)
    sign = -1 if inverse else 1
    kernel = np.exp(sign * 2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)
    out = arr
    for axis in range(arr.ndim):
        out = np.tensordot(kernel, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out
