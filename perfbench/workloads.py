"""The benchmark workloads and their jobs.

A workload is an endless stream of cycles. A cycle is a fixed list of
jobs; the seed draws only nonzero coordinate values, spectra, random
points and the order in which a cycle visits its levels or lattice
orders. Orbit sizes, pair counts, product classes and the multiset of
levels and orders are the same in every cycle and for every seed, so a
cycle costs about the same whatever the seed, and the per-layer counts
of one cycle do not depend on it (``selftest.py`` checks this).

Each job calls the public API or the in-process CLI through the tracer,
which puts a span around every call into a ``weylorbits`` module. Each
job has a correctness check against an independent reference, run
outside the timed region, and a digest of its exact outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import product as iproduct
from typing import Callable

import numpy as np

import weylorbits as w
from weylorbits import cli


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    kind: str
    key: tuple  # (kind, type, level or m, inputs): equal keys mean a repeat
    run: Callable  # run(tracer) -> output, the timed part
    check: Callable  # check(output) -> error against tolerance (0.0 if exact)
    digest: Callable  # digest(output) -> str of the exact outputs


def _text(coords) -> str:
    return ",".join(str(c) for c in coords)


def _interleave(*groups):
    """Round-robin over the groups, so job kinds alternate within a cycle."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# -- calls into the layers ------------------------------------------------------

def _orbit(tr, lam):
    orb = tr.call("weyl.orbit_s", w.orbit, lam)
    tr.count("weyl.orbit_calls")
    tr.count("weyl.orbit_points", len(orb.points))
    return orb


def _cli(tr, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.s", cli.main, argv)
    if code != 0:
        raise RuntimeError(f"weylorbits {' '.join(argv)} exited with {code}")
    text = buf.getvalue()
    tr.count("cli.calls")
    tr.count("cli.bytes_out", len(text.encode()))
    return text


def _cli_job(argv, check, digest=str) -> Job:
    kind = f"cli_{argv[0]}"
    return Job(kind, (kind, *argv), lambda tr: _cli(tr, argv), check, digest)


def _rule(tr, rs, level, sizes):
    """Build (or fetch) the quadrature rule; count nodes and node terms."""
    rule = tr.call("transform.build_s", w.build_quadrature, rs, level)
    nodes = len(rule.weights)
    tr.count("transform.quad_nodes", nodes)
    tr.count("transform.node_terms", nodes * sizes)
    # One complex128 value per node and orbit point: computed, not measured.
    tr.count("transform.bytes_computed", 16 * nodes * sizes)
    return rule


def _hermitian_sum(a_vals, b_vals, m):
    acc = w.Cyc.zero(m)
    for a, b in zip(a_vals, b_vals):
        acc = acc + a * b.conj()
    return acc


# -- references -----------------------------------------------------------------

def _check_orbit(lam, orb) -> float:
    pts = [p.coords for p in orb.points]
    size = w.orbit_size(lam)
    expect(orb.size == size == len(pts) == len(set(pts)), "orbit size")
    expect(pts[0] == lam.coords, "orbit starts at the dominant weight")
    rs = lam.rs
    if rs.series in "ABCD":
        got = {w.to_orthogonal(p) for p in orb.points}
        want = w.orthogonal_orbit(rs.series, w.to_orthogonal(lam))
        expect(got == want, "orbit differs from orthogonal_orbit")
    else:
        # Contains lam, closed under the simple reflections and of the
        # size |W|/|W_lam|: that is the orbit.
        ints = [tuple(int(c) for c in p) for p in pts]
        seen = set(ints)
        expect(
            all(_reflect(p, i, rs.cartan) in seen for p in ints for i in range(rs.rank)),
            "orbit not closed under reflections",
        )
    return 0.0


def _reflect(coords: tuple, i: int, cartan) -> tuple:
    """Simple reflection r_{i+1} of an integral weight, in plain integers."""
    a = coords[i]
    return tuple(c - a * int(r) for c, r in zip(coords, cartan[i])) if a else coords


def _orbit_sum_json(total) -> list:
    return [(tuple(wt.coords), m) for wt, m in total.terms]


def _cli_terms(text) -> list:
    return [
        (tuple(F(c) for c in t["lambda"]), t["mult"])
        for t in json.loads(text)["terms"]
    ]


def _grid_points(rs, max_level) -> int:
    """Grid points the catalog scans: level-M points of F for M <= max_level."""
    total = 0
    for level in range(1, max_level + 1):
        # solutions of s_0 + sum marks_i s_i = level in non-negative integers
        ways = [1] + [0] * level
        for mark in rs.marks:
            for v in range(mark, level + 1):
                ways[v] += ways[v - mark]
        total += sum(ways)
    return total


class Workload:
    name = ""
    inputs = ""  # stated input sizes per cycle
    systems: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.rs = {n: w.root_system(n) for n in self.systems}
        self.prepare()
        self.first_cycle = self.make_cycle()

    def prepare(self) -> None:
        """Build what every cycle reuses (projections, pools, lattices)."""

    def make_cycle(self) -> list[Job]:
        raise NotImplementedError

    def draw(self, name, pattern, lo, hi):
        """Weight with the given zero pattern and nonzero values drawn in [lo, hi]."""
        coords = [self.rng.randint(lo, hi) if p else 0 for p in pattern]
        return w.weight(self.rs[name], coords)

    def strict(self, name, lo, hi):
        return self.draw(name, (1,) * self.rs[name].rank, lo, hi)


# -- combinatorics --------------------------------------------------------------

# dominant_representative batches per cycle. A batch of 20 costs about as
# much as the middle jobs of the exact cycle, so with 40 of them the median
# job latency falls inside this one cluster of like jobs, not in a sparse
# stretch between job kinds where the seed's draws would move it.
DOMINANT_JOBS, DOMINANT_BATCH = 40, 20

class CombinatoricsJobs(Workload):
    """Few large exact enumerations: orbits, products, branchings."""

    systems = ("A3", "A5", "B3", "B4", "C3", "C4", "C5", "D5", "E8", "F4", "G2")
    inputs = (
        "per cycle of 64 jobs: orbits of strictly dominant A5, B4, D5, F4 and"
        " c*omega7 of E8 (720, 384, 1920, 1152, 2160 points); brute products"
        " A3, B3, G2 strict x strict and F4 omega1*a x omega4*b (576, 2304,"
        " 144, 576 pairs); 4 auto products, 3 of them in a closed-form class"
        " (288, 96, 288, 384 pairs); branchings C5->A2xC2, A5->A2xA2, B4->B3,"
        " C4->A1xC2 (1920 points four times, 720, 384, 384); 8 G2 long-root"
        " branchings to A2 (12 points each); 40 batches of 20 dominant representatives of"
        " random integral E8 weights; CLI orbit B4, product G2, branch"
        " C4->A1xC2 in JSON"
    )

    def prepare(self):
        self.proj = {
            p: w.builtin_projection(p)
            for p in ("C5->A2xC2", "A5->A2xA2", "B4->B3", "C4->A1xC2")
        }
        g2 = self.rs["G2"]
        # alpha_1 and alpha_1 + 3 alpha_2, the long simple roots of an A2
        self.g2_long = [w.weight(g2, (2, -3)), w.weight(g2, (-1, 3))]

    def make_cycle(self):
        s = self.strict
        orbits = [self.orbit_job(s(n, 1, 3)) for n in ("A5", "B4", "D5", "F4")]
        orbits.append(self.orbit_job(self.draw("E8", (0,) * 6 + (1, 0), 1, 4)))
        brutes = [
            self.product_job(s(n, 1, 2), s(n, 1, 2), "brute") for n in ("A3", "B3", "G2")
        ]
        brutes.append(self.product_job(
            self.draw("F4", (1, 0, 0, 0), 1, 2), self.draw("F4", (0, 0, 0, 1), 1, 2), "brute"
        ))
        # Value ranges chosen so the closed-form class never depends on the
        # draw: StrictAll, DominantAll, SeparatedGeneric, General.
        autos = [
            self.product_job(w.weight(self.rs["B3"], (1, 0, 0)), s("B3", 3, 5), "auto"),
            self.product_job(
                w.weight(self.rs["A3"], (1, 0, 0)), self.draw("A3", (0, 1, 1), 1, 3)
                + w.weight(self.rs["A3"], (1, 0, 0)), "auto"
            ),
            self.product_job(
                self.draw("B3", (1, 0, 0), 1, 2),
                self.draw("B3", (1, 1, 0), 3, 4) + w.weight(self.rs["B3"], (0, 0, 1)),
                "auto",
            ),
            self.product_job(
                w.weight(self.rs["C3"], (0, 0, 1)),
                self.draw("C3", (0, 1, 1), 1, 2) + w.weight(self.rs["C3"], (1, 0, 0)),
                "auto",
            ),
        ]
        # C5->A2xC2 is one of the longest jobs; four a cycle, with the three
        # C3 catalogs, keep the ten jobs beyond the tail percentile among the
        # longest kinds however many cycles a run fits.
        branches = [
            self.branch_job("C5->A2xC2", self.draw("C5", (1, 1, 1, 1, 0), 1, 2)) for _ in range(4)
        ]
        branches += [
            self.branch_job("A5->A2xA2", s("A5", 1, 2)),
            self.branch_job("B4->B3", s("B4", 1, 3)),
            self.branch_job("C4->A1xC2", s("C4", 1, 3)),
            self.equal_rank_job([s("G2", 1, 4) for _ in range(8)]),
        ]
        dominant = [self.dominant_job() for _ in range(DOMINANT_JOBS)]
        clis = [
            self.cli_orbit_job(s("B4", 1, 3)),
            self.cli_product_job(s("G2", 1, 2), s("G2", 1, 2)),
            self.cli_branch_job("C4->A1xC2", s("C4", 1, 3)),
        ]
        return _interleave(orbits, brutes, branches, autos, dominant, clis)

    def orbit_job(self, lam):
        return Job(
            "orbit", ("orbit", lam.rs.name, None, lam.coords),
            run=lambda tr: _orbit(tr, lam),
            check=lambda orb: _check_orbit(lam, orb),
            digest=lambda orb: repr([p.coords for p in orb.points]),
        )

    def product_job(self, lam, mu, method):
        pairs = w.orbit_size(lam) * w.orbit_size(mu)
        closed = method == "auto" and w.product_fastpath_classify(lam, mu) != "General"

        def run(tr):
            out = tr.call("orbit_algebra.product_s", w.product, lam, mu, method=method)
            tr.count("orbit_algebra.product_calls")
            tr.count("orbit_algebra.product_pairs", pairs)
            if method == "auto":
                tr.count("orbit_algebra.auto_products")
                tr.count("orbit_algebra.closed_form_products", int(closed))
            return out

        def check(out):
            expect(out.total_points() == pairs, "product loses point pairs")
            expect(all(w.is_dominant(t) for t, _ in out.terms), "non-dominant term")
            if method == "auto":
                expect(out == w.product(lam, mu, method="brute"), "auto != brute")
            return 0.0

        return Job(
            f"product_{method}", (f"product_{method}", lam.rs.name, None, (lam.coords, mu.coords)),
            run, check, digest=lambda out: repr(_orbit_sum_json(out)),
        )

    def branch_job(self, pair, lam):
        proj = self.proj[pair]
        size = w.orbit_size(lam)

        def run(tr):
            out = tr.call("orbit_algebra.branch_s", w.branch_restrict, lam, proj)
            tr.count("orbit_algebra.branch_points", size)
            return out

        def check(out):
            expect(out.rs == proj.target, "branching lands in the wrong system")
            expect(out.total_points() == size, "branching loses points")
            return 0.0

        return Job(
            "branch", ("branch", pair, None, lam.coords),
            run, check, digest=lambda out: repr(_orbit_sum_json(out)),
        )

    def equal_rank_job(self, lams):
        sizes = [w.orbit_size(lam) for lam in lams]

        def run(tr):
            outs = [
                tr.call("orbit_algebra.branch_s", w.branch_equal_rank, lam, self.g2_long)
                for lam in lams
            ]
            tr.count("orbit_algebra.branch_points", sum(sizes))
            return outs

        def check(outs):
            for out, size in zip(outs, sizes):
                expect(out.rs.name == "A2", "G2 long roots do not give A2")
                expect(out.total_points() == size, "equal-rank branching loses points")
            return 0.0

        return Job(
            "branch_equal_rank", ("branch_equal_rank", "G2", None, tuple(l.coords for l in lams)),
            run, check, digest=lambda outs: repr([_orbit_sum_json(o) for o in outs]),
        )

    def dominant_job(self):
        e8 = self.rs["E8"]
        lams = [
            w.weight(e8, [self.rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(8)])
            for _ in range(DOMINANT_BATCH)
        ]

        def run(tr):
            out = []
            for lam in lams:
                res = tr.call("weyl.dominant_s", w.dominant_representative, lam)
                tr.count("weyl.dominant_calls")
                tr.count("weyl.reflections", len(res[2]))
                out.append(res)
            return out

        def check(out):
            for lam, (mu, parity, word) in zip(lams, out):
                expect(w.is_dominant(mu), "representative not dominant")
                expect(parity == (-1) ** len(word), "parity disagrees with word")
                cur = tuple(int(c) for c in lam.coords)
                for i in word:
                    cur = _reflect(cur, i - 1, e8.cartan)
                expect(cur == mu.coords, "word does not reach the representative")
            return 0.0

        return Job(
            "dominant", ("dominant", "E8", None, tuple(l.coords for l in lams)),
            run, check,
            digest=lambda out: repr([(mu.coords, p, word) for mu, p, word in out]),
        )

    def cli_orbit_job(self, lam):
        argv = ["orbit", "--type", lam.rs.name, "--lambda", _text(lam.coords), "--format", "json"]

        def check(text):
            data = json.loads(text)
            orb = w.orbit(lam)
            expect(data["size"] == orb.size, "CLI orbit size")
            points = [tuple(F(c) for c in p) for p in data["points"]]
            expect(points == [p.coords for p in orb.points], "CLI orbit points")
            return 0.0

        return _cli_job(argv, check)

    def cli_product_job(self, lam, mu):
        argv = ["product", "--type", lam.rs.name, "--lambda", _text(lam.coords),
                "--mu", _text(mu.coords), "--format", "json"]

        def check(text):
            expect(_cli_terms(text) == _orbit_sum_json(w.product(lam, mu)), "CLI product")
            return 0.0

        return _cli_job(argv, check)

    def cli_branch_job(self, pair, lam):
        src, tgt = pair.split("->")
        argv = ["branch", "--type", src, "--target", tgt, "--lambda", _text(lam.coords),
                "--format", "json"]

        def check(text):
            want = _orbit_sum_json(w.branch_restrict(lam, self.proj[pair]))
            expect(_cli_terms(text) == want, "CLI branch")
            return 0.0

        return _cli_job(argv, check)


# -- finite_exact ---------------------------------------------------------------

# Every cycle visits each lattice order equally often; the type that goes
# with an order is fixed, so a cycle's cost does not depend on the seed.
FORWARD_M = {"A2": (8, 11, 14), "C2": (9, 12, 15), "G2": (10, 13, 16)}
TM_M = {"A2": (4, 7), "C2": (5, 8), "G2": (6,)}
CYC_M = {"A2": 6, "C2": 8, "G2": 7}
FORWARD_SPECTRA = 3  # round trips per (type, m) in a cycle
CATALOGS = {"G2": 24, "B3": 12, "C3": 16}
# The C3 catalog is one of the longest jobs; see the C5 branchings.
CATALOG_RUNS = {"G2": 1, "B3": 1, "C3": 3}
REDUCE_POINTS = 150
TABLE_DRAWS = 6


class FiniteExactJobs(Workload):
    """Many small exact calls: finite transforms, Cyc sums, affine reduction."""

    systems = ("A2", "C2", "G2", "A3", "B3", "C3", "F4")
    inputs = (
        "per cycle of 51 jobs: 27 finite_forward round trips of 3 separated"
        " weights (A2, C2, G2; m = 8..16, each 3 times); 5 tm_scalar_product"
        " sweeps over the separated pairs of the pool {0,1,2}^2 (m = 4..8, each"
        " once); 3 hand-accumulated Cyc sums over T_m (m = 6, 8, 7); 6 orbit"
        " tables (every zero pattern of A2, C2, G2, A3, B3, C3, 6 draws each);"
        " 3 batches of 150 rational points with denominator 40 reduced in C3,"
        " G2, F4; rational_elements G2 <= 24, B3 <= 12, C3 <= 16 (three times); CLI"
        " ftransform A2 and rational G2 <= 12"
    )

    def prepare(self):
        self.pool = {
            n: [w.weight(self.rs[n], c) for c in iproduct(range(3), repeat=2)] for n in TM_M
        }
        self.tm_pairs = {
            (n, m): [
                (a, b)
                for i, a in enumerate(self.pool[n])
                for b in self.pool[n][i:]
                if w.separates(a, b, m)
            ]
            for n, ms in TM_M.items()
            for m in ms
        }
        self.lattice = {n: w.lattice_tm(self.rs[n], m) for n, m in CYC_M.items()}
        self.grid_points = {n: _grid_points(self.rs[n], lv) for n, lv in CATALOGS.items()}

    def separated(self, name, m, patterns, lo, hi):
        """Weights with the given zero patterns, redrawn until ``m`` separates them."""
        while True:
            lams = [self.draw(name, p, lo, hi) for p in patterns]
            if all(w.separates(a, b, m) for i, a in enumerate(lams) for b in lams[i:]):
                return lams

    def spectrum(self, lams):
        return [
            w.SpectrumEntry(lam, F(self.rng.choice((-6, -3, -1, 1, 2, 5)), self.rng.randint(1, 4)))
            for lam in lams
        ]

    def make_cycle(self):
        forward_cases = [(n, m) for n, ms in FORWARD_M.items() for m in ms] * FORWARD_SPECTRA
        self.rng.shuffle(forward_cases)
        forwards = [self.forward_job(n, m) for n, m in forward_cases]
        tm_cases = [(n, m) for n, ms in TM_M.items() for m in ms]
        self.rng.shuffle(tm_cases)
        tms = [self.tm_job(n, m) for n, m in tm_cases]
        cycs = [self.cyc_job(n, m) for n, m in CYC_M.items()]
        tables = [self.table_job(n) for n in ("A2", "C2", "G2", "A3", "B3", "C3")]
        reduces = [self.reduce_job(n) for n in ("C3", "G2", "F4")]
        catalogs = [
            self.catalog_job(n, lv) for n, lv in CATALOGS.items() for _ in range(CATALOG_RUNS[n])
        ]
        clis = [self.cli_ftransform_job(), self.cli_rational_job("G2", 12)]
        return _interleave(forwards, tables, tms, cycs, reduces, catalogs, clis)

    def forward_job(self, name, m):
        lams = self.separated(name, m, [(1, 0), (0, 1), (1, 1)], 1, 2)
        spec = self.spectrum(lams)
        want = {e.weight.coords: e.coeff for e in spec}

        def roundtrip():
            return w.finite_forward(w.synthesize_spectrum(spec, m=m), lams, m)

        def check(out):
            got = {e.weight.coords: e.coeff for e in out}
            expect(got == want, "finite_forward does not return the spectrum")
            expect(all(type(c) is F for c in got.values()), "coefficients not Fractions")
            return 0.0

        return Job(
            "finite_forward", ("finite_forward", name, m, tuple(want.items())),
            lambda tr: tr.call("transform.finite_forward_s", roundtrip), check,
            digest=lambda out: repr([(e.weight.coords, e.coeff) for e in out]),
        )

    def tm_job(self, name, m):
        pairs = self.tm_pairs[(name, m)]
        n = self.rs[name].rank

        def run(tr):
            tr.count("transform.tm_pairs", len(pairs))
            return [tr.call("transform.tm_s", w.tm_scalar_product, a, b, m) for a, b in pairs]

        def check(out):
            for (a, b), val in zip(pairs, out):
                want = m**n * w.orbit_size(a) if a.coords == b.coords else 0
                expect(val == want, f"T_{m} scalar product of {a.coords}, {b.coords}")
            return 0.0

        return Job(
            "tm_scalar_product", ("tm_scalar_product", name, m, "pool"),
            run, check, digest=lambda out: repr([v.reduced() for v in out]),
        )

    def cyc_job(self, name, m):
        lam, mu = self.separated(name, m, [(1, 1), (1, 0)], 1, 2)
        lattice = self.lattice[name]
        n = self.rs[name].rank

        def run(tr):
            vals = []
            for wt in (lam, mu):
                f = w.OrbitFunction(wt, False, _orbit(tr, wt))
                vals.append(
                    [tr.call("orbit_fn.exact_s", w.eval_exact_cyc, f, x, m) for x in lattice]
                )
            tr.count("orbit_fn.exact_evals", 2 * len(lattice))
            norm = tr.call("cyclotomic.s", _hermitian_sum, vals[0], vals[0], m)
            cross = tr.call("cyclotomic.s", _hermitian_sum, vals[0], vals[1], m)
            # conj, multiply and add per lattice point, for two sums
            tr.count("cyclotomic.ops", 6 * len(lattice))
            return norm, cross

        def check(out):
            norm, cross = out
            expect(norm == m**n * w.orbit_size(lam), "norm of phi_lambda on T_m")
            expect(cross == 0, "orbit functions not orthogonal on T_m")
            return 0.0

        return Job(
            "cyc_sum", ("cyc_sum", name, m, (lam.coords, mu.coords)),
            run, check, digest=lambda out: repr([v.reduced() for v in out]),
        )

    def table_job(self, name):
        rank = self.rs[name].rank
        lams = [
            self.draw(name, p, 1, 4)
            for p in iproduct((0, 1), repeat=rank) if any(p)
            for _ in range(TABLE_DRAWS)
        ]

        def check(orbs):
            for lam, orb in zip(lams, orbs):
                _check_orbit(lam, orb)
            return 0.0

        return Job(
            "orbit_table", ("orbit_table", name, None, tuple(l.coords for l in lams)),
            lambda tr: [_orbit(tr, lam) for lam in lams], check,
            digest=lambda orbs: repr([[p.coords for p in o.points] for o in orbs]),
        )

    def reduce_job(self, name):
        rs = self.rs[name]
        pts = [
            w.point(rs, [F(self.rng.randint(-120, 120), 40) for _ in range(rs.rank)])
            for _ in range(REDUCE_POINTS)
        ]

        def run(tr):
            out = [tr.call("affine.reduce_s", w.reduce_to_fundamental, x) for x in pts]
            tr.count("affine.reduce_calls", len(out))
            tr.count("affine.reduce_steps", sum(steps for _, steps in out))
            return out

        def check(out):
            for red, _ in out:
                expect(w.in_fundamental_domain(red), "reduced point outside F")
                expect(w.reduce_to_fundamental(red)[0].coords == red.coords,
                       "reduction is not idempotent")
            return 0.0

        return Job(
            "reduce", ("reduce", name, 40, tuple(p.coords for p in pts)),
            run, check, digest=lambda out: repr([(r.coords, s) for r, s in out]),
        )

    def catalog_job(self, name, level):
        rs = self.rs[name]

        def run(tr):
            out = tr.call("affine.rational_s", w.rational_elements, rs, level)
            tr.count("affine.rational_grid_points", self.grid_points[name])
            return out

        def check(out):
            keys = [(e.adjoint_order, e.kac) for e in out]
            expect(keys == sorted(keys), "catalog not sorted by (order, kac)")
            for e in out:
                expect(math.gcd(*e.kac) == 1, "kac labels not coprime")
                expect(sum(q * s for q, s in zip((1,) + tuple(rs.marks), e.kac)) == e.adjoint_order,
                       "kac labels do not sum to the order")
                expect(e.fractions == tuple(F(s, e.adjoint_order) for s in e.kac[1:]),
                       "fractions disagree with kac labels")
                expect(w.element_orders(e.point) == (e.adjoint_order, e.full_order),
                       "orders disagree with the point")
            for e in (out[0], out[len(out) // 2], out[-1]):
                expect(w.is_rational_element(e.point), "listed element is not rational")
            return 0.0

        return Job(
            "rational_elements", ("rational_elements", name, level, ()),
            run, check,
            digest=lambda out: repr([(e.adjoint_order, e.full_order, e.kac) for e in out]),
        )

    def cli_ftransform_job(self):
        m = 8
        lams = self.separated("A2", m, [(1, 0), (0, 1), (1, 1)], 1, 2)
        spec = self.spectrum(lams)
        argv = ["ftransform", "--type", "A2", "--m", str(m),
                "--spectrum", ";".join(f"{_text(e.weight.coords)}:{e.coeff}" for e in spec),
                "--lambda-set", ";".join(_text(l.coords) for l in lams)]

        def check(text):
            got = {}
            for row in text.split():
                coords, coeff, imag = row.split(";")
                expect(imag == "0", "CLI ftransform coefficient not exact")
                got[tuple(F(c) for c in coords.split(","))] = F(coeff)
            expect(got == {e.weight.coords: e.coeff for e in spec}, "CLI ftransform")
            return 0.0

        return _cli_job(argv, check)

    def cli_rational_job(self, name, level):
        argv = ["rational", "--type", name, "--max-level", str(level)]

        def check(text):
            got = []
            for row in text.split():
                m_ord, n_ord, kac, fracs = row.split(";")
                got.append((int(m_ord), int(n_ord), tuple(int(s) for s in kac[1:-1].split(",")),
                            tuple(F(f) for f in fracs[1:-1].split(","))))
            want = [(e.adjoint_order, e.full_order, e.kac, e.fractions)
                    for e in w.rational_elements(self.rs[name], level)]
            expect(got == want, "CLI rational")
            return 0.0

        return _cli_job(argv, check)


# -- quadrature -----------------------------------------------------------------

# Each cycle visits every level once; the type that goes with a level is
# fixed, so the rules a run builds and their sizes do not depend on the seed.
RANK2_LEVELS = {L: ("A2", "C2", "G2")[L % 3] for L in range(48, 65)}
RANK3_LEVELS = {L: ("C3", "A3", "B3")[L % 3] for L in range(10, 17)}
GRAM_TOL = {2: 1e-6, 3: 1e-4}  # acceptance criterion 7
FORWARD_TYPE, FORWARD_LEVEL = "C2", 40
FORWARD_WEIGHTS = ((1, 0), (0, 1), (1, 1), (2, 0))
CLI_TYPE, CLI_LEVEL = "A2", 24
EVAL_POINTS = 20_000


class Quadrature(Workload):
    name = "quadrature"
    systems = ("A2", "C2", "G2", "A3", "B3", "C3")
    inputs = (
        "per cycle of 34 jobs: 17 orthogonality_gram on rank 2 (levels 48..64,"
        " each once; 3 weights; 57.6k-102.4k nodes) and 7 on A3, B3, C3 (levels"
        " 10..16, each once; 2 weights; 125k-512k nodes); 3 forward_transform"
        " and 3 plancherel of fresh 4-term spectra on C2 level 40 (40k nodes);"
        " 3 eval_many of B3, A3, G2 strict orbits at 20k random points; CLI"
        " transform A2 level 24"
    )

    def prepare(self):
        rs = self.rs[FORWARD_TYPE]
        self.forward_lams = [w.weight(rs, c) for c in FORWARD_WEIGHTS]

    def make_cycle(self):
        r2 = list(RANK2_LEVELS)
        r3 = list(RANK3_LEVELS)
        self.rng.shuffle(r2)
        self.rng.shuffle(r3)
        rank2 = [self.gram_job(RANK2_LEVELS[L], L, [(1, 0), (0, 1), (1, 1)], 3) for L in r2]
        rank3 = [self.gram_job(RANK3_LEVELS[L], L, [(1, 0, 0), (0, 0, 1)], 2) for L in r3]
        others = []
        for name in ("B3", "A3", "G2"):
            others += [self.forward_job(), self.plancherel_job(), self.eval_job(name)]
        others.append(self.cli_transform_job())
        return _interleave(rank2, rank3, others)

    def gram_job(self, name, level, patterns, hi):
        rs = self.rs[name]
        lams = [self.draw(name, p, 1, hi) for p in patterns]
        sizes = [w.orbit_size(lam) for lam in lams]

        def run(tr):
            rule = _rule(tr, rs, level, sum(sizes))
            gram = tr.call("transform.gram_s", w.orthogonality_gram, rs, lams, level)
            return len(rule.weights), gram

        def check(out):
            err = float(np.max(np.abs(out[1] - np.diag(np.array(sizes, dtype=float)))))
            expect(err < GRAM_TOL[rs.rank], f"Gram error {err:.3g} on {name} level {level}")
            return err

        return Job(
            "gram", ("gram", name, level, tuple(l.coords for l in lams)),
            run, check, digest=lambda out: repr((out[0], sizes)),
        )

    def fresh_spectrum(self):
        return [
            w.SpectrumEntry(lam, complex(self.rng.uniform(-2, 2), self.rng.uniform(-2, 2)))
            for lam in self.forward_lams
        ]

    def forward_job(self):
        rs = self.rs[FORWARD_TYPE]
        spec = self.fresh_spectrum()
        sizes = sum(w.orbit_size(lam) for lam in self.forward_lams)

        def run(tr):
            _rule(tr, rs, FORWARD_LEVEL, 2 * sizes)
            return tr.call("transform.forward_s", w.forward_transform,
                           rs, w.synthesize(spec), self.forward_lams, FORWARD_LEVEL)

        def check(out):
            want = {e.weight.coords: e.coeff for e in spec}
            err = max(abs(e.coeff - want[e.weight.coords]) for e in out)
            expect(len(out) == len(want) and err < GRAM_TOL[2], f"forward error {err:.3g}")
            return err

        return Job(
            "forward_transform", ("forward_transform", FORWARD_TYPE, FORWARD_LEVEL,
                                  tuple((e.weight.coords, e.coeff) for e in spec)),
            run, check, digest=lambda out: repr([e.weight.coords for e in out]),
        )

    def plancherel_job(self):
        rs = self.rs[FORWARD_TYPE]
        spec = self.fresh_spectrum()
        sizes = sum(w.orbit_size(lam) for lam in self.forward_lams)

        def run(tr):
            _rule(tr, rs, FORWARD_LEVEL, sizes)
            return tr.call("transform.forward_s", w.plancherel,
                           rs, spec, w.synthesize(spec), FORWARD_LEVEL)

        def check(out):
            err = abs(out[0] - out[1])
            expect(err < GRAM_TOL[2], f"Plancherel error {err:.3g}")
            return err

        return Job(
            "plancherel", ("plancherel", FORWARD_TYPE, FORWARD_LEVEL,
                           tuple((e.weight.coords, e.coeff) for e in spec)),
            run, check, digest=lambda out: "",
        )

    def eval_job(self, name):
        rs = self.rs[name]
        f = w.orbit_function(self.strict(name, 1, 3))
        pts = self.np_rng.random((EVAL_POINTS, rs.rank))

        def run(tr):
            vals = tr.call("orbit_fn.float_s", w.eval_many, f, pts)
            tr.count("orbit_fn.float_terms", len(pts) * len(f.orbit.points))
            return vals

        def check(vals):
            err = 0.0
            for i in range(0, EVAL_POINTS, EVAL_POINTS // 8):
                ref = w.eval_fn(f, w.Point(rs, tuple(float(c) for c in pts[i]), exact=False))
                err = max(err, abs(vals[i] - ref))
            expect(err < 1e-9, f"eval_many differs from eval_fn by {err:.3g}")
            return 0.0

        return Job(
            "eval_many", ("eval_many", name, None, (f.lam.coords, pts.tobytes())),
            run, check, digest=lambda vals: repr([p.coords for p in f.orbit.points]),
        )

    def cli_transform_job(self):
        rs = self.rs[CLI_TYPE]
        lams = [w.weight(rs, c) for c in ((1, 0), (0, 1), (1, 1))]
        spec = [w.SpectrumEntry(l, F(self.rng.choice((-7, -3, -1, 1, 2, 5)), 4)) for l in lams]
        argv = ["transform", "--type", CLI_TYPE, "--level", str(CLI_LEVEL),
                "--spectrum", ";".join(f"{_text(e.weight.coords)}:{e.coeff}" for e in spec),
                "--lambda-set", ";".join(_text(l.coords) for l in lams)]

        def check(text):
            want = {e.weight.coords: complex(e.coeff) for e in spec}
            lib = w.forward_transform(rs, w.synthesize(spec), lams, CLI_LEVEL)
            err = 0.0
            for row, e in zip(text.split(), lib):
                coords, re_, im_ = row.split(";")
                got = complex(float(re_), float(im_))
                key = tuple(F(c) for c in coords.split(","))
                expect(key == e.weight.coords, "CLI transform row order")
                expect(abs(got - e.coeff) < 1e-9, "CLI transform disagrees with the library")
                err = max(err, abs(got - want[key]))
            expect(len(text.split()) == len(lams) and err < GRAM_TOL[2], "CLI transform")
            return err

        return _cli_job(argv, check, digest=lambda text: "")


class Exact(CombinatoricsJobs, FiniteExactJobs):
    """Both exact job families, alternating in one cycle.

    Exact jobs vary more from run to run than the numpy-bound ones, so they
    share one workload, which gets the run time two workloads would have had.
    """

    name = "exact"
    systems = tuple(dict.fromkeys(CombinatoricsJobs.systems + FiniteExactJobs.systems))
    inputs = f"{CombinatoricsJobs.inputs}; and {FiniteExactJobs.inputs}"

    def prepare(self):
        CombinatoricsJobs.prepare(self)
        FiniteExactJobs.prepare(self)

    def make_cycle(self):
        return _interleave(CombinatoricsJobs.make_cycle(self), FiniteExactJobs.make_cycle(self))


WORKLOADS = {wl.name: wl for wl in (Exact, Quadrature)}
