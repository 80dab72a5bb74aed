"""Command-line interface.

Every subcommand prints to stdout (or ``--output``); the six that list
weights, orbit sums or points choose JSON or CSV with ``--format``.
Exit codes: 0 on success, 1 on usage errors, 2 on domain errors (the
error class name is printed to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .affine import (
    barycentric_point,
    grid_fm,
    interior_base_point,
    lattice_tm,
    rational_elements,
)
from .errors import DomainError, WeylOrbitsError
from .orbit_algebra import branch_restrict, builtin_projection, product
from .orbit_fn import (
    an_identity_suite,
    eval_fn,
    laplace_apply_fd,
    laplace_eigenvalue,
    orbit_function,
)
from .root_system import root_system
from .transform import (
    SpectrumEntry,
    finite_forward,
    forward_transform,
    synthesize,
    synthesize_spectrum,
)
from .weights import (
    Point,
    coord_str,
    parse_point,
    parse_weight,
)
from .weyl import orbit


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _coord_json(value):
    f = Fraction(value)
    return int(f) if f.denominator == 1 else coord_str(f)


def _coords_json(coords):
    return [_coord_json(c) for c in coords]


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _orbit_sum_lines(total, fmt: str) -> str:
    if fmt == "json":
        return _compact(
            {
                "terms": [
                    {"lambda": _coords_json(w.coords), "mult": m}
                    for w, m in total.terms
                ]
            }
        )
    rows = [
        ",".join(coord_str(c) for c in w.coords) + f";{m}" for w, m in total.terms
    ]
    return "\n".join(rows)


def _parse_spectrum(rs, text: str) -> list[SpectrumEntry]:
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords_part, _, coeff_part = chunk.rpartition(":")
        lam = parse_weight(rs, coords_part)
        try:
            coeff: object = Fraction(coeff_part)
        except (ValueError, ZeroDivisionError):
            try:
                coeff = complex(coeff_part)
            except ValueError:
                raise DomainError(
                    f"cannot read spectrum coefficient {coeff_part!r} in {chunk!r}"
                ) from None
        entries.append(SpectrumEntry(lam, coeff))
    return entries


def _spectrum_row(entry: SpectrumEntry) -> str:
    coords = ",".join(coord_str(c) for c in entry.weight.coords)
    if isinstance(entry.coeff, Fraction):
        return f"{coords};{coord_str(entry.coeff)};0"
    value = entry.coeff_complex()
    return f"{coords};{_fmt(value.real)};{_fmt(value.imag)}"


def _grid_fractions(gp) -> list[Fraction]:
    out = []
    pos = 0
    for f in gp.rs.factors:
        block = gp.kac[pos: pos + f.rank + 1]
        out.extend(Fraction(s, gp.level) for s in block[1:])
        pos += f.rank + 1
    return out


def _cmd_orbit(args) -> str:
    rs = root_system(args.type)
    orb = orbit(parse_weight(rs, args.lam), cap=args.cap)
    if args.format == "json":
        return _compact(
            {
                "type": rs.name,
                "lambda": _coords_json(orb.dominant.coords),
                "size": orb.size,
                "points": [_coords_json(w.coords) for w in orb.points],
            }
        )
    return "\n".join(",".join(coord_str(c) for c in w.coords) for w in orb.points)


def _cmd_product(args) -> str:
    rs = root_system(args.type)
    total = product(
        parse_weight(rs, args.lam),
        parse_weight(rs, args.mu),
        cap=args.cap,
        method=args.method,
    )
    return _orbit_sum_lines(total, args.format)


def _cmd_branch(args) -> str:
    proj = builtin_projection(f"{args.type}->{args.target}")
    total = branch_restrict(
        parse_weight(proj.source, args.lam), proj, cap=args.cap
    )
    return _orbit_sum_lines(total, args.format)


def _cmd_grid(args) -> str:
    rs = root_system(args.type)
    pts = grid_fm(rs, args.level, cap=args.cap)
    if args.format == "json":
        return _compact(
            {
                "level": args.level,
                "points": [
                    {
                        "kac": list(gp.kac),
                        "fractions": [coord_str(f) for f in _grid_fractions(gp)],
                    }
                    for gp in pts
                ],
            }
        )
    rows = []
    for gp in pts:
        kac = "[" + ",".join(str(s) for s in gp.kac) + "]"
        fracs = "(" + ",".join(coord_str(f) for f in _grid_fractions(gp)) + ")"
        rows.append(f"{kac};{fracs}")
    return "\n".join(rows)


def _cmd_tm(args) -> str:
    rs = root_system(args.type)
    pts = lattice_tm(rs, args.m, cap=args.cap)
    if args.format == "json":
        return _compact([[coord_str(c) for c in p.coords] for p in pts])
    return "\n".join(",".join(coord_str(c) for c in p.coords) for p in pts)


def _cmd_rational(args) -> str:
    rs = root_system(args.type)
    rows = rational_elements(rs, args.max_level, cap=args.cap)
    if args.format == "json":
        return _compact(
            [
                {
                    "M": r.adjoint_order,
                    "N": r.full_order,
                    "kac": list(r.kac),
                    "fractions": [coord_str(f) for f in r.fractions],
                }
                for r in rows
            ]
        )
    lines = []
    for r in rows:
        kac = "[" + ",".join(str(s) for s in r.kac) + "]"
        fracs = "(" + ",".join(coord_str(f) for f in r.fractions) + ")"
        lines.append(f"{r.adjoint_order};{r.full_order};{kac};{fracs}")
    return "\n".join(lines)


def _cmd_eval(args) -> str:
    rs = root_system(args.type)
    f = orbit_function(parse_weight(rs, args.lam), modified=args.modified, cap=args.cap)
    value = eval_fn(f, parse_point(rs, args.point))
    return f"{_fmt(value.real)};{_fmt(value.imag)}"


def _cmd_sample(args) -> str:
    rs = root_system(args.type)
    f = orbit_function(parse_weight(rs, args.lam), modified=args.modified, cap=args.cap)
    res = args.resolution
    rows = []

    def rec(remaining: int, slots: int, acc: list[int]):
        if slots == 1:
            acc.append(remaining)
            bary = [Fraction(i, res) for i in acc]
            value = eval_fn(f, barycentric_point(rs, bary))
            coords = ",".join(coord_str(b) for b in bary)
            rows.append(f"{coords};{_fmt(value.real)};{_fmt(value.imag)}")
            acc.pop()
            return
        for i in range(remaining + 1):
            acc.append(i)
            rec(remaining - i, slots - 1, acc)
            acc.pop()

    rec(res, rs.rank + 1, [])
    return "\n".join(rows)


def _cmd_transform(args) -> str:
    rs = root_system(args.type)
    spectrum = _parse_spectrum(rs, args.spectrum)
    lambdas = [parse_weight(rs, part) for part in args.lambda_set.split(";")]
    recovered = forward_transform(rs, synthesize(spectrum), lambdas, args.level)
    return "\n".join(_spectrum_row(e) for e in recovered)


def _cmd_ftransform(args) -> str:
    rs = root_system(args.type)
    spectrum = _parse_spectrum(rs, args.spectrum)
    lambdas = [parse_weight(rs, part) for part in args.lambda_set.split(";")]
    f = synthesize_spectrum(spectrum, m=args.m)
    recovered = finite_forward(f, lambdas, args.m, cap=args.cap)
    return "\n".join(_spectrum_row(e) for e in recovered)


def _cmd_laplace_check(args) -> str:
    rs = root_system(args.type)
    lam = parse_weight(rs, args.lam)
    x = (
        parse_point(rs, args.point)
        if args.point
        else interior_base_point(rs)
    )
    x = Point(rs, tuple(float(c) for c in x.coords), exact=False)
    f = orbit_function(lam, cap=args.cap)
    eig, _ = laplace_eigenvalue(lam)
    phi_val = eval_fn(f, x)
    fd_val = laplace_apply_fd(lambda p: eval_fn(f, p), x, h=args.h)
    estimate = (fd_val / phi_val).real if phi_val != 0 else float("nan")
    rel = abs(estimate - eig) / max(abs(eig), 1e-30)
    return f"{_fmt(eig)};{_fmt(estimate)};{_fmt(rel)}"


def _cmd_identities(args) -> str:
    rs = root_system(args.type)
    x = parse_point(rs, args.point) if args.point else interior_base_point(rs)
    results = an_identity_suite(rs.rank, args.s_max, x)
    return "\n".join(f"{name};{_fmt(res)}" for name, res in results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylorbits",
        description="Weyl-orbit combinatorics and orbit-function transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=None, cap=True):
        """``--type`` and ``--output``; ``--format`` (default ``fmt``) and
        ``--cap`` only where the subcommand reads them."""
        p.add_argument("--type", required=True, help="root-system name, e.g. C2 or A1xA1")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        p.add_argument("--output", help="write to this file instead of stdout")
        if cap:
            p.add_argument("--cap", type=_positive_int, default=10**7)

    p = sub.add_parser("orbit", help="enumerate a Weyl orbit")
    common(p, fmt="json")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("product", help="decompose a product of two orbits")
    common(p, fmt="json")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--method", choices=("auto", "brute"), default="auto")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("branch", help="branch an orbit to a subsystem")
    common(p, fmt="json")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(handler=_cmd_branch)

    p = sub.add_parser("grid", help="level grid of the fundamental domain")
    common(p, fmt="csv")
    p.add_argument("--level", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("tm", help="torsion lattice points")
    common(p, fmt="csv")
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_tm)

    p = sub.add_parser("rational", help="rational elements up to an adjoint order")
    common(p, fmt="csv")
    p.add_argument("--max-level", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_rational)

    p = sub.add_parser("eval", help="evaluate an orbit function at a point")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--modified", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sample", help="sample an orbit function on a barycentric mesh")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--resolution", type=_positive_int, required=True)
    p.add_argument("--modified", action="store_true")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("transform", help="recover coefficients by quadrature")
    common(p, cap=False)
    p.add_argument("--spectrum", required=True, help='e.g. "1,0:2;0,1:1/2"')
    p.add_argument("--lambda-set", required=True, help='e.g. "1,0;0,1;1,1"')
    p.add_argument("--level", type=_positive_int, default=16)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("ftransform", help="recover coefficients on a finite lattice")
    common(p)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--lambda-set", required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_ftransform)

    p = sub.add_parser("laplace-check", help="finite-difference eigenvalue check")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--point")
    p.add_argument("--h", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_laplace_check)

    p = sub.add_parser("identities", help="A-series symmetric-function identities")
    common(p, cap=False)
    p.add_argument("--s-max", type=_positive_int, default=4)
    p.add_argument("--point")
    p.set_defaults(handler=_cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = args.handler(args)
    except WeylOrbitsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
