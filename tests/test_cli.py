"""Command-line interface: output shapes, exit codes, golden rows."""

import ast
import json
import math
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylorbits as w
from weylorbits.cli import main
from weylorbits.orbit_fn import eval_fn, orbit_function


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_orbit_json(capsys):
    rc, out, err = run(capsys, "orbit", "--type", "A2", "--lambda", "1,0")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["type"] == "A2"
    assert doc["lambda"] == [1, 0]
    assert doc["size"] == 3
    assert sorted(map(tuple, doc["points"])) == [(-1, 1), (0, -1), (1, 0)]


def test_orbit_csv(capsys):
    rc, out, _ = run(capsys, "orbit", "--type", "A2", "--lambda", "1,0",
                     "--format", "csv")
    assert rc == 0
    assert sorted(out.strip().splitlines()) == ["-1,1", "0,-1", "1,0"]


def test_orbit_rejects_nondominant(capsys):
    rc, out, err = run(capsys, "orbit", "--type", "A2", "--lambda=-1,1")
    assert rc == 2 and out == ""
    assert err.startswith("DomainError:")


def test_product_json(capsys):
    rc, out, _ = run(capsys, "product", "--type", "A2",
                     "--lambda", "1,0", "--mu", "0,1")
    assert rc == 0
    terms = {tuple(t["lambda"]): t["mult"] for t in json.loads(out)["terms"]}
    assert terms == {(1, 1): 1, (0, 0): 3}


def test_product_csv_method(capsys):
    rc, out, _ = run(capsys, "product", "--type", "C2", "--lambda", "1,0",
                     "--mu", "1,0", "--format", "csv", "--method", "brute")
    assert rc == 0
    rows = dict(line.rsplit(";", 1) for line in out.strip().splitlines())
    assert rows == {"2,0": "1", "0,1": "2", "0,0": "4"} or rows == {
        "0,0": "4", "0,1": "2", "2,0": "1"}


def test_product_rejects_fastpath_method(capsys):
    """``fastpath`` is no longer a method: a usage error, like any bad choice."""
    rc, out, err = run(capsys, "product", "--type", "A2", "--lambda", "1,0",
                       "--mu", "1,1", "--method", "fastpath")
    assert rc == 1 and out == ""
    assert "invalid choice: 'fastpath'" in err


def test_branch_matches_library(capsys):
    rc, out, _ = run(capsys, "branch", "--type", "C3", "--target", "C2",
                     "--lambda", "1,1,1")
    assert rc == 0
    got = {tuple(t["lambda"]): t["mult"] for t in json.loads(out)["terms"]}
    proj = w.builtin_projection("C3->C2")
    want = w.branch_restrict(w.weight(proj.source, (1, 1, 1)), proj).as_dict()
    assert got == {tuple(int(c) for c in k): v for k, v in want.items()}


def test_grid_csv(capsys):
    rc, out, _ = run(capsys, "grid", "--type", "A1", "--level", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "[0,3];(1)"
    assert "[3,0];(0)" in lines


def test_grid_json(capsys):
    rc, out, _ = run(capsys, "grid", "--type", "A2", "--level", "2",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["level"] == 2
    assert len(doc["points"]) == len(w.grid_fm(w.root_system("A2"), 2))
    for p in doc["points"]:
        assert sum(p["kac"]) >= 0 and len(p["kac"]) == 3


def test_tm_csv(capsys):
    rc, out, _ = run(capsys, "tm", "--type", "A2", "--m", "2")
    assert rc == 0
    assert sorted(out.strip().splitlines()) == [
        "0,0", "0,1/2", "1/2,0", "1/2,1/2"]


def test_rational_csv(capsys):
    rc, out, _ = run(capsys, "rational", "--type", "A1", "--max-level", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert "3;6;[2,1];(1/3)" in lines
    assert "2;4;[1,1];(1/2)" in lines
    assert len(lines) == 5


def test_rational_json(capsys):
    rc, out, _ = run(capsys, "rational", "--type", "C2", "--max-level", "2",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert {"M", "N", "kac", "fractions"} <= set(doc[0])
    assert all(r["M"] <= 2 for r in doc)


def test_eval_row(capsys):
    rc, out, _ = run(capsys, "eval", "--type", "A2", "--lambda", "1,1",
                     "--point", "1/4,1/4")
    assert rc == 0
    re_s, im_s = out.strip().split(";")
    want = eval_fn(orbit_function(w.weight(w.root_system("A2"), (1, 1))),
                   w.point(w.root_system("A2"), ("1/4", "1/4")))
    assert math.isclose(float(re_s), want.real, abs_tol=1e-10)
    assert abs(float(im_s)) < 1e-10


def test_eval_modified_differs(capsys):
    _, plain, _ = run(capsys, "eval", "--type", "A2", "--lambda", "1,0",
                      "--point", "1/5,1/7")
    _, modified, _ = run(capsys, "eval", "--type", "A2", "--lambda", "1,0",
                         "--point", "1/5,1/7", "--modified")
    assert plain != modified


def test_sample_rows(capsys):
    rc, out, _ = run(capsys, "sample", "--type", "A1", "--lambda", "2",
                     "--resolution", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    bary, re_s, im_s = lines[0].split(";")
    assert bary == "0,1"
    float(re_s), float(im_s)


def test_transform_recovers(capsys):
    rc, out, _ = run(capsys, "transform", "--type", "A2",
                     "--spectrum", "1,0:2;0,1:1/2",
                     "--lambda-set", "1,0;0,1", "--level", "12")
    assert rc == 0
    rows = [line.split(";") for line in out.strip().splitlines()]
    got = {r[0]: complex(float(r[1]), float(r[2])) for r in rows}
    assert abs(got["1,0"] - 2) < 1e-9
    assert abs(got["0,1"] - 0.5) < 1e-9


def test_ftransform_exact_rows(capsys):
    rc, out, _ = run(capsys, "ftransform", "--type", "A2",
                     "--spectrum", "1,0:2;0,1:1/2",
                     "--lambda-set", "1,0;0,1", "--m", "6")
    assert rc == 0
    lines = sorted(out.strip().splitlines())
    assert lines == ["0,1;1/2;0", "1,0;2;0"]


@pytest.mark.parametrize("command,extra", [
    ("transform", ("--level", "6")), ("ftransform", ("--m", "4"))])
def test_malformed_spectrum_coefficient_is_a_domain_error(capsys, command, extra):
    rc, out, err = run(capsys, command, "--type", "A2", "--spectrum", "1,0:abc",
                       "--lambda-set", "1,0", *extra)
    assert rc == 2 and out == ""
    assert err.startswith("DomainError:") and "'abc'" in err


def test_laplace_check_row(capsys):
    rc, out, _ = run(capsys, "laplace-check", "--type", "A2",
                     "--lambda", "1,1", "--point", "0.21,0.34")
    assert rc == 0
    eig_s, est_s, rel_s = out.strip().split(";")
    assert float(eig_s) < 0
    assert float(rel_s) < 1e-5
    assert math.isclose(float(est_s), float(eig_s),
                        rel_tol=1e-4, abs_tol=1e-12)


def test_identities_rows(capsys):
    rc, out, _ = run(capsys, "identities", "--type", "A2", "--s-max", "3")
    assert rc == 0
    rows = dict(line.split(";") for line in out.strip().splitlines())
    assert "newton-complete" in rows
    assert all(float(v) < 1e-9 for v in rows.values())


def test_output_file(tmp_path, capsys):
    target = tmp_path / "orbit.json"
    rc, out, _ = run(capsys, "orbit", "--type", "A2", "--lambda", "1,0",
                     "--output", str(target))
    assert rc == 0 and out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["size"] == 3


def test_domain_error_exit_code(capsys):
    rc, out, err = run(capsys, "orbit", "--type", "Q9", "--lambda", "1,0")
    assert rc == 2 and out == ""
    assert err.startswith("UnsupportedType:")


def test_cap_exceeded_exit_code(capsys):
    rc, _, err = run(capsys, "orbit", "--type", "A3", "--lambda", "1,1,1",
                     "--cap", "5")
    assert rc == 2
    assert err.startswith("CapExceeded:")


@pytest.mark.parametrize("argv", [
    ("grid", "--type", "A2", "--level", "6"),
    ("eval", "--type", "E8", "--lambda", "0,0,0,0,0,0,1,0", "--point", "0,0,0,0,0,0,0,0"),
    ("sample", "--type", "A2", "--lambda", "1,1", "--resolution", "2"),
    ("laplace-check", "--type", "A2", "--lambda", "2,1"),
    ("rational", "--type", "G2", "--max-level", "24"),  # level 4 has 4 grid points
])
def test_cap_reaches_command(capsys, argv):
    rc, out, err = run(capsys, *argv, "--cap", "3")
    assert rc == 2 and out == ""
    assert err.startswith("CapExceeded:")


def test_usage_error_exit_code(capsys):
    rc, _, _ = run(capsys, "orbit", "--type", "A2")  # missing --lambda
    assert rc == 1
    rc, _, _ = run(capsys, "orbit", "--type", "A2", "--lambda", "1,0",
                   "--format", "yaml")
    assert rc == 1
    rc, _, _ = run(capsys, "grid", "--type", "A2", "--level", "0")
    assert rc == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weylorbits.cli", "orbit", "--type", "A2",
         "--lambda", "1,0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 3


# Each subcommand declares --format and --cap only if it reads them.
FORMAT_COMMANDS = ("orbit", "product", "branch", "grid", "tm", "rational")
CAP_COMMANDS = FORMAT_COMMANDS + ("eval", "sample", "ftransform", "laplace-check")
BASE_ARGV = {
    "orbit": ("orbit", "--type", "A2", "--lambda", "1,1"),
    "product": ("product", "--type", "A2", "--lambda", "1,0", "--mu", "0,1"),
    "branch": ("branch", "--type", "C3", "--target", "C2", "--lambda", "1,1,1"),
    "grid": ("grid", "--type", "A2", "--level", "3"),
    "tm": ("tm", "--type", "A2", "--m", "2"),
    "rational": ("rational", "--type", "A1", "--max-level", "3"),
    "eval": ("eval", "--type", "A2", "--lambda", "1,1", "--point", "1/4,1/4"),
    "sample": ("sample", "--type", "A1", "--lambda", "2", "--resolution", "2"),
    "transform": ("transform", "--type", "A2", "--spectrum", "1,0:2",
                  "--lambda-set", "1,0", "--level", "6"),
    "ftransform": ("ftransform", "--type", "A2", "--spectrum", "1,0:2;0,1:1/2",
                   "--lambda-set", "1,0;0,1", "--m", "6"),
    "laplace-check": ("laplace-check", "--type", "A2", "--lambda", "1,1",
                      "--point", "0.21,0.34"),
    "identities": ("identities", "--type", "A2", "--s-max", "2"),
}


@pytest.mark.parametrize("command,flag", [
    *((c, ("--format", "json")) for c in sorted(set(BASE_ARGV) - set(FORMAT_COMMANDS))),
    *((c, ("--cap", "100")) for c in sorted(set(BASE_ARGV) - set(CAP_COMMANDS))),
])
def test_unread_flag_is_a_usage_error(capsys, command, flag):
    rc, out, err = run(capsys, *BASE_ARGV[command], *flag)
    assert rc == 1 and out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("command", CAP_COMMANDS)
def test_cap_and_format_still_taken(capsys, command):
    """A cap that is not reached, and the default format named
    explicitly, leave stdout as it is without them."""
    _, plain, _ = run(capsys, *BASE_ARGV[command])
    extra = ["--cap", str(10**7)]
    if command in FORMAT_COMMANDS:
        extra += ["--format", "json" if command in ("orbit", "product", "branch") else "csv"]
    rc, out, err = run(capsys, *BASE_ARGV[command], *extra)
    assert rc == 0 and err == ""
    assert out == plain


_FLOAT = re.compile(r"-?\d\.\d+e[+-]\d+")


def _readme_examples():
    """``(argv, shown lines)`` of each ``$ weylorbits`` example in the
    README's ``text`` block; a ``\\`` line end continues the command."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    lines = block.splitlines()
    while lines:
        line = lines.pop(0)
        if not line.startswith("$ weylorbits "):
            continue
        command = line
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        shown = []
        while lines and lines[0].strip():
            shown.append(lines.pop(0))
        examples.append((shlex.split(command, comments=True)[2:], shown))
    return examples


def _same_fields(got: str, want: str) -> bool:
    """Equal ``;``-separated fields; printed floats agree to 1e-12."""
    g, s = got.split(";"), want.split(";")
    return len(g) == len(s) and all(
        abs(float(a) - float(b)) <= 1e-12 if _FLOAT.fullmatch(b) and _FLOAT.fullmatch(a)
        else a == b
        for a, b in zip(g, s)
    )


def test_readme_examples(capsys):
    """Every CLI example in the README prints what the README shows, up to
    a ``...``, after which the rest of the output is not shown."""
    examples = _readme_examples()
    assert len(examples) >= 9
    for argv, shown in examples:
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == "", argv
        got = out.splitlines()
        for k, want in enumerate(shown):
            if "..." in want:
                assert got[k].startswith(want.split("...", 1)[0]), argv
                break
            assert _same_fields(got[k], want), (argv, got[k], want)
        else:
            assert len(got) == len(shown), argv


def test_readme_library_values():
    """Every ``# <value>`` comment in the README's ``python`` block that
    evaluates (with ``Fraction`` in scope) matches the value of its line,
    or of the line above when the comment stands alone; complex values to
    1e-12."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    scope, above, compared = {}, None, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = above
        if code.strip():
            try:
                value = eval(code, scope)
            except SyntaxError:
                exec(code, scope)
                value = None
        above = value if code.strip() else None
        if not comment.strip() or value is None:
            continue
        try:
            want = eval(comment, {"Fraction": Fraction})
        except (SyntaxError, NameError):
            continue
        if isinstance(want, complex):
            assert abs(value - want) <= 1e-12, (line, value)
        else:
            assert value == want, (line, value)
        compared += 1
    if compared < 3:
        pytest.fail(f"only {compared} README values compared")


def _defined_names(stmt) -> list[str]:
    """Names a module-level statement defines: a def, a class or a plain
    assignment target."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_library_raises_errors_not_asserts():
    """Failures in the library are raised as errors, which ``python -O``
    keeps and the CLI reports; an ``assert`` statement would be stripped.
    The same scan finds dead code: an import its module never reads (the
    package ``__init__`` imports to re-export), and a private module-level
    name that no library module refers to."""
    src = Path(__file__).resolve().parents[1] / "src" / "weylorbits"
    asserts, unused, private, refs = [], [], {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        asserts += [f"{path.name}:{n.lineno}" for n in nodes if isinstance(n, ast.Assert)]
        loads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        refs |= loads | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        for n in nodes:
            if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", "") != "__future__":
                refs |= {a.name for a in n.names}
                unused += [f"{path.name}:{n.lineno} {a.asname or a.name.split('.')[0]}"
                           for a in n.names if path.name != "__init__.py"
                           and (a.asname or a.name.split(".")[0]) not in loads]
        private |= {name: f"{path.name}:{stmt.lineno} {name}" for stmt in tree.body
                    for name in _defined_names(stmt)
                    if name.startswith("_") and not name.startswith("__")}
    if asserts:
        pytest.fail(f"assert statements in the library: {asserts}")
    if unused:
        pytest.fail(f"unused imports in the library: {unused}")
    dead = [where for name, where in private.items() if name not in refs]
    if dead:
        pytest.fail(f"private names no library module refers to: {dead}")
