#!/usr/bin/env python3
"""Print the one-line mutants of src/ragmend that no test kills.

Copies the repository into a temporary directory, never writing into the
repository, and there makes one mutant at a time with `ast`:
- a comparison operator swapped (`<` and `<=`, `>` and `>=`, `==` and `!=`,
  `is` and `is not`, `in` and `not in`);
- an arithmetic operator swapped (`+` and `-`, `*` and `/`, `//` to `/`,
  `%` to `//`, `**` to `*`), also in augmented assignments;
- `and` and `or` swapped;
- a `not` dropped;
- 1 added to a numeric constant.

Only the mutated expression's source text changes; every other line keeps
its text. Each mutant of `<module>.py` first runs against
`tests/test_<module>.py` with `-x`; a mutant that file passes then runs
against all of `tests/`. A module with mutants but no such file is an error.
A run that takes longer than its timeout (three times the unmutated run,
plus 10 s) counts as a kill, since a mutant that hangs the tests is seen.

Each survivor whose (module, stripped source line) is not on `ALLOWLIST` is
printed as `path:line: source  [mutation]`, and a summary line goes to
stderr. Exit code 0 when no survivor is printed; 1 when one is, or when the
unmutated tests fail. With every module (390 mutants: cli 38, config 21,
harness 59, http_session 64, mockserver 34, pipeline 45, prompts 1, refinement
25, scoring 37, trigger 18, websearch 48) it takes about 35 minutes on 2 cores;
the earlier figure of about 16 minutes predates the keep-alive transport in
http_session.py and its tests.

Usage: python3 scripts/mutants.py [MODULE ...]   (e.g. trigger.py; default: all)
"""

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ragmend"

# (module file, stripped source line) -> why no test can kill its mutants.
ALLOWLIST = {
    ("http_session.py", "MAX_CACHED = 256"): (
        "the size bound on the per-host environment and per-URL request caches; a test "
        "that fills 256 entries would check a capacity, not a behaviour the program documents"
    ),
    ("http_session.py", "if len(cache) >= self.MAX_CACHED:"): (
        "clearing at MAX_CACHED or one entry later keeps every result equal; "
        "only a cache's size differs"
    ),
    ("websearch.py", "EXTRACTOR_VERSION = 1"): (
        "any value marks the cache format; the tests write and read files with the same value"
    ),
    ("harness.py", "if doc.id not in relevant or removal_draw(seed, instance.id, doc.id) >= p"): (
        "`>=` and `>` differ only when a 64-bit draw equals p exactly, a 2**-64 event"
    ),
}

# The test that checks ALLOWLIST against the source fails under any mutant of an
# allowlisted line by construction, so it is left out when mutants run.
ALLOWLIST_TEST = "tests/test_scripts.py::test_mutants_allowlist_matches_src"

_COMPARE_SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
_ARITH_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Div,
    ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div,
    ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.And: "and", ast.Or: "or",
}  # fmt: skip


def _swapped(op: ast.AST, swaps: dict) -> tuple[ast.AST, str]:
    new = swaps[type(op)]()
    return new, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[type(new)]}"


def _variants(node: ast.AST):
    """Yield (replacement node, description) for each mutant of `node` itself."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _COMPARE_SWAPS:
                new_op, what = _swapped(op, _COMPARE_SWAPS)
                ops = list(node.ops)
                ops[i] = new_op
                yield ast.Compare(node.left, ops, node.comparators), what
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITH_SWAPS:
        new_op, what = _swapped(node.op, _ARITH_SWAPS)
        if isinstance(node, ast.BinOp):
            yield ast.BinOp(node.left, new_op, node.right), what
        else:
            yield ast.AugAssign(node.target, new_op, node.value), what
    elif isinstance(node, ast.BoolOp):
        new_op, what = _swapped(node.op, {ast.And: ast.Or, ast.Or: ast.And})
        yield ast.BoolOp(new_op, node.values), what
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand, "drop not"
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        yield ast.Constant(node.value + 1), f"{node.value!r} -> {node.value + 1!r}"


def _splice(lines: list[str], node: ast.AST, new: ast.AST) -> str:
    """The source with `node`'s span replaced by `new` (ast columns are UTF-8 byte offsets)."""
    text = ast.unparse(new)
    if isinstance(new, ast.expr):
        text = f"({text})"
    head = lines[node.lineno - 1].encode("utf-8")[: node.col_offset].decode("utf-8")
    tail = lines[node.end_lineno - 1].encode("utf-8")[node.end_col_offset :].decode("utf-8")
    return "".join(lines[: node.lineno - 1] + [head + text + tail] + lines[node.end_lineno :])


def _put(parent: ast.AST, field: str, index, node: ast.AST) -> None:
    """Set `parent.field`, or its item `index` when the field is a list, to `node`."""
    if index is None:
        setattr(parent, field, node)
    else:
        getattr(parent, field)[index] = node


def mutants(source: str):
    """Yield (line number, description, mutated source) for each mutant of a module."""
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            slots = list(enumerate(value)) if isinstance(value, list) else [(None, value)]
            for index, child in slots:
                if not isinstance(child, ast.AST):
                    continue
                for new, what in _variants(child):
                    mutated = _splice(lines, child, new)
                    # The splice must parse to the tree with just this node replaced.
                    _put(parent, field, index, new)
                    expected = ast.dump(tree)
                    _put(parent, field, index, child)
                    if ast.dump(ast.parse(mutated)) != expected:
                        raise RuntimeError(f"cannot splice {what} at line {child.lineno}")
                    yield child.lineno, what, mutated


class Sandbox:
    """A copy of the repository in which the tests run against one mutant at a time."""

    def __init__(self, root: Path):
        self.root = root
        shutil.copytree(
            ROOT,
            root,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", "web_cache", ".bench_work"
            ),
        )
        # No bytecode cache: a mutant of the same size written within the same
        # second as the last one would otherwise run the stale .pyc.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")

    def passes(self, tests: list[str], timeout: float) -> tuple[bool, float]:
        """Whether pytest -x passes on `tests` within `timeout` s, and how long it took."""
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        cmd += ["--deselect", ALLOWLIST_TEST, *tests]
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False, time.monotonic() - start
        return code == 0, time.monotonic() - start


def _timeout(seconds: float) -> float:
    return 3 * seconds + 10


def _first_tests(module: str) -> str:
    """The test file each mutant of `module` runs against first."""
    return f"tests/test_{Path(module).stem}.py"


def main() -> int:
    modules = sys.argv[1:] or sorted(p.name for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    unknown = sorted(m for m in modules if not (PACKAGE / m).is_file())
    if unknown:
        print(f"error: no such modules in src/ragmend: {unknown}", file=sys.stderr)
        return 1
    cases = {m: list(mutants((PACKAGE / m).read_text("utf-8"))) for m in modules}
    untested = sorted(m for m in modules if cases[m] and not (ROOT / _first_tests(m)).is_file())
    if untested:
        print(f"error: no tests/test_<module>.py for the mutants of {untested}", file=sys.stderr)
        return 1
    found = []
    total = allowlisted = 0
    with tempfile.TemporaryDirectory() as tmp:
        box = Sandbox(Path(tmp) / "repo")
        ok, full_s = box.passes(["tests"], timeout=600)
        if not ok:
            print("error: the unmutated test suite fails", file=sys.stderr)
            return 1
        for module in (m for m in modules if cases[m]):
            path = box.root / "src" / "ragmend" / module
            source = path.read_text("utf-8")
            tests = [_first_tests(module)]
            _, module_s = box.passes(tests, timeout=600)
            lines = source.splitlines()
            try:
                for line_no, what, mutated in cases[module]:
                    total += 1
                    path.write_text(mutated, "utf-8")
                    if not box.passes(tests, _timeout(module_s))[0]:
                        continue
                    if not box.passes(["tests"], _timeout(full_s))[0]:
                        continue
                    text = lines[line_no - 1].strip()
                    if (module, text) in ALLOWLIST:
                        allowlisted += 1
                    else:
                        found.append(f"src/ragmend/{module}:{line_no}: {text}  [{what}]")
                        print(found[-1], flush=True)
            finally:
                path.write_text(source, "utf-8")
    print(
        f"{total} mutants over {len(modules)} modules: "
        f"{len(found) + allowlisted} survivors, {allowlisted} of them allowlisted",
        file=sys.stderr,
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
