#!/usr/bin/env python3
"""Print the lines of src/ragmend that the test suite never runs.

Runs `pytest -q tests` under the standard library's line tracer, as
`python -m trace --count --missing` does, ignoring the standard library and
site-packages, and writes the tracer's `.cover` files into a temporary
directory, never into the repository. The suite runs with its "traced"
hypothesis profile, which has no per-example deadline, because the tracer
slows every example. A `.cover` file marks each executable
line that did not run with ">>>>>>". Every such line of src/ragmend that is
not on ALLOWLIST is printed as `path:line: source`.

The tracer runs in this process rather than as `python -m trace`: the module
form caches its ignore decision by file basename, so the first ignored
stdlib `__init__.py` hides `src/ragmend/__init__.py` too. Here the decision
is cached per file.

Exit code 0 when nothing is printed; 1 when a line is printed, a module
under src/ragmend was never imported, or the suite itself failed (its
output is then printed). The trace makes the suite several times slower.

Usage: python3 scripts/uncovered.py
"""

import contextlib
import io
import sys
import sysconfig
import tempfile
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ragmend"
MISSING = ">>>>>> "

# (module file, stripped source line) -> why the tests cannot run it.
ALLOWLIST = {
    ("cli.py", "sys.exit(main())"): (
        "the __main__ guard runs only as `python -m ragmend.cli`, "
        "a subprocess the tracer does not follow"
    ),
    ("scoring.py", "raise NotImplementedError"): (
        "Scorer.score_text is the interface method every scorer overrides"
    ),
}


def run_traced(cover_dir: Path) -> tuple[int, str]:
    """Run the suite under the tracer; return pytest's exit code and output."""
    paths = sysconfig.get_paths()
    ignored = sorted({paths["stdlib"], paths["platstdlib"], paths["purelib"], paths["platlib"]})
    tracer = trace.Trace(count=1, trace=0, ignoredirs=ignored)
    # Cache the ignore decision per file, not per basename (see the docstring).
    names = tracer.ignore.names
    tracer.ignore.names = lambda filename, modulename: names(filename, filename)
    # The "traced" profile is registered in tests/conftest.py.
    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-profile=traced", str(ROOT / "tests")]
    scope = {"pytest": pytest, "args": args}
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        tracer.runctx("code = pytest.main(args)", scope, scope)
    tracer.results().write_results(show_missing=True, coverdir=str(cover_dir))
    return int(scope["code"]), output.getvalue()


def uncovered(cover_dir: Path) -> list[str]:
    """`path:line: source` for each line off the allowlist that no test ran."""
    found = []
    for source in sorted(PACKAGE.glob("*.py")):
        rel = source.relative_to(ROOT)
        cover = cover_dir / f"ragmend.{source.stem}.cover"
        if not cover.exists():
            found.append(f"{rel}: never imported by the tests")
            continue
        for line_no, line in enumerate(cover.read_text("utf-8").splitlines(), start=1):
            if not line.startswith(MISSING):
                continue
            text = line[len(MISSING) :].strip()
            if (source.name, text) not in ALLOWLIST:
                found.append(f"{rel}:{line_no}: {text}")
    return found


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        code, output = run_traced(Path(tmp))
        if code:
            sys.stderr.write(output)
            print(f"error: the test suite failed under the tracer (exit {code})", file=sys.stderr)
            return 1
        found = uncovered(Path(tmp))
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
