"""List the lines of ``src/lrwp`` that the tier-1 suite never runs.

    python tools/lines.py [src/lrwp/runner.py ...]

The repository is copied to a temporary directory, as ``tools/mutants.py``
copies it, and the suite runs there in this process under a ``sys.settrace``
line tracer that records each line of the copied package it reaches. Only the
standard library and pytest are needed. A line is executable when a code object
compiled from its module maps an instruction to it. The tool prints each
module's unrun lines with their text, then the totals; with no module named,
it reports every module of the package.

The count is approximate. The tracer does not follow the worker processes a
sweep forks, and a line that the compiler folds into a jump (a bare
``continue``, say) may count as unrun.
"""

import argparse
import os
import shutil
import sys
import tempfile
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "lrwp"


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines that some code object compiled from ``source`` maps an instruction to."""
    lines = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_suite(tree: Path) -> tuple[int, set[tuple[str, int]]]:
    """Run the suite in ``tree`` under the tracer: pytest's exit code, and each
    (file, line) of the tree's package that ran."""
    package = str(tree / PACKAGE)
    hits: set[tuple[str, int]] = set()

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    cwd, path = os.getcwd(), list(sys.path)
    os.chdir(tree)
    sys.path.insert(0, str(tree / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
        sys.path[:] = path
    return int(code), hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="*", type=Path,
                        help="module paths under src/lrwp (default: all of them)")
    args = parser.parse_args(argv)
    modules = [m.resolve().relative_to(ROOT) for m in args.modules] or sorted(
        p.relative_to(ROOT) for p in (ROOT / PACKAGE).glob("*.py"))
    with tempfile.TemporaryDirectory(prefix="lrwp-lines-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"))
        code, hits = traced_suite(tree)
        if code != 0:
            print(f"the suite fails in the copy (pytest exit {code}); no count", file=sys.stderr)
            return 2
        total = unrun_total = 0
        for rel in modules:
            filename = str(tree / rel)
            source = (tree / rel).read_text(encoding="utf-8")
            lines = executable_lines(source, filename)
            unrun = sorted(line for line in lines if (filename, line) not in hits)
            total += len(lines)
            unrun_total += len(unrun)
            print(f"{rel}: {len(unrun)} of {len(lines)} executable lines never ran")
            text = source.splitlines()
            for line in unrun:
                print(f"  {line}: {text[line - 1].strip()}")
        print(f"total: {unrun_total} of {total} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
