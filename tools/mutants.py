"""Count the mutants of a module that the tier-1 suite does not kill.

    python tools/mutants.py src/lrwp/wavepacket.py [more modules ...]

The repository is copied to a temporary directory and only that copy is
mutated, one mutant at a time, so an interrupted run never leaves a mutant in
the working tree. Each mutant runs ``pytest -x`` over ``tests/`` (the module's
own ``tests/test_<name>.py`` first, since it fails fastest); a mutant the suite
passes survives. Operators:

* ``+`` ↔ ``-``, ``*`` ↔ ``/`` and ``**`` ↔ ``*`` on binary operations
* ``<`` ↔ ``<=``, ``>`` ↔ ``>=`` and ``==`` ↔ ``!=`` in comparisons
* a nonzero numeric constant that is an arithmetic operand, scaled by 1 + 1e-10,
  which only precision tests can see

The unmutated copy must pass first, or the run stops. A mutant that runs
longer than ``TIMEOUT_S`` counts as killed.
"""

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Add: [ast.Sub], ast.Sub: [ast.Add], ast.Mult: [ast.Div, ast.Pow],
         ast.Div: [ast.Mult], ast.Pow: [ast.Mult], ast.Lt: [ast.LtE], ast.LtE: [ast.Lt],
         ast.Gt: [ast.GtE], ast.GtE: [ast.Gt], ast.Eq: [ast.NotEq], ast.NotEq: [ast.Eq]}
SCALE = 1.0 + 1e-10
TIMEOUT_S = 600  # some 20 tier-1 runs; a mutant that loops forever must not stall the count


def mutants(tree: ast.Module):
    """Yield (line, description, mutated tree), one per mutation site and operator."""
    nodes = list(ast.walk(tree))
    arithmetic = {id(child) for node in nodes if isinstance(node, (ast.BinOp, ast.UnaryOp))
                  for child in ast.iter_child_nodes(node)}
    for index, node in enumerate(nodes):
        ops = ([("op", node.op)] if isinstance(node, ast.BinOp)
               else [("ops", op) for op in node.ops] if isinstance(node, ast.Compare) else [])
        for position, (field, op) in enumerate(ops):
            for swap in SWAPS.get(type(op), []):
                mutated = copy.deepcopy(tree)
                target = list(ast.walk(mutated))[index]
                if field == "op":
                    target.op = swap()
                else:
                    target.ops[position] = swap()
                yield node.lineno, f"{ast.unparse(node)}  ->  {ast.unparse(target)}", mutated
        value = getattr(node, "value", None) if isinstance(node, ast.Constant) else None
        if (id(node) in arithmetic and isinstance(value, (int, float, complex))
                and not isinstance(value, bool) and value != 0):
            mutated = copy.deepcopy(tree)
            list(ast.walk(mutated))[index].value = value * SCALE
            yield node.lineno, f"{value!r}  ->  {value * SCALE!r}", mutated


def run_suite(tree_dir: Path, first: Path) -> bool:
    """True when the suite passes in ``tree_dir`` (the mutant, if any, survives)."""
    tests = [str(first)] if (tree_dir / first).is_file() else []
    env = dict(os.environ, PYTHONPATH=str(tree_dir / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests, "tests"]
    try:
        proc = subprocess.run(cmd, cwd=tree_dir, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module paths under src/")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="lrwp-mutants-") as tmp:
        work = Path(tmp) / "tree"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"))
        if not run_suite(work, Path("tests")):
            print("the unmutated copy fails its suite; nothing to measure", file=sys.stderr)
            return 2
        for module in args.modules:
            rel = module.resolve().relative_to(ROOT)
            source = (work / rel).read_text(encoding="utf-8")  # as copied, whatever edits follow
            first = Path("tests") / f"test_{rel.stem}.py"
            total = 0
            survivors = []
            start = time.perf_counter()
            for line, description, mutated in mutants(ast.parse(source)):
                total += 1
                (work / rel).write_text(ast.unparse(mutated), encoding="utf-8")
                try:
                    survived = run_suite(work, first)
                finally:
                    (work / rel).write_text(source, encoding="utf-8")
                if survived:
                    survivors.append(f"{rel}:{line}: {description}")
                    print(f"SURVIVED {survivors[-1]}", flush=True)
            print(f"{rel}: {total - len(survivors)}/{total} mutants killed, {len(survivors)} survived, "
                  f"{time.perf_counter() - start:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
