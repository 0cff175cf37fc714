"""Mutation run: which one-place changes to a module do the tests miss?

Usage, from the root of a checkout::

    python3 tests/mutate.py src/uniprod/ingest.py src/uniprod/disambiguation.py
    python3 tests/mutate.py --ops arith,delete --list src/uniprod/dea.py

Each mutant makes one change to one module: a comparison (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``in`` and ``not in``,
``is`` and ``is not`` swapped), an ``and``/``or``, with ``arith``,
``+``/``-`` and ``*``/``/``, or, with ``delete``, one statement of a
function body (nested blocks included, docstrings not) replaced by
``pass``.  The changed expression is spliced back, parenthesized, in
place of the original, and a deleted statement's text by ``pass`` (an
``elif`` branch by ``else: pass``), so every other line stays as
written.  The whole checkout is copied once to a temporary directory;
each mutant is written there and the test suite runs on it with ``-x``
(bytecode writing off, so no stale ``.pyc`` of an earlier mutant is
read).  A mutant is killed when the suite fails or times out, and
survives when it passes.  Nothing in the checkout itself is written.

This file is not collected by pytest (its name does not start with
``test_``) and uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    "compare": {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
                ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
                ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
                ast.IsNot: ast.Is},
    "boolop": {ast.And: ast.Or, ast.Or: ast.And},
    "arith": {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
              ast.Div: ast.Mult},
}
FAMILIES = (*SWAPS, "delete")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", ".perfbench-*", "*.egg-info")
#: Seconds before a test run counts as killed: a swapped loop condition
#: can run forever.
TIMEOUT = 600.0


def _swapped(node: ast.AST, swaps: dict):
    """Each copy of ``node`` with one of its own operators swapped."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in swaps:
                ops = list(node.ops)
                ops[i] = swaps[type(op)]()
                yield ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BoolOp) and type(node.op) in swaps:
        yield ast.BoolOp(swaps[type(node.op)](), node.values)
    elif isinstance(node, ast.BinOp) and type(node.op) in swaps:
        yield ast.BinOp(node.left, swaps[type(node.op)](), node.right)


def _deletable(tree: ast.AST):
    """Each statement inside a function body, once, other than a
    docstring or a ``pass``."""
    seen = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (node is function or not isinstance(node, ast.stmt)
                    or id(node) in seen or isinstance(node, ast.Pass)
                    or (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str))):
                continue
            seen.add(id(node))
            yield node


def mutants(source: str, families: list[str]):
    """(line, original, mutant, mutated source) for each mutant, in
    source order."""
    swaps = {}
    for family in families:
        swaps.update(SWAPS.get(family, {}))
    data = source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    found = []

    def splice(node, first, before, after, text):
        # ast offsets count UTF-8 bytes.
        begin = starts[first.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        found.append((node.lineno, begin, before, after,
                      (data[:begin] + text + data[end:]).decode("utf-8")))

    for node in ast.walk(tree):
        for changed in _swapped(node, swaps):
            splice(node, node, ast.unparse(node), ast.unparse(changed),
                   f"({ast.unparse(changed)})".encode("utf-8"))
    if "delete" in families:
        for node in _deletable(tree):
            # A decorated definition starts at its first decorator.
            first = min([node, *getattr(node, "decorator_list", ())],
                        key=lambda n: n.lineno)
            before = ast.unparse(node).split("\n")[0]
            after = "pass"
            if data.startswith(b"elif",
                               starts[node.lineno - 1] + node.col_offset):
                before, after = "el" + before, "else: pass"
            splice(node, first, before, after, after.encode("utf-8"))
    found.sort(key=lambda m: (m[0], m[1]))
    return [(line, before, after, mutated)
            for line, _, before, after, mutated in found]


def run_suite(tree: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "TIMEOUT"
    return "SURVIVED" if done.returncode == 0 else "KILLED"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="module files, relative to the checkout root")
    parser.add_argument("--ops", default="compare,boolop",
                        help="operator families, comma-separated, from "
                             f"{','.join(FAMILIES)} (default compare,boolop)")
    parser.add_argument("--list", action="store_true",
                        help="list the mutants without running the tests")
    args = parser.parse_args(argv)
    families = args.ops.split(",")
    unknown = sorted(set(families) - set(FAMILIES))
    if unknown:
        parser.error(f"unknown operator families: {', '.join(unknown)}")

    work = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        tree = work / "tree"
        if not args.list:
            shutil.copytree(ROOT, tree, ignore=IGNORED)
            if run_suite(tree) != "SURVIVED":
                print("the unmutated tree fails its tests", file=sys.stderr)
                return 1
        tally = {"KILLED": 0, "SURVIVED": 0, "TIMEOUT": 0}
        for module in args.modules:
            relative = module.resolve().relative_to(ROOT)
            source = (ROOT / relative).read_text(encoding="utf-8")
            for line, before, after, mutated in mutants(source, families):
                where = f"{relative}:{line}  {before}  ->  {after}"
                if args.list:
                    print(where)
                    continue
                target = tree / relative
                target.write_text(mutated, encoding="utf-8")
                started = time.monotonic()
                try:
                    verdict = run_suite(tree)
                finally:
                    target.write_text(source, encoding="utf-8")
                tally[verdict] += 1
                print(f"{verdict:8} {where}  "
                      f"({time.monotonic() - started:.0f} s)", flush=True)
        if not args.list:
            print(", ".join(f"{count} {verdict.lower()}"
                            for verdict, count in tally.items()))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
