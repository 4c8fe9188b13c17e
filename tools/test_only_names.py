"""List the functions, classes and methods of ``src/sydes/`` that nothing
outside the tests names.

    python3 tools/test_only_names.py [--root DIR]

A definition is listed when no ``.py`` file under ``src/``, ``tools/`` or
``perfbench/`` names it in code outside its own definition.  Code means the
syntax tree: names, attributes, imports, and string constants that are
identifiers (perfbench hands such names to ``getattr``); a docstring or a
comment that mentions a name does not use it, and neither does an
attribute of a module that the file binds with a plain ``import``
(``json.load``, ``np.load``).  Otherwise it matches names, not bindings,
so a name that any other identifier shares is never listed; dunder
methods, which Python calls, are skipped.  Prints ``path:line name``
lines and exits 0.  The tier-1 test ``tests/test_test_only_names.py`` runs
``scan`` on this repository and requires exactly the deliberate keeps it
names.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import re
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifiers(tree: ast.AST):
    """``(name, line)`` for each identifier that the code of ``tree`` names."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in node.name.split("."):
                yield name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def scan(root: str) -> list[str]:
    trees = {}
    for top in ("src", "tools", "perfbench"):
        for path in sorted(glob.glob(os.path.join(root, top, "**", "*.py"), recursive=True)):
            with open(path, encoding="utf-8") as f:
                trees[os.path.relpath(path, root)] = ast.parse(f.read())
    uses = defaultdict(list)
    for rel, tree in trees.items():
        for name, line in identifiers(tree):
            uses[name].append((rel, line))
    found = []
    for rel, tree in trees.items():
        if not rel.startswith(os.path.join("src", "sydes", "")):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or re.fullmatch(r"__\w+__", node.name):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(other != rel or line not in own for other, line in uses[node.name]):
                found.append((rel, node.lineno, node.name))
    return [f"{rel}:{line} {name}" for rel, line, name in sorted(found)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout to scan")
    for entry in scan(parser.parse_args().root):
        print(entry)
