"""List the functions, classes and methods of ``src/sydes/`` that nothing
outside the tests names.

    python3 tools/test_only_names.py [--root DIR]

A definition is listed when its name occurs, as a whole word, in no ``.py``
file under ``src/``, ``tools/`` or ``perfbench/`` outside its own
definition.  It matches names, not bindings, so a name that any other
identifier shares is never listed; dunder methods, which Python calls, are
skipped.  Prints ``path:line name`` lines and exits 0.  The tier-1 test
``tests/test_test_only_names.py`` runs ``scan`` on this repository and
requires exactly the two deliberate keeps it names (a name written here
would no longer be listed).
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scan(root: str) -> list[str]:
    sources = {}
    for top in ("src", "tools", "perfbench"):
        for path in sorted(glob.glob(os.path.join(root, top, "**", "*.py"), recursive=True)):
            with open(path, encoding="utf-8") as f:
                sources[os.path.relpath(path, root)] = f.read().splitlines()
    found = []
    for rel, lines in sources.items():
        if not rel.startswith(os.path.join("src", "sydes", "")):
            continue
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, DEFS) or re.fullmatch(r"__\w+__", node.name):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(word.search(line) for other, text in sources.items()
                       for i, line in enumerate(text) if other != rel or i not in own):
                found.append((rel, node.lineno, node.name))
    return [f"{rel}:{line} {name}" for rel, line, name in sorted(found)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout to scan")
    for entry in scan(parser.parse_args().root):
        print(entry)
