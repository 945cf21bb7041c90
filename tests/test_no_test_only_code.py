"""No `src/` definition has tests as its only callers.

Every module-level function and class in `src/pclc`, and every method that
is not a dunder, must be named as a whole word somewhere other than its own
`def`/`class` line: in `src/pclc` (not counting the import list of
`__init__.py`), `scripts/` or `perfbench/`. A helper that only tests still
call fails here, so it is deleted together with its last caller in `src/`.
"""

import ast
import glob
import os
import re

from conftest import REPO_ROOT

SRC = os.path.join(REPO_ROOT, "src", "pclc")


def _import_lines(tree) -> set[int]:
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _definitions(tree):
    """(name, line of its def/class) for module-level functions and classes
    and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno


def test_every_src_definition_has_a_caller_outside_tests():
    lines: list[tuple[str, int, str]] = []  # (path, line number, text)
    definitions: list[tuple[str, str, int]] = []  # (name, path, def line)
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        tree = ast.parse(text, filename=path)
        skip = _import_lines(tree) if os.path.basename(path) == "__init__.py" else set()
        lines += [(path, n, t) for n, t in enumerate(text.splitlines(), 1) if n not in skip]
        definitions += [(name, path, n) for name, n in _definitions(tree)]
    for folder in ("scripts", "perfbench"):
        for path in sorted(glob.glob(os.path.join(REPO_ROOT, folder, "*"))):
            if path.endswith((".py", ".sh")):
                with open(path, encoding="utf-8") as fh:
                    lines += [(path, n, t) for n, t in enumerate(fh.read().splitlines(), 1)]
    assert definitions

    uncalled = []
    for name, path, lineno in definitions:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(t) for p, n, t in lines if (p, n) != (path, lineno)):
            uncalled.append(f"{os.path.relpath(path, REPO_ROOT)}:{lineno}: {name}")
    assert not uncalled, "defined in src/ but named nowhere outside tests:\n" + "\n".join(uncalled)
