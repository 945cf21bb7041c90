"""No `src/` definition has tests as its only callers.

Every module-level function and class in `src/pclc`, and every method that
is not a dunder, must be used by code outside its own definition: named by
a `Name` or `Attribute` node (f-string expressions included) of a Python
file in `src/pclc`, `scripts/` or `perfbench/`. Comments, string literals
and import lists do not count, nor do attributes of `np`, `numpy` and
`math`, so `np.tanh` does not keep a `def tanh` alive. A helper that only
tests still call fails here, so it is deleted together with its last caller
in `src/`.

The same holds for data: every annotated field of a `src/pclc` class must
be read as an attribute (an `Attribute` node in `Load` context) somewhere in
those files. A field that only tests read, or that code only writes, fails.

`perfbench/` is code outside tests for this purpose: while
`perfbench/test_perfbench.py` calls `ad.add`, a restored `def add` in
`autodiff.py` passes this check.
"""

import ast
import glob
import os

from conftest import REPO_ROOT

SRC = os.path.join(REPO_ROOT, "src", "pclc")
LIBRARIES = {"np", "numpy", "math"}


def _definitions(tree):
    """Module-level functions and classes and the non-dunder methods of
    those classes, as (name, first line, last line)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno


def _fields(tree):
    """Annotated fields of module-level classes, as (class.field, name, line)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id, item.lineno


def _uses(tree):
    """(name, line) of every `Name` node and of every `Attribute` node that
    is not an attribute of a numeric library module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in LIBRARIES):
                yield node.attr, node.lineno


def _reads(tree):
    """Names of the attributes read (`Load` context) outside numeric libraries."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in LIBRARIES):
                yield node.attr


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _code_files():
    """The files that count as code outside tests: src/pclc, scripts/, perfbench/."""
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    for folder in ("scripts", "perfbench"):
        paths += sorted(glob.glob(os.path.join(REPO_ROOT, folder, "*.py")))
    return paths


def test_every_src_definition_has_a_caller_outside_tests():
    uses: dict[str, list[tuple[str, int]]] = {}  # name -> (path, line) of each use
    definitions: list[tuple[str, str, int, int]] = []  # (name, path, first, last line)
    for path in _code_files():
        tree = _parse(path)
        if path.startswith(SRC):
            definitions += [(name, path, lo, hi) for name, lo, hi in _definitions(tree)]
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    assert definitions

    uncalled = [
        f"{os.path.relpath(path, REPO_ROOT)}:{lo}: {name}"
        for name, path, lo, hi in definitions
        if not any(p != path or not lo <= n <= hi for p, n in uses.get(name, []))
    ]
    assert not uncalled, "defined in src/ but used nowhere outside tests:\n" + "\n".join(uncalled)


def test_every_src_field_is_read_outside_tests():
    reads: set[str] = set()
    fields: list[tuple[str, str, str, int]] = []  # (class.field, name, path, line)
    for path in _code_files():
        tree = _parse(path)
        if path.startswith(SRC):
            fields += [(qual, name, path, line) for qual, name, line in _fields(tree)]
        reads.update(_reads(tree))
    assert fields

    unread = [
        f"{os.path.relpath(path, REPO_ROOT)}:{line}: {qual}"
        for qual, name, path, line in fields
        if name not in reads
    ]
    assert not unread, "field in src/ read nowhere outside tests:\n" + "\n".join(unread)


def _unused(source: str, name: str) -> bool:
    tree = ast.parse(source)
    (lo, hi), = [(a, b) for n, a, b in _definitions(tree) if n == name]
    return not any(n == name and not lo <= line <= hi for n, line in _uses(tree))


def test_only_code_counts_as_a_use():
    comment = "def tanh(x):\n    return tanh(x)\n\n# tanh\ny = np.tanh(1.0)\nz = 'tanh'\n"
    assert _unused(comment, "tanh")  # its own body, a comment, np.tanh and a string
    assert not _unused("def fmt(v):\n    return v\n\ns = f'{fmt(1)}'\n", "fmt")
    assert not _unused("def add(a, b):\n    pass\n\nad.add(1, 2)\n", "add")


def test_only_an_attribute_load_reads_a_field():
    # hits is read in an f-string; seen only as np.seen and in a string;
    # kept is only written, an augmented assignment included
    source = (
        "class R:\n    hits: int = 0\n    seen: int = 0\n    kept: int = 0\n\n"
        "r.hits = 1\nr.kept = 2\nr.kept += 1\nx = np.seen\ny = {'seen': 1}\nz = f'{r.hits}'\n"
    )
    tree = ast.parse(source)
    reads = set(_reads(tree))
    assert [name for _, name, _ in _fields(tree) if name not in reads] == ["seen", "kept"]
