"""Every top-level function and class of the package is read by the package or the benchmark.

A name only tests read belongs in the tests (reference routes live in
``tests/reference.py``).  Reads are found in the syntax tree: a name loaded,
or an attribute of that name taken, anywhere in ``src/heatlocal`` or
``perfbench``.  Imports, definitions and strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heatlocal"

# the read side of the report codec, which the package writes but only
# readers of its output call
READ_SIDE = {"reports_from_json", "table_from_csv", "table_from_json"}


def _trees(*dirs: Path) -> dict[str, ast.Module]:
    return {
        str(p.relative_to(ROOT)): ast.parse(p.read_text(), str(p))
        for d in dirs
        for p in sorted(d.glob("*.py"))
    }


def _read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_top_level_function_and_class_is_read():
    package = _trees(PACKAGE)
    read = set().union(*map(_read_names, _trees(PACKAGE, ROOT / "perfbench").values()))
    unread = [
        f"{path}: {node.name}"
        for path, tree in package.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read | READ_SIDE
    ]
    assert unread == []
