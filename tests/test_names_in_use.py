"""Every function, class, method and property of the package is read by the package or perfbench.

A name only tests read belongs in the tests (reference routes live in
``tests/reference.py``).  Reads are found in the syntax tree: a name loaded,
or an attribute of that name taken, anywhere in ``src/heatlocal`` or
``perfbench``.  Imports, definitions and strings do not count, except that a
string equal to a method's name counts as a read of it, since ``getattr``
reaches methods by name.  Dunder methods, which Python calls itself, and
overrides of a base-class method, which the base class calls, are exempt.
"""

import ast
import importlib
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


def _strings(tree: ast.Module) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _overrides(path: str, cls: str, name: str) -> bool:
    module = importlib.import_module(f"heatlocal.{Path(path).stem}")
    return any(name in vars(base) for base in getattr(module, cls).__mro__[1:])


def test_every_method_and_property_is_read():
    package = _trees(PACKAGE)
    trees = _trees(PACKAGE, ROOT / "perfbench").values()
    read = set().union(*map(_read_names, trees), *map(_strings, trees))
    unread = [
        f"{path}: {cls.name}.{node.name}"
        for path, tree in package.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
        and not _overrides(path, cls.name, node.name)
    ]
    assert unread == []
