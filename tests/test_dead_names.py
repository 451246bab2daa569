"""Every name the package defines is read somewhere.

A module-level function, class or assignment in ``src/reconfcheck``, and a
method or property of a class there, must be read in ``src/``, ``tests/``
or ``perfbench/``: loaded by name, accessed as an attribute, or imported.
Dunders are exempt, as the interpreter calls them.  Only syntax trees are
read, so the benchmark is neither imported nor run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined(tree: ast.Module):
    """(qualified name, name) of every module-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, n.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def _read(tree: ast.Module):
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def _unread(defining: dict[str, ast.Module], reading: list[ast.Module]) -> list[str]:
    read = {name for tree in reading for name in _read(tree)}
    return sorted(f"{module}:{qualified}" for module, tree in defining.items()
                  for qualified, name in _defined(tree)
                  if not (name.startswith("__") and name.endswith("__")) and name not in read)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_defined_name_is_read():
    package = {path.name: _parse(path)
               for path in sorted((ROOT / "src" / "reconfcheck").glob("*.py"))}
    reading = [_parse(path) for d in ("src", "tests", "perfbench")
               for path in sorted((ROOT / d).rglob("*.py"))]
    assert package and reading
    assert _unread(package, reading) == []


def test_the_scan_flags_unread_definitions():
    defining = ast.parse(
        "LIMIT = 3\n"
        "_UNUSED = 4\n"
        "class Box:\n"
        "    def __init__(self): self.n = LIMIT\n"
        "    @property\n"
        "    def size(self): return self.n\n"
        "    def spare(self): return 0\n"
        "def helper(): return Box().size\n"
        "def orphan(): pass\n")
    reading = ast.parse("from m import helper\nhelper()\n")
    assert _unread({"m.py": defining}, [defining, reading]) == [
        "m.py:Box.spare", "m.py:_UNUSED", "m.py:orphan"]
