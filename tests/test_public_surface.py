"""Every name the package re-exports has a user outside the tests.

A name is used when it appears, by word boundary, in bench/, in a fenced
code block of the README, or in src/eaqeckit/ (``__init__.py`` aside) in code
that is itself used.  Module-level code counts always.  The definition of a
re-exported name counts only once that name is used, so a name that only
another unused name calls is unused too.  Imports and module docstrings are
not uses.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eaqeckit"


def reexported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def defined_names(node) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_reexport_is_used_outside_tests():
    names = reexported()
    assert names
    roots = [p.read_text() for p in sorted((ROOT / "bench").rglob("*"))
             if p.is_file() and p.suffix in (".py", ".md", ".json")]
    roots += re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    owned: dict[str, list[str]] = {}  # re-exported name -> its definition's source
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        for node in ast.parse(source).body:
            docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if docstring or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            segment = ast.get_source_segment(source, node)
            mine = defined_names(node) & names
            for name in mine:
                owned.setdefault(name, []).append(segment)
            if not mine:
                roots.append(segment)
    used, pending = set(), roots
    while pending:
        text = pending.pop()
        for name in names - used:
            if re.search(rf"\b{re.escape(name)}\b", text):
                used.add(name)
                pending.extend(owned.get(name, []))
    assert not names - used, sorted(names - used)
