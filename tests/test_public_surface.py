"""Every name the package re-exports, and every public method or property of
a re-exported class, has a user outside the tests.

A name is used when it appears, by word boundary, in bench/, in a fenced
code block of the README, or in src/eaqeckit/ (``__init__.py`` aside) in code
that is itself used.  Module-level code counts always.  The definition of a
re-exported name counts only once that name is used, so a name that only
another unused name calls is unused too.  Imports and module docstrings are
not uses.

A member is used when its attribute name is referenced outside its own
definition, in src/eaqeckit/, in bench/ or in a fenced python block of the
README, or when bench/tracing.py TARGETS names it as "Class.member".  A
property counts where it is read, not where a same-named method is called.
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


def attribute_uses(tree) -> list[tuple[str, bool, tuple]]:
    """(attribute, is called, enclosing class method) of every attribute
    reference in tree, leaving out those read from an imported outside module
    (``np.zeros`` is numpy's, not a member of ours)."""
    outside = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and node.level == 0
               and not (node.module or "").startswith("eaqeckit")
               for alias in node.names}
    uses = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                inner = (node.name, child.name) if isinstance(child, ast.FunctionDef) else owner
                visit(child, inner)
            return
        called = node.func if isinstance(node, ast.Call) else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and not (
                    isinstance(child.value, ast.Name) and child.value.id in outside):
                uses.append((child.attr, child is called, owner))
            visit(child, owner)

    visit(tree, None)
    return uses


def test_every_member_of_a_reexport_is_used_outside_tests():
    names = reexported()
    members = set()  # (class, member, is a property)
    trees = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        trees.append(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in names:
                members |= {(cls.name, f.name, any(isinstance(d, ast.Name) and d.id == "property"
                                                   for d in f.decorator_list))
                            for f in cls.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    assert members
    trees += [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    trees += [ast.parse(block) for block in
              re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)]
    uses = [use for tree in trees for use in attribute_uses(tree)]
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tracing.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    traced = {tuple(attr.split(".")) for _module, attr, _span in targets if "." in attr}
    unused = sorted(f"{cls}.{member}" for cls, member, prop in members
                    if (cls, member) not in traced
                    and not any(attr == member and owner != (cls, member)
                                and not (prop and called)
                                for attr, called, owner in uses))
    assert not unused, unused
