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

Every name a module of src/eaqeckit/ (``__init__.py`` aside) imports is
used in that module, and every module-level private function or class is
named by code in src/eaqeckit/ outside its own definition.

A public function takes no proof as an argument: is_mds proves a twin code
only in the call that scans the code it scales, and assemble takes two codes
and s, no distances.
"""
import ast
import inspect
import re
from pathlib import Path

import pytest

from eaqeckit import (DistanceReport, FMatrix, MdsReport, assemble, field_new,
                      from_generator, is_mds)

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


def test_every_import_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - loaded)]
    assert not unused, unused


def test_every_private_helper_is_used_in_src():
    # a module-level _function or _Class of src/eaqeckit/ is used when code
    # in src/eaqeckit/ outside its own definition names it; the AST has no
    # comments, and a docstring is a string, not a name
    helpers, uses = set(), set()  # (module, name); (name, top-level statement it is in)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and owner.startswith("_") \
                    and not owner.startswith("__"):
                helpers.add((path.name, owner))
            uses |= {(n.id if isinstance(n, ast.Name) else n.attr, owner)
                     for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
    assert helpers
    unused = sorted(f"{module}: {name}" for module, name in helpers
                    if not any(used == name and owner != name for used, owner in uses))
    assert not unused, unused


def test_is_mds_takes_a_code_its_symmetries_and_a_twin():
    # the one relation a twin proves is a checked column scaling; a Gabidulin
    # pair goes to no is_mds call, proved by _certify from its Moore rows
    assert list(inspect.signature(is_mds).parameters) == ["C", "symmetries", "twin"]


def test_is_mds_takes_no_claim_on_trust():
    # the [4,2]_5 code has columns 2 and 3 dependent, (1, 2) and (2, 4); a
    # twin that is the code itself, a report built by hand, or is_mds's own
    # report that it is not MDS, all get the full scan and its verdict, and
    # no twin is proved with a code that is not MDS
    f5 = field_new(5, 1)
    C = from_generator(FMatrix(f5, [[1, 0, 1, 2], [0, 1, 2, 4]], 4))
    scan = is_mds(C)
    assert not scan.is_mds and scan.witness == (2, 3)
    claims = [C, MdsReport(True, "generator", 2),
              MdsReport(True, "generator", 2, twin_mds=True), scan]
    for twin in claims:
        report = is_mds(C, twin=twin)
        assert report == scan and not report.twin_mds, twin


def test_first_dependent_columns_takes_only_w():
    # the scan searches every w-subset of the matrix it is given; is_mds alone
    # reduces it by a fixed prefix, handing it the tail of an RREF
    assert list(inspect.signature(FMatrix.first_dependent_columns).parameters) == ["self", "w"]


def test_assemble_takes_two_codes_and_s():
    # the distances of the tuple come from the caller's own MDS proofs, so
    # assemble takes none, not even a DistanceReport
    assert list(inspect.signature(assemble).parameters) == ["C1", "C2", "s"]
    C = from_generator(FMatrix(field_new(2, 1), [[1, 0, 1, 0], [0, 1, 0, 1]], 4))
    with pytest.raises(TypeError):
        assemble(C, C, 0, DistanceReport(2, "mds-columns"), DistanceReport(2, "mds-columns"))
