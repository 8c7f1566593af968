"""Every Sphinx cross-reference in the package's docstrings and ``#:``
comments names an existing module attribute, so a renamed or deleted
helper cannot leave a stale reference behind."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import igamf
from igamf import kron, operators

ROLE = re.compile(r":(func|meth|class|data|mod):`~?([\w.]+)`")


def references():
    """``(module, enclosing class name or None, role, target)`` of every
    cross-reference in the package's source."""
    for info in pkgutil.iter_modules(igamf.__path__):
        module = importlib.import_module(f"igamf.{info.name}")
        source = Path(module.__file__).read_text()
        classes = [(node.lineno, node.end_lineno, node.name)
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ClassDef)]
        for match in ROLE.finditer(source):
            line = source.count("\n", 0, match.start()) + 1
            enclosing = [(first, name) for first, last, name in classes
                         if first <= line <= last]
            cls = max(enclosing)[1] if enclosing else None
            yield module, cls, *match.groups()


def resolve(module, cls, role, target):
    """The object ``target`` names, looked up as Sphinx would: a dotted
    ``igamf.<module>.`` path from the package, any other name in the
    enclosing module and a bare ``:meth:`` in the enclosing class."""
    parts = target.split(".")
    if role == "mod":
        return importlib.import_module(target)
    if parts[0] == "igamf":
        module = importlib.import_module(".".join(parts[:2]))
        parts = parts[2:]
    elif role == "meth" and len(parts) == 1 and cls is not None:
        parts = [cls] + parts
    obj = module
    for name in parts:
        obj = getattr(obj, name)
    return obj


def test_cross_references_resolve():
    refs = list(references())
    assert len(refs) >= 90
    stale = []
    for module, cls, role, target in refs:
        try:
            resolve(module, cls, role, target)
        except (AttributeError, ImportError):
            stale.append(f"{module.__name__}: :{role}:`{target}`")
    assert not stale, f"cross-references naming nothing: {stale}"


def test_bare_method_and_deleted_helper():
    # a bare :meth: resolves in its enclosing class; a deleted helper
    # (the slab layout the chunk walk replaced) resolves to nothing
    assert resolve(operators, "_WQOperator", "meth", "_tile_pass")
    with pytest.raises(AttributeError):
        resolve(kron, None, "func", "slab_grid")
