"""Only the assembled oracle imports scipy, and only ``scipy.sparse``: every
univariate factor is a dense array and every dense factorization is
``numpy.linalg``, so neither the storage decision nor a second dense
linear-algebra library can spread to another module of the package
unnoticed."""

import ast
from pathlib import Path

import igamf

SPARSE = "scipy.sparse"


def scipy_imports(source):
    """The scipy subpackages (``scipy.sparse``, ``scipy.linalg``, ...; bare
    ``scipy`` for the top-level package) that the statements in ``source``
    import from, in any spelling."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = ([f"{node.module}.{alias.name}" for alias in node.names]
                     if node.module == "scipy" else [node.module])
        else:
            continue
        found.update(".".join(n.split(".")[:2]) for n in names
                     if n == "scipy" or n.startswith("scipy."))
    return found


def test_scanner_sees_every_spelling():
    for source in ("import scipy.sparse as sp", "import scipy.sparse.linalg",
                   "from scipy import sparse", "from scipy.sparse import kron",
                   "def f():\n    import scipy.sparse"):
        assert scipy_imports(source) == {SPARSE}, source
    for source in ("import scipy.linalg", "from scipy import linalg",
                   "from scipy.linalg import eigh"):
        assert scipy_imports(source) == {"scipy.linalg"}, source
    assert scipy_imports("import scipy") == {"scipy"}
    assert not scipy_imports("import numpy.linalg\nfrom . import sparse\n"
                             "import scipyx")


def test_only_assembly_imports_scipy_and_only_its_sparse():
    package = Path(igamf.__file__).parent
    importers = {path.name: scipy_imports(path.read_text())
                 for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in importers.items() if found} == {
        "assembly.py": {SPARSE}}
