"""Only the assembled oracle imports ``scipy.sparse``: every univariate
factor is a dense array, so the storage decision cannot spread to another
module of the package unnoticed."""

import ast
from pathlib import Path

import igamf

SPARSE = "scipy.sparse"


def sparse_imports(source):
    """Line numbers of the statements in ``source`` that import
    ``scipy.sparse`` or a submodule of it, in any spelling."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(n == SPARSE or n.startswith(SPARSE + ".") for n in names):
            lines.append(node.lineno)
    return lines


def test_scanner_sees_every_spelling():
    for source in ("import scipy.sparse as sp", "import scipy.sparse.linalg",
                   "from scipy import sparse", "from scipy.sparse import kron",
                   "def f():\n    import scipy.sparse"):
        assert sparse_imports(source), source
    assert not sparse_imports("import scipy.linalg\nfrom scipy import linalg")


def test_only_assembly_imports_scipy_sparse():
    package = Path(igamf.__file__).parent
    importers = sorted(path.name for path in package.glob("*.py")
                       if sparse_imports(path.read_text()))
    assert importers == ["assembly.py"]
