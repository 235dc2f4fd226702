"""The epoch loop's dense algebra runs on scipy's BLAS/LAPACK only.

numpy and scipy each load their own OpenBLAS. After a call, a pool's
threads keep spinning for a while, so alternating numpy and scipy calls
leaves two pools fighting over the cores. The modules the epoch loop runs
therefore make no numpy BLAS or LAPACK call; this test reads their source
and fails on any. `harness.streams` is exempt: it generates the data once,
before the loop.
"""
import ast
from pathlib import Path

import pytest

import gossipgp

PACKAGE = Path(gossipgp.__file__).parent
LOOP_MODULES = (
    "features.py",
    "info_filter.py",
    "robust.py",
    "consensus.py",
    "dynamics.py",
    "ensemble.py",
    "harness/metrics.py",
    "harness/runner.py",
)
NUMPY_NAMES = {"np", "numpy"}
# numpy entry points that dispatch to numpy's own BLAS or LAPACK.
FORBIDDEN_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def numpy_blas_uses(source: str) -> list[str]:
    """Line-numbered descriptions of every numpy BLAS/LAPACK use in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {line}: '@'")
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name is None:
                if node.attr == "dot":
                    found.append(f"line {line}: .dot()")
                continue
            head, _, rest = name.partition(".")
            if head in NUMPY_NAMES and (rest in FORBIDDEN_CALLS or rest == "linalg"):
                found.append(f"line {line}: {name}")
            elif head not in NUMPY_NAMES and node.attr == "dot":
                found.append(f"line {line}: {name}()")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if node.module.startswith("numpy.linalg") or names & (FORBIDDEN_CALLS | {"linalg"}):
                found.append(f"line {line}: from {node.module} import {sorted(names)}")
        elif isinstance(node, ast.Import):
            found += [f"line {line}: import {a.name}" for a in node.names
                      if a.name.startswith("numpy.linalg")]
    return found


@pytest.mark.parametrize("module", LOOP_MODULES)
def test_loop_module_makes_no_numpy_blas_call(module):
    uses = numpy_blas_uses((PACKAGE / module).read_text())
    assert uses == [], f"{module} calls numpy's BLAS/LAPACK: {uses}"


@pytest.mark.parametrize("snippet", [
    "c = a @ b",
    "c @= b",
    "np.dot(a, b)",
    "a.dot(b)",
    "np.matmul(a, b)",
    "np.tensordot(a, b, 1)",
    "np.inner(a, b)",
    "numpy.linalg.eigh(a)",
    "np.linalg.cholesky(a)",
    "from numpy.linalg import inv",
    "from numpy import dot",
    "import numpy.linalg",
])
def test_scanner_flags_each_numpy_blas_form(snippet):
    assert len(numpy_blas_uses(snippet)) == 1


def test_scanner_passes_elementwise_and_scipy_code():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import blas\n"
        "c = blas.dgemm(1.0, a, b)\n"
        "d = np.einsum('ij,ij->', a, a) * np.sqrt(x) + a.T\n"
        "e = scipy.linalg.eigvalsh(c)\n"
    )
    assert numpy_blas_uses(source) == []
