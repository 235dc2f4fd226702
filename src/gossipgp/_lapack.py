"""scipy's BLAS and LAPACK wrappers, loaded without the scipy.linalg package.

`import scipy.linalg` runs the package's __init__, which imports every
linalg submodule and scipy's array-API layer (numpy.f2py and numpy.testing
come with it): about 0.25 s and 17 MB per process, none of which the epoch
loop uses. The loop calls only the f2py extensions scipy.linalg._fblas and
scipy.linalg._flapack, which need numpy alone. This module loads the two
from scipy's linalg directory, found through scipy's import spec, so scipy's
__init__ runs only on Windows, and registers them in sys.modules under those
names, so a later `import scipy.linalg` shares these module objects.

blas and lapack are the extension modules themselves; their routines take
the same arguments as scipy.linalg.blas and scipy.linalg.lapack give them.
"""
from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import numpy  # noqa: F401  its OpenBLAS loads before scipy's (see gossipgp/__init__.py)
if sys.platform == "win32":
    import scipy  # noqa: F401  its __init__ (about 1 MB) adds the wheel's DLL directory


def _extension(name: str):
    """The extension module scipy.linalg.<name>, loaded on its own if not yet loaded."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("gossipgp needs scipy, which is not installed", name="scipy")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = PathFinder.find_spec(fullname, [directory])
    if spec is None:
        raise ImportError(f"scipy's extension {fullname} is not in {directory}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


blas = _extension("_fblas")
lapack = _extension("_flapack")


def eigvalsh(a, lower: bool, overwrite_a: bool):
    """Ascending eigenvalues of the symmetric float64 matrix whose `lower` (else upper) triangle a holds.

    The same dsyevr call, after the same dsyevr_lwork query, as
    scipy.linalg.eigvalsh(a, lower=lower, overwrite_a=overwrite_a,
    check_finite=False) makes with its default 'evr' driver.
    """
    lwork, liwork, info = lapack.dsyevr_lwork(a.shape[0], lower=lower)
    if info != 0:
        raise ValueError(f"dsyevr_lwork failed (info {info})")
    w, _, _, _, info = lapack.dsyevr(a, compute_v=0, lower=lower, lwork=int(lwork),
                                     liwork=int(liwork), overwrite_a=overwrite_a)
    if info != 0:
        raise ValueError(f"dsyevr failed (info {info})")
    return w
