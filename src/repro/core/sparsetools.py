"""scipy's two compiled sparse products, without importing ``scipy.sparse``.

Every sparse product in the package is one of two routines of scipy's
``_sparsetools`` extension: ``csr_matvec`` (``A x``) and ``csc_matvec``
(``A^T z``, the CSC reading of the same CSR arrays). They are the
routines ``a @ x`` and ``a.T @ z`` end up in for a scipy CSR matrix,
so a caller holding the raw ``indptr``/``indices``/``data`` arrays
gets the same sums by construction. Both are called as
``routine(rows, cols, indptr, indices, data, vector, out)`` and add
into ``out``.

Importing ``scipy.sparse`` would load the whole package (hundreds of
milliseconds and tens of megabytes) for two functions. This module
reuses the extension when ``scipy.sparse`` already loaded it, and
otherwise loads the extension file from scipy's ``sparse`` directory
by itself, never running ``scipy/sparse/__init__.py``. There is no
fallback: without the file, importing this module raises
``ImportError`` naming the directory it searched. No package
``__init__`` imports this module, so ``import repro`` does not load it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.sparse._sparsetools"


def _load():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else None
    directories = [os.path.join(root, "sparse") for root in roots or ()]
    spec = importlib.machinery.PathFinder.find_spec(_NAME, directories)
    if spec is None:
        raise ImportError(
            f"scipy's compiled {_NAME} extension was not found in "
            f"{directories or 'any scipy installation'}",
            name=_NAME,
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Creating the extension registers it under its scipy name; drop
    # that entry so a later ``import scipy.sparse`` imports it as a
    # regular submodule of its package (from the interpreter's cache of
    # initialized extensions, without initializing it again).
    sys.modules.pop(_NAME, None)
    return module


_module = _load()
csr_matvec = _module.csr_matvec
csc_matvec = _module.csc_matvec

__all__ = ["csr_matvec", "csc_matvec"]
