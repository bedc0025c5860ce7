"""The library's one handle on LAPACK.

Internal module: the LAPACK routines bundles, spectral and truncation call,
read as lapack.<routine> after `from . import _linalg as lapack`.  They are
the routines of scipy's compiled f2py module scipy.linalg._flapack, loaded
from its file, so that importing homcont does not import the scipy.linalg
package (its Python layer pulls in numpy.f2py and numpy.testing and about
doubles the start-up time of every command).  The module is registered
under its own name, so a process that also imports scipy.linalg, before or
after homcont, holds one copy and scipy.linalg.lapack.<routine> is the
routine named here.  Where the file cannot be loaded, the routines come
from scipy.linalg.lapack itself.  Each routine is an attribute of this
module, the one place where a test or a profiler replaces it for the whole
library.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy.linalg._flapack, without importing the scipy.linalg package."""
    loaded = sys.modules.get(_FLAPACK)
    if loaded is not None:
        return loaded
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    folder = Path(scipy_spec.origin).parent / "linalg"
    paths = [folder / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    spec = next((importlib.util.spec_from_file_location(_FLAPACK, path)
                 for path in paths if path.is_file()), None)
    if spec is None:
        raise ImportError(f"no loadable _flapack extension under {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


try:
    _flapack = _load_flapack()
except (ImportError, OSError):
    from scipy.linalg import lapack as _flapack

dgbtrf = _flapack.dgbtrf
dgbtrs = _flapack.dgbtrs
dgees = _flapack.dgees
dgesdd = _flapack.dgesdd
dggev = _flapack.dggev
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs
dstebz = _flapack.dstebz
dstein = _flapack.dstein
dtrsen = _flapack.dtrsen
