"""The compiled ufuncs of ``scipy.special``, without the package's ``__init__``.

This is the library's one scipy import (apart from the kernel's lazy
``scipy.stats`` fallback in ``semigroup``). Every scipy function the library
calls (``gammaln``, ``xlogy``, ``pdtr``, ``pdtrc``, ``pdtrik``, ``gammainc``
and ``_binom_pmf``) lives in the compiled module ``scipy.special._ufuncs``.
Importing ``scipy.special`` itself also loads scipy's array-API layer, and
with it ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, none of which the
library uses: about 0.26 s of every ``poisson-ou run``.

So ``_ufuncs`` is loaded under a bare ``scipy.special`` package object, built
from the package's spec and never executed, which ``sys.modules`` holds only
for the duration of that import. A later ``import scipy.special`` (or
``from scipy import stats``) runs the real ``__init__``, which binds the same
``_ufuncs`` module, so the ufunc objects are the same on every path.

The ordinary ``import scipy.special._ufuncs`` is taken instead

* when ``scipy.special`` is already imported;
* when another thread is alive, since it could import ``scipy.special``
  while the bare package stands in ``sys.modules``;
* when the light path raises ``ImportError`` (a scipy laid out differently).
"""

import importlib
import importlib.util
import sys
import threading

_PACKAGE = "scipy.special"


def _load_under_bare_package():
    spec = importlib.util.find_spec(_PACKAGE)  # imports the scipy package
    if spec is None or _PACKAGE in sys.modules:
        raise ImportError(f"no {_PACKAGE} to load bare")
    bare = importlib.util.module_from_spec(spec)
    sys.modules[_PACKAGE] = bare
    try:
        return importlib.import_module(_PACKAGE + "._ufuncs")
    finally:
        if sys.modules.get(_PACKAGE) is bare:
            del sys.modules[_PACKAGE]


def _load():
    """``scipy.special._ufuncs``, by the light path where the rules allow it."""
    if _PACKAGE not in sys.modules and threading.active_count() == 1:
        try:
            return _load_under_bare_package()
        except ImportError:
            pass
    return importlib.import_module(_PACKAGE + "._ufuncs")


ufuncs = _load()
gammainc, gammaln, pdtr, pdtrc, pdtrik, xlogy = (
    ufuncs.gammainc, ufuncs.gammaln, ufuncs.pdtr, ufuncs.pdtrc, ufuncs.pdtrik, ufuncs.xlogy)
