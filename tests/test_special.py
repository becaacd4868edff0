"""The library computes Poisson and binomial laws with ``scipy.special`` ufuncs.

``scipy.stats`` wraps the same ufuncs; here it is the reference, and every
value must match it bit for bit over the kernel sizes and intensities the
benchmark workloads use (one atom at lambda 1 and 15-40, three atoms at
0.02-0.25 and 0.5-2). The one-atom kernel is also held to an exact rational
oracle within a derived roundoff bound, which does not depend on its bits.
"""

import math
from fractions import Fraction
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats
from scipy.special import _ufuncs

import poisson_ou
from poisson_ou import grids, ground, ou_kernel_1d, semigroup
from poisson_ou.ground import _min_cap

INTENSITIES = [0.02, 0.05, 0.13, 0.25, 0.5, 1.0, 2.0, 15.0, 27.5, 40.0]
TIMES = [0.0, 0.01, 0.05, 0.3, 1.0, 2.0, 5.0]
MAX_SIZE = 188


def loop_kernel(lam, size, t):
    """The one-row-at-a-time kernel built on ``scipy.stats``."""
    keep = math.exp(-t)
    refresh = stats.poisson.pmf(np.arange(size), (1.0 - keep) * lam)
    kernel = np.zeros((size, size))
    for n in range(size):
        thinned = stats.binom.pmf(np.arange(n + 1), n, keep)
        kernel[n] = np.convolve(thinned, refresh)[:size]
    return kernel


def convolve_kernel(lam, size, t):
    """``ou_kernel_1d`` on its own inputs, one ``np.convolve`` per row."""
    keep = math.exp(-t)
    if keep < semigroup._KEEP_FLOOR:
        keep = 0.0
    refresh = grids.poisson_pmf_vector((1.0 - keep) * lam, size)
    n = np.arange(size)
    thinned = _ufuncs._binom_pmf(n, n[:, None], keep)
    kernel = np.zeros((size, size))
    for row in range(size):
        kernel[row] = np.convolve(thinned[row, : row + 1], refresh)[:size]
    return kernel


def stats_min_cap(lam, tail):
    """``_min_cap`` with the ``scipy.stats`` ppf guess and sf."""
    guess = stats.poisson.ppf(1.0 - tail, lam)
    n = int(guess) if math.isfinite(guess) else int(lam)
    while stats.poisson.sf(n, lam) > tail:
        n += 1
    while n > 0 and stats.poisson.sf(n - 1, lam) <= tail:
        n -= 1
    return n


class TestMatchesStats:
    @pytest.mark.parametrize("t", TIMES)
    def test_binom_pmf(self, t):
        keep = math.exp(-t)
        n = np.arange(MAX_SIZE)
        lower = n <= n[:, None]
        k_idx, n_idx = np.broadcast_arrays(n, n[:, None])
        ours = _ufuncs._binom_pmf(k_idx[lower], n_idx[lower], keep)
        ref = stats.binom.pmf(k_idx[lower], n_idx[lower], keep)
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("lam", INTENSITIES)
    def test_poisson_pmf_logpmf_sf_cdf(self, lam):
        k = np.arange(400)
        assert np.array_equal(grids.poisson_pmf_vector(lam, k.size), stats.poisson.pmf(k, lam))
        assert np.array_equal(grids.poisson_logpmf(k, lam), stats.poisson.logpmf(k, lam))
        assert np.array_equal(special.pdtrc(k, lam), stats.poisson.sf(k, lam))
        assert np.array_equal(special.pdtr(k, lam), stats.poisson.cdf(k, lam))

    @pytest.mark.parametrize("lam", INTENSITIES)
    def test_refresh_pmf(self, lam):
        for t in TIMES:
            mu = (1.0 - math.exp(-t)) * lam
            assert np.array_equal(grids.poisson_pmf_vector(mu, MAX_SIZE),
                                  stats.poisson.pmf(np.arange(MAX_SIZE), mu))

    @pytest.mark.parametrize("lam,size", [
        (0.02, 10), (0.13, 12), (0.25, 14), (1.0, 1), (1.0, 2), (1.0, 32),
        (15.0, 102), (40.0, 188),
    ])
    def test_kernel(self, lam, size):
        for t in TIMES:
            assert np.array_equal(ou_kernel_1d(lam, size, t), loop_kernel(lam, size, t))

    def test_min_cap(self):
        rng = np.random.default_rng(0)
        tails = [1e-30, 1e-17, 1e-16, 1e-12, 1e-6, 0.5, *10.0 ** rng.uniform(-30, -1, 34)]
        for lam in INTENSITIES:
            for tail in tails:
                assert _min_cap(lam, tail) == stats_min_cap(lam, tail), (lam, tail)


@pytest.mark.parametrize("lam", [1.0, 40.0, 1e6, 1e11, 3e11, 1e15, 1e100, 1e300, 1e308])
@pytest.mark.parametrize("tail", [1e-30, 1e-12, 0.5])
def test_min_cap_search_is_logarithmic_in_lam(monkeypatch, lam, tail):
    # the search stepped one count at a time from the guess, or from lam
    # where pdtrik is nan (1 - tail rounds to 1, or lam from about 3e11)
    calls = []
    monkeypatch.setattr(ground, "pdtrc", lambda *args: calls.append(args) or special.pdtrc(*args))
    cap = _min_cap(lam, tail)
    assert len(calls) <= 2 * math.log2(lam + 2) + 10
    assert special.pdtrc(cap, lam) <= tail and (cap == 0 or special.pdtrc(cap - 1, lam) > tail)


def pascal_kernel(lam, size, t):
    """The kernel of the float keep = e^-t and refresh pmf, in exact arithmetic.

    Row n is Binomial(n, keep) convolved with the refresh pmf, built by the
    Pascal recursion K[n] = (1 - keep) K[n-1] + keep shift(K[n-1]) from
    K[0] = refresh; a column depends only on columns to its left, so the
    truncation at ``size`` is exact.
    """
    keep = Fraction(math.exp(-t))
    row = [Fraction(x) for x in grids.poisson_pmf_vector((1.0 - math.exp(-t)) * lam, size)]
    rows = [row]
    for _ in range(1, size):
        row = [(1 - keep) * row[0]] + [(1 - keep) * row[k] + keep * row[k - 1]
                                       for k in range(1, size)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("lam,size", [
    (0.02, 10), (0.13, 12), (0.25, 14), (1.0, 1), (1.0, 2), (1.0, 32), (2.0, 32),
])
def test_kernel_within_roundoff_of_exact(lam, size):
    """Every entry of ``ou_kernel_1d`` is within ``size * eps`` of ``pascal_kernel``.

    The oracle starts from the same float keep and refresh pmf, so the gap is
    the kernel's own rounding. Entry [n, k] = sum_j b(j) r(k - j) is a float
    dot product of at most ``size`` nonnegative terms, which errs by at most
    gamma_size = size u / (1 - size u), u = eps / 2, times the exact sum of
    its terms; that sum is at most the row sum, <= 1, so this part is at most
    size * eps / 2 (to first order). Each binomial pmf value b(j) enters with
    its own absolute error; the terms weight those errors by r(k - j), whose
    sum is <= 1, so they add at most the largest of them. scipy's binomial
    pmf keeps that below 2.4 eps for n < 32 at these times (it is exact at
    n = 0 and a single rounding of 1 - keep at n = 1), which is within the
    other size * eps / 2 for every size here.
    """
    bound = size * np.finfo(float).eps
    for t in TIMES:
        kernel = ou_kernel_1d(lam, size, t)
        exact = pascal_kernel(lam, size, t)
        worst = max(abs(Fraction(float(kernel[n, k])) - exact[n][k])
                    for n in range(size) for k in range(size))
        assert worst <= bound, (t, float(worst) / bound)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
def test_tail_series(lam):
    # P[X > k] = pmf(k + 1) * S, where the sf is still a normal float; exp of
    # a log pmf of size up to ~500 carries a relative error of ~500 eps
    k = np.arange(1, 120)
    tail = np.exp(grids.poisson_logpmf(k + 1, lam)) * grids.poisson_tail_series(k, lam)
    assert np.allclose(tail, special.pdtrc(k, lam), rtol=1e-12, atol=0.0)


def test_kernel_rows_are_np_convolve_bit_for_bit():
    """Each row is taken by ``np.correlate`` in the argument order
    ``np.convolve`` passes on, so every entry has the loop's bits: sizes
    1-199, with t random in (0, 3), 0, tiny (1e-9 to 1e-3) and past the keep
    floor (e^-t < 1e-300 from t = 690.8; scipy's binomial pmf would overflow
    from about 706.5)."""
    rng = np.random.default_rng(25)
    cases = [(1.0, 1, 0.0), (1.0, 1, 706.5), (40.0, 1, 1.0), (0.02, 2, 0.0),
             (27.5, 102, 706.5), (15.0, 188, 800.0)]
    for k in range(120):
        t = (rng.uniform(0.0, 3.0), 0.0, 800.0, rng.uniform(1e-9, 1e-3))[k % 4]
        cases.append((rng.uniform(0.01, 40.0), int(rng.integers(1, 200)), t))
    for lam, size, t in cases:
        assert (ou_kernel_1d(lam, size, t).tobytes()
                == convolve_kernel(lam, size, t).tobytes()), (lam, size, t)


class TestFallback:
    @pytest.mark.parametrize("lam,size", [(1.0, 32), (0.25, 14), (27.5, 102)])
    def test_kernel_without_private_ufunc(self, monkeypatch, lam, size):
        # the library's view of a scipy without the ufunc; scipy.stats itself
        # still calls it here, so the module's attribute stays in place
        monkeypatch.setattr(semigroup, "_ufuncs", SimpleNamespace())
        for t in (0.0, 0.3, 2.0):
            assert np.array_equal(ou_kernel_1d(lam, size, t), loop_kernel(lam, size, t))


#: the functions the library takes from ``poisson_ou._special``
SPECIAL_NAMES = ("gammainc", "gammaln", "pdtr", "pdtrc", "pdtrik", "xlogy")

#: run after the library is imported in a fresh interpreter: imports the real
#: ``scipy.special`` and ``scipy.stats``, then prints what the loader left
LOADER_PROBE = f"""
import json, sys
import numpy as np
from poisson_ou import _special
heavy = [m for m in ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "scipy.stats")
         if m in sys.modules]
import scipy.special
from scipy import stats
n = np.arange(80)
k_idx, n_idx = np.broadcast_arrays(n, n[:, None])
lower = k_idx <= n_idx
pmf_same = all(
    stats.binom.pmf(k_idx[lower], n_idx[lower], p).tobytes()
    == _special.ufuncs._binom_pmf(k_idx[lower], n_idx[lower], p).tobytes()
    for p in (0.0, 1e-9, 0.3, 0.5, 0.97, 1.0))
same = (scipy.special._ufuncs is _special.ufuncs
        and all(getattr(scipy.special, f) is getattr(_special, f) for f in {SPECIAL_NAMES!r}))
print(json.dumps({{"heavy": heavy, "same": same, "pmf_same": pmf_same}}))
"""

#: forces the light path's import of ``_ufuncs`` to fail once
REFUSE_ONCE = """
class Refuse:
    calls = 0
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not Refuse.calls:
            Refuse.calls += 1
            raise ImportError("refused once")
sys.meta_path.insert(0, Refuse())
"""


def run_loader_probe(before="", after=""):
    """Import ``poisson_ou.cli`` in a fresh interpreter between ``before`` and
    ``after``, then run ``LOADER_PROBE``; returns its record, plus whether
    ``scipy.special`` was imported right after the library."""
    src = str(Path(poisson_ou.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n{before}\n"
            "import poisson_ou.cli\n"
            "special_after_import = 'scipy.special' in sys.modules\n"
            f"{after}\n{LOADER_PROBE}\n"
            "print(special_after_import)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    record, special_after_import = result.stdout.splitlines()
    return {**json.loads(record), "special_after_import": special_after_import == "True"}


def test_cli_import_leaves_scipy_stats_out():
    """The light path: the library loads ``scipy.special._ufuncs`` without the
    package's ``__init__``, so neither ``scipy.special`` nor its array-API
    layer nor ``numpy.f2py`` is imported; importing them afterwards binds the
    same ufunc objects, and ``scipy.stats`` gives the same binomial pmf bits."""
    record = run_loader_probe()
    assert record == {"heavy": [], "same": True, "pmf_same": True,
                      "special_after_import": False}


@pytest.mark.parametrize("before,after,took_ordinary_path", [
    # scipy.special already imported: the ordinary import
    ("from scipy import stats", "", True),
    # another thread alive: the ordinary import
    ("import threading; done = threading.Event(); "
     "waiter = threading.Thread(target=done.wait); waiter.start()",
     "done.set(); waiter.join()", True),
    # the light path raises ImportError: the ordinary import
    (REFUSE_ONCE, "assert Refuse.calls == 1", True),
], ids=["stats-first", "live-thread", "import-error"])
def test_loader_fallbacks_bind_the_same_ufuncs(before, after, took_ordinary_path):
    record = run_loader_probe(before, after)
    assert record["special_after_import"] is took_ordinary_path
    assert record["same"] and record["pmf_same"]
