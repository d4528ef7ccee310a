"""Cholesky machinery for banded SPD precision matrices.

Precision matrices of lattice Gaussian Markov random fields are banded when
nodes are numbered row-major, so LAPACK's banded Cholesky (``pbtrf``) gives
exact factorization, log-determinants, solves, and sampling without any
sparse-Cholesky dependency.  Matrices are held in LAPACK lower-banded storage
``ab[k, j] = A[j+k, j]``.  ``BorderedPrecision`` extends this to the joint
precision of (field weights, regression coefficients): a banded block plus a
small dense border, eliminated by Schur complement.

A band passed to ``BandedCholesky`` (directly or as a ``BorderedPrecision``
field block) belongs to the factor from then on: a Fortran-ordered
(column-major) band is factored in place and holds the factor afterwards,
while a C-ordered one is copied by the LAPACK wrapper.  Nobody keeps a band
but a factor: ``GmrfPrecision.banded`` assembles a new column-major one on
each call, for each fresh Newton Hessian and for the factor that a field
draw holds beside its transpose ``L^T``.  Which Hessian factors ``inference``
keeps, and for how many Newton steps, its module docstring says.

``BandedCholesky`` makes four band calls: ``cholesky_banded`` (``pbtrf``) to
factor, ``cho_solve_banded`` to solve, ``dtbtrs`` to solve ``L^T x = z`` for
sampling, and ``dtbmv`` twice for products.  They run slower on OpenBLAS's
threads than on one (a VSE fit on the default study geometry: 3.0 s on two
threads, 2.3 s on one, on a 2-vCPU machine), so each runs, for any caller,
under ``_one_blas_thread``, which pins the OpenBLAS libraries that numpy and
scipy call LAPACK through to one thread and gives the caller's count back
on the way out.  Nothing else in the package takes the pin:
``geo.pearson_corr`` sums without BLAS.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack, cho_factor, cho_solve, cho_solve_banded, cholesky_banded
from scipy.linalg.blas import dtbmv
from scipy.linalg.lapack import dtbtrs

from lgcpthin.errors import NotSpdError

# (setter, getter) per OpenBLAS build: numpy's wheel, scipy's wheel, a system library
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas() -> list[tuple]:
    """(setter, getter) of each OpenBLAS that numpy and scipy call LAPACK through.

    numpy's ``_umath_linalg`` and scipy's ``_flapack`` extension modules are
    opened again with ``RTLD_NOLOAD``, which returns a handle to the copy
    already loaded, and the symbols are looked up in each module and the
    libraries it links.  An OpenBLAS that another package loaded is left
    alone.  Where there is no ``RTLD_NOLOAD`` (Windows) or no OpenBLAS, the
    list is empty and nothing is pinned.
    """
    libs = {}
    for module in (_umath_linalg, _flapack):
        try:
            lib = ctypes.CDLL(module.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LOCAL)
        except (AttributeError, OSError):
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_n, get_n = getattr(lib, set_name), getattr(lib, get_name)
                set_n.argtypes, set_n.restype = [ctypes.c_int], None
                get_n.argtypes, get_n.restype = [], ctypes.c_int
                # keyed by address: numpy and scipy may link one library
                libs[ctypes.cast(set_n, ctypes.c_void_p).value] = (set_n, get_n)
                break
    return list(libs.values())


class _OneBlasThread:
    """Run the ``with`` body with every OpenBLAS on one thread.

    The outermost entry records each library's thread count and sets it to 1;
    the outermost exit, by return or exception, sets the recorded counts
    back.  Nested entries, and entries from other threads while one is
    active, only move a counter under a lock.  Libraries are looked up on the
    first entry, not at import.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._libs: list[tuple] | None = None
        self._saved: list[tuple] = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                if self._libs is None:
                    self._libs = _loaded_openblas()
                self._saved = [(set_n, get_n()) for set_n, get_n in self._libs]
                for set_n, _ in self._saved:
                    set_n(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_n, count in self._saved:
                    set_n(count)

    def _reset_in_child(self):
        """A forked child has one thread: the parent's holders of the lock and
        the pin are not in it, so it starts with a free lock and depth 0."""
        self._lock = threading.Lock()
        self._depth = 0


# one instance for the process, because the thread count it guards is global
_one_blas_thread = _OneBlasThread()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_one_blas_thread._reset_in_child)


class BandedCholesky:
    """Cholesky factor of a banded SPD matrix ``A = L L^T``.

    ``ab`` is A in lower-banded storage, shape (w+1, n).  The factor takes
    ownership of it: a Fortran-ordered ``ab`` is overwritten with L (also on
    failure), so the caller must not read it again.  Pass a copy to keep A.
    """

    def __init__(self, ab: np.ndarray):
        if np.any(ab[0] <= 0.0) or not np.all(np.isfinite(ab[0])):
            raise NotSpdError("matrix diagonal is not positive and finite")
        try:
            with _one_blas_thread:
                self._cb = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NotSpdError(f"banded Cholesky failed: {exc}") from exc
        self.n = ab.shape[1]
        self.bandwidth = ab.shape[0] - 1
        self._lt_storage: np.ndarray | None = None

    @property
    def _lt(self) -> np.ndarray:
        """Upper-banded storage of L^T (built on first sampling use)."""
        if self._lt_storage is None:
            w = self.bandwidth
            ab_u = np.zeros_like(self._cb)
            for s in range(w + 1):
                ab_u[w - s, s:] = self._cb[s, : self.n - s]
            self._lt_storage = ab_u
        return self._lt_storage

    def logdet(self) -> float:
        """log det A = 2 sum(log diag L)."""
        return 2.0 * float(np.sum(np.log(self._cb[0])))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (b may carry extra trailing axes as columns)."""
        with _one_blas_thread:
            return cho_solve_banded((self._cb, True), b, check_finite=False)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector x, as L (L^T x)."""
        w = self.bandwidth
        with _one_blas_thread:
            return dtbmv(w, self._cb, dtbmv(w, self._cb, x, lower=1, trans=1), lower=1,
                         overwrite_x=1)

    def solve_lt(self, z: np.ndarray) -> np.ndarray:
        """Solve L^T x = z; for z ~ N(0, I) the result has covariance A^{-1}.

        ``z`` is a vector or has one column per right-hand side; the result
        has its shape.
        """
        with _one_blas_thread:
            x, info = dtbtrs(self._lt, z.reshape(self.n, -1), uplo="U", trans="N")
        if info != 0:
            raise np.linalg.LinAlgError(f"dtbtrs failed: info = {info}")
        return x.reshape(z.shape)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` samples with covariance A^{-1}; shape (n, size)."""
        z = rng.standard_normal((self.n, size))
        return self.solve_lt(z)


class BorderedPrecision:
    """Joint precision ``[[Hw, Hwb], [Hwb^T, Hbb]]`` with banded Hw.

    Hw is the (large, banded) field block, Hbb the small dense coefficient
    block.  Factors once; provides logdet, solves, marginal coefficient
    covariance, and joint sampling via the block decomposition
    ``x_b ~ N(0, S^{-1})``, ``x_w | x_b ~ N(-Hw^{-1} Hwb x_b, Hw^{-1})`` with
    Schur complement ``S = Hbb - Hwb^T Hw^{-1} Hwb``.
    """

    def __init__(self, hw: np.ndarray, hwb: np.ndarray, hbb: np.ndarray):
        """``hw`` is the field block in lower-banded storage.  Like
        ``BandedCholesky``, this takes ownership of ``hw`` and factors a
        Fortran-ordered one in place."""
        self.n_field = hw.shape[1]
        self.n_coef = hbb.shape[0]
        self._hbb = np.asarray(hbb, dtype=float)
        self._hwb = np.asarray(hwb, dtype=float).reshape(self.n_field, self.n_coef)
        self._chol_w = BandedCholesky(hw)
        self._w = self._chol_w.solve(self._hwb)
        schur = self._hbb - self._hwb.T @ self._w
        schur = 0.5 * (schur + schur.T)
        try:
            self._chol_s = cho_factor(schur, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(f"Schur complement not SPD: {exc}") from exc

    def logdet(self) -> float:
        return self._chol_w.logdet() + 2.0 * float(np.sum(np.log(np.diag(self._chol_s[0]))))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve H x = rhs for a full-length right-hand side."""
        rw, rb = rhs[: self.n_field], rhs[self.n_field:]
        xw0 = self._chol_w.solve(rw)
        xb = cho_solve(self._chol_s, rb - self._hwb.T @ xw0)
        xw = xw0 - self._w @ xb
        return np.concatenate([xw, xb])

    def coef_cov(self) -> np.ndarray:
        """Marginal covariance of the coefficient block, S^{-1}."""
        return cho_solve(self._chol_s, np.eye(self.n_coef))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw joint samples with covariance H^{-1}; shape (n, size)."""
        ls = np.tril(self._chol_s[0])
        zb = rng.standard_normal((self.n_coef, size))
        xb = np.linalg.solve(ls.T, zb)
        zw = rng.standard_normal((self.n_field, size))
        xw = self._chol_w.solve_lt(zw) - self._w @ xb
        return np.vstack([xw, xb])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x without forming H densely."""
        xw, xb = x[: self.n_field], x[self.n_field:]
        top = self._chol_w.matvec(xw) + self._hwb @ xb
        bottom = self._hwb.T @ xw + self._hbb @ xb
        return np.concatenate([top, bottom])
