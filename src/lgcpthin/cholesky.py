"""Cholesky machinery for banded SPD precision matrices.

Precision matrices of lattice Gaussian Markov random fields are banded when
nodes are numbered row-major, so LAPACK's banded Cholesky (``pbtrf``) gives
exact factorization, log-determinants, solves, and sampling without any
sparse-Cholesky dependency.  Matrices are held in LAPACK lower-banded storage
``ab[k, j] = A[j+k, j]``.  ``BorderedPrecision`` extends this to the joint
precision of (field weights, regression coefficients): a banded block plus a
small dense border, eliminated by Schur complement.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cho_solve_banded, cholesky_banded, solve_banded

from lgcpthin.errors import NotSpdError


def _banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for symmetric A in lower-banded storage; all-zero diagonals are skipped."""
    n = ab.shape[1]
    y = ab[0] * x
    for k in np.flatnonzero(ab[1:].any(axis=1)) + 1:
        d = ab[k, : n - k]
        y[k:] += d * x[: n - k]
        y[: n - k] += d * x[k:]
    return y


class BandedCholesky:
    """Cholesky factor of a banded SPD matrix ``A = L L^T``."""

    def __init__(self, ab_lower: np.ndarray):
        if np.any(ab_lower[0] <= 0.0) or not np.all(np.isfinite(ab_lower[0])):
            raise NotSpdError("matrix diagonal is not positive and finite")
        try:
            self._cb = cholesky_banded(ab_lower, lower=True, check_finite=False)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NotSpdError(f"banded Cholesky failed: {exc}") from exc
        self.n = ab_lower.shape[1]
        self.bandwidth = ab_lower.shape[0] - 1
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
        return cho_solve_banded((self._cb, True), b, check_finite=False)

    def solve_lt(self, z: np.ndarray) -> np.ndarray:
        """Solve L^T x = z; for z ~ N(0, I) the result has covariance A^{-1}."""
        return solve_banded((0, self.bandwidth), self._lt, z, check_finite=False)

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

    def __init__(self, hw: np.ndarray | None, hwb: np.ndarray, hbb: np.ndarray):
        """``hw`` is the field block in lower-banded storage, or None when
        there is no field."""
        self.n_field = hw.shape[1] if hw is not None else 0
        self.n_coef = hbb.shape[0]
        self._hw = hw
        self._hbb = np.asarray(hbb, dtype=float)
        self._hwb = np.asarray(hwb, dtype=float).reshape(self.n_field, self.n_coef)
        if self.n_field:
            self._chol_w = BandedCholesky(hw)
            self._w = (self._chol_w.solve(self._hwb) if self.n_coef
                       else np.zeros((self.n_field, 0)))
        else:
            self._chol_w = None
            self._w = np.zeros((0, self.n_coef))
        schur = self._hbb - self._hwb.T @ self._w
        schur = 0.5 * (schur + schur.T)
        try:
            self._chol_s = cho_factor(schur, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(f"Schur complement not SPD: {exc}") from exc
        self._schur = schur

    @property
    def n(self) -> int:
        return self.n_field + self.n_coef

    def logdet(self) -> float:
        ld = self._chol_w.logdet() if self._chol_w is not None else 0.0
        ld += 2.0 * float(np.sum(np.log(np.diag(self._chol_s[0]))))
        return ld

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve H x = rhs for a full-length right-hand side."""
        rw, rb = rhs[: self.n_field], rhs[self.n_field:]
        xw0 = self._chol_w.solve(rw) if self.n_field else rw
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
        if not self.n_field:
            return xb
        zw = rng.standard_normal((self.n_field, size))
        xw = self._chol_w.solve_lt(zw) - self._w @ xb
        return np.vstack([xw, xb])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x without forming H densely."""
        xw, xb = x[: self.n_field], x[self.n_field:]
        top = (_banded_matvec(self._hw, xw) if self.n_field else xw) + self._hwb @ xb
        bottom = self._hwb.T @ xw + self._hbb @ xb
        return np.concatenate([top, bottom])

    def quad_form(self, x: np.ndarray) -> float:
        """x^T H x."""
        return float(x @ self.matvec(x))
