"""Predictive model-comparison criteria: DIC, WAIC, and CPO/LPML.

All three reduce a pointwise log-likelihood table whose rows are the
pseudo-observations of the fitted Cox process (integration nodes, weighted by
their cell areas, plus the observed points) and whose columns are posterior
samples.  Node rows carry ``-w_i exp(eta_i)`` (the Poisson probability of an
empty cell, in log form) and point rows carry ``eta_j``; summed over rows this
is exactly the fit's log-likelihood, so criteria differences between models
are meaningful even though the likelihood's additive constant is dropped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

MIN_SAMPLES = 100
MIN_ESS_FRACTION = 0.05  # CPO rows with a smaller importance ESS share are flagged


@dataclass(frozen=True)
class PointwiseLikelihoodTable:
    """Log pointwise likelihood contributions, rows x posterior samples.

    ``log_lik_at_mean`` holds each row's contribution evaluated at the
    posterior mean of the linear predictor (needed by DIC's plug-in deviance).
    """

    log_lik: np.ndarray
    log_lik_at_mean: np.ndarray

    def __post_init__(self):
        ll = np.asarray(self.log_lik, dtype=float)
        at_mean = np.asarray(self.log_lik_at_mean, dtype=float)
        if ll.ndim != 2:
            raise ValueError("log_lik must be (rows, samples)")
        if at_mean.shape != (ll.shape[0],):
            raise ValueError("log_lik_at_mean must have one entry per row")
        if not (np.all(np.isfinite(ll)) and np.all(np.isfinite(at_mean))):
            raise ValueError("table entries must be finite")
        object.__setattr__(self, "log_lik", ll)
        object.__setattr__(self, "log_lik_at_mean", at_mean)

    @property
    def n_samples(self) -> int:
        return self.log_lik.shape[1]


def _require_samples(table: PointwiseLikelihoodTable) -> None:
    if table.n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} posterior samples, "
                         f"got {table.n_samples}")


def dic(table: PointwiseLikelihoodTable) -> tuple[float, float, float]:
    """Deviance information criterion.

    Returns (DIC, p_D, mean deviance) where p_D is the effective number of
    parameters, the gap between the posterior mean deviance and the deviance
    at the posterior mean predictor.
    """
    _require_samples(table)
    deviances = -2.0 * table.log_lik.sum(axis=0)
    d_bar = float(deviances.mean())
    d_hat = -2.0 * float(table.log_lik_at_mean.sum())
    p_d = d_bar - d_hat
    if np.ptp(deviances) < 1e-12:
        warnings.warn("posterior samples are degenerate; p_D is ~0", stacklevel=2)
    return d_bar + p_d, p_d, d_bar


def waic(table: PointwiseLikelihoodTable) -> tuple[float, float]:
    """Watanabe-Akaike information criterion,
    ``-2 [sum_i log mean_s p_is - sum_i var_s log p_is]``.

    The summed posterior variance of the log contributions penalizes model
    complexity.  Computed with log-sum-exp, so finite entries cannot
    overflow.  Returns (WAIC, p_waic) with p_waic the variance penalty.
    """
    _require_samples(table)
    s = table.n_samples
    lppd = logsumexp(table.log_lik, axis=1) - np.log(s)
    penalty = table.log_lik.var(axis=1, ddof=1)
    p_waic = float(penalty.sum())
    return -2.0 * (float(lppd.sum()) - p_waic), p_waic


def lpml(table: PointwiseLikelihoodTable) -> tuple[float, np.ndarray, np.ndarray]:
    """Log pseudo marginal likelihood via harmonic-mean CPO estimates.

    ``CPO_i = (mean_s 1/p(y_i | theta_s))^-1`` evaluated in log space.
    Returns (LPML, log CPO per row, unreliable-row flags); a row is flagged
    when the importance weights' effective sample size falls below
    ``MIN_ESS_FRACTION`` of the sample count.
    """
    _require_samples(table)
    s = table.n_samples
    neg = -table.log_lik
    log_mean_inv = logsumexp(neg, axis=1) - np.log(s)
    log_cpo = -log_mean_inv
    # ESS of the harmonic-mean weights, all in log space
    log_ess = 2.0 * logsumexp(neg, axis=1) - logsumexp(2.0 * neg, axis=1)
    unreliable = np.exp(log_ess) < MIN_ESS_FRACTION * s
    return float(log_cpo.sum()), log_cpo, unreliable


def pointwise_table(fit_result, n_samples: int = 200, seed=0) -> PointwiseLikelihoodTable:
    """Build the pseudo-observation table from a fitted model.

    Posterior draws of the linear predictor come from the fit's node mixture;
    VSE draws include the drawn node's access offset, so the table scores the
    observed (thinned) process that the model was fitted to.
    """
    rng = np.random.default_rng(seed)
    ctx = fit_result._ctx
    u, node_idx = fit_result.sample_latent(rng, n_samples)
    eta_n, eta_p = ctx.eta(u)
    if ctx.spec.use_vse:
        for k in np.unique(node_idx):
            off_n, off_p = ctx.offsets(ctx.zeta_of(fit_result.nodes[int(k)].hyper))
            cols = node_idx == k
            eta_n[:, cols] += off_n[:, None]
            eta_p[:, cols] += off_p[:, None]
    weights = ctx.scheme.weights
    log_lik = np.vstack([-weights[:, None] * np.exp(eta_n), eta_p])
    mean_eta_n = eta_n.mean(axis=1)
    mean_eta_p = eta_p.mean(axis=1)
    at_mean = np.concatenate([-weights * np.exp(mean_eta_n), mean_eta_p])
    return PointwiseLikelihoodTable(log_lik, at_mean)


def score(fit_result, n_samples: int = 200, seed=0) -> dict[str, float]:
    """DIC, WAIC, and LPML of a fit, attached to ``fit_result.scores``."""
    table = pointwise_table(fit_result, n_samples=n_samples, seed=seed)
    dic_val, p_d, d_bar = dic(table)
    waic_val, p_waic = waic(table)
    lpml_val, _, unreliable = lpml(table)
    scores = {
        "dic": dic_val, "p_d": p_d, "mean_deviance": d_bar,
        "waic": waic_val, "p_waic": p_waic,
        "lpml": lpml_val, "cpo_unreliable_rows": int(unreliable.sum()),
    }
    fit_result.scores = scores
    return scores
