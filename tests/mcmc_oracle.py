"""MCMC oracle for the nested-Laplace fit, used only by the tests.

A Metropolis-within-Gibbs sampler over the same posterior as
:func:`lgcpthin.inference.fit`, run on small instances to check the fit's
coefficient posterior against MCMC.  It builds the posterior from the
package's own ``_ModelContext`` and ``_laplace_at``, so it checks the code
that ``fit`` runs.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from lgcpthin.errors import FitError
from lgcpthin.geo import PointPattern, RasterGrid, RoadNetwork
from lgcpthin.grf import GmrfPrecision
from lgcpthin.inference import ModelSpec, _laplace_at, _ModelContext
from lgcpthin.simstudy import _FORK_WORKERS

_MALA_STEP = 0.2    # initial latent step size, adapted during burn-in
_HYPER_STEP = 0.4   # initial hyper random-walk scale, adapted during burn-in

# A forked worker's set-up shared by every chain, set by the pool's
# initializer.  Its arguments reach the worker through fork, not pickling.
_WORKER_SHARED = None


@dataclass(frozen=True)
class ChainConfig:
    n_iter: int = 4000
    n_burn: int = 2000


@dataclass
class McmcResult:
    beta: np.ndarray            # (chains, n_keep, p)
    hypers: np.ndarray          # (chains, n_keep, d)
    hyper_names: tuple[str, ...]
    accept_latent: np.ndarray
    accept_hyper: np.ndarray
    warnings: list[str]

    def beta_mean(self) -> np.ndarray:
        return self.beta.reshape(-1, self.beta.shape[-1]).mean(axis=0)


def gelman_rubin(chains: np.ndarray) -> float:
    """Split-chain potential scale reduction factor for one scalar series.

    ``chains`` has shape (n_chains, n_iterations).
    """
    m, n = chains.shape
    half = n // 2
    split = chains[:, : 2 * half].reshape(2 * m, half)
    w = split.var(axis=1, ddof=1).mean()
    b = half * split.mean(axis=1).var(ddof=1)
    var_hat = (half - 1) / half * w + b / half
    return float(np.sqrt(var_hat / w))


def _log_field_prior(omega, prior: GmrfPrecision) -> float:
    """log N(omega; 0, Q^-1) up to the 2 pi factor; -inf where Q is singular."""
    logdet = prior.logdet()
    if not math.isfinite(logdet):
        return -math.inf
    return 0.5 * logdet - 0.5 * float(omega @ prior.matvec(omega))


def mcmc_fit(pattern: PointPattern, covariates: dict[str, RasterGrid],
             roads: RoadNetwork | None, spec: ModelSpec,
             chain_config: ChainConfig = ChainConfig(), chains: int = 4,
             seed=0, max_latent: int = 1000) -> McmcResult:
    """Metropolis-within-Gibbs sampler over the same posterior as :func:`fit`.

    Latent block (field, coefficients) moves by preconditioned MALA with the
    step size tuned to a 0.5-0.7 acceptance rate during burn-in; free
    hyperparameters move by random-walk Metropolis.  Intended as a
    validation oracle, so instances are restricted to ``max_latent`` latent
    nodes.

    Every chain's seed is drawn before any chain runs, so the chains are bit
    for bit the same whether they run one after another or, with more than
    one chain and more than one usable core, in forked worker processes.
    """
    ctx = _ModelContext(pattern, covariates, roads, spec)
    n_latent = ctx.n_field + ctx.n_coef
    if n_latent > max_latent:
        raise ValueError(f"mcmc_fit is limited to {max_latent} latent nodes; got {n_latent}")
    rng_master = np.random.default_rng(seed)
    chain_seeds = rng_master.integers(0, 2 ** 63 - 1, size=chains)

    # shared preconditioner: Laplace Hessian at the prior-start hypers
    v0 = ctx.hyper_start()
    pre = _laplace_at(ctx, v0, None)
    if pre is None:
        raise FitError("could not build the MALA preconditioner")
    node0, mass0 = pre

    shared = (ctx, chain_config, v0, node0.mode, mass0)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(chains, usable)
    if workers > 1 and _FORK_WORKERS:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_set_worker_shared, initargs=(shared,)) as pool:
            outcomes = list(pool.map(_worker_chain, chain_seeds))
    else:
        outcomes = [_run_chain(shared, s) for s in chain_seeds]

    beta_out, hyper_out, acc_latent, acc_hyper = (np.array(a) for a in zip(*outcomes))
    dim_h = hyper_out.shape[-1]
    warnings: list[str] = []
    for c in range(chains):
        if not 0.1 <= acc_latent[c] <= 0.9:
            warnings.append(
                f"chain {c}: latent acceptance {acc_latent[c]:.2f} outside [0.1, 0.9]")
        if dim_h and not 0.1 <= acc_hyper[c] <= 0.9:
            warnings.append(
                f"chain {c}: hyper acceptance {acc_hyper[c]:.2f} outside [0.1, 0.9]")
    return McmcResult(beta_out, hyper_out, spec.hyper_names(), acc_latent, acc_hyper, warnings)


def _set_worker_shared(shared):
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _worker_chain(chain_seed):
    return _run_chain(_WORKER_SHARED, chain_seed)


def _run_chain(shared, chain_seed):
    """One chain from the shared set-up (context, chain config, hyper start,
    start mode, preconditioner): its kept coefficients and hypers, and its
    latent and hyper acceptance rates."""
    ctx, cfg, v0, mode0, mass0 = shared
    dim_h = v0.size
    n_keep = cfg.n_iter - cfg.n_burn
    beta_out = np.zeros((n_keep, ctx.n_coef))
    hyper_out = np.zeros((n_keep, dim_h))

    rng = np.random.default_rng(chain_seed)
    eps = _MALA_STEP
    delta = _HYPER_STEP
    mass = mass0
    v = v0 + 0.1 * rng.standard_normal(dim_h) if dim_h else v0.copy()
    u = mode0 + 0.5 * mass.sample(rng, 1)[:, 0]

    prior = ctx.prior_at(v)
    offsets = ctx.offsets(ctx.zeta_of(v))
    lp, g_prior = ctx.log_post(u, prior, offsets)
    g = ctx.loglik_grad(u, offsets) + g_prior
    n_acc_l = n_acc_h = 0
    n_try_l = n_try_h = 0
    epoch_acc_l = epoch_acc_h = epoch_n = 0

    for it in range(cfg.n_iter):
        # --- preconditioned MALA on the latent block
        drift = 0.5 * eps * eps * mass.solve(g)
        mean_fwd = u + drift
        u_prop = mean_fwd + eps * mass.sample(rng, 1)[:, 0]
        lp_prop, g_prior = ctx.log_post(u_prop, prior, offsets)
        if np.isfinite(lp_prop):
            g_prop = ctx.loglik_grad(u_prop, offsets) + g_prior
            mean_rev = u_prop + 0.5 * eps * eps * mass.solve(g_prop)
            d_fwd = u_prop - mean_fwd
            d_rev = u - mean_rev
            q_rev = float(d_rev @ mass.matvec(d_rev))
            q_fwd = float(d_fwd @ mass.matvec(d_fwd))
            log_q = -(q_rev - q_fwd) / (2 * eps * eps)
            log_alpha = lp_prop - lp + log_q
        else:
            log_alpha = -np.inf
        n_try_l += 1
        accept = math.log(rng.uniform()) < log_alpha
        if accept:
            u, lp, g = u_prop, lp_prop, g_prop
            n_acc_l += 1
        epoch_acc_l += int(accept)

        # --- random-walk Metropolis on the hypers
        if dim_h:
            v_prop = v + delta * rng.standard_normal(dim_h)
            try:
                prior_p = ctx.prior_at(v_prop)
                offsets_p = ctx.offsets(ctx.zeta_of(v_prop))
                omega = u[: ctx.n_field]
                num = (ctx.loglik(u, offsets_p)
                       + _log_field_prior(omega, prior_p)
                       + ctx.hyper_log_prior(v_prop))
                den = (ctx.loglik(u, offsets)
                       + _log_field_prior(omega, prior)
                       + ctx.hyper_log_prior(v))
                log_alpha_h = num - den
            except (ValueError, OverflowError):
                log_alpha_h = -np.inf
            n_try_h += 1
            accept_h = math.log(rng.uniform()) < log_alpha_h
            if accept_h:
                v = v_prop
                prior = prior_p
                offsets = offsets_p
                lp, g_prior = ctx.log_post(u, prior, offsets)
                g = ctx.loglik_grad(u, offsets) + g_prior
                n_acc_h += 1
            epoch_acc_h += int(accept_h)

        # --- burn-in adaptation toward the 0.5-0.7 MALA band, one
        # bounded update per 50-iteration epoch (per-iteration updates
        # compound faster than rejections can register and run away)
        epoch_n += 1
        if it < cfg.n_burn and epoch_n == 50:
            eps *= math.exp(0.4 * (epoch_acc_l / 50 - 0.6))
            eps = float(np.clip(eps, 1e-4, 10.0))
            if dim_h:
                delta *= math.exp(0.4 * (epoch_acc_h / 50 - 0.3))
                delta = float(np.clip(delta, 1e-3, 10.0))
            epoch_acc_l = epoch_acc_h = epoch_n = 0

        # halfway through burn-in, re-precondition at the hypers the
        # chain actually visits; the start-of-chain mass can be badly
        # scaled when the hyper posterior sits far from its prior start
        if it == cfg.n_burn // 2:
            refreshed = _laplace_at(ctx, v, u)
            if refreshed is not None:
                _, mass = refreshed

        if it >= cfg.n_burn:
            k = it - cfg.n_burn
            beta_out[k] = u[ctx.n_field:]
            hyper_out[k] = v

    acc_latent = n_acc_l / max(n_try_l, 1)
    acc_hyper = n_acc_h / max(n_try_h, 1) if dim_h else float("nan")
    return beta_out, hyper_out, acc_latent, acc_hyper
