"""The one-BLAS-thread pin: one thread inside, the caller's count after.

Spies on the four band calls that ``BandedCholesky`` makes (``cholesky_banded``,
``cho_solve_banded``, ``dtbtrs`` and ``dtbmv``, as attributes of
``lgcpthin.cholesky``) record the thread count of every loaded OpenBLAS at
each call.  The direct-use test proves that each call runs on one thread
whoever calls it, and the entry-point tests that no factorization reached
from the package's numerical entry points runs threaded, in this process or
in the study's forked workers.  Those tests are skipped when no OpenBLAS is
loaded; the discovery test checks, without the package's lookup, that none
was missed.
"""

import json
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg import solve_banded

from lgcpthin import assess, cholesky, simstudy
from lgcpthin.cholesky import _loaded_openblas, _one_blas_thread
from lgcpthin.geo import Grid, RasterGrid, RoadNetwork
from lgcpthin.grf import (MaternParams, PcPriorSpec, _LatticeOperators, build_precision,
                          sample_field, sample_matern_field)
from lgcpthin.inference import FitResult, ModelSpec, fit, predict_intensity
from lgcpthin.pointprocess import make_log_intensity, simulate_lgcp
from lgcpthin.simstudy import ScenarioConfig, run_scenarios
from mcmc_oracle import ChainConfig, mcmc_fit

LIBS = _loaded_openblas()
needs_openblas = pytest.mark.skipif(not LIBS, reason="no OpenBLAS loaded in this process")

FAST = dict(zeta_levels=(0.0, 16.0), replicates=1, grid_n=12, domain_size=90.0,
            posterior_draws_per_fit=100)
UNIT_PC = PcPriorSpec(rho0=0.08, alpha_rho=0.05, sigma0=1.0, alpha_sigma=0.05)


def thread_counts() -> list[int]:
    return [get_n() for _, get_n in LIBS]


@pytest.fixture
def caller_counts():
    """Give every library 3 threads (neither 1 nor a usual default), and the
    original counts back after the test; yields the counts as read back."""
    before = thread_counts()
    for set_n, _ in LIBS:
        set_n(3)
    yield thread_counts()
    for (set_n, _), count in zip(LIBS, before):
        set_n(count)


BAND_CALLS = ("cholesky_banded", "cho_solve_banded", "dtbtrs", "dtbmv")


@pytest.fixture
def band_counts(monkeypatch):
    """Thread counts seen by each call of each band routine, by name."""
    seen = {name: [] for name in BAND_CALLS}

    def spy_on(name):
        original = getattr(cholesky, name)

        def spy(*args, **kwargs):
            seen[name].append(thread_counts())
            return original(*args, **kwargs)

        monkeypatch.setattr(cholesky, name, spy)

    for name in BAND_CALLS:
        spy_on(name)
    return seen


@pytest.fixture
def factor_counts(band_counts):
    """Thread counts seen by each banded factorization."""
    return band_counts["cholesky_banded"]


@pytest.fixture
def factor_log(monkeypatch, tmp_path):
    """(process id, thread counts) of each banded factorization, in this
    process and in any it forks: the children inherit the spy, which appends
    a line per call to one file."""
    log = tmp_path / "factorizations"
    original = cholesky.cholesky_banded

    def spy(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), thread_counts()]) + "\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(cholesky, "cholesky_banded", spy)
    return lambda: [json.loads(line) for line in log.read_text().splitlines()]


@pytest.fixture(scope="module")
def unit_data():
    n = 10
    grid = Grid(0.0, 0.0, 1.0 / n, n, n)
    centers = grid.cell_centers()
    vals = np.cos(4.0 * centers[:, 0]) + 0.6 * np.sin(3.0 * centers[:, 1])
    cov = {"x1": RasterGrid(grid, ((vals - vals.mean()) / vals.std()).reshape(n, n))}
    field = sample_matern_field(grid, MaternParams(sigma=0.7, rho=0.22), seed=3)
    pattern = simulate_lgcp(make_log_intensity(cov, 5.0, {"x1": 0.8}, field), 4)
    roads = RoadNetwork((np.array([[0.0, 0.3], [1.0, 0.3]]),
                         np.array([[0.6, 0.0], [0.6, 1.0]])))
    return pattern, cov, roads


def _spec(use_vse: bool) -> ModelSpec:
    return ModelSpec(covariate_names=("x1",), use_vse=use_vse, pc_prior=UNIT_PC)


@pytest.fixture(scope="module")
def vse_fit(unit_data):
    pattern, cov, roads = unit_data
    return fit(pattern, cov, roads, _spec(True))


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
def test_finds_every_mapped_openblas():
    # numpy and scipy are imported, so every OpenBLAS in the process is theirs
    with open("/proc/self/maps") as maps:
        fields = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    paths = {f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    assert len(LIBS) == len(paths), sorted(paths)


@needs_openblas
class TestPin:
    def test_one_inside_caller_count_after(self, caller_counts):
        with _one_blas_thread:
            assert thread_counts() == [1] * len(LIBS)
        assert thread_counts() == caller_counts

    def test_nested_entries_keep_the_pin(self, caller_counts):
        with _one_blas_thread:
            with _one_blas_thread:
                assert thread_counts() == [1] * len(LIBS)
            assert thread_counts() == [1] * len(LIBS)
        assert thread_counts() == caller_counts

    def test_restored_after_exception(self, caller_counts):
        def fails():
            with _one_blas_thread:
                assert thread_counts() == [1] * len(LIBS)
                raise RuntimeError("inside")

        with pytest.raises(RuntimeError, match="inside"):
            fails()
        assert thread_counts() == caller_counts

    def test_last_thread_out_restores(self, caller_counts):
        entered, release = threading.Event(), threading.Event()

        def worker():
            with _one_blas_thread:
                entered.set()
                release.wait(10)

        t = threading.Thread(target=worker)
        with _one_blas_thread:
            t.start()
            assert entered.wait(10)
        # this thread left first; the worker still holds the pin
        assert thread_counts() == [1] * len(LIBS)
        release.set()
        t.join(10)
        assert thread_counts() == caller_counts


    def test_stress_many_threads(self, caller_counts):
        wrong = []

        def worker():
            for _ in range(500):
                time.sleep(0)  # let the pin fall to zero between entries
                with _one_blas_thread:
                    counts = thread_counts()
                    if counts != [1] * len(LIBS):
                        wrong.append(counts)

        workers = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert wrong == []
        assert thread_counts() == caller_counts

    def test_fork_while_another_thread_holds_the_pin(self, caller_counts):
        # the second thread is inside the pin, and holds its lock, when this
        # thread forks; the child must still be able to enter the pin
        holding, release = threading.Event(), threading.Event()

        def holder():
            with _one_blas_thread:
                with _one_blas_thread._lock:
                    holding.set()
                    release.wait(10)

        def enter_pin():  # run in the child; a failed assert sets its exit code
            with _one_blas_thread:
                assert thread_counts() == [1] * len(LIBS)

        t = threading.Thread(target=holder)
        t.start()
        try:
            assert holding.wait(10)
            child = multiprocessing.get_context("fork").Process(target=enter_pin)
            child.start()
        finally:
            release.set()
            t.join(10)
        assert not t.is_alive()
        child.join(20)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
        assert thread_counts() == caller_counts


@needs_openblas
def test_direct_band_calls_run_on_one_thread(caller_counts, band_counts):
    # no package entry point between the caller and BandedCholesky
    prec = _LatticeOperators(Grid(0.0, 0.0, 1.0, 30, 30)).assemble(MaternParams(1.0, 4.0))
    chol = prec.chol()
    b = np.ones(chol.n)
    chol.solve(b)
    chol.sample(np.random.default_rng(0), size=3)
    chol.matvec(b)
    assert {name: len(c) for name, c in band_counts.items()} == {
        "cholesky_banded": 1, "cho_solve_banded": 1, "dtbtrs": 1, "dtbmv": 2}
    assert all(c == [1] * len(LIBS) for calls in band_counts.values() for c in calls)
    assert thread_counts() == caller_counts


@pytest.mark.parametrize("columns", [None, 7], ids=["vector", "matrix"])
def test_solve_lt_is_solve_banded_bit_for_bit(columns):
    # dtbtrs back-substitutes as the general banded solve did on the
    # triangular L^T, so every draw is unchanged, to the last bit
    prec = _LatticeOperators(Grid(0.0, 0.0, 1.0, 30, 30)).assemble(MaternParams(1.0, 4.0))
    chol = prec.chol()
    shape = (chol.n,) if columns is None else (chol.n, columns)
    z = np.random.default_rng(4).standard_normal(shape)
    x = chol.solve_lt(z)
    assert x.shape == z.shape
    assert np.array_equal(x, solve_banded((0, chol.bandwidth), chol._lt, z))


@needs_openblas
class TestEntryPointsFactorOnOneThread:
    @staticmethod
    def _check(seen, caller_counts):
        assert seen, "no factorization was reached"
        assert all(c == [1] * len(LIBS) for c in seen)
        assert thread_counts() == caller_counts

    @pytest.mark.parametrize("use_vse", [False, True], ids=["naive", "vse"])
    def test_fit(self, unit_data, use_vse, caller_counts, factor_counts):
        pattern, cov, roads = unit_data
        fit(pattern, cov, roads, _spec(use_vse))
        self._check(factor_counts, caller_counts)

    def test_predict_intensity(self, vse_fit, caller_counts, factor_counts):
        predict_intensity(vse_fit, draws=50, seed=1)
        self._check(factor_counts, caller_counts)

    def test_score(self, vse_fit, caller_counts, factor_counts):
        assess.score(vse_fit, n_samples=100, seed=1)
        self._check(factor_counts, caller_counts)

    def test_load(self, vse_fit, tmp_path, caller_counts, factor_counts):
        vse_fit.save(tmp_path)
        factor_counts.clear()
        FitResult.load(tmp_path)
        self._check(factor_counts, caller_counts)

    def test_mcmc_fit(self, unit_data, caller_counts, factor_counts):
        pattern, cov, roads = unit_data
        mcmc_fit(pattern, cov, roads, _spec(True), ChainConfig(n_iter=40, n_burn=20),
                 chains=1, seed=0, max_latent=2000)
        self._check(factor_counts, caller_counts)

    def test_sample_matern_field(self, caller_counts, factor_counts):
        sample_matern_field(Grid(0.0, 0.0, 1.0, 20, 20), MaternParams(1.0, 4.0), seed=2)
        self._check(factor_counts, caller_counts)

    def test_build_precision(self, caller_counts, factor_counts):
        build_precision(Grid(0.0, 0.0, 1.0, 30, 30), MaternParams(1.0, 4.0))
        self._check(factor_counts, caller_counts)

    def test_sample_field(self, caller_counts, factor_counts):
        # an unfactored precision, so the factorization happens inside sample_field
        prec = _LatticeOperators(Grid(0.0, 0.0, 1.0, 30, 30)).assemble(MaternParams(1.0, 4.0))
        sample_field(prec, seed=2, size=3)
        self._check(factor_counts, caller_counts)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_scenarios(self, threads, caller_counts, factor_log):
        # with 2 workers the fits run in forked processes, read through the log
        run_scenarios(ScenarioConfig(seed=5, threads=threads, **FAST))
        calls = factor_log()
        in_workers = [counts for pid, counts in calls if pid != os.getpid()]
        assert bool(in_workers) == (threads > 1 and simstudy._FORK_WORKERS)
        self._check([counts for _, counts in calls], caller_counts)
