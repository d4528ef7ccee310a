"""Span and count tracing around the public entry points of each lgcpthin layer.

Tracing is installed from outside the package: every wrapped callable is
replaced, in each lgcpthin module that holds a reference to it, by a wrapper
that records one span (name, start, end, parent, op id) and optional
attributes.  Nothing inside ``src/`` knows about it.  Spans live in memory and
are written out when the run ends; ``layer_metrics`` reduces them to the
per-layer metrics named in ``LAYER_METRICS``.

A layer's time is its self time: the span's duration minus the durations of
child spans recorded on the same thread.  Worker-thread spans with no parent
on their own thread are attached to the op span and are not subtracted from
it, because they overlap.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import itertools
import statistics
import threading
import time

# (name, unit) of every per-layer metric, in output order.
LAYER_METRICS = [
    ("cholesky.factor_count", "count"),
    ("cholesky.factor_s", "s"),
    ("cholesky.factor_flops_computed", "flop"),
    ("cholesky.bordered_count", "count"),
    ("cholesky.bordered_s", "s"),
    ("cholesky.solve_count", "count"),
    ("cholesky.solve_s", "s"),
    ("cholesky.sample_cols", "count"),
    ("cholesky.sample_s", "s"),
    ("grf.assemble_sparse_count", "count"),
    ("grf.assemble_sparse_s", "s"),
    ("grf.assemble_banded_count", "count"),
    ("grf.assemble_banded_s", "s"),
    ("grf.sample_field_count", "count"),
    ("grf.sample_field_s", "s"),
    ("inference.naive.hyper_evals", "count"),
    ("inference.vse.hyper_evals", "count"),
    ("inference.naive.grid_nodes", "count"),
    ("inference.vse.grid_nodes", "count"),
    ("inference.useful_nodes", "count"),
    ("inference.useful_eval_ratio", "ratio"),
    ("inference.newton_iters", "count"),
    ("inference.fallback_count", "count"),
    ("inference.fit_naive_s", "s"),
    ("inference.fit_vse_s", "s"),
    ("inference.predict_s", "s"),
    ("inference.sample_latent_s", "s"),
    ("pointprocess.simulate_s", "s"),
    ("pointprocess.thin_s", "s"),
    ("pointprocess.thin_points_in", "count"),
    ("pointprocess.keep_ratio", "ratio"),
    ("assess.score_s", "s"),
    ("assess.table_s", "s"),
    ("assess.table_entries", "count"),
    ("assess.criteria_s", "s"),
    ("geo.distance_calls", "count"),
    ("geo.distance_pairs", "count"),
    ("geo.distance_s", "s"),
    ("geo.stats_s", "s"),
    ("geo.io_s", "s"),
    ("simstudy.serial_s", "s"),
    ("simstudy.parallel_s", "s"),
    ("simstudy.workers", "count"),
    ("simstudy.fit_busy_s", "s"),
    ("simstudy.overhead_s", "s"),
    ("simstudy.speedup", "ratio"),
    ("simstudy.parallel_efficiency", "ratio"),
    ("cli.explore_s", "s"),
    ("cli.io_s", "s"),
    ("trace.op_s", "s"),
    ("trace.spans", "count"),
]


_NO_ATTRS: dict = {}  # shared; spans replace attrs, never mutate them


class _Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread", "attrs", "child_s")

    def __init__(self, sid, name, start, parent, op, thread):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.attrs = _NO_ATTRS
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder shared by the main thread and worker threads."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._local = threading.local()
        self._ids = itertools.count()  # next() and list.append are atomic under the GIL
        self._op_span: _Span | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        op = self._op_span.sid if self._op_span is not None else None
        span = _Span(next(self._ids), name, time.perf_counter(), parent, op,
                     threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        parent = span.parent
        if parent is not None and parent.thread == span.thread:
            parent.child_s += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, index: int):
        """Mark one workload op; every span inside it carries the op's id."""
        span = self.begin("op")
        span.op = span.sid
        span.attrs = {"index": index}
        self._op_span = span
        try:
            yield span
        finally:
            self.end(span)
            self._op_span = None

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name: str, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, out)
                return out
            finally:
                tracer.end(span)

        return wrapper

    def wrap_function(self, modules, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` in every module that holds that same object."""
        orig = getattr(module, attr)
        wrapper = self._wrap(orig, name, attrs)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, attrs=None) -> None:
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(orig, name, attrs))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def install(self) -> None:
        """Wrap the entry points of every layer except ``errors``."""
        names = ["assess", "cholesky", "cli", "geo", "grf", "inference",
                 "pointprocess", "simstudy"]
        mods = {n: importlib.import_module(f"lgcpthin.{n}") for n in names}
        every = [importlib.import_module("lgcpthin")] + list(mods.values())
        fn = functools.partial(self.wrap_function, every)

        chol = mods["cholesky"]
        self.wrap_method(chol.BandedCholesky, "__init__", "cholesky.factor",
                         lambda a, out: {"n": a[1].shape[1], "w": a[1].shape[0] - 1})
        self.wrap_method(chol.BandedCholesky, "solve", "cholesky.solve")
        self.wrap_method(chol.BandedCholesky, "solve_lt", "cholesky.sample",
                         lambda a, out: {"cols": 1 if a[1].ndim == 1 else a[1].shape[1]})
        self.wrap_method(chol.BorderedPrecision, "__init__", "cholesky.bordered",
                         lambda a, out: {"field": a[0].n_field > 0})

        grf = mods["grf"]
        self.wrap_method(grf._LatticeOperators, "assemble", "grf.assemble_sparse")
        self.wrap_method(grf._LatticeOperators, "assemble_banded", "grf.assemble_banded")
        fn(grf, "sample_field", "grf.sample_field")

        pp = mods["pointprocess"]
        fn(pp, "simulate_lgcp", "pointprocess.simulate", lambda a, out: {"n_out": len(out)})
        fn(pp, "thin", "pointprocess.thin",
           lambda a, out: {"n_in": len(a[0]), "n_out": len(out)})

        inf = mods["inference"]

        def fit_attrs(a, out):
            spec = out.spec
            return {"model": "vse" if spec.use_vse else "naive",
                    "evals": int(out.hyper_diagnostics.get("n_evals", 0)),
                    "grid_nodes": spec.grid_points_per_dim ** len(spec.hyper_names()),
                    "useful": len(out.nodes),
                    "fallback": bool(out.hyper_diagnostics.get("fallback", False))}

        fn(inf, "fit", "inference.fit", fit_attrs)
        fn(inf, "predict_intensity", "inference.predict")
        self.wrap_method(inf.FitResult, "sample_latent", "inference.sample_latent")

        ass = mods["assess"]
        fn(ass, "score", "assess.score")
        fn(ass, "pointwise_table", "assess.table",
           lambda a, out: {"entries": int(out.log_lik.size)})
        for crit in ("dic", "waic", "lpml"):
            fn(ass, crit, "assess.criteria")

        geo = mods["geo"]
        fn(geo, "distances_to_roads", "geo.distance",
           lambda a, out: {"pairs": int(out.size) * a[1].n_segments})
        for stat in ("ecdf", "ks_two_sample", "pearson_corr"):
            fn(geo, stat, "geo.stats")
        for io in ("read_points_csv", "read_roads", "read_esri_ascii",
                   "write_points_csv", "write_esri_ascii", "write_roads_geojson"):
            fn(geo, io, "geo.io")

        fn(mods["simstudy"], "run_scenarios", "simstudy.run_scenarios",
           lambda a, out: {"threads": out.config.threads})
        fn(mods["cli"], "main", "cli.main")

    # -- output --------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "op", "thread", "attrs"])
            for s in sorted(self.spans, key=lambda s: s.sid):
                w.writerow([s.sid, s.name, repr(s.start), repr(s.end),
                            s.parent.sid if s.parent is not None else "",
                            "" if s.op is None else s.op, s.thread,
                            repr(s.attrs) if s.attrs else ""])


def _within(span: _Span, name: str) -> _Span | None:
    """Nearest ancestor of ``span`` called ``name``."""
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def layer_metrics(spans: list[_Span], op_sid: int, op_times: list[float]) -> dict:
    """Reduce the spans of one op (id ``op_sid``) to ``LAYER_METRICS``.

    Counts cover that single op, so they repeat exactly for a given seed;
    ``trace.op_s`` is the median traced op time over all ops of the run.
    """
    sel = [s for s in spans if s.op == op_sid and s.name != "op"]
    by = {}
    for s in sel:
        by.setdefault(s.name, []).append(s)

    def spans_of(name):
        return by.get(name, [])

    def self_sum(name):
        return sum(s.self_s for s in spans_of(name))

    def dur_sum(items):
        return sum(s.duration for s in items)

    m = {}
    factors = spans_of("cholesky.factor")
    m["cholesky.factor_count"] = len(factors)
    m["cholesky.factor_s"] = self_sum("cholesky.factor")
    m["cholesky.factor_flops_computed"] = sum(
        s.attrs.get("n", 0) * s.attrs.get("w", 0) ** 2 for s in factors)
    m["cholesky.bordered_count"] = len(spans_of("cholesky.bordered"))
    m["cholesky.bordered_s"] = self_sum("cholesky.bordered")
    m["cholesky.solve_count"] = len(spans_of("cholesky.solve"))
    m["cholesky.solve_s"] = self_sum("cholesky.solve")
    m["cholesky.sample_cols"] = sum(s.attrs.get("cols", 0) for s in spans_of("cholesky.sample"))
    m["cholesky.sample_s"] = self_sum("cholesky.sample")
    for kind in ("sparse", "banded"):
        m[f"grf.assemble_{kind}_count"] = len(spans_of(f"grf.assemble_{kind}"))
        m[f"grf.assemble_{kind}_s"] = self_sum(f"grf.assemble_{kind}")
    m["grf.sample_field_count"] = len(spans_of("grf.sample_field"))
    m["grf.sample_field_s"] = self_sum("grf.sample_field")

    fits = spans_of("inference.fit")
    for model in ("naive", "vse"):
        mine = [s for s in fits if s.attrs.get("model") == model]
        m[f"inference.{model}.hyper_evals"] = sum(s.attrs.get("evals", 0) for s in mine)
        m[f"inference.{model}.grid_nodes"] = sum(s.attrs.get("grid_nodes", 0) for s in mine)
        m[f"inference.fit_{model}_s"] = dur_sum(mine)
    evals = sum(s.attrs.get("evals", 0) for s in fits)
    m["inference.useful_nodes"] = sum(s.attrs.get("useful", 0) for s in fits)
    m["inference.useful_eval_ratio"] = m["inference.useful_nodes"] / evals if evals else 0.0
    # Every field Newton solve builds one bordered Hessian per iteration plus
    # one at the mode, and each Laplace evaluation factors the prior once
    # directly under ``fit``; the difference is the iteration count.
    hessians = sum(1 for s in spans_of("cholesky.bordered")
                   if s.attrs.get("field", 0) and _within(s, "inference.fit") is not None)
    prior_factors = sum(1 for s in factors
                        if s.parent is not None and s.parent.name == "inference.fit")
    m["inference.newton_iters"] = hessians - prior_factors
    m["inference.fallback_count"] = sum(1 for s in fits if s.attrs.get("fallback", 0))
    m["inference.predict_s"] = dur_sum(spans_of("inference.predict"))
    m["inference.sample_latent_s"] = self_sum("inference.sample_latent")

    m["pointprocess.simulate_s"] = self_sum("pointprocess.simulate")
    thins = spans_of("pointprocess.thin")
    m["pointprocess.thin_s"] = self_sum("pointprocess.thin")
    n_in = sum(s.attrs.get("n_in", 0) for s in thins)
    m["pointprocess.thin_points_in"] = n_in
    kept = sum(s.attrs.get("n_out", 0) for s in thins)
    m["pointprocess.keep_ratio"] = kept / n_in if n_in else 0.0

    m["assess.score_s"] = dur_sum(spans_of("assess.score"))
    m["assess.table_s"] = self_sum("assess.table")
    m["assess.table_entries"] = sum(s.attrs.get("entries", 0) for s in spans_of("assess.table"))
    m["assess.criteria_s"] = self_sum("assess.criteria")

    dists = spans_of("geo.distance")
    m["geo.distance_calls"] = len(dists)
    m["geo.distance_pairs"] = sum(s.attrs.get("pairs", 0) for s in dists)
    m["geo.distance_s"] = self_sum("geo.distance")
    m["geo.stats_s"] = self_sum("geo.stats")
    m["geo.io_s"] = self_sum("geo.io")

    studies = spans_of("simstudy.run_scenarios")
    serial = [s for s in studies if s.attrs.get("threads", 0) == 1]
    parallel = [s for s in studies if s.attrs.get("threads", 0) > 1]
    m["simstudy.serial_s"] = dur_sum(serial)
    m["simstudy.parallel_s"] = dur_sum(parallel)
    m["simstudy.workers"] = max((s.attrs.get("threads", 0) for s in parallel), default=0)
    busy = sum(s.duration for s in fits if _within(s, "simstudy.run_scenarios") in serial)
    m["simstudy.fit_busy_s"] = busy
    m["simstudy.overhead_s"] = m["simstudy.serial_s"] - busy if serial else 0.0
    speedup = m["simstudy.serial_s"] / m["simstudy.parallel_s"] if serial and parallel else 0.0
    m["simstudy.speedup"] = speedup
    m["simstudy.parallel_efficiency"] = (speedup / m["simstudy.workers"]
                                         if m["simstudy.workers"] else 0.0)

    mains = spans_of("cli.main")
    m["cli.explore_s"] = dur_sum(mains)
    in_cli = [s for s in sel if s.name in ("geo.distance", "geo.stats")
              and _within(s, "cli.main") is not None]
    m["cli.io_s"] = dur_sum(mains) - sum(s.self_s for s in in_cli) if mains else 0.0

    m["trace.op_s"] = statistics.median(op_times)
    m["trace.spans"] = len(sel)
    return m
