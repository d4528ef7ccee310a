"""lgcpthin benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 6 --trace 0

The run imports the package from the checkout's ``src/``, times the
workload's set-up, then runs ops in a closed loop until ``--seconds`` have
passed (always at least one op), checking every op's outputs.  Human-readable
lines name every metric with its unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from spans recorded around each layer's entry points.
A result file with the machine record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit) of the end-to-end metrics every workload reports untraced.
END_TO_END = [("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


def import_package() -> float:
    """Import every lgcpthin module from this checkout's src/ and nowhere else.

    Returns the import time in seconds (numpy and scipy included), which every
    session with the package pays and which ``setup_s`` therefore counts.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lgcpthin", "__init__.py")):
        raise SystemExit(f"error: no lgcpthin sources under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import lgcpthin
    import lgcpthin.cli  # noqa: F401  (imports every other module)

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(lgcpthin.__file__))) != src:
        raise SystemExit(f"error: lgcpthin imported from {lgcpthin.__file__}, not {src}")
    return import_s


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def machine_record() -> dict:
    import numpy
    import scipy

    def blas_of(module) -> dict:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas_of(numpy), "scipy": blas_of(scipy)},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        size: str = "full") -> dict:
    """Run one workload; returns the result record (``record["final"]`` is the
    JSON object printed last).  ``setup_s`` is ``import_s`` plus the median of
    the workload's timed set-up repetitions."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}")
    wl = WORKLOADS[workload](size, seed, workdir)
    tracer = Tracer() if trace else None
    ops = []
    try:
        setup_times = []
        for _ in range(wl.setup_warmups + wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_times = setup_times[wl.setup_warmups:]
        wl.prepare_checks()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            span = None
            try:
                with tracer.op(k) if tracer is not None else contextlib.nullcontext() as span:
                    stages, output = wl.op(k)
                wall = time.perf_counter() - t0
                problems = wl.check(output)
            except Exception:  # a crashing op counts as failed; the run goes on
                wall = time.perf_counter() - t0
                stages, problems = {}, [traceback.format_exc()]
            ops.append({"index": k, "wall_s": wall, "stages": stages,
                        "problems": problems, "span": span.sid if span is not None else None})
            k += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    failed = sum(1 for o in ops if o["problems"])
    walls = [o["wall_s"] for o in ops]
    named = {"setup_s": (import_s + statistics.median(setup_times), "s", len(setup_times))}
    for stage in wl.stages:
        vals = [o["stages"][stage] for o in ops if stage in o["stages"]]
        if vals:
            named[stage] = (statistics.median(vals), "s", len(vals))
    named["op_s"] = (statistics.median(walls), "s", len(walls))
    named["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    named["ok_frac"] = ((len(ops) - failed) / len(ops), "ratio", len(ops))
    named["fail_frac"] = (failed / len(ops), "ratio", len(ops))

    if tracer is not None:
        first = ops[0]["span"]
        layer = layer_metrics(tracer.spans, first, walls) if first is not None else {}
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in LAYER_METRICS}
        tracer.write_csv(os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.csv"))
    else:
        metrics = {name: {"value": named[name][0], "unit": unit} for name, unit in END_TO_END}

    final = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "machine": machine_record(), "src_lines": src_line_count(),
        "import_s": import_s, "setup_times_s": setup_times,
        "named_metrics": {n: {"value": v, "unit": u, "samples": c}
                          for n, (v, u, c) in named.items()},
        "ops": [{k: v for k, v in o.items() if k != "span"} for o in ops],
        "final": final,
    }
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit", "posterior", "study", "explore"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    sys.path.insert(0, HERE)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)

    for name, m in record["named_metrics"].items():
        print(f"{name:<16} {m['value']:>12.6g} {m['unit']:<6} (median of {m['samples']})")
    if args.trace:
        for name, m in record["final"]["metrics"].items():
            print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    for o in record["ops"]:
        for p in o["problems"]:
            print(f"op {o['index']} incorrect: {p}", file=sys.stderr)
    print(json.dumps(record["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
