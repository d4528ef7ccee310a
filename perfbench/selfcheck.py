"""Fast self-check of the benchmark: every workload at toy size, both modes.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It asserts that each workload's run is correct, that untraced runs emit
exactly the end-to-end metrics of BENCHMARK.json and traced runs exactly its
per-layer metrics, each with the unit BENCHMARK.json gives, and that the
brute-force distance oracle agrees with ``geo.distances_to_roads``.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

IMPORT_S = run.import_package()

import numpy as np  # noqa: E402

from lgcpthin import geo, simstudy  # noqa: E402
from workloads import WORKLOADS, brute_force_distances  # noqa: E402


def check_oracle() -> None:
    rng = np.random.default_rng(3)
    roads = simstudy.synthetic_roads(100.0, 20.0, rng)
    pts = rng.uniform(-10.0, 110.0, size=(500, 2))
    pts[:5] = roads.segments()[:5, :2]  # on a vertex: distance 0
    want = brute_force_distances(pts, roads)
    got = geo.distances_to_roads(pts, roads)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12), np.max(np.abs(got - want))
    assert np.all(want[:5] == 0.0)


def check_workloads() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    os.makedirs(run.OUT_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT_DIR)
    run.OUT_DIR = out
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                final = run.run(name, 1, 0, trace, IMPORT_S, size="toy")["final"]
                label = f"{name} trace={int(trace)}"
                assert final["correct"] and final["failed"] == 0, (label, final)
                got = {k: v["unit"] for k, v in final["metrics"].items()}
                assert got == expected[trace], (label, set(got) ^ set(expected[trace]))
                for key, m in final["metrics"].items():
                    assert isinstance(m["value"], (int, float)), (label, key)
                print(f"ok  {label}: {len(got)} metrics", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    check_oracle()
    print("ok  distance oracle agrees with geo.distances_to_roads")
    check_workloads()
    print("selfcheck passed")
