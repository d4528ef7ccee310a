"""Record the fit panel's reference figures into fit_reference.json.

Run from the root of a checkout, on the commit whose fits are the reference:

    python3 perfbench/record_reference.py [full|toy ...]

Each panel pattern is fitted with the naive and the VSE model; the pattern
size, coefficient means and sds, and hyper medians are stored per size.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import import_package  # noqa: E402

import_package()

from workloads import REFERENCE_PATH, SIZES, Panel, fit_summary  # noqa: E402


def record(size_name: str) -> dict:
    panel = Panel(SIZES[size_name], seed=0)
    entries = []
    for k, pattern in enumerate(panel.patterns):
        entry = {"n_points": len(pattern)}
        for model in ("naive", "vse"):
            entry[model] = fit_summary(panel.fit(k, model))
        entries.append(entry)
        print(size_name, k, json.dumps(entry), flush=True)
    return {"panel": entries}


def main(names) -> None:
    try:
        with open(REFERENCE_PATH) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    for name in names:
        doc[name] = record(name)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["full", "toy"])
