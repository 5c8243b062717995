"""Write ``bench/reference.json``: exact values every benchmark job is checked against.

Usage (from the repository root)::

    PYTHONPATH=src python3 bench/make_reference.py

For each degree a workload prints (1..6 for ``oracle``, 7 for ``scan``, 10
for ``compute``) and each interval of aspect ratios on which the value is
constant (see ``run.interval_starts``), plus ``inf``, the value comes from
``cross_validate``: the recursion in both inner modes and the tree sum must
agree exactly, and for d <= 6 the L-infinity inversion as well.  The table is
made once and committed; a benchmark run only reads it, so the code under
test never checks itself.
"""

from __future__ import annotations

import json
import sys

from ellsuper import AspectRatio, cross_validate

import run

DEGREES = (1, 2, 3, 4, 5, 6, 7, 10)
LINF_BOUND = 6


def reference_for(d: int) -> dict:
    table = {}
    for start in run.interval_starts(d):
        table[str(start)] = AspectRatio.plus_delta(start.numerator, start.denominator)
    table["inf"] = AspectRatio.infinite()
    out = {}
    for key, a in table.items():
        report = cross_validate(d, a, linf_bound=LINF_BOUND)
        expected = {"recursion", "recursion-multiset", "tree"} | ({"linf"} if d <= LINF_BOUND else set())
        if not expected <= set(report["methods"]):
            raise RuntimeError(f"d={d} a={a}: only {report['methods']} ran")
        out[key] = {"wtT": report["wtT"], "mult": report["mult"], "T": report["T"]}
    return out


def main() -> int:
    reference = {
        "source_sha256": run.source_digest(),
        "method": "cross_validate: recursion (ordered and multiset) and tree sum agree "
                  f"exactly, and linf too for d <= {LINF_BOUND}",
        "values": {str(d): reference_for(d) for d in DEGREES},
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE} ({sum(len(v) for v in reference['values'].values())} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
