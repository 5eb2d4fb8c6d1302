#!/usr/bin/env python3
"""Cross-check the pinned search results of the benchmark.

    python3 bench/check_pins.py

For every search instance of the benchmark this runs the pruned search at
one worker and compares solutions_found and the witness digest with PINS in
workloads.py.  Instances with at most 9 labels are also run through the
reference enumerator, search(..., pruned=False), which must agree.  Exits 1
on any mismatch.  Run it whenever PINS changes; the benchmark itself only
compares against PINS.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_MAX_LABELS = 9


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from sublabel import search

    mismatches = 0
    for inst in workloads.MAGIC + workloads.DISTINCT + (workloads.POOL_PROBE,):
        query = inst.query()
        runs = [("pruned", True)]
        if query.graph.label_count <= REFERENCE_MAX_LABELS:
            runs.append(("reference", False))
        for label, pruned in runs:
            start = time.perf_counter()
            report = search(query, pruned=pruned)
            got = (report.solutions_found, workloads.witness_digest(report.witnesses))
            status = "ok" if got == workloads.PINS[inst.name] else "MISMATCH"
            mismatches += status != "ok"
            print(f"{inst.name:28s} {label:9s} N={query.graph.label_count:2d} "
                  f"solutions={got[0]:<7d} digest={got[1]} nodes={report.nodes_visited:<8d} "
                  f"{time.perf_counter() - start:6.2f}s {status}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
