#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and compare the runs.

    python3 bench/steady.py --workload search-magic --runs 10 --first-seed 1

Each run is ``bench/run.py --trace 0`` with its own seed.  For every
end-to-end metric this prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  It exits 1 if a run fails or reports a wrong output,
if nodes_visited or fail_ratio differ between runs, or if a spread other
than that of setup_s exceeds its bound.  The table also goes to
bench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}, no result\n{proc.stderr}")
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    problems = []
    summaries, results = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        summary, result = run_once(args.workload, seed, args.seconds)
        summaries.append(summary)
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
        if not result["correct"]:
            problems.append(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")

    for key in ("nodes_visited", "fail_ratio"):
        seen = {s[key] for s in summaries if key in s}
        if len(seen) > 1:
            problems.append(f"{key} differs between runs: {sorted(seen)}")

    table = []
    print(f"\n{'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("inf")
        table.append({"name": name, "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                      "spread": spread, "bound": metric["bound"], "values": values})
        print(f"{name:14s} {metric['unit']:6s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:7.3f} {metric['bound']:6.2f}")
        if name != "setup_s" and spread > metric["bound"]:
            problems.append(f"{name}: spread {spread:.3f} over its bound {metric['bound']}")
    nodes = sorted({s["nodes_visited"] for s in summaries if "nodes_visited" in s})
    print(f"\nruns={len(results)} nodes_visited={nodes or 'n/a'} "
          f"fail_ratio={sorted({s['fail_ratio'] for s in summaries})}")

    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
         "metrics": table, "summaries": summaries, "problems": problems}, indent=1) + "\n")
    for p in problems:
        print(f"steady: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
