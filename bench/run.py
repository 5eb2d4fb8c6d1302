#!/usr/bin/env python3
"""sublabel benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload search-magic --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout.  It imports sublabel from
./src, never from an installed copy, and exits 2 without a result when
./src holds no sublabel.  The workloads live in workloads.py; BENCHMARK.json
at the root describes them and names every metric with its unit.

--trace 0  runs passes of the workload until --seconds are used (at least
           one pass) and reports the end-to-end metrics.  Their times are
           scaled by a control measured next to the ops (control.py), so
           they read in seconds at the reference machine speed; the raw
           times are in the summary line.
--trace 1  runs one untraced pass of the workload, then a traced sweep:
           one pass of every workload, the search-distinct instances at
           two workers and at one back to back, a pool start-up probe and
           the CLI probes.  It reports the per-layer metrics (raw times),
           each layer's self time and trace.overhead_s, the traced minus
           the untraced time of the named workload's pass.

Every op has a timeout; an op that hits it counts as failed, never as
dropped.  The last line on stdout is the result
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
run context (interpreter, CPUs, commit, seed, control time) and a
summary.  A record of the run, and the spans of a traced run, are written
to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from control import CONTROLS, REFERENCE_S, python_control

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

IMPORT_REPEATS = 11
CONTROL_EVERY_S = 0.5  # an op runs at most this long after a control of its kind
RUN_DEADLINE_S = 150.0  # ops due after this are recorded as timed out
LAYERS = ("digraph", "constructions", "labeling", "document", "search", "cli")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {bench!r}); "
                "from control import python_control; c = python_control(); "
                "t = time.perf_counter(); import sublabel; print(c, time.perf_counter() - t)")


class OpTimeout(BaseException):
    """Raised in the main thread when an op outlives its timeout."""


def _on_alarm(signum, frame):
    # a pool search would go on in its workers after the caller gives up;
    # subprocess.run kills its own child as the exception passes through it
    for child in multiprocessing.active_children():
        child.terminate()
    raise OpTimeout


@dataclass
class Outcome:
    op: str
    span: str
    status: str  # ok | wrong | raised | timed_out
    seconds: float
    detail: str = ""
    counters: dict = field(default_factory=dict)


def run_op(op, state: dict, deadline: float, tracer=None, parent=None) -> Outcome:
    if time.monotonic() >= deadline:
        return Outcome(op.name, op.span, "timed_out", 0.0, "run deadline passed before the op")
    span = None
    seconds = 0.0
    try:
        signal.setitimer(signal.ITIMER_REAL, op.timeout)
        start = time.perf_counter()
        if tracer is not None:
            span = tracer.begin(op.span, parent, op.name)
        try:
            output = op.call(state)
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if span is not None:
                tracer.end(span)
    except OpTimeout:
        return Outcome(op.name, op.span, "timed_out", seconds, f"over the {op.timeout:g} s timeout")
    except Exception as exc:  # the op's failure is the measurement
        return Outcome(op.name, op.span, "raised", seconds, repr(exc))
    try:
        error, counters = op.check(output, state)
    except Exception as exc:
        error, counters = f"check raised {exc!r}", {}
    return Outcome(op.name, op.span, "wrong" if error else "ok", seconds, error or "", counters)


def run_pass(ops, deadline: float, tracer=None, label: str = "pass") -> list[Outcome]:
    state: dict = {}
    root = tracer.begin(f"bench.{label}") if tracer is not None else None
    outcomes = [run_op(op, state, deadline, tracer, root) for op in ops]
    if root is not None:
        tracer.end(root)
    return outcomes


# -- run context ----------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        # the pure-Python control: machine speed, apart from sublabel
        "calibration_ms": statistics.median(python_control() for _ in range(5)) * 1000,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


# -- untraced run -----------------------------------------------------------------

def scaled(seconds: float, kind: str, controls: list[float]) -> float:
    return seconds * REFERENCE_S[kind] / statistics.fmean(controls)


def import_seconds(env: dict) -> tuple[float, float]:
    """`import sublabel` in a fresh interpreter: (raw, scaled) seconds."""
    probe = IMPORT_PROBE.format(bench=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    control, seconds = map(float, proc.stdout.split())
    return seconds, scaled(seconds, "python", [control])


def timed_setup(workloads, name: str, seed: int, workdir: Path):
    """Set the workload up several times: median import plus median input
    generation.  Returns (raw, scaled) set-up seconds and the last ops."""
    imports = [import_seconds(workloads.cli_env()) for _ in range(IMPORT_REPEATS)]
    builds = []
    for _ in range(3 if name == "documents" else 5):
        before = python_control()
        start = time.perf_counter()
        ops = workloads.WORKLOADS[name](seed, workdir)
        seconds = time.perf_counter() - start
        builds.append((seconds, scaled(seconds, "python", [before, python_control()])))
    setup = [statistics.median(i[k] for i in imports) + statistics.median(b[k] for b in builds)
             for k in (0, 1)]
    return setup, ops


def run_controlled_pass(ops, deadline: float, env: dict):
    """One untraced pass with control samples between the ops.

    Before an op, its kind of control runs if CONTROL_EVERY_S have passed
    since the last one; every kind used runs once more after the last op.
    Returns the outcomes, each op's time scaled by the mean of the controls
    just before and after it, and the control samples by kind.
    """
    state: dict = {}
    samples: dict[str, list[float]] = {}
    last: dict[str, float] = {}
    waiting: dict[str, list[int]] = {}  # ops that still need their next control
    outcomes, times = [], []

    def take_control(kind: str):
        seconds = CONTROLS[kind](env)
        for i in waiting.pop(kind, []):
            times[i] = scaled(outcomes[i].seconds, kind, [samples[kind][-1], seconds])
        samples.setdefault(kind, []).append(seconds)
        last[kind] = time.perf_counter()

    for op in ops:
        if time.perf_counter() - last.get(op.control, float("-inf")) >= CONTROL_EVERY_S:
            take_control(op.control)
        waiting.setdefault(op.control, []).append(len(outcomes))
        outcomes.append(run_op(op, state, deadline))
        times.append(0.0)
    for kind in list(waiting):
        take_control(kind)
    return outcomes, times, samples


def nodes_of(outcomes) -> int:
    return sum(o.counters.get("nodes", 0) for o in outcomes)


def quantiles_ms(values: list[float]) -> tuple[float, float]:
    """Median and p90 (inclusive method) in milliseconds."""
    if len(values) == 1:
        return values[0] * 1000, values[0] * 1000
    return statistics.median(values) * 1000, statistics.quantiles(values, n=10, method="inclusive")[8] * 1000


def median_pass(passes) -> float:
    """Sum over the ops of each op's median time across the passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def untraced_run(workloads, args, workdir: Path, deadline: float):
    (raw_setup, setup), ops = timed_setup(workloads, args.workload, args.seed, workdir)
    env = workloads.cli_env()
    passes, controls = [], {}
    begun = time.perf_counter()
    while True:
        outcomes, times, samples = run_controlled_pass(ops, deadline, env)
        passes.append((outcomes, times))
        for kind, values in samples.items():
            controls.setdefault(kind, []).extend(values)
        spent = time.perf_counter() - begun
        if spent / len(passes) * (len(passes) + 1) > args.seconds or time.monotonic() >= deadline:
            break
    outcomes = [o for p, _ in passes for o in p]
    times = [t for _, p in passes for t in p]
    raw = [o.seconds for o in outcomes]
    p50, p90 = quantiles_ms(times)
    raw_p50, raw_p90 = quantiles_ms(raw)
    metrics = {
        "setup_s": setup,
        "wall_s": median_pass(t for _, t in passes),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ok_ratio": sum(o.status == "ok" for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = {
        "passes": len(passes), "ops_per_pass": len(ops), "latency_samples": len(times),
        "raw_setup_s": raw_setup,
        "raw_wall_s": median_pass([o.seconds for o in p] for p, _ in passes),
        "raw_op_p50_ms": raw_p50, "raw_op_p90_ms": raw_p90,
        "control_median_ms": {k: statistics.median(v) * 1000 for k, v in controls.items()},
        "control_samples": {k: len(v) for k, v in controls.items()},
    }
    if args.workload.startswith("search"):
        per_pass = [nodes_of(p) for p, _ in passes]
        summary["nodes_visited"] = per_pass[0]
        summary["nodes_repeat"] = len(set(per_pass)) == 1
    elif args.workload == "cli":
        summary["cli_search_nodes"] = nodes_of(passes[0][0])
    return metrics, outcomes, summary


# -- traced run -------------------------------------------------------------------

def _median_ms(outcomes, span: str) -> float:
    return statistics.median(o.seconds for o in outcomes if o.span == span) * 1000


def layer_metrics(workloads, swept: dict, probes: list, tracer, overhead_s: float) -> dict:
    docs = swept["documents"]
    searches = {o.op: o for o in swept["search-magic"] + swept["search-distinct"] + probes
                if o.span == "search.search"}

    def spent(span: str) -> float:
        return sum(o.seconds for o in docs if o.span == span)

    m = {
        "digraph.build_family_s": spent("digraph.build_family"),
        "constructions.construct_s": spent("constructions.construct"),
        "labeling.classify_s": spent("labeling.classify"),
        "labeling.classify_calls": sum(o.span == "labeling.classify" for o in docs),
        "document.to_json_s": spent("document.to_json"),
        "document.from_json_s": spent("document.from_json"),
        "document.to_dot_s": spent("document.to_dot"),
        "document.json_bytes": sum(o.counters.get("json_bytes", 0) for o in docs),
    }
    for inst in workloads.MAGIC + workloads.DISTINCT:
        o = searches[inst.name]
        nodes = o.counters.get("nodes", 0)
        m[f"search.{inst.name}.s"] = o.seconds
        m[f"search.{inst.name}.nodes"] = nodes
        m[f"search.{inst.name}.nodes_per_s"] = nodes / o.seconds if o.seconds else 0.0
        if workloads.PINS[inst.name][0]:
            m[f"search.{inst.name}.yield"] = o.counters.get("solutions", 0) / nodes if nodes else 0.0
    m["search.magic.nodes"] = nodes_of(swept["search-magic"])
    m["search.distinct.nodes"] = nodes_of(swept["search-distinct"])
    m["search.pool.spawn_s"] = statistics.median(
        o.seconds for o in probes if o.op.startswith(workloads.POOL_PROBE.name))
    for inst in workloads.pool_twins():
        workers = workloads.DISTINCT_WORKERS
        m[f"search.pool.efficiency.{inst.name}"] = (
            searches[f"{inst.name}@1"].seconds / (workers * searches[f"{inst.name}@{workers}"].seconds))
    m["cli.interp_ms"] = _median_ms(probes, "python.interp")
    imports = [o.counters for o in probes if o.span == "python.importtime" and o.counters]
    m["cli.import_ms"] = statistics.median(c["sublabel"] for c in imports) / 1000
    m["cli.import_search_ms"] = statistics.median(c["sublabel.search"] for c in imports) / 1000
    for sub in workloads.CLI_SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = _median_ms(swept["cli"], f"cli.{sub}")
        m[f"cli.main.{sub}_ms"] = _median_ms(probes, f"cli.main.{sub}")
    self_times = tracer.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    m["trace.overhead_s"] = overhead_s
    return m


def traced_run(workloads, args, workdir: Path, deadline: float):
    from spans import Tracer

    base = run_pass(workloads.WORKLOADS[args.workload](args.seed, workdir), deadline)
    tracer = Tracer()
    swept = {}
    for name, build in workloads.WORKLOADS.items():
        swept[name] = run_pass(build(args.seed, workdir), deadline, tracer, name)
    probes = run_pass(workloads.probe_ops(args.seed, workdir), deadline, tracer, "probes")
    overhead_s = sum(o.seconds for o in swept[args.workload]) - sum(o.seconds for o in base)
    metrics = layer_metrics(workloads, swept, probes, tracer, overhead_s)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    outcomes = base + [o for p in swept.values() for o in p] + probes
    summary = {"spans": len(tracer.spans), "untraced_pass_s": sum(o.seconds for o in base),
               "traced_pass_s": sum(o.seconds for o in swept[args.workload])}
    return metrics, outcomes, summary


# -- main -------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "sublabel" / "__init__.py").is_file():
        print(f"bench: no sublabel package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sublabel
    if Path(sublabel.__file__).resolve().parent != SRC / "sublabel":
        print(f"bench: sublabel imported from {sublabel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(parents=True, exist_ok=True)
    context = run_context(args.seed)
    print(json.dumps({"context": context}), flush=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = started + RUN_DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = traced_run if args.trace else untraced_run
        metrics, outcomes, summary = run(workloads, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"bench: metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    failures = [o for o in outcomes if o.status != "ok"]
    summary.update(workload=args.workload, trace=args.trace, attempted=len(outcomes),
                   failed=len(failures), fail_ratio=len(failures) / len(outcomes),
                   timed_out=sum(o.status == "timed_out" for o in failures),
                   elapsed_s=time.monotonic() - started)
    for o in failures[:20]:
        print(f"bench: {o.status}: {o.op}: {o.detail}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"context": context, "summary": summary, "result": result,
              "outcomes": [asdict(o) for o in outcomes]}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"summary": summary}))
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
