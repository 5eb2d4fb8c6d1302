"""Control workloads: fixed code whose time shows how fast the machine is.

On a shared host the same work can take 60% longer from one minute to the
next, as neighbours load the CPUs.  The end-to-end time metrics are
therefore scaled by a control of the same kind measured next to each op,
and the controls never change.  python_control is pure Python in this
process, like the in-process ops.  pool_control runs it in two worker
processes, like a search with workers=2.  interp_control starts a bare
interpreter, like a CLI call.
"""

from __future__ import annotations

import sys
import time

CONTROL_N = 8
CONTROL_COUNT = 3936  # permutations of 1..8 with distinct adjacent differences

# Control times the end-to-end metrics are scaled to: a metric reads what
# it would on a machine where the control takes exactly this long.
REFERENCE_S = {"python": 0.015, "interp": 0.050, "pool": 0.060}


def _count_distinct_steps(n: int) -> int:
    used = [False] * (n + 1)
    steps: set[int] = set()
    count = 0

    def extend(depth: int, last: int):
        nonlocal count
        if depth == n:
            count += 1
            return
        for x in range(1, n + 1):
            if used[x]:
                continue
            step = x - last
            if depth and step in steps:
                continue
            used[x] = True
            if depth:
                steps.add(step)
            extend(depth + 1, x)
            if depth:
                steps.discard(step)
            used[x] = False

    extend(0, 0)
    return count


def python_control() -> float:
    start = time.perf_counter()
    count = _count_distinct_steps(CONTROL_N)
    seconds = time.perf_counter() - start
    if count != CONTROL_COUNT:
        raise RuntimeError(f"control counted {count}, expected {CONTROL_COUNT}")
    return seconds


def interp_control(env: dict) -> float:
    import subprocess  # not at the top: the import probe loads this module before sublabel

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


def pool_control(env: dict) -> float:
    """Two worker processes, started the way search(..., workers=2) starts
    them, counting twice each."""
    from concurrent.futures import ProcessPoolExecutor

    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        counts = list(pool.map(_count_distinct_steps, [CONTROL_N] * 4))
    seconds = time.perf_counter() - start
    if counts != [CONTROL_COUNT] * 4:
        raise RuntimeError(f"pool control counted {counts}")
    return seconds


CONTROLS = {"python": lambda env: python_control(), "interp": interp_control, "pool": pool_control}
