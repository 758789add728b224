"""End-to-end samples, in a fresh interpreter.

Imports ``repro``, builds the first cell of a workload (system and program)
and stops where the first simulated event would run, reading the monotonic
clock there.  The parent subtracts the clock it read just before starting
this process, so the set-up sample covers interpreter start, imports and the
build.  In ``passes`` mode the worker then runs passes over the workload's
cells, back to back in this one process, until SECONDS have elapsed and at
least three passes are done.  Each cell is timed and verified, and a fixed
host-speed probe is timed before and after it, so the parent can tell how
fast the host was while the cell ran.  It prints one JSON line.

    python3 perfbench/worker.py ROOT WORKLOAD SEED|committed setup
    python3 perfbench/worker.py ROOT WORKLOAD SEED|committed passes SECONDS
"""

import gc
import json
import resource
import sys
import time

import adapter

MIN_PASSES = 3
PROBE_LOOPS = 300_000


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def run_pass(api, cells, observed: bool) -> dict:
    """One pass over ``cells``: each cell's seconds and outcome, and the
    probes timed between the cells (one more probe than cells), so that
    cell ``i`` ran between ``probes[i]`` and ``probes[i + 1]``."""
    gc.collect()
    times, outcomes, probes = [], [], [host_probe()]
    for cell in cells:
        t0 = time.perf_counter()
        try:
            outcomes.append(api.run_cell(cell, observed=observed)._asdict())
        except Exception as exc:  # noqa: BLE001 - a failed cell is a measurement
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
        times.append(time.perf_counter() - t0)
        probes.append(host_probe())
    return {"probes": probes, "times": times, "outcomes": outcomes}


def main() -> None:
    root, workload, seed, mode = sys.argv[1:5]
    api = adapter.Repro(root)
    cells = api.cells(workload, None if seed == "committed" else int(seed))
    api.build_until_first_event(cells[0])
    result = {"first_event": time.perf_counter()}
    if mode == "passes":
        seconds = float(sys.argv[5])
        observed = workload == adapter.OBSERVED
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(api, cells, observed))
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
