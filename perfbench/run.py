"""The repo benchmark: host cost of the simulator on four workloads.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

``--workload all`` runs the four workloads one after another, each in a
process of its own, and prints every metric of each.

Run from anywhere inside a checkout; the program is imported from ``src/``
next to this directory.  The load is a closed loop: one client at a time
runs the workload's cells back to back through ``repro.apps.common.run_app``
(see ``adapter.py``), each call verifying its answer against the app's
sequential reference.

Workloads (cells are (app, protocol, ranks)):

* ``is16-vcd``          IS/VC_d/16, message-bound: sim, net and the
                        protocol fan-out do most of the work.
* ``is16-vcsd``         IS/VC_sd/16, same app: few frames, diff creation and
                        integration (memory) dominate.
* ``matrix8``           the 13 eight-rank cells of the sweep matrix: LRC
                        barrier path, congestion retransmits, MPI, 13 builds
                        and 13 sequential reference solves.
* ``is8-vcd-observed``  IS/VC_d/8 with every observer on (EventTracer,
                        Metrics, oracle AccessRecorder, ViewTracer), then
                        ``check_history``.

``--seed`` sets every app's input seed; without it the committed seeds
(IS 42, Gauss 7, SOR 3, NN 11) are used.  A cell run counts as failed when it
raises, when its output differs from the sequential reference, when the
oracle finds anything (observed workload), or when its ``table_row``
fingerprint differs from the committed ``BENCH_sweep.json`` entry (cells on
their committed seed) or from its own first iteration (any other seed).

``--trace 0`` (end to end, nothing wrapped) reports

The passes run back to back in one fresh interpreter (``worker.py``) until
``--seconds`` have elapsed, at least three of them, with a fixed pure-Python
host-speed probe timed before and after every cell.

* ``wall_s``      host seconds of the median pass, printed with the
                  highest percentile that has ten passes beyond it, the
                  sample count and the fastest pass.  Printed, not in the
                  result line: a shared 2-vCPU VM was seen drifting between
                  speeds up to ~1.8x apart, each held for seconds to
                  minutes, and the median pass of ten runs spread by a
                  quarter of its value.
* ``wall_scaled_s`` host seconds of one pass at a fixed host speed: each
                  cell run's seconds times ``PROBE_REF_S`` over the mean of
                  the two probes either side of it, the median of that over
                  the passes per cell, summed over the cells.  A change to
                  the program moves the cells but not the probe, so it moves
                  this figure as much as ``wall_s``; a slow spell of the
                  host moves both and mostly cancels.  This is the gated
                  time.
* ``setup_s``     median over eleven set-up-only fresh interpreters of
                  interpreter start, ``import repro`` and building the first
                  cell up to its first simulated event, each scaled like
                  ``wall_scaled_s`` by probes timed just before and after
                  it; the unscaled median is printed beside it.
* ``peak_rss_mb`` peak resident memory of the process that ran the passes,
                  which ran only this workload.
* ``sim_s``       simulated seconds of the modelled cluster, summed over
                  cells (what the paper's tables report).
* ``failed_frac`` failed cell runs / cell runs; printed, and carried by the
                  ``failed``/``attempted`` fields of the result line.

``--trace 1`` alternates untraced passes with traced passes in this process
(see ``ledger.py``) for ``--seconds`` (at least two traced passes) and reports the
per-layer counts and self times, checking that every wrapped boundary the
workload should exercise recorded a call, that traced and untraced
fingerprints agree, and that the deterministic counts repeat exactly.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

import adapter
import ledger
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS, OBSERVED = adapter.WORKLOADS, adapter.OBSERVED
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 11
#: seconds the worker's host probe takes on the reference host (a 2-vCPU
#: x86-64 VM at its fastest, Python 3.11.7); ``wall_scaled_s`` is in
#: seconds at that speed
PROBE_REF_S = 0.026
TRACED_PASSES = 2

ALL = frozenset(WORKLOADS)
PROTO = frozenset({"is16-vcd", "matrix8"})
MEMORY = frozenset({"is16-vcsd", "matrix8"})
MATRIX = frozenset({"matrix8"})
#: boundary -> workloads on which it must record at least one call.  A
#: wrapped boundary no workload reaches (MemoryManager.flush_page,
#: MemoryManager.interval_dirty_bytes) is timed but not required.
COVERAGE = {
    **dict.fromkeys((
        "Simulator.run", "Simulator.spawn", "Nic.send", "Nic.on_arrival",
        "Switch.transfer", "Transport.on_receive", "Transport.post",
        "make_system", "app.build", "app.extract", "app.sequential",
        "app.outputs_match",
    ), ALL),
    **dict.fromkeys((
        "read_fault", "write_fault", "acquire_view", "release_view", "barrier",
        "apply_notices", "Transport.request",
    ), PROTO),
    **dict.fromkeys((
        "make_diff", "apply_diff", "integrate_diffs", "MemoryManager.page",
        "MemoryManager.state", "MemoryManager.read_bytes",
        "MemoryManager.write_bytes", "MemoryManager.start_writing",
        "MemoryManager.end_interval", "MemoryManager.install_full_page",
        "MemoryManager.zero_fill",
    ), MEMORY),
    **dict.fromkeys((
        "acquire_rview", "release_rview", "acquire_lock", "release_lock",
        "MemoryManager.invalidate", "MemoryManager.apply_diffs",
        "MemoryManager.snapshot_page", "MpiComm.send", "MpiComm.recv",
        "MpiSystem", "app.build_mpi",
    ), MATRIX),
}
#: per-layer count -> workloads on which it must be non-zero; the observer
#: counts must also be zero everywhere else
NONZERO = {
    "net.rexmit": MATRIX,
    "obs.trace_events": frozenset({OBSERVED}),
    "obs.oracle_events": frozenset({OBSERVED}),
}


class Checker:
    """Runs cells and counts failures against the attempts."""

    def __init__(self, api: adapter.Repro):
        self.api = api
        self.expected = api.committed_fingerprints()
        self.committed = set(self.expected)
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def run(self, cell: adapter.Cell, observed: bool):
        try:
            out = self.api.run_cell(cell, observed=observed)
        except Exception as exc:  # noqa: BLE001 - a failed cell is a measurement
            return self.check(cell, f"{type(exc).__name__}: {exc}")
        return self.check(cell, out)

    def check(self, cell: adapter.Cell, out):
        """Counts one cell run; ``out`` is its Outcome or an error message."""
        self.attempted += 1
        if isinstance(out, str):
            self.fail(f"{cell.label}: {out}")
            return None
        want = self.expected.setdefault(cell.key, out.fingerprint)
        if out.fingerprint != want:
            source = "committed" if cell.key in self.committed else "first-iteration"
            self.fail(f"{cell.label}: fingerprint {out.fingerprint} != {source} {want}")
            return None
        return out


def run_pass(checker: Checker, cells, observed: bool):
    """One in-process pass over ``cells``; returns (seconds of each cell,
    outcomes).  The previous pass's garbage is collected first, untimed."""
    gc.collect()
    times, outs = [], []
    for cell in cells:
        t0 = time.perf_counter()
        outs.append(checker.run(cell, observed))
        times.append(time.perf_counter() - t0)
    return times, outs


def sample(args, *mode: str) -> dict:
    """One run of ``worker.py`` in ``mode`` ("setup", or "passes" and the
    seconds to run them for), with its ``setup_s``: seconds from starting it
    to its first simulated event."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, WORKER, ROOT, args.workload,
         "committed" if args.seed is None else str(args.seed), *mode],
        capture_output=True, text=True, timeout=args.seconds + 120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("first_event") - t0
    return result


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}"
    ordered = sorted(samples)
    return f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} s"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- end to end -------------------------------------------------------------------------


def end_to_end(api: adapter.Repro, args) -> dict:
    cells = api.cells(args.workload, args.seed)
    checker = Checker(api)
    run = sample(args, "passes", str(args.seconds))
    passes = run["passes"]
    setup, setup_scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = worker.host_probe()
        setup.append(sample(args, "setup")["setup_s"])
        setup_scaled.append(setup[-1] * 2 * PROBE_REF_S / (before + worker.host_probe()))
    for p in passes:
        p["outcomes"] = [
            checker.check(cell, out.get("error") or adapter.Outcome(**out))
            for cell, out in zip(cells, p["outcomes"])
        ]
    walls = [sum(p["times"]) for p in passes]
    # each cell run at the reference host speed, by the probes either side
    # of it; the median pass is assembled cell by cell
    scaled = [[t * 2 * PROBE_REF_S / (p["probes"][i] + p["probes"][i + 1])
               for i, t in enumerate(p["times"])] for p in passes]
    wall_scaled_s = sum(statistics.median(t) for t in zip(*scaled))
    peak_mb = run["peak_rss_mb"]
    sim_s = sum(o.sim_s for o in passes[-1]["outcomes"] if o is not None)
    failed_frac = checker.failed / checker.attempted

    print(f"workload {args.workload}: {len(cells)} cells, seed "
          f"{'committed' if args.seed is None else args.seed}")
    for i, (wall, p) in enumerate(zip(walls, passes)):
        print(f"  pass {i:2d}  wall {wall:8.4f} s   scaled {sum(scaled[i]):8.4f} s   "
              f"host probe median {statistics.median(p['probes']) * 1e3:6.2f} ms")
    print(f"wall_s       {statistics.median(walls):.4f} s  (median pass of n={len(walls)}; "
          f"{tail_note(walls)}; fastest {min(walls):.4f} s)")
    print(f"wall_scaled_s {wall_scaled_s:.4f} s  (sum of per-cell medians at the "
          f"reference probe of {PROBE_REF_S * 1e3:.0f} ms)")
    print(f"setup_s      {statistics.median(setup_scaled):.4f} s  (median of n={len(setup)} "
          f"at the reference probe; unscaled median {statistics.median(setup):.4f}, "
          f"min {min(setup):.4f}, max {max(setup):.4f})")
    print(f"peak_rss_mb  {peak_mb:.1f} MB  (the process that ran the passes)")
    print(f"sim_s        {sim_s:.6f} s")
    print(f"failed_frac  {failed_frac:.4f}  ({checker.failed}/{checker.attempted} cell runs)")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            "wall_scaled_s": metric(wall_scaled_s, "s"),
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "sim_s": metric(sim_s, "s"),
        },
    }


# -- traced ----------------------------------------------------------------------------


def layer_metrics(led: ledger.Ledger, own: dict, by_layer: dict, outs) -> dict:
    """The per-layer metrics of one traced pass, from its self times by
    boundary (``own``) and by layer (``by_layer``)."""
    calls, tally = led.counts(), led.tally()

    def self_s(*names):
        return sum(own[n] for n in names)

    done = [o for o in outs if o is not None]
    net = {k: sum(o.net[k] for o in done) for k in ("msgs", "bytes", "rexmit", "drops")}
    return {
        "sim.events": (sum(o.events for o in done), "count"),
        "sim.spawns": (calls["Simulator.spawn"], "count"),
        "sim.run_self_s": (self_s("Simulator.run"), "s"),
        "net.frames": (calls["Nic.send"], "count"),
        "net.msgs": (net["msgs"], "count"),
        "net.bytes": (net["bytes"], "B"),
        "net.rexmit": (net["rexmit"], "count"),
        "net.drops": (net["drops"], "count"),
        "net.rexmit_ratio": (net["rexmit"] / net["msgs"] if net["msgs"] else 0.0, "1"),
        "net.nic_s": (self_s("Nic.send", "Nic.on_arrival"), "s"),
        "net.switch_s": (self_s("Switch.transfer"), "s"),
        "net.transport_s": (
            self_s("Transport.on_receive", "Transport.post", "Transport.request"), "s"),
        "protocols.read_faults": (calls["read_fault"], "count"),
        "protocols.write_faults": (calls["write_fault"], "count"),
        "protocols.acquires": (
            calls["acquire_view"] + calls["acquire_rview"] + calls["acquire_lock"], "count"),
        "protocols.barriers": (calls["barrier"], "count"),
        "protocols.diff_requests": (sum(o.diff_requests for o in done), "count"),
        "protocols.notices_applied": (tally["apply_notices"], "count"),
        "protocols.self_s": (by_layer["protocols"], "s"),
        "memory.diffs_made": (calls["make_diff"], "count"),
        "memory.diff_bytes_made": (tally["make_diff"], "B"),
        "memory.diffs_applied": (calls["apply_diff"], "count"),
        "memory.diffs_integrated": (tally["integrate_diffs"], "count"),
        "memory.pages_invalidated": (tally["MemoryManager.invalidate"], "count"),
        "memory.full_pages_installed": (calls["MemoryManager.install_full_page"], "count"),
        "memory.diff_s": (self_s("make_diff", "apply_diff", "integrate_diffs"), "s"),
        "memory.manager_s": (
            self_s(*(n for n in own if n.startswith("MemoryManager."))), "s"),
        "core.build_s": (self_s("make_system", "MpiSystem", "app.build", "app.build_mpi"), "s"),
        "apps.extract_s": (self_s("app.extract"), "s"),
        "apps.verify_s": (self_s("app.sequential", "app.outputs_match"), "s"),
        "mpi.sends": (calls["MpiComm.send"], "count"),
        "mpi.self_s": (by_layer["mpi"], "s"),
        "obs.trace_events": (sum(o.obs["trace_events"] for o in done), "count"),
        "obs.oracle_events": (sum(o.obs["oracle_events"] for o in done), "count"),
        "obs.check_s": (sum(o.obs["check_s"] for o in done), "s"),
    }


def deterministic(name: str) -> bool:
    return not (name.endswith("_s") or name.endswith("_ratio"))


def traced(api: adapter.Repro, args) -> dict:
    cells = api.cells(args.workload, args.seed)
    observed = args.workload == OBSERVED
    checker = Checker(api)
    boundaries = api.boundaries()
    layer_of = {b.name: b.layer for b in boundaries}
    led = ledger.Ledger(boundaries)
    plain_walls, bare_walls, traced_walls = [], [], []
    passes: list[dict] = []
    call_counts: list[dict] = []
    layer_self: list[dict] = []

    # every round opens with an untraced pass, so the checker holds each
    # cell's untraced fingerprint before the traced pass is compared with it
    start = time.perf_counter()
    while len(passes) < TRACED_PASSES or time.perf_counter() - start < args.seconds:
        times, outs = run_pass(checker, cells, observed)
        plain_walls.append(sum(times))
        if observed:
            # the same cells with every observer off: what observing costs
            bare_walls.append(sum(run_pass(checker, cells, False)[0]))
        led.reset()
        led.install()
        try:
            times, outs = run_pass(checker, cells, observed)
        finally:
            led.uninstall()
        wall = sum(times)
        traced_walls.append(wall)
        own = led.self_seconds()
        by_layer = dict.fromkeys(sorted(set(layer_of.values())), 0.0)
        for name, seconds in own.items():
            by_layer[layer_of[name]] += seconds
        layer_self.append(by_layer)
        passes.append(layer_metrics(led, own, by_layer, outs))
        call_counts.append(led.counts())
        print(f"  traced pass {len(passes) - 1}: {led.span_count()} spans, "
              f"wall {wall:.3f} s (untraced {plain_walls[-1]:.3f} s)")

    # coverage: every boundary the workload exercises recorded a call
    for name, workloads in COVERAGE.items():
        if args.workload in workloads:
            checker.attempted += 1
            if call_counts[0][name] == 0:
                checker.fail(f"coverage: {name} recorded no call on {args.workload}")
    for name, workloads in NONZERO.items():
        checker.attempted += 1
        value = passes[0][name][0]
        required = args.workload in workloads
        if (required and value == 0) or (
                not required and value and name.startswith("obs.")):
            checker.fail(f"coverage: {name} is {value} on {args.workload}")
    # determinism: counts repeat exactly across traced passes
    checker.attempted += 1
    first = passes[0]
    for i, later in enumerate(passes[1:], 1):
        diff = [n for n, (v, _) in first.items()
                if deterministic(n) and later[n][0] != v]
        diff += [n for n, v in call_counts[0].items() if call_counts[i][n] != v]
        if diff:
            checker.fail(f"nondeterminism: traced pass {i} differs in {sorted(diff)}")
            break

    metrics = {}
    for name, (value, unit) in first.items():
        if not deterministic(name):
            value = statistics.median(p[name][0] for p in passes)
        metrics[name] = metric(value, unit)
    obs_overhead = (statistics.median(plain_walls) - statistics.median(bare_walls)
                    if observed else 0.0)
    metrics["obs.overhead_s"] = metric(obs_overhead, "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")

    total = sum(layer_self[0].values())
    print(f"workload {args.workload}: {len(passes)} traced passes")
    print("self-time share by layer (traced pass 0): " + ", ".join(
        f"{layer} {100 * v / total:.1f}%" for layer, v in layer_self[0].items()))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"checks: {checker.failed} failed of {checker.attempted}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def every_workload(args) -> dict:
    """Run each workload in a process of its own (so ``peak_rss_mb`` is that
    workload's) and merge the results, naming metrics ``<workload>.<name>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        *report, last = proc.stdout.splitlines()
        print("\n".join(report), flush=True)
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="a workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed for every app (default: committed seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        api = adapter.Repro(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"run.py: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = every_workload(args)
    else:
        result = traced(api, args) if args.trace else end_to_end(api, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
