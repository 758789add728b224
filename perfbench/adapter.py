"""The benchmark's only door into ``repro``.

Every call the benchmark makes into the package goes through this file, so a
refactor that keeps the names below working keeps the benchmark working.

Public names the benchmark depends on
-------------------------------------
repro.apps.APPS                              app name -> app module
    <app>.build, <app>.build_mpi, <app>.extract, <app>.sequential,
    <app>.outputs_match (wrapped in the traced run)
repro.apps.common.run_app                    the closed-loop entry point, verify=True,
    with the tracer= / metrics= / oracle= / view_tracer= keywords
repro.apps.common.make_system, .MpiSystem    name-bound constructors (traced run)
repro.apps.common.AppResult                  .table_row(), .time, .events, .stats
repro.protocols.runstats.RunStats            .net, .diff_requests
repro.net.stats.NetStats                     .num_msg, .data_bytes, .rexmit, .drops
repro.bench.sweep.SweepCell, .default_cells, .CellResult.fingerprint
repro.obs.EventTracer, repro.obs.Metrics, repro.tools.tracer.ViewTracer
repro.obs.oracle.AccessRecorder, repro.obs.oracle.check_history
repro.sim.Simulator.run, .spawn
repro.net.nic.Nic.send, .on_arrival; repro.net.nic.Switch.transfer
repro.net.transport.Transport.on_receive, .post, .request
repro.protocols.{base.BaseDsmProtocol, lrc.LrcProtocol, vc.VcProtocol,
    vc_sd.VcSdProtocol, hlrc.HlrcProtocol}: read_fault, write_fault,
    acquire_view, acquire_rview, release_view, release_rview, acquire_lock,
    release_lock, barrier, apply_notices
repro.memory.diff.make_diff, .apply_diff, .integrate_diffs, .Diff.changed_bytes,
    and the name-bound copies in repro.memory, repro.memory.manager and
    repro.protocols.vc_sd (hlrc imports apply_diff lazily from
    repro.memory.diff, so patching that module covers it)
repro.memory.manager.MemoryManager           the public methods in MANAGER_METHODS
repro.mpi.comm.MpiComm.send, .recv
BENCH_sweep.json                             cells[].app/protocol/nprocs/variant/
                                             seed/fingerprint (read only)
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, NamedTuple, Optional

#: the seeds the committed BENCH_sweep.json was produced with
COMMITTED_SEEDS = {"is": 42, "gauss": 7, "sor": 3, "nn": 11}
WORKLOADS = ("is16-vcd", "is16-vcsd", "matrix8", "is8-vcd-observed")
#: the workload that runs with every observer on
OBSERVED = "is8-vcd-observed"

PROTOCOL_METHODS = (
    "read_fault", "write_fault", "acquire_view", "acquire_rview",
    "release_view", "release_rview", "acquire_lock", "release_lock",
    "barrier", "apply_notices",
)
MANAGER_METHODS = (
    "page", "state", "read_bytes", "write_bytes", "start_writing",
    "end_interval", "flush_page", "interval_dirty_bytes", "invalidate",
    "install_full_page", "apply_diffs", "zero_fill", "snapshot_page",
)
DIFF_FUNCTIONS = ("make_diff", "apply_diff", "integrate_diffs")


class Cell(NamedTuple):
    """One (app, protocol, ranks, variant, seed) run of a workload."""

    app: str
    protocol: str
    nprocs: int
    variant: str
    seed: int

    @property
    def label(self) -> str:
        tag = "" if self.variant == "default" else f"/{self.variant}"
        return f"{self.app}/{self.protocol}/{self.nprocs}p{tag}"

    @property
    def key(self) -> tuple:
        return (self.app, self.protocol, self.nprocs, self.variant, self.seed)


class Outcome(NamedTuple):
    """What one verified cell run produced."""

    fingerprint: str
    sim_s: float
    events: int
    net: dict  # msgs, bytes, rexmit, drops
    diff_requests: int
    obs: dict  # trace_events, oracle_events, check_s (observed runs only)


class Boundary(NamedTuple):
    """One call site the traced run wraps: ``getattr(owner, attr)``."""

    layer: str
    name: str
    owner: Any
    attr: str
    # optional work count: tally(args, kwargs, result) -> int
    tally: Optional[Callable[[tuple, dict, Any], int]] = None


class _FirstEvent(Exception):
    """Raised by the set-up probe when the simulation is about to start."""


class Repro:
    """Handle on the ``repro`` package under ``<root>/src``."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
            raise FileNotFoundError(f"no repro package under {src}")
        sys.path.insert(0, src)
        import repro
        import repro.apps
        import repro.apps.common
        import repro.bench.sweep

        if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src)):
            raise ImportError(f"repro imported from {repro.__file__}, not {src}")
        self.root = root
        self._apps = repro.apps.APPS
        self._common = repro.apps.common
        self._sweep = repro.bench.sweep

    # -- workloads ----------------------------------------------------------------

    def cells(self, workload: str, seed: Optional[int]) -> list[Cell]:
        """The cells of ``workload``; ``seed`` None means the committed seeds."""

        def cell(app, protocol, nprocs, variant="default"):
            s = COMMITTED_SEEDS[app] if seed is None else seed
            return Cell(app, protocol, nprocs, variant, s)

        if workload == "is16-vcd":
            return [cell("is", "vc_d", 16)]
        if workload == "is16-vcsd":
            return [cell("is", "vc_sd", 16)]
        if workload == "is8-vcd-observed":
            return [cell("is", "vc_d", 8)]
        if workload == "matrix8":
            return [
                cell(c.app, c.protocol, c.nprocs, c.variant)
                for c in self._sweep.default_cells()
                if c.nprocs == 8
            ]
        raise ValueError(f"unknown workload {workload!r}")

    def committed_fingerprints(self) -> dict[tuple, str]:
        """``Cell.key`` -> fingerprint from the committed BENCH_sweep.json."""
        with open(os.path.join(self.root, "BENCH_sweep.json")) as fh:
            doc = json.load(fh)
        return {
            (c["app"], c["protocol"], c["nprocs"], c["variant"], c["seed"]):
                c["fingerprint"]
            for c in doc["cells"]
        }

    # -- running ------------------------------------------------------------------

    def _config(self, cell: Cell):
        sweep_cell = self._sweep.SweepCell(
            app=cell.app, protocol=cell.protocol, nprocs=cell.nprocs,
            variant=cell.variant, seed=cell.seed,
        )
        return sweep_cell, sweep_cell.config()

    def run_cell(self, cell: Cell, observed: bool = False) -> Outcome:
        """Run one cell through ``run_app`` with verification on.

        Raises on a wrong answer (``run_app`` checks the output against the
        app's sequential reference) and, when ``observed``, on any
        consistency-oracle finding.
        """
        sweep_cell, config = self._config(cell)
        observers: dict = {}
        if observed:
            from repro.obs import EventTracer, Metrics
            from repro.obs.oracle import AccessRecorder
            from repro.tools.tracer import ViewTracer

            observers = dict(
                tracer=EventTracer(), metrics=Metrics(),
                oracle=AccessRecorder(), view_tracer=ViewTracer(),
            )
        result = self._common.run_app(
            self._apps[cell.app], cell.protocol, cell.nprocs, config,
            variant=cell.variant, verify=True, **observers,
        )
        obs = {"trace_events": 0, "oracle_events": 0, "check_s": 0.0}
        if observed:
            from repro.obs.oracle import check_history

            t0 = time.perf_counter()
            report = check_history(observers["oracle"], cell.nprocs, cell.protocol)
            obs["check_s"] = time.perf_counter() - t0
            if not report.ok:
                raise AssertionError(
                    f"{cell.label}: {len(report.findings)} consistency findings"
                )
            obs["trace_events"] = len(observers["tracer"].events)
            obs["oracle_events"] = len(observers["oracle"].events)
        stats = result.stats
        net = getattr(stats, "net", None) or stats  # MPI runs carry NetStats
        fingerprint = self._sweep.CellResult(
            sweep_cell, result, 0.0, 0, False
        ).fingerprint()
        return Outcome(
            fingerprint=fingerprint,
            sim_s=result.time,
            events=result.events,
            net={
                "msgs": net.num_msg, "bytes": net.data_bytes,
                "rexmit": net.rexmit, "drops": net.drops,
            },
            diff_requests=getattr(stats, "diff_requests", 0),
            obs=obs,
        )

    def build_until_first_event(self, cell: Cell) -> None:
        """Build ``cell``'s system and program, stopping before event one."""
        from repro.sim import Simulator

        def stop(self, *args, **kwargs):
            raise _FirstEvent

        _, config = self._config(cell)
        run, Simulator.run = Simulator.run, stop
        try:
            self._common.run_app(
                self._apps[cell.app], cell.protocol, cell.nprocs, config,
                variant=cell.variant, verify=False,
            )
        except _FirstEvent:
            return
        finally:
            Simulator.run = run
        raise RuntimeError(f"{cell.label} finished without running the simulator")

    # -- boundaries for the traced run ----------------------------------------------

    def boundaries(self) -> list[Boundary]:
        """Every call site the traced run wraps, name-bound copies included."""
        import repro.memory
        import repro.memory.diff
        import repro.memory.manager
        import repro.mpi.comm
        import repro.net.nic
        import repro.net.transport
        import repro.protocols.base
        import repro.protocols.hlrc
        import repro.protocols.lrc
        import repro.protocols.vc
        import repro.protocols.vc_sd
        import repro.sim

        Sim = repro.sim.Simulator
        Nic, Switch = repro.net.nic.Nic, repro.net.nic.Switch
        Transport = repro.net.transport.Transport
        out = [
            Boundary("sim", "Simulator.run", Sim, "run"),
            Boundary("sim", "Simulator.spawn", Sim, "spawn"),
            Boundary("net", "Nic.send", Nic, "send"),
            Boundary("net", "Nic.on_arrival", Nic, "on_arrival"),
            Boundary("net", "Switch.transfer", Switch, "transfer"),
            Boundary("net", "Transport.on_receive", Transport, "on_receive"),
            Boundary("net", "Transport.post", Transport, "post"),
            Boundary("net", "Transport.request", Transport, "request"),
        ]
        tallies = {
            "apply_notices": lambda a, k, r: len(a[1]),
            "make_diff": lambda a, k, r: r.changed_bytes,
            "integrate_diffs": lambda a, k, r: len(a[1]),
            "MemoryManager.invalidate": lambda a, k, r: len(a[1]),
        }
        for cls in (
            repro.protocols.base.BaseDsmProtocol, repro.protocols.lrc.LrcProtocol,
            repro.protocols.vc.VcProtocol, repro.protocols.vc_sd.VcSdProtocol,
            repro.protocols.hlrc.HlrcProtocol,
        ):
            for name in PROTOCOL_METHODS:
                if name in vars(cls):
                    out.append(Boundary("protocols", name, cls, name, tallies.get(name)))
        for site in (
            repro.memory.diff, repro.memory, repro.memory.manager,
            repro.protocols.vc_sd,
        ):
            for name in DIFF_FUNCTIONS:
                if name in vars(site):
                    out.append(Boundary("memory", name, site, name, tallies.get(name)))
        manager = repro.memory.manager.MemoryManager
        for name in MANAGER_METHODS:
            label = f"MemoryManager.{name}"
            out.append(Boundary("memory", label, manager, name, tallies.get(label)))
        MpiComm = repro.mpi.comm.MpiComm
        out += [
            Boundary("mpi", "MpiComm.send", MpiComm, "send"),
            Boundary("mpi", "MpiComm.recv", MpiComm, "recv"),
            Boundary("core", "make_system", self._common, "make_system"),
            Boundary("core", "MpiSystem", self._common, "MpiSystem"),
        ]
        for module in self._apps.values():
            for layer, name in (
                ("core", "build"), ("core", "build_mpi"), ("apps", "extract"),
                ("apps", "sequential"), ("apps", "outputs_match"),
            ):
                if name in vars(module):
                    out.append(Boundary(layer, f"app.{name}", module, name))
        return out
