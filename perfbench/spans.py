"""Span tracing for traced passes, installed from outside the program.

:meth:`Recorder.install` rebinds public entry points of each repro layer
(``scenarios``, ``api``, ``partition``, ``wsp``, ``pipeline``, ``sim``,
``netsim``) to timing wrappers; ``passrun.py`` opens one root span per
run (``bench.run``, or ``experiments.<name>`` on paper-figures).  Every
span records its name, start, end, parent span and run id (the scenario
seed) into flat in-memory arrays, written out as one ``.npz`` when the
pass ends.  A span's self time is its duration minus the time its child
spans cover; its inclusive time counts only outermost spans of a name.

Oracles are traced by wrapping each ``RuntimeOracle`` subclass's *own*
callbacks, never the base class's: the runtime dispatches only to
oracles whose class overrides a callback, and that filter must see the
same classes with and without tracing.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

ORACLE_CALLBACKS = (
    "on_inject", "on_minibatch_done", "on_push_recorded", "on_pull_done",
    "on_trace", "on_fast_forward", "verify_final",
)

#: Per-layer metrics: name -> (unit, better, how it is derived).  Each
#: figure covers one whole traced pass; a layer the workload never enters
#: reports 0.  ``run.py`` adds the tracing overhead, the last entry.
LAYER_METRICS = {
    "scenarios.generate.calls": ("count", "lower", "generate_scenario calls"),
    "scenarios.generate.ms": ("ms", "lower", "self time of generate_scenario"),
    "api.build.ms": ("ms", "lower", "self time of build_scenario"),
    "partition.plan.calls": ("count", "lower", "plan_virtual_worker[_bnb], max_feasible_nm calls"),
    "partition.plan.ms": ("ms", "lower", "self time of those planner calls"),
    "partition.cache_hit_ratio": ("ratio", "higher", "plan_cache_stats hits / (hits + misses)"),
    "wsp.runtime_build.ms": ("ms", "lower", "self time of from_spec, main runtimes"),
    "wsp.drive.ms": ("ms", "lower", "self time of run_until_global_version, main runtimes"),
    "wsp.twin.ms": ("ms", "lower", "inclusive build + drive of runtimes after a scenario's first"),
    "wsp.twin.events": ("count", "lower", "events those twin runtimes dispatched"),
    "wsp.ps.push.calls": ("count", "lower", "ParameterServerSim.push calls"),
    "wsp.ps.pull.calls": ("count", "lower", "ParameterServerSim.pull calls"),
    "wsp.ps.ms": ("ms", "lower", "self time of ParameterServerSim.push + pull"),
    "wsp.ps.queue_delay_sim_s": ("s", "lower", "simulated: ps_queue_stats() over main runtimes"),
    "wsp.measure.ms": ("ms", "lower", "self time of measure_hetpipe"),
    "pipeline.measure.ms": ("ms", "lower", "self time of measure_pipeline"),
    "pipeline.onefoneb.ms": ("ms", "lower", "inclusive 1F1B drives (run_until_idle or ff)"),
    "pipeline.onefoneb.events": ("count", "lower", "events the 1F1B drives dispatched"),
    "sim.events": ("count", "lower", "events dispatched by every Simulator of the pass"),
    "sim.ns_per_event": ("ns", "lower", "wsp.drive self time / events dispatched inside it"),
    "sim.trace.emits": ("count", "lower", "Trace.emit calls"),
    "sim.trace.ms": ("ms", "lower", "self time of Trace.emit (oracle subscribers excluded)"),
    "sim.trace.digest.ms": ("ms", "lower", "self time of Trace.digest"),
    "sim.oracle.calls": ("count", "lower", "RuntimeOracle subclass + OneFOneBOracle callbacks"),
    "sim.oracle.ms": ("ms", "lower", "self time of those callbacks"),
    "sim.ff.ms": ("ms", "lower", "self time of Simulator.fast_forward + fastforward helpers"),
    "sim.ff.skips": ("count", "higher", "Simulator.fast_forward calls"),
    "sim.ff.coalesced_ratio": ("ratio", "higher", "coalesced / (coalesced + sim.events)"),
    "netsim.transfer.calls": ("count", "lower", "Fabric.transfer calls"),
    "netsim.transfer.ms": ("ms", "lower", "self time of Fabric.transfer"),
    "netsim.queue_delay_sim_s": ("s", "lower", "simulated: Fabric.queue_delay_total, main"),
    "experiments.fig3.s": ("s", "lower", "inclusive repro.api.run.run + render()"),
    "experiments.fig4.s": ("s", "lower", "inclusive repro.api.run.run + render()"),
    "experiments.table4.s": ("s", "lower", "inclusive repro.api.run.run + render()"),
    "bench.trace_overhead.runs_per_s": ("1/s", "higher", "traced - untraced runs_per_s"),
}


def _rebind(original, wrapper) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``wrapper`` (callers that imported the name directly included)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._calls: list[int] = []
        self._self_ns: list[int] = []
        self._incl_ns: list[int] = []
        self._depth: list[int] = []
        # The spans, one column each.
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._run = array("i")
        self._stack: list[list[int]] = []  # [span index, name id, start, child ns]
        self.run_id = -1
        self.counts = dict.fromkeys(
            ("drive_events", "twin_events", "onefoneb_events", "sim_events",
             "ff_skips", "ff_coalesced", "ps_queue_delay", "fabric_queue_delay"),
            0,
        )
        # Per-run state, dropped by end_run.
        self._sims: list = []
        self._main_runtimes: dict[int, object] = {}
        self._twins: dict[int, object] = {}
        self._onefoneb_sims: dict[int, object] = {}
        self._scenario_builds: int | None = None  # None outside run_scenario
        self._in_onefoneb = False

    # -- spans --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_ns.append(0)
            self._incl_ns.append(0)
            self._depth.append(0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        index = len(self._name)
        self._name.append(nid)
        self._parent.append(stack[-1][0] if stack else -1)
        self._run.append(self.run_id)
        self._end.append(0)
        self._calls[nid] += 1
        self._depth[nid] += 1
        start = perf_counter_ns()
        self._start.append(start)
        stack.append([index, nid, start, 0])

    def leave(self) -> None:
        end = perf_counter_ns()
        index, nid, start, child = self._stack.pop()
        self._end[index] = end
        duration = end - start
        self._self_ns[nid] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        depth = self._depth[nid] - 1
        self._depth[nid] = depth
        if not depth:
            self._incl_ns[nid] += duration

    def timed(self, fn, name: str):
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def begin_run(self, run_id: int, root: str) -> None:
        self.run_id = run_id
        self.enter(self.name_id(root))

    def end_run(self) -> None:
        """Close the run's root span and harvest its simulators and runtimes."""
        while self._stack:
            self.leave()
        counts = self.counts
        for sim in self._sims:
            counts["sim_events"] += sim.events_processed
        for runtime in self._main_runtimes.values():
            counts["ps_queue_delay"] += runtime.ps_queue_stats()[0]
            if runtime.fabric is not None:
                counts["fabric_queue_delay"] += runtime.fabric.queue_delay_total
        self._sims.clear()
        self._main_runtimes.clear()
        self._twins.clear()
        self._onefoneb_sims.clear()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public entry points.  Call before the first run."""
        # Load every module that imports a rebound name before rebinding.
        import repro.api.run  # noqa: F401
        import repro.experiments  # noqa: F401
        from repro.api import build
        from repro.netsim.fabric import Fabric
        from repro.partition import planner
        from repro.pipeline import metrics as pipeline_metrics
        from repro.pipeline.one_f_one_b import OneFOneBPipeline
        from repro.scenarios import generator, runner
        from repro.sim import fastforward
        from repro.sim.engine import Simulator
        from repro.sim.invariants import OneFOneBOracle, RuntimeOracle
        from repro.sim.trace import Trace
        from repro.wsp import measure
        from repro.wsp.parameter_server import ParameterServerSim
        from repro.wsp.runtime import HetPipeRuntime

        for fn, name in (
            (generator.generate_scenario, "scenarios.generate"),
            (build.build_scenario, "api.build"),
            (planner.plan_virtual_worker, "partition.plan"),
            (planner.plan_virtual_worker_bnb, "partition.plan"),
            (planner.max_feasible_nm, "partition.plan"),
            (measure.measure_hetpipe, "wsp.measure"),
            (pipeline_metrics.measure_pipeline, "pipeline.measure"),
            (fastforward.collect_counters, "sim.ff"),
            (fastforward.collect_shape, "sim.ff"),
            (fastforward.advance_components, "sim.ff"),
        ):
            _rebind(fn, self.timed(fn, name))
        _rebind(runner.run_scenario, self._scenario_scope(runner.run_scenario))
        _rebind(
            fastforward.run_pipeline_fast_forward,
            self._pipeline_ff(fastforward.run_pipeline_fast_forward),
        )

        for cls, attr, name in (
            (ParameterServerSim, "push", "wsp.ps.push"),
            (ParameterServerSim, "pull", "wsp.ps.pull"),
            (Trace, "emit", "sim.trace.emit"),
            (Trace, "digest", "sim.trace.digest"),
            (fastforward.SteadyStateDetector, "observe", "sim.ff"),
            (fastforward.SteadyStateDetector, "rebase", "sim.ff"),
            (Fabric, "transfer", "netsim.transfer"),
        ):
            setattr(cls, attr, self.timed(getattr(cls, attr), name))
        oracle_classes = [OneFOneBOracle]
        pending = [RuntimeOracle]
        while pending:
            subclasses = pending.pop().__subclasses__()
            oracle_classes.extend(subclasses)
            pending.extend(subclasses)
        for cls in oracle_classes:
            for attr in ORACLE_CALLBACKS:
                if attr in vars(cls):  # the class's own override only
                    setattr(cls, attr, self.timed(vars(cls)[attr], "sim.oracle"))

        HetPipeRuntime.from_spec = classmethod(
            self._runtime_build(vars(HetPipeRuntime)["from_spec"].__func__)
        )
        HetPipeRuntime.run_until_global_version = self._runtime_drive(
            HetPipeRuntime.run_until_global_version
        )
        Simulator.__init__ = self._sim_init(Simulator.__init__)
        Simulator.run_until_idle = self._sim_idle(Simulator.run_until_idle)
        Simulator.fast_forward = self._sim_fast_forward(Simulator.fast_forward)
        OneFOneBPipeline.start = self._onefoneb_start(OneFOneBPipeline.start)

    def _scenario_scope(self, fn):
        """run_scenario: the scope in which a second runtime is a twin."""
        nid = self.name_id("scenarios.run_scenario")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._scenario_builds
            self._scenario_builds = 0
            self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
                self._scenario_builds = outer

        return wrapper

    def _runtime_build(self, fn):
        main, twin = self.name_id("wsp.runtime_build"), self.name_id("wsp.twin.build")

        @functools.wraps(fn)
        def wrapper(cls, *args, **kwargs):
            builds = self._scenario_builds
            is_twin = builds is not None and builds > 0
            self.enter(twin if is_twin else main)
            try:
                runtime = fn(cls, *args, **kwargs)
            finally:
                self.leave()
            if builds is not None:
                self._scenario_builds = builds + 1
            if is_twin:
                self._twins[id(runtime)] = runtime
            else:
                self._main_runtimes[id(runtime)] = runtime
            return runtime

        return wrapper

    def _runtime_drive(self, fn):
        main, twin = self.name_id("wsp.drive"), self.name_id("wsp.twin.drive")

        @functools.wraps(fn)
        def wrapper(runtime, *args, **kwargs):
            is_twin = id(runtime) in self._twins
            if not is_twin:
                # measure_hetpipe constructs its runtime directly
                self._main_runtimes[id(runtime)] = runtime
            sim = runtime.sim
            before = sim.events_processed
            self.enter(twin if is_twin else main)
            try:
                return fn(runtime, *args, **kwargs)
            finally:
                self.leave()
                key = "twin_events" if is_twin else "drive_events"
                self.counts[key] += sim.events_processed - before

        return wrapper

    def _onefoneb_drive(self, sim, fn, *args, **kwargs):
        nid = self.name_id("pipeline.onefoneb")
        before = sim.events_processed
        self._in_onefoneb = True
        self.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()
            self._in_onefoneb = False
            self.counts["onefoneb_events"] += sim.events_processed - before

    def _pipeline_ff(self, fn):
        @functools.wraps(fn)
        def wrapper(pipeline, *args, **kwargs):
            if self._in_onefoneb or id(pipeline.sim) not in self._onefoneb_sims:
                return fn(pipeline, *args, **kwargs)
            return self._onefoneb_drive(pipeline.sim, fn, pipeline, *args, **kwargs)

        return wrapper

    def _sim_idle(self, fn):
        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            if self._in_onefoneb or id(sim) not in self._onefoneb_sims:
                return fn(sim, *args, **kwargs)
            return self._onefoneb_drive(sim, fn, sim, *args, **kwargs)

        return wrapper

    def _onefoneb_start(self, fn):
        @functools.wraps(fn)
        def wrapper(pipeline, *args, **kwargs):
            self._onefoneb_sims[id(pipeline.sim)] = pipeline.sim
            return fn(pipeline, *args, **kwargs)

        return wrapper

    def _sim_init(self, fn):
        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            fn(sim, *args, **kwargs)
            self._sims.append(sim)

        return wrapper

    def _sim_fast_forward(self, fn):
        nid = self.name_id("sim.ff")

        @functools.wraps(fn)
        def wrapper(sim, dt, events_coalesced=0):
            self.enter(nid)
            try:
                fn(sim, dt, events_coalesced)
            finally:
                self.leave()
            self.counts["ff_skips"] += 1
            self.counts["ff_coalesced"] += events_coalesced

        return wrapper

    # -- results ------------------------------------------------------

    def _ms(self, name: str, inclusive: bool = False) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return (self._incl_ns if inclusive else self._self_ns)[nid] / 1e6

    def _calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self._calls[nid]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass, but the tracing overhead."""
        from repro.partition import plan_cache_stats

        hits, misses, _ = plan_cache_stats()
        counts = self.counts
        drive_events = counts["drive_events"]
        coalesced = counts["ff_coalesced"]
        return {
            "scenarios.generate.calls": self._calls_of("scenarios.generate"),
            "scenarios.generate.ms": self._ms("scenarios.generate"),
            "api.build.ms": self._ms("api.build"),
            "partition.plan.calls": self._calls_of("partition.plan"),
            "partition.plan.ms": self._ms("partition.plan"),
            "partition.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "wsp.runtime_build.ms": self._ms("wsp.runtime_build"),
            "wsp.drive.ms": self._ms("wsp.drive"),
            "wsp.twin.ms": (
                self._ms("wsp.twin.build", inclusive=True)
                + self._ms("wsp.twin.drive", inclusive=True)
            ),
            "wsp.twin.events": counts["twin_events"],
            "wsp.ps.push.calls": self._calls_of("wsp.ps.push"),
            "wsp.ps.pull.calls": self._calls_of("wsp.ps.pull"),
            "wsp.ps.ms": self._ms("wsp.ps.push") + self._ms("wsp.ps.pull"),
            "wsp.ps.queue_delay_sim_s": counts["ps_queue_delay"],
            "wsp.measure.ms": self._ms("wsp.measure"),
            "pipeline.measure.ms": self._ms("pipeline.measure"),
            "pipeline.onefoneb.ms": self._ms("pipeline.onefoneb", inclusive=True),
            "pipeline.onefoneb.events": counts["onefoneb_events"],
            "sim.events": counts["sim_events"],
            "sim.ns_per_event": (
                self._ms("wsp.drive") * 1e6 / drive_events if drive_events else 0.0
            ),
            "sim.trace.emits": self._calls_of("sim.trace.emit"),
            "sim.trace.ms": self._ms("sim.trace.emit"),
            "sim.trace.digest.ms": self._ms("sim.trace.digest"),
            "sim.oracle.calls": self._calls_of("sim.oracle"),
            "sim.oracle.ms": self._ms("sim.oracle"),
            "sim.ff.ms": self._ms("sim.ff"),
            "sim.ff.skips": counts["ff_skips"],
            "sim.ff.coalesced_ratio": (
                coalesced / (coalesced + counts["sim_events"]) if coalesced else 0.0
            ),
            "netsim.transfer.calls": self._calls_of("netsim.transfer"),
            "netsim.transfer.ms": self._ms("netsim.transfer"),
            "netsim.queue_delay_sim_s": counts["fabric_queue_delay"],
            "experiments.fig3.s": self._ms("experiments.fig3", inclusive=True) / 1e3,
            "experiments.fig4.s": self._ms("experiments.fig4", inclusive=True) / 1e3,
            "experiments.table4.s": self._ms("experiments.table4", inclusive=True) / 1e3,
        }

    def write(self, path: str) -> None:
        """Write every span as columns of one ``.npz``: name (index into
        ``names``), start and end (ns, monotonic clock), parent (span
        index, -1 at a root) and run (the run id)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            start=np.frombuffer(self._start, dtype=np.int64),
            end=np.frombuffer(self._end, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            run=np.frombuffer(self._run, dtype=np.int32),
        )
