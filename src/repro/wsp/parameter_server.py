"""Simulated sharded parameter server with WSP clocks (§5).

The PS tracks, per virtual worker, the highest wave whose aggregated
update has been fully applied (``pushed_wave``); the *global version* is
the minimum over workers — wave ``c`` is globally complete when every
worker has pushed it, which is exactly the paper's ``c_global`` advance
rule.  Pushes and pulls are simulated as transfers over per-node-pair
channels (PCIe within a node, the fitted InfiniBand model across nodes)
plus a serialized apply cost at each shard host, so parameter-server
contention — the reason the paper permits global staleness — emerges
naturally when several virtual workers push at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.topology import Cluster
from repro.errors import SimulationError
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.netsim.fabric import Endpoint, Fabric
from repro.sim.engine import Simulator
from repro.sim.fastforward import FastForwardState
from repro.sim.resources import Channel, Processor
from repro.wsp.placement import StagePlacement


@dataclass
class _VersionWaiter:
    desired: int
    callback: Callable[[], None]
    #: virtual worker awaiting the version, when known — a fast-forward
    #: skip advances ``desired`` by that worker's coalesced waves
    vw: int | None = None


def _retarget_version_waiters(ps: "ParameterServerSim", cycles: int, deltas: dict) -> None:
    """Fast-forward coupling: a pending version wait is part of the
    periodic pattern, so it shifts by its worker's coalesced waves."""
    waves = deltas["pushed_wave"]
    for waiter in ps._waiters:
        if waiter.vw is None:
            raise SimulationError(
                "fast-forward over an untagged version waiter; "
                "when_version(..., vw=...) is required under fast_forward"
            )
        waiter.desired += cycles * waves[waiter.vw]
    if any(ps._push_backlog):
        # Unreachable: a backlog implies a push in flight, which the
        # runtime refuses to skip over; fail loudly should that change.
        raise SimulationError(
            "fast-forward over a non-empty push backlog; skips must "
            "be refused while any push is in flight"
        )


class ParameterServerSim:
    """Sharded PS: transfers, apply costs, and WSP clock accounting."""

    FAST_FORWARD = FastForwardState(
        counters=(
            "pushes_completed", "pulls_completed", "sync_bytes_total",
            "sync_bytes_cross_node", "pushed_wave", "global_version", "shard_bytes",
        ),
        levels=("_push_in_flight", "_backlog_depths", "_waiter_lags"),
        parts=("_apply", "_shard_apply", "_channels"),
        coupled=(_retarget_version_waiters,),
    )

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        num_virtual_workers: int,
        calibration: Calibration = DEFAULT_CALIBRATION,
        fabric: Fabric | None = None,
        shards: int = 1,
    ) -> None:
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        self.sim = sim
        self.cluster = cluster
        self.calibration = calibration
        #: shared network fabric; None keeps the historical dedicated
        #: per-(worker, stage, direction) gRPC streams
        self.fabric = fabric
        #: PS shard slots per stage; with K > 1 each destination index in
        #: a push/pull source list is its own PS process with a dedicated
        #: stream and apply queue.  1 is the historical single-endpoint
        #: model and leaves every code path bit-identical.
        self.shards = shards
        #: cumulative push+pull bytes per shard slot (empty at shards=1 —
        #: the per-node accounting already covers the unsharded case)
        self.shard_bytes: list[float] = [0.0] * shards if shards > 1 else []
        #: per-(node, shard slot) apply queues, lazily created; the
        #: per-node ``_apply`` processors serve only the unsharded model
        self._shard_apply: dict[tuple[int, int], Processor] = {}
        self.pushed_wave = [-1] * num_virtual_workers
        self.global_version = -1
        self.pushes_completed = 0
        self.pulls_completed = 0
        self.sync_bytes_total = 0.0
        self.sync_bytes_cross_node = 0.0
        self._waiters: list[_VersionWaiter] = []
        #: observers called as (vw_index, wave, global_version) right
        #: after each push is recorded; the invariant oracles use this to
        #: watch clock advancement without patching internals
        self._push_observers: list[Callable[[int, int, int], None]] = []
        self._apply: dict[int, Processor] = {
            node.node_id: Processor(sim, f"ps.apply.n{node.node_id}") for node in cluster.nodes
        }
        # Keyed (vw, stage, direction, locality) unsharded and
        # (vw, stage, direction, "k{slot}") sharded; the two shapes never
        # coexist in one PS instance.
        self._channels: dict[tuple[int, int, str, object], Channel] = {}
        # Shared mode's counterpart: (src endpoint, dst endpoint, flow
        # tag) per (vw, stage, shard, direction, src node, dst node), so
        # a send builds neither endpoints nor a tag string.
        self._fabric_streams: dict[
            tuple[int, int, int | None, str, int, int], tuple[Endpoint, Endpoint, str]
        ] = {}
        # Pushes from one worker apply strictly in wave order; when the
        # pipeline races ahead (D > 0) later waves queue here until the
        # previous push is fully recorded.
        self._push_in_flight = [False] * num_virtual_workers
        self._push_backlog: list[list[tuple[int, list, Callable[[], None] | None]]] = [
            [] for _ in range(num_virtual_workers)
        ]
        #: fault-injection visibility surface (repro.faults.FaultState);
        #: None keeps every send/apply path bit-identical to no-faults
        self._faults = None
        #: current link-degradation scale, applied to cross-node streams
        #: (including ones lazily created during the fault window)
        self._link_scale = 1.0

    # ------------------------------------------------------------------
    # fabric
    # ------------------------------------------------------------------
    # One serialized stream per (virtual worker, stage, direction, and
    # locality class): TensorFlow moves a worker's variables to/from the
    # parameter servers over per-endpoint gRPC streams whose sustained
    # rate is software-bound, so a stage's cross-node pushes do NOT fan
    # out at line rate — they serialize at the achieved IB rate, while
    # different virtual workers' streams do proceed in parallel (the
    # 56 Gb/s port is far from saturated by one stream).

    def _stream(
        self, vw_index: int, stage: int, direction: str, cross_node: bool,
        shard: int | None = None,
    ) -> Channel:
        if shard is None:
            key: tuple[int, int, str, object] = (vw_index, stage, direction, cross_node)
            suffix = ""
        else:
            key = (vw_index, stage, direction, f"k{shard}")
            suffix = f".k{shard}"
        channel = self._channels.get(key)
        if channel is None:
            ic = self.cluster.interconnect
            if cross_node:
                channel = Channel(self.sim, ic.ib_effective, ic.ib_latency, f"ps.vw{vw_index}.s{stage}.{direction}{suffix}.ib")
                if self._link_scale != 1.0:
                    channel.rate_scale = self._link_scale
            else:
                channel = Channel(self.sim, ic.pcie_effective, ic.pcie_latency, f"ps.vw{vw_index}.s{stage}.{direction}{suffix}.local")
            self._channels[key] = channel
        return channel

    def _send(
        self,
        vw_index: int,
        stage: int,
        direction: str,
        src_node: int,
        dst_node: int,
        nbytes: float,
        on_complete: Callable[[], None] | None,
        shard: int | None = None,
        _attempt: int = 0,
    ) -> None:
        """Move ``nbytes`` from ``src_node`` to ``dst_node`` host memory.

        Dedicated mode uses the per-stream channels above (one per shard
        slot when sharded, so a stage's K shards move in parallel);
        shared mode routes one flow over the fabric, contending with
        every other transfer crossing the same lanes, switches, and NICs.

        Under fault injection a send whose PS endpoint (or whose worker
        node) is down does not start: it retries with exponential backoff
        until the endpoint recovers or the retry budget is exhausted (an
        unrecoverable failure).  A permanent failover redirects the PS
        endpoint to the surviving host first.
        """
        faults = self._faults
        if faults is not None:
            # Whole-node failover re-homes either endpoint; a PS-only
            # failover re-homes just the PS side of the transfer.
            src_node = faults.node_redirect.get(src_node, src_node)
            dst_node = faults.node_redirect.get(dst_node, dst_node)
            if direction == "push":
                dst_node = faults.redirect.get(dst_node, dst_node)
                ps_node, other = dst_node, src_node
            else:
                src_node = faults.redirect.get(src_node, src_node)
                ps_node, other = src_node, dst_node
            if faults.blocks_ps(ps_node, shard) or other in faults.down_nodes:
                faults.retry(
                    _attempt,
                    lambda: self._send(
                        vw_index, stage, direction, src_node, dst_node,
                        nbytes, on_complete, shard, _attempt + 1,
                    ),
                    f"ps.vw{vw_index}.s{stage}.{direction}",
                )
                return
            if _attempt > 0:
                faults.send_resolved()
        fabric = self.fabric
        if fabric is not None:
            key = (vw_index, stage, shard, direction, src_node, dst_node)
            route = self._fabric_streams.get(key)
            if route is None:
                slot = "" if shard is None else f".k{shard}"
                route = (
                    Endpoint.host(src_node),
                    Endpoint.host(dst_node),
                    f"ps.vw{vw_index}.s{stage}{slot}.{direction}",
                )
                self._fabric_streams[key] = route
            src, dst, tag = route
            fabric.transfer(src, dst, nbytes, on_complete, tag)
            return
        stream = self._stream(vw_index, stage, direction, dst_node != src_node, shard)
        stream.transfer(nbytes, on_complete)

    def _applier(self, shard_node: int, shard: int | None) -> Processor:
        """The apply queue for one destination: per node unsharded, per
        (node, shard slot) sharded — each shard is its own PS process.

        Consults the failover redirect so in-flight transfers that were
        addressed to a since-failed node apply at its replacement."""
        if self._faults is not None:
            shard_node = self._faults.redirect.get(shard_node, shard_node)
        if shard is None:
            return self._apply[shard_node]
        key = (shard_node, shard)
        proc = self._shard_apply.get(key)
        if proc is None:
            proc = Processor(self.sim, f"ps.apply.n{shard_node}.k{shard}")
            if self._faults is not None and self._faults.blocks_ps(shard_node, shard):
                proc.fail()
            self._shard_apply[key] = proc
        return proc

    def queue_stats(self) -> tuple[float, int]:
        """``(total queueing delay, peak queue depth)`` of PS traffic.

        Dedicated mode aggregates the PS's own per-stream channels.
        Fabric mode aggregates the fabric's ``ps.*``-tagged flows (wait
        per flow, peak concurrently-waiting flows) — historically this
        silently returned zeros, indistinguishable from "no queueing";
        the metrics layer now also labels which attribution applies.
        """
        if self.fabric is not None:
            return self.fabric.tagged_queue_stats("ps.")
        total = sum(ch.queue_delay_total for ch in self._channels.values())
        depth = max((ch.max_queue_depth for ch in self._channels.values()), default=0)
        return total, depth

    def _account(
        self, src_node: int, dst_node: int, nbytes: float, shard: int | None = None
    ) -> None:
        self.sync_bytes_total += nbytes
        if src_node != dst_node:
            self.sync_bytes_cross_node += nbytes
        if shard is not None:
            self.shard_bytes[shard] += nbytes

    def _shard_of(self, dest_index: int) -> int | None:
        """Sharded PS: destination index IS the shard slot; unsharded:
        destinations are plain per-node splits, no slot identity."""
        return dest_index if self.shards > 1 else None

    # ------------------------------------------------------------------
    # push / pull
    # ------------------------------------------------------------------

    def push(
        self,
        vw_index: int,
        wave: int,
        sources: list[tuple[int, list[tuple[int, float]]]],
        on_complete: Callable[[], None] | None = None,
    ) -> None:
        """Push one wave's aggregated updates.

        ``sources`` lists, per stage, ``(src_node, [(shard_node, bytes)])``.
        The wave is recorded (and the global version possibly advanced)
        only after every transfer *and* every shard-side apply finishes.
        A worker's waves apply strictly in order: if its previous push is
        still in flight, this one queues behind it.
        """
        expected = self.expected_next_wave(vw_index)
        if wave != expected:
            raise SimulationError(
                f"vw{vw_index} pushed wave {wave}, expected {expected}"
            )
        if self._push_in_flight[vw_index]:
            self._push_backlog[vw_index].append((wave, sources, on_complete))
            return
        self._begin_push(vw_index, wave, sources, on_complete)

    def _begin_push(
        self,
        vw_index: int,
        wave: int,
        sources: list[tuple[int, list[tuple[int, float]]]],
        on_complete: Callable[[], None] | None,
    ) -> None:
        self._push_in_flight[vw_index] = True
        outstanding = sum(len(dests) for _, dests in sources)
        if outstanding == 0:
            self._push_recorded(vw_index, wave, on_complete)
            return

        state = {"left": outstanding}

        def transfer_done(shard_node: int, nbytes: float, shard: int | None) -> None:
            apply_time = nbytes / self.calibration.ps_apply_bandwidth
            self._applier(shard_node, shard).submit(apply_time, lambda: applied())

        def applied() -> None:
            state["left"] -= 1
            if state["left"] == 0:
                self._push_recorded(vw_index, wave, on_complete)

        for stage, (src_node, dests) in enumerate(sources):
            for index, (shard_node, nbytes) in enumerate(dests):
                shard = self._shard_of(index)
                self._account(src_node, shard_node, nbytes, shard)
                self._send(
                    vw_index, stage, "push", src_node, shard_node, nbytes,
                    (lambda shard_node=shard_node, nbytes=nbytes, shard=shard: transfer_done(shard_node, nbytes, shard)),
                    shard,
                )

    def expected_next_wave(self, vw_index: int) -> int:
        """The wave ``vw_index`` must push next: everything recorded plus
        everything already in flight or backlogged is committed."""
        return (
            self.pushed_wave[vw_index]
            + 1
            + len(self._push_backlog[vw_index])
            + (1 if self._push_in_flight[vw_index] else 0)
        )

    def subscribe_push(self, observer: Callable[[int, int, int], None]) -> None:
        """Call ``observer(vw_index, wave, global_version)`` per recorded push."""
        self._push_observers.append(observer)

    def _push_recorded(self, vw_index: int, wave: int, on_complete: Callable[[], None] | None) -> None:
        self.pushed_wave[vw_index] = wave
        self.pushes_completed += 1
        self._push_in_flight[vw_index] = False
        new_version = min(self.pushed_wave)
        advanced = new_version > self.global_version
        if advanced:
            self.global_version = new_version
            if self._faults is not None:
                self._faults.on_version_advance(self.global_version, self.sim.now)
        # Observers run before waiter callbacks so they see every push in
        # recording order, ahead of any cascade the version advance starts.
        for observer in self._push_observers:
            observer(vw_index, wave, self.global_version)
        if advanced:
            self._fire_waiters()
        if on_complete is not None:
            on_complete()
        if self._push_backlog[vw_index] and not self._push_in_flight[vw_index]:
            next_wave, sources, callback = self._push_backlog[vw_index].pop(0)
            self._begin_push(vw_index, next_wave, sources, callback)

    def push_bytes_only(
        self, vw_index: int, sources: list[tuple[int, list[tuple[int, float]]]]
    ) -> None:
        """Move update bytes without advancing any clock.

        Used by the per-minibatch-push ablation: the traffic and shard
        apply cost of a push, repeated every minibatch, with the wave
        clock still advancing only at wave boundaries.
        """
        for stage, (src_node, dests) in enumerate(sources):
            for index, (shard_node, nbytes) in enumerate(dests):
                shard = self._shard_of(index)
                self._account(src_node, shard_node, nbytes, shard)
                self._send(
                    vw_index, stage, "push", src_node, shard_node, nbytes,
                    (
                        lambda shard_node=shard_node, nbytes=nbytes, shard=shard: self._applier(
                            shard_node, shard
                        ).submit(nbytes / self.calibration.ps_apply_bandwidth)
                    ),
                    shard,
                )

    def pull(
        self,
        vw_index: int,
        sources: list[tuple[int, list[tuple[int, float]]]],
        on_complete: Callable[[int], None],
    ) -> None:
        """Pull the global weights; ``on_complete`` receives the version
        snapshot taken when the pull began (the weights read)."""
        version = self.global_version
        outstanding = sum(len(dests) for _, dests in sources)
        if outstanding == 0:
            self.pulls_completed += 1
            on_complete(version)
            return
        state = {"left": outstanding}

        def transfer_done() -> None:
            state["left"] -= 1
            if state["left"] == 0:
                self.pulls_completed += 1
                on_complete(version)

        for stage, (dst_node, dests) in enumerate(sources):
            for index, (shard_node, nbytes) in enumerate(dests):
                shard = self._shard_of(index)
                self._account(shard_node, dst_node, nbytes, shard)
                self._send(
                    vw_index, stage, "pull", shard_node, dst_node, nbytes,
                    transfer_done, shard,
                )

    # ------------------------------------------------------------------
    # fault injection (see repro.faults)
    # ------------------------------------------------------------------

    def fail_node(self, node: int) -> None:
        """Take every PS process hosted on ``node`` down: existing apply
        queues stop serving (queued applies wait for the rejoin) and new
        sends addressed to the node block in the retry path."""
        self._apply[node].fail()
        for (n, _), proc in self._shard_apply.items():
            if n == node:
                proc.fail()

    def restore_node(self, node: int) -> None:
        """Rejoin ``node``'s PS processes: queued applies resume in order."""
        self._apply[node].restore()
        for (n, _), proc in self._shard_apply.items():
            if n == node:
                proc.restore()

    def fail_process(self, node: int, slot: int) -> None:
        """Kill one sharded PS process (``slot`` hosted on ``node``)."""
        proc = self._shard_apply.get((node, slot))
        if proc is not None:
            proc.fail()

    def restore_process(self, node: int, slot: int) -> None:
        proc = self._shard_apply.get((node, slot))
        if proc is not None:
            proc.restore()

    def migrate_node(self, dead: int, replacement: int) -> None:
        """Permanent failover: re-home ``dead``'s PS state on
        ``replacement``.  Queued applies drain across (order preserved),
        the dead processors are halted, and the redirect map points both
        in-flight completions and future sends at the survivor."""
        if self._faults is None:
            raise SimulationError("migrate_node requires fault injection")
        self._faults.redirect[dead] = replacement
        self._apply[dead].drain_to(self._apply[replacement])
        self._apply[dead].halt()
        for (n, k), proc in list(self._shard_apply.items()):
            if n == dead:
                target = self._applier(replacement, k)
                if target is not proc:
                    proc.drain_to(target)
                proc.halt()

    def set_link_scale(self, scale: float) -> None:
        """Degrade (or restore) the cross-node PS streams.  Dedicated
        mode only — in fabric mode the fabric itself is scaled."""
        self._link_scale = scale
        for channel in self._channels.values():
            if channel.name.endswith(".ib"):
                channel.rate_scale = scale

    # ------------------------------------------------------------------
    # version subscriptions
    # ------------------------------------------------------------------

    def when_version(
        self, desired: int, callback: Callable[[], None], vw: int | None = None
    ) -> None:
        """Run ``callback`` once ``global_version >= desired`` (maybe now).

        ``vw`` tags the waiter with the virtual worker it belongs to so a
        steady-state fast-forward skip can retarget pending waits.
        """
        if self.global_version >= desired:
            callback()
            return
        self._waiters.append(_VersionWaiter(desired, callback, vw))

    @property
    def _backlog_depths(self) -> tuple[int, ...]:
        return tuple(len(backlog) for backlog in self._push_backlog)

    @property
    def _waiter_lags(self) -> tuple[tuple[int, int], ...]:
        """Pending waits as ``(vw, versions still to go)``, sorted."""
        version = self.global_version
        return tuple(sorted((-1 if w.vw is None else w.vw, w.desired - version) for w in self._waiters))

    def _fire_waiters(self) -> None:
        ready = [w for w in self._waiters if self.global_version >= w.desired]
        self._waiters = [w for w in self._waiters if self.global_version < w.desired]
        for waiter in ready:
            waiter.callback()
