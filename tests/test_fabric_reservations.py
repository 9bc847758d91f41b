"""The shared fabric's flow path: O(1) link reservations, memoized
routes, and the flow ledger records.

``SharedLink.occupy`` keeps its pending starts in a deque and pops the
prefix that has begun, instead of re-filtering the whole list per
reservation.  That is exact only because starts never decrease on a
link; these tests pin the result bit for bit against the original
list-rebuild formula, and check the monotonicity premise on real runs.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.catalog import paper_cluster
from repro.errors import InvariantViolation
from repro.netsim import Endpoint, Fabric
from repro.netsim.fabric import Flow, SharedLink
from repro.scenarios import run_fuzz
from repro.sim.engine import Simulator

#: a clean, jitter-free fuzz scenario on three nodes whose PS and stage
#: flows queue on the shared fabric when run with 4 PS shards
SHARDED_SEED = 24


class _ReferenceLink:
    """The original ``SharedLink.occupy`` arithmetic, list rebuild and all."""

    def __init__(self) -> None:
        self.free_at = 0.0
        self.pending: list[float] = []
        self.busy_time = 0.0
        self.bytes_moved = 0.0
        self.flows_carried = 0
        self.queue_delay_total = 0.0
        self.max_queue_depth = 0

    def occupy(self, now: float, start: float, duration: float, nbytes: float) -> None:
        self.queue_delay_total += max(0.0, min(self.free_at, start) - now)
        self.pending = [t for t in self.pending if t > now]
        if start > now:
            self.pending.append(start)
        self.max_queue_depth = max(self.max_queue_depth, len(self.pending))
        self.free_at = start + duration
        self.busy_time += duration
        self.bytes_moved += nbytes
        self.flows_carried += 1


_time = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)

#: one reservation: how the clock moves first, then the flow's gap
#: after ``free_at`` (starts >= free_at), its duration and size
_step = st.tuples(
    st.one_of(
        st.just(("stay", 0.0)),
        st.tuples(st.just("advance"), _time),
        st.just(("to_free_at", 0.0)),
    ),
    st.one_of(st.just(0.0), _time),
    st.one_of(st.just(0.0), _time),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)


class TestSharedLinkReservations:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=40))
    def test_matches_list_rebuild_reference(self, steps):
        sim = Simulator()
        link = SharedLink(sim, 1.0, "l", "nic")
        ref = _ReferenceLink()
        for (clock, dt), gap, duration, nbytes in steps:
            if clock == "advance":
                sim.now += dt
            elif clock == "to_free_at":
                sim.now = max(sim.now, link.free_at)
            start = link.free_at + gap
            ref.occupy(sim.now, start, duration, nbytes)
            link.occupy(start, duration, nbytes)
            assert link.queue_delay_total == ref.queue_delay_total
            assert link.max_queue_depth == ref.max_queue_depth
            assert link.busy_time == ref.busy_time
            assert link.bytes_moved == ref.bytes_moved
            assert link.flows_carried == ref.flows_carried
            assert link.free_at == ref.free_at
            assert link.queue_depth == len([t for t in ref.pending if t > sim.now])

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.floats(min_value=2e-12, max_value=1e3, allow_nan=False),
    )
    def test_overlap_raises(self, duration, early):
        sim = Simulator()
        link = SharedLink(sim, 1.0, "l", "nic")
        link.occupy(0.0, duration, 1.0)
        start = link.free_at - early
        if not start < link.free_at - 1e-12:
            return  # rounded back inside the tolerance
        with pytest.raises(InvariantViolation, match="overlapping reservation"):
            link.occupy(start, 1.0, 1.0)

    def test_start_within_tolerance_is_accepted(self):
        sim = Simulator()
        link = SharedLink(sim, 1.0, "l", "nic")
        link.occupy(0.0, 1.0, 1.0)
        link.occupy(1.0 - 5e-13, 1.0, 1.0)
        assert link.flows_carried == 2

    def test_fabric_starts_never_decrease_per_link(self, monkeypatch):
        """The premise of the prefix pop, on a real contended run."""
        starts: dict[int, list[float]] = {}
        links: dict[int, SharedLink] = {}
        occupy = SharedLink.occupy

        def recording(self, start, duration, nbytes):
            starts.setdefault(id(self), []).append(start)
            links[id(self)] = self
            occupy(self, start, duration, nbytes)

        monkeypatch.setattr(SharedLink, "occupy", recording)
        report = run_fuzz(
            [SHARDED_SEED], network_model="shared", shards=4,
            shard_placement="contention_aware",
        )
        assert not report.results[0].violations
        assert any(link.max_queue_depth > 0 for link in links.values())
        for seq in starts.values():
            assert all(a <= b for a, b in zip(seq, seq[1:]))


class TestRouteResolution:
    def test_route_computed_once_per_endpoint_pair(self, monkeypatch):
        calls: dict[int, list[tuple[Endpoint, Endpoint]]] = {}
        fabrics: dict[int, Fabric] = {}
        compute = Fabric._compute_route

        def counting(self, src, dst):
            calls.setdefault(id(self), []).append((src, dst))
            fabrics[id(self)] = self
            return compute(self, src, dst)

        monkeypatch.setattr(Fabric, "_compute_route", counting)
        run_fuzz(
            [SHARDED_SEED], network_model="shared", shards=4,
            shard_placement="contention_aware",
        )
        assert calls
        assert any(f.wait > 0.0 for fabric in fabrics.values() for f in fabric.flows)
        for key, pairs in calls.items():
            assert len(pairs) == len(set(pairs)) == len(fabrics[key]._routes)
            flows = fabrics[key].flows
            assert len(flows) > len(pairs)  # every stream replayed its route
            assert {(f.src, f.dst) for f in flows} == set(pairs)

    def test_route_matches_fresh_computation(self):
        cluster = paper_cluster("VRG", gpus_per_node=2)
        fabric = Fabric(Simulator(), cluster)
        endpoints = [Endpoint.gpu(g) for g in cluster.gpus]
        endpoints += [Endpoint.host(n.node_id) for n in cluster.nodes]
        for src, dst in itertools.product(endpoints, repeat=2):
            expected = fabric._compute_route(src, dst)
            for _ in range(2):  # cold, then memoized
                path, latency = fabric.route(src, dst)
                assert [l.name for l in path] == [l.name for l in expected[0]]
                assert latency == expected[1]

    def test_same_device_transfer_is_a_noop(self):
        sim = Simulator()
        cluster = paper_cluster("VR")
        fabric = Fabric(sim, cluster)
        gpu = Endpoint.gpu(cluster.gpu(0))
        fabric.route(gpu, gpu)  # a diagnostic lookup must not cache it
        assert fabric.transfer(gpu, Endpoint.gpu(cluster.gpu(0)), 1e6) == 0.0
        assert fabric.flows == [] and fabric._routes == {}


class TestFlowRecord:
    def test_keyword_construction_and_fields(self):
        flow = Flow(
            src=Endpoint.host(0), dst=Endpoint.host(1), nbytes=8.0,
            start=1.0, done=2.0, path=("host.n0",),
        )
        assert flow.tag == "" and flow.wait == 0.0
        assert Flow._fields == (
            "src", "dst", "nbytes", "start", "done", "path", "tag", "wait",
        )
        with pytest.raises(AttributeError):
            flow.nbytes = 1.0

    def test_transfer_records_wait_and_tag(self):
        sim = Simulator()
        fabric = Fabric(sim, paper_cluster("VR"))
        src, dst = Endpoint.host(0), Endpoint.host(1)
        first = fabric.transfer(src, dst, 1e9, tag="a")
        fabric.transfer(src, dst, 1e9, tag="b")
        a, b = fabric.flows
        assert (a.tag, a.wait, a.start, a.done) == ("a", 0.0, 0.0, first)
        assert b.tag == "b" and b.wait == b.start > 0.0
        assert b.src is src and b.dst is dst
