"""Sweep executor: deterministic striping, parallel == serial output."""

import gc
import multiprocessing
import os
import time
import weakref

import pytest

from repro.errors import ConfigurationError, ItemTimeoutError, WorkerCrashError
from repro.exec import resolve_jobs, stripe_indices, sweep_map
from repro.exec.pool import _GC_EVERY, _stripe_main
from repro.scenarios import run_fuzz


def _square(x):
    return x * x


def _hang_on(arg):
    """Sleep far past any test watchdog on the marked item."""
    x, hang = arg
    if x == hang:
        time.sleep(120)
    return x * 10


def _hang_until_marked(arg):
    """Hang only while the marker file is absent, then drop the marker.

    First execution of the marked item hangs (watchdog fires); the
    isolated retry sees the marker and completes — the transient-hang
    model (a load spike, not a pathological item).
    """
    x, marker = arg
    if x == 2 and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("seen")
        time.sleep(120)
    return x * 10


class _Cycle:
    """A self-referencing node: only the cyclic collector can free it."""

    def __init__(self):
        self.me = self


#: Weak references to every ``_Cycle`` that ``_make_cycle`` built.
_CYCLES: list = []


def _make_cycle(x):
    """Leave one unreachable cycle behind; report whether automatic GC
    was running while the item ran."""
    _CYCLES.append(weakref.ref(_Cycle()))
    return gc.isenabled()


class _Inbox:
    """Stands in for a worker's pipe end: keeps what the stripe sends."""

    def __init__(self):
        self.messages = []

    def send(self, message):
        self.messages.append(message)


def _boom(x):
    if x == 3:
        raise ValueError("item 3 exploded")
    return x


def _flaky_exit(arg):
    """Kill the whole process on item 4 until ``counter`` reaches 2.

    ``os._exit`` models a segfault/OOM kill: no exception, no pickle,
    just a dead worker.  An empty counter path dies unconditionally
    (the poisoned-item case)."""
    x, counter = arg
    if x == 4:
        if not counter:
            os._exit(13)
        seen = int(open(counter).read()) if os.path.exists(counter) else 0
        if seen < 2:
            with open(counter, "w") as fh:
                fh.write(str(seen + 1))
            os._exit(13)
    return x * 10


class TestStripes:
    def test_round_robin_deal(self):
        assert stripe_indices(10, 4) == [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]]

    def test_covers_every_index_exactly_once(self):
        for n in (0, 1, 5, 17):
            for jobs in (1, 2, 3, 8):
                flat = sorted(i for s in stripe_indices(n, jobs) for i in s)
                assert flat == list(range(n))

    def test_no_empty_stripes(self):
        assert stripe_indices(2, 8) == [[0], [1]]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            stripe_indices(4, 0)


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_means_cpu_count(self):
        import os

        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)


class TestSweepMap:
    def test_serial_results_in_order(self):
        assert sweep_map(_square, range(7), jobs=1) == [i * i for i in range(7)]

    def test_parallel_equals_serial(self):
        serial = sweep_map(_square, range(11), jobs=1)
        parallel = sweep_map(_square, range(11), jobs=4)
        assert parallel == serial

    def test_more_jobs_than_items(self):
        assert sweep_map(_square, [5], jobs=8) == [25]
        assert sweep_map(_square, [], jobs=8) == []

    def test_on_result_fires_in_item_order_serial_and_parallel(self):
        for jobs in (1, 3):
            seen = []
            sweep_map(_square, range(6), jobs=jobs, on_result=lambda i, r: seen.append((i, r)))
            assert seen == [(i, i * i) for i in range(6)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            sweep_map(_boom, range(6), jobs=2)
        with pytest.raises(ValueError):
            sweep_map(_boom, range(6), jobs=1)


class TestGcDiscipline:
    """A sweep pauses automatic GC and reclaims what its items allocated
    with young-generation collections only."""

    @pytest.fixture(autouse=True)
    def _explicit_collections_only(self):
        # Threshold 0 keeps the collector enabled but never triggers it
        # automatically, so only the sweep's own collections can free
        # the items' cycles.
        thresholds = gc.get_threshold()
        gc.set_threshold(0)
        _CYCLES.clear()
        yield
        _CYCLES.clear()
        gc.set_threshold(*thresholds)

    @pytest.fixture
    def collections(self, monkeypatch):
        """The generation of every ``gc.collect`` call, in order."""
        generations = []
        collect = gc.collect

        def spy(generation=2):
            generations.append(generation)
            return collect(generation)

        monkeypatch.setattr(gc, "collect", spy)
        return generations

    @pytest.mark.parametrize("n_items", [5, 2 * _GC_EVERY + 5])
    def test_item_cycles_do_not_survive_the_sweep(self, n_items):
        assert gc.isenabled()
        assert sweep_map(_make_cycle, range(n_items), jobs=1) == [False] * n_items
        assert len(_CYCLES) == n_items
        assert [ref for ref in _CYCLES if ref() is not None] == []

    def test_serial_collections_are_young_generation(self, collections):
        sweep_map(_make_cycle, range(2 * _GC_EVERY + 5), jobs=1)
        # two periodic collections plus the one on exit
        assert len(collections) == 3
        assert all(generation < 2 for generation in collections)

    def test_stripe_collections_are_young_and_reclaim_cycles(self, collections):
        inbox = _Inbox()
        n_items = 2 * _GC_EVERY + 5
        _stripe_main(inbox, _make_cycle, list(range(n_items)))
        assert inbox.messages[-1] == ("done", None)
        assert [m[2] for m in inbox.messages[:-1]] == [False] * n_items
        assert len(collections) == 3
        assert all(generation < 2 for generation in collections)
        assert [ref for ref in _CYCLES if ref() is not None] == []

    def test_enabled_gc_is_restored_also_when_an_item_raises(self):
        assert gc.isenabled()
        sweep_map(_square, range(3), jobs=1)
        assert gc.isenabled()
        with pytest.raises(ValueError):
            sweep_map(_boom, range(6), jobs=1)
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self):
        gc.disable()
        try:
            assert sweep_map(_make_cycle, range(3), jobs=1) == [False] * 3
            assert not gc.isenabled()
            with pytest.raises(ValueError):
                sweep_map(_boom, range(6), jobs=1)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestWorkerDeath:
    """A dying worker process must never hang or poison the batch."""

    def test_transient_death_recovers_via_isolated_retries(self, tmp_path):
        # The stripe worker dies once, then the first isolated retry
        # dies too; the second isolated attempt succeeds — the batch
        # completes with every result intact and in order.
        counter = str(tmp_path / "deaths")
        items = [(i, counter) for i in range(8)]
        assert sweep_map(_flaky_exit, items, jobs=2) == [i * 10 for i in range(8)]

    def test_poisoned_item_raises_typed_error_naming_its_index(self):
        items = [(i, "") for i in range(8)]
        with pytest.raises(WorkerCrashError) as err:
            sweep_map(_flaky_exit, items, jobs=2)
        assert err.value.item_index == 4
        assert "item 4" in str(err.value)

    def test_no_orphan_processes_after_a_crash(self):
        with pytest.raises(WorkerCrashError):
            sweep_map(_flaky_exit, [(i, "") for i in range(8)], jobs=3)
        assert multiprocessing.active_children() == []

    def test_healthy_items_unaffected_by_sibling_stripe_death(self, tmp_path):
        counter = str(tmp_path / "deaths")
        items = [(i, counter) for i in range(9)]
        results = sweep_map(_flaky_exit, items, jobs=3)
        assert results == [i * 10 for i in range(9)]


class TestStreaming:
    """``on_stream`` fires per completed item in completion order —
    the hook ``repro sweep --store`` persists through."""

    def test_stream_fires_for_every_item(self):
        for jobs in (1, 3):
            streamed = []
            sweep_map(
                _square, range(9), jobs=jobs,
                on_stream=lambda i, r: streamed.append((i, r)),
            )
            assert sorted(streamed) == [(i, i * i) for i in range(9)]

    def test_serial_stream_precedes_in_order_delivery(self):
        order = []
        sweep_map(
            _square, range(4), jobs=1,
            on_stream=lambda i, r: order.append(("stream", i)),
            on_result=lambda i, r: order.append(("result", i)),
        )
        assert order == [
            (phase, i) for i in range(4) for phase in ("stream", "result")
        ]

    def test_on_result_stays_in_order_alongside_streaming(self):
        ordered = []
        sweep_map(
            _square, range(12), jobs=4,
            on_stream=lambda i, r: None,
            on_result=lambda i, r: ordered.append(i),
        )
        assert ordered == list(range(12))


class TestWatchdog:
    """A hung item must neither hang the sweep nor take healthy
    results down with it."""

    def test_pathological_item_raises_typed_error_naming_its_index(self):
        items = [(i, 3) for i in range(6)]
        with pytest.raises(ItemTimeoutError) as err:
            sweep_map(_hang_on, items, jobs=2, timeout=0.5)
        assert err.value.item_index == 3
        assert "item 3" in str(err.value)
        assert multiprocessing.active_children() == []

    def test_transient_hang_recovers_via_isolated_retry(self, tmp_path):
        marker = str(tmp_path / "marker")
        items = [(i, marker) for i in range(6)]
        results = sweep_map(_hang_until_marked, items, jobs=2, timeout=1.0)
        assert results == [i * 10 for i in range(6)]

    def test_completed_items_stream_before_the_timeout_aborts(self, tmp_path):
        streamed = []
        items = [(i, 4) for i in range(6)]
        with pytest.raises(ItemTimeoutError):
            sweep_map(
                _hang_on, items, jobs=2, timeout=0.5,
                on_stream=lambda i, r: streamed.append(i),
            )
        assert 0 in streamed  # worker 0's first item landed before the abort

    def test_timeout_forces_process_path_even_serial(self):
        # jobs=1 with a watchdog still spawns a killable worker; a hang
        # must not wedge the parent.
        with pytest.raises(ItemTimeoutError):
            sweep_map(_hang_on, [(3, 3)], jobs=1, timeout=0.5)

    def test_generous_timeout_changes_nothing(self):
        assert sweep_map(_square, range(8), jobs=1, timeout=60.0) == [
            i * i for i in range(8)
        ]
        assert sweep_map(_square, range(8), jobs=3, timeout=60.0) == [
            i * i for i in range(8)
        ]

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_map(_square, range(4), timeout=0.0)


class TestFuzzParallelDeterminism:
    """The acceptance check: ``--jobs 4`` digests == ``--jobs 1`` digests."""

    def test_fifty_seeds_bit_identical_across_jobs(self):
        serial = run_fuzz(range(50), jobs=1)
        parallel = run_fuzz(range(50), jobs=4)
        assert [r.spec.seed for r in parallel.results] == list(range(50))
        assert [r.digest for r in parallel.results] == [
            r.digest for r in serial.results
        ]
        assert [r.violations for r in parallel.results] == [
            r.violations for r in serial.results
        ]
        assert parallel.total_violations == 0

    def test_verbose_log_lines_identical_across_jobs(self):
        lines = {}
        for jobs in (1, 2):
            buffer = []
            run_fuzz(range(6), verbose_log=buffer.append, jobs=jobs)
            lines[jobs] = buffer
        assert lines[1] == lines[2]
        assert len(lines[1]) == 6
