"""Steady-state fast-forward: macro-event coalescing for periodic regimes.

Both PipeDream and BaPipe analyze 1F1B pipelines through their periodic
steady state, and HetPipe's §4 WSP analysis reasons about steady-state
minibatch rates per virtual worker: after warmup, each worker repeats a
fixed per-cycle work pattern, so most simulated events are redundant
copies of one observed cycle.  This module detects that regime and lets
a client advance ``N`` cycles analytically — one clock translation plus
bulk state updates — instead of dispatching ``O(minibatches × stages)``
heap events.  The contract is *semantic equivalence* with the full run
within 1e-9 relative (the oracle is :mod:`repro.sim.equivalence`).

**Declared state.**  Every stateful class declares, once, a class-level
``FAST_FORWARD = FastForwardState(...)``: ``counters`` (cumulative; a
skip adds ``cycles × delta``, list counters elementwise), ``watermarks``
(raw minibatch ids, reported in public numbering via the nearest
``id_offset`` holder, never written), ``anchors`` (absolute times or
``None``, fingerprinted by age with ``None`` as ``-1.0``, shifted by
``dt``), ``deadlines`` (busy-until times, fingerprinted as the time
left clamped at 0, shifted by ``dt``), ``levels`` (must repeat exactly),
``relative`` (id collections compared as offsets from a base
attribute), ``parts`` (sub-components to walk) and ``coupled`` (the
updates nothing else expresses, called with the component's per-cycle
deltas by name).  A :class:`StateTree` holds the components under a
root; :func:`collect_counters` and :func:`collect_shape` fingerprint a
boundary, :class:`CycleDeltas` names a confirmed cycle's deltas and
:func:`advance_components` applies the skip.  A field no declaration
names is a silent divergence, caught by the equivalence twin and the
forgotten-declaration tests in ``tests/test_fastforward.py``.

:class:`SteadyStateDetector` declares a cycle only when the *entire*
per-boundary signature — counter deltas, levels and the relative
:func:`queue_fingerprint` of pending events, ``(callback site, argument
count, time - now)`` — repeats for ``confirm`` consecutive cycles, at
any period up to ``max_period`` boundaries (multi-worker interleavings
form longer super-cycles).  Periodic dynamics are time-translation
invariant, so the future is then a shifted copy of the observed cycle;
near-periodic streams (jitter, drifting phases) never repeat and are
refused.  :func:`run_pipeline_fast_forward` drives a standalone
pipeline (a boundary per completion, preserved indices always
simulated); :class:`FastForwardSummary` is the macro event handed to
oracles and folded into ``hetpipe-trace/2`` digests.

Float tolerance: cycle deltas are compared at ``rel_tol = 1e-12``.  True
periodic streams differ only by accumulated rounding (~1e-14 relative),
while genuinely aperiodic ones (jitter is >= 1e-2) differ by orders of
magnitude more, so a skip of ``N`` cycles can introduce at most
``~N * rel_tol`` relative drift, far inside 1e-9 for any horizon the
harness runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import is_
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Fidelity switch values accepted across the simulation stack.
FIDELITY_MODES = ("full", "fast_forward")

#: Relative tolerance for matching per-cycle float deltas (see module
#: docstring for why this sits far from both rounding noise and 1e-9).
REL_TOL = 1e-12

#: Longest super-cycle (in boundaries) the detector recognizes.
MAX_PERIOD = 4

#: Consecutive identical cycles required before a skip (K).
CONFIRM = 2


def validate_fidelity(fidelity: str) -> str:
    if fidelity not in FIDELITY_MODES:
        raise SimulationError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITY_MODES}"
        )
    return fidelity


def _values_match(a: Any, b: Any, rel_tol: float) -> bool:
    """Structural equality with float tolerance.

    Ints, strings, and bools compare exactly; floats compare relatively
    (mixed int/float pairs compare as floats).  Tuples recurse.
    """
    if a is b:
        return True
    if isinstance(a, tuple):
        if not isinstance(b, tuple) or len(a) != len(b):
            return False
        return all(_values_match(x, y, rel_tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if a == b:
            return True
        try:
            return abs(a - b) <= rel_tol * max(abs(a), abs(b))
        except TypeError:
            return False
    return a == b


def _site_of(callback: Any) -> str:
    """A stable, process-independent identity for an event callback.

    Lambdas created at the same source site share one code object, so
    ``module:qualname`` names the *site*, not the closure instance —
    exactly the granularity at which periodic cycles repeat.
    """
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", "?")
    qualname = getattr(func, "__qualname__", repr(type(func).__name__))
    return f"{module}:{qualname}"


def queue_fingerprint(sim: "Simulator") -> tuple:
    """Relative structural fingerprint of the pending event queue.

    Each live event contributes ``(site, nargs, time - now)``; the
    multiset is canonicalized by sorting.  Two boundaries with matching
    fingerprints (times within tolerance) hold time-translated copies of
    the same pending work.
    """
    now = sim.now
    entries = [
        (_site_of(event.callback), len(event.args), time - now)
        for time, _seq, event in sim._queue
        if not event.canceled
    ]
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return tuple(entries)


@dataclass(frozen=True)
class DetectedCycle:
    """One confirmed steady-state cycle, ready to be replayed in bulk."""

    period: int  #: boundaries per cycle
    dt: float  #: simulated seconds per cycle
    deltas: tuple  #: per-cycle counter deltas (client-defined layout)
    boundary_dts: tuple  #: per-boundary dt within the cycle (len == period)


@dataclass(frozen=True)
class FastForwardSummary:
    """The macro event describing one applied skip.

    Handed to :meth:`~repro.sim.invariants.RuntimeOracle.on_fast_forward`
    so live oracles can bulk-advance their expectations, and folded into
    ``hetpipe-trace/2`` digests in place of the coalesced raw records.
    """

    time: float  #: simulated time after the jump
    dt: float  #: simulated seconds coalesced
    cycles: int  #: macro cycles applied
    period: int  #: boundaries per macro cycle
    events_coalesced: int  #: heap events that were never dispatched
    minibatches: tuple  #: per-virtual-worker minibatch advance
    waves: tuple  #: per-virtual-worker wave advance
    versions: int  #: global-version advance (0 for standalone pipelines)


class SteadyStateDetector:
    """Confirms periodic steady state from boundary snapshots.

    The client calls :meth:`observe` at every cycle boundary with the
    current simulated time, a flat tuple of cumulative *counters*, and a
    structural *shape* (levels + queue fingerprint).  Once the same
    per-cycle delta has repeated ``confirm`` times — at any period up to
    ``max_period`` — the stable :class:`DetectedCycle` is returned and
    the client may apply a skip, after which it must call :meth:`rebase`
    with the totals it applied so subsequent boundaries keep matching
    without re-confirming from scratch.
    """

    def __init__(
        self,
        max_period: int = MAX_PERIOD,
        confirm: int = CONFIRM,
        rel_tol: float = REL_TOL,
    ) -> None:
        if confirm < 2:
            raise SimulationError("confirm must be >= 2 (one repeat is no pattern)")
        self.max_period = max_period
        self.confirm = confirm
        self.rel_tol = rel_tol
        self.cycles_detected = 0
        self._times: list[float] = []
        self._counters: list[tuple] = []
        self._shapes: list[tuple] = []
        #: boundaries needed to confirm the longest period
        self._keep = max_period * confirm + 1

    def _delta(self, i: int, j: int) -> tuple:
        """Counter deltas between history entries ``j`` (earlier) and ``i``."""
        return tuple(a - b for a, b in zip(self._counters[i], self._counters[j]))

    def observe(self, now: float, counters: tuple, shape: tuple) -> DetectedCycle | None:
        """Record a boundary snapshot; return the cycle once confirmed."""
        times, counts, shapes = self._times, self._counters, self._shapes
        if counts and len(counts[-1]) != len(counters):
            # The component inventory changed (e.g. a lazily-created PS
            # stream): earlier snapshots are incomparable — start over.
            del times[:], counts[:], shapes[:]
        times.append(now)
        counts.append(counters)
        shapes.append(shape)
        if len(times) > self._keep:
            del times[0], counts[0], shapes[0]
        n = len(times)
        tol = self.rel_tol
        for m in range(1, self.max_period + 1):
            span = self.confirm * m  # boundary intervals needed
            if n < span + 1:
                break
            last = n - 1
            # Anchor state must repeat exactly one period back...
            if not _values_match(shapes[last], shapes[last - m], tol):
                continue
            # ...and every boundary delta must match its lag-m twin over
            # confirm-1 full periods.
            ok = True
            for j in range(1, span - m + 1):
                a = (times[last - j + 1] - times[last - j],) + self._delta(last - j + 1, last - j)
                b = (times[last - j + 1 - m] - times[last - j - m],) + self._delta(
                    last - j + 1 - m, last - j - m
                )
                if not _values_match(a, b, tol):
                    ok = False
                    break
            if not ok:
                continue
            self.cycles_detected += 1
            return DetectedCycle(
                period=m,
                dt=times[last] - times[last - m],
                deltas=self._delta(last, last - m),
                boundary_dts=tuple(
                    times[last - m + j + 1] - times[last - m + j] for j in range(m)
                ),
            )
        return None

    def rebase(self, dt: float, deltas: Sequence) -> None:
        """Shift the recorded history past an applied skip.

        Adding the skip's totals to every stored snapshot keeps all
        historical per-cycle deltas intact, so the boundary right after
        a skip still matches and chained skips confirm instantly.
        """
        self._times = [t + dt for t in self._times]
        self._counters = [
            tuple(c + d for c, d in zip(entry, deltas)) for entry in self._counters
        ]


@dataclass(frozen=True)
class FastForwardState:
    """A class's fast-forward state (see the module docstring)."""

    counters: tuple[str, ...] = ()
    watermarks: tuple[str, ...] = ()
    id_offset: str | None = None
    anchors: tuple[str, ...] = ()
    deadlines: tuple[str, ...] = ()
    levels: tuple[str, ...] = ()
    relative: tuple[tuple[str, ...], ...] = ()
    parts: tuple[str, ...] = ()
    coupled: tuple[Callable[[Any, int, dict], None], ...] = ()

    @cached_property
    def _compiled(self) -> "_Compiled":
        return _Compiled(self)


def _level(value: Any) -> Any:
    """A level as an immutable snapshot (history must not alias live state)."""
    return tuple(value) if type(value) is list or type(value) is deque else value


def _age(t: Any, now: float) -> Any:
    if type(t) is list or type(t) is deque:
        return tuple([-1.0 if x is None else now - x for x in t])
    return -1.0 if t is None else now - t


def _deadline(t: float, now: float) -> float:
    return t - now if t > now else 0.0


def _relative(collection: Any, base: int, value_base: int = 0) -> tuple:
    if type(collection) is dict:
        return tuple(sorted([(k - base, v - value_base) for k, v in collection.items()]))
    if type(collection) is set:
        return tuple(sorted([x - base for x in collection]))
    return tuple([x - base for x in collection])


def _shifted(t: Any, dt: float) -> Any:
    if type(t) is list:
        return [None if x is None else x + dt for x in t]
    if type(t) is deque:
        return deque([x + dt for x in t])
    return None if t is None else t + dt


class _Compiled:
    """A declaration compiled, once, into ``counters(obj, offset, append,
    extend)``, ``shape(obj, now)`` and ``parts(obj)``, so a boundary costs
    one call per component; interpreting the declaration field by field
    at every boundary costs about twice as much."""

    __slots__ = ("state", "counters", "shape", "parts")

    def __init__(self, state: FastForwardState) -> None:
        counters = "".join(
            f"    value = obj.{name}\n"
            f"    (extend if type(value) is list else append)(value)\n"
            for name in state.counters
        )
        counters += "".join(f"    append(obj.{name} + offset)\n" for name in state.watermarks)
        shape = [
            *(f"_level(obj.{name})" for name in state.levels),
            *(f"_age(obj.{name}, now)" for name in state.anchors),
            *(f"_deadline(obj.{name}, now)" for name in state.deadlines),
            *("_relative(obj." + ", obj.".join(names) + ")" for names in state.relative),
        ]
        namespace = {"_level": _level, "_age": _age, "_deadline": _deadline, "_relative": _relative}
        exec(
            f"def counters(obj, offset, append, extend):\n    pass\n{counters}"
            f"def shape(obj, now):\n    return ({''.join(t + ', ' for t in shape)})\n"
            f"def parts(obj):\n    return ({''.join(f'obj.{n}, ' for n in state.parts)})\n",
            namespace,
        )
        self.state = state
        self.counters, self.shape = namespace["counters"], namespace["shape"]
        self.parts = namespace["parts"] if state.parts else None


def _children(parts: tuple) -> list:
    """The components in a ``parts`` read: an object (``None`` if absent),
    or a list or dict of them."""
    children = []
    for part in parts:
        kind = type(part)
        if kind is list:
            children += part
        elif kind is dict:
            children += part.values()
        elif part is not None:
            children.append(part)
    return children


class StateTree:
    """The declared components under ``root``, each before its parts.

    The walk is checked once per dispatched-event count (parts change
    only while events run) and redone only when some component's parts
    changed — a lazily created PS stream, a replaced pipeline.
    """

    def __init__(self, root: Any) -> None:
        self.root = root
        self._walk()

    def _walk(self) -> None:
        self._checked_at = -1
        #: ``(component, compiled declaration, (id-offset holder, attr))``
        self._components: list[tuple[Any, _Compiled, tuple | None]] = []
        #: ``(component, compiled declaration, its children as walked)``
        self._holders: list[tuple[Any, _Compiled, list]] = []
        self._visit(self.root, None)

    def _visit(self, obj: Any, id_offset: tuple | None) -> None:
        try:
            compiled = type(obj).FAST_FORWARD._compiled
        except AttributeError:
            raise SimulationError(
                f"{type(obj).__name__} declares no FAST_FORWARD state, so a "
                f"fast-forward skip cannot account for it"
            ) from None
        if compiled.state.id_offset is not None:
            id_offset = (obj, compiled.state.id_offset)
        self._components.append((obj, compiled, id_offset))
        if compiled.parts is not None:
            children = _children(compiled.parts(obj))
            self._holders.append((obj, compiled, children))
            for child in children:
                self._visit(child, id_offset)

    def components(self, sim: "Simulator") -> list[tuple[Any, _Compiled, tuple | None]]:
        if sim.events_processed != self._checked_at:
            for obj, compiled, children in self._holders:
                current = _children(compiled.parts(obj))
                if len(current) != len(children) or not all(map(is_, current, children)):
                    self._walk()
                    break
            self._checked_at = sim.events_processed
        return self._components


def collect_counters(sim: "Simulator", tree: StateTree) -> tuple:
    """Flat cumulative-counter vector of the tree's declared state: slot 0
    is the *virtual* event count (dispatched + coalesced), then every
    component's counters and public watermarks.

    The virtual count — unlike ``events_processed`` alone — advances by
    exactly one cycle's worth per boundary even across a skip, so
    :meth:`SteadyStateDetector.rebase` keeps history consistent and
    chained skips confirm instantly.
    """
    values: list = [sim.events_processed + sim.events_fast_forwarded]
    append, extend = values.append, values.extend
    for obj, compiled, id_offset in tree.components(sim):
        compiled.counters(obj, 0 if id_offset is None else getattr(*id_offset), append, extend)
    return tuple(values)


def collect_shape(sim: "Simulator", tree: StateTree) -> tuple:
    """Structural signature: per-component levels + queue fingerprint."""
    now = sim.now
    shape = tuple([compiled.shape(obj, now) for obj, compiled, _ in tree.components(sim)])
    return (shape, queue_fingerprint(sim))


class CycleDeltas:
    """A confirmed cycle's per-cycle deltas by component and counter name
    (``of(component)["completed"]``), laid out as :func:`collect_counters`."""

    def __init__(self, sim: "Simulator", tree: StateTree, deltas: tuple) -> None:
        #: per-cycle virtual events (dispatched + coalesced)
        self.events = deltas[0]
        self._named: dict[int, dict[str, Any]] = {}
        pos = 1
        for obj, compiled, _ in tree.components(sim):
            named = self._named[id(obj)] = {}
            for name in compiled.state.counters:
                value = getattr(obj, name)
                if type(value) is list:
                    named[name] = tuple(deltas[pos : pos + len(value)])
                    pos += len(value)
                else:
                    named[name] = deltas[pos]
                    pos += 1
            pos += len(compiled.state.watermarks)

    def of(self, component: Any) -> dict[str, Any]:
        return self._named[id(component)]


def advance_components(
    sim: "Simulator", tree: StateTree, cycles: int, deltas: CycleDeltas, dt: float
) -> None:
    """Apply a skip of ``cycles`` confirmed cycles (``dt`` seconds) to the
    simulator and to every component of ``tree``."""
    sim.fast_forward(dt, events_coalesced=cycles * deltas.events)
    for obj, compiled, _ in tree.components(sim):
        state = compiled.state
        named = deltas.of(obj)
        for name, delta in named.items():
            value = getattr(obj, name)
            if type(value) is list:
                for i, d in enumerate(delta):
                    value[i] += cycles * d
            else:
                setattr(obj, name, value + cycles * delta)
        for name in state.anchors:
            setattr(obj, name, _shifted(getattr(obj, name), dt))
        for name in state.deadlines:
            setattr(obj, name, getattr(obj, name) + dt)
        for update in state.coupled:
            update(obj, cycles, named)


def run_pipeline_fast_forward(
    pipeline,
    limit: int,
    preserve: Iterable[int] = (),
    max_events: int | None = None,
    detector: SteadyStateDetector | None = None,
) -> int:
    """Drive a standalone pipeline to quiescence, coalescing steady cycles.

    ``limit`` is the pipeline's admission cap (public minibatch ids);
    skips never admit past it, so the drain tail is always simulated.
    Completion indices in ``preserve`` are guaranteed to execute as real
    events (measurement code samples state in completion callbacks
    there).  Returns the number of minibatches fast-forwarded.

    ``done_times`` is kept contiguous: coalesced completions are filled
    in arithmetically from the confirmed cycle, so readers that index it
    (warmup/total window bounds) see every minibatch.  ``inject_times``
    and ``staleness_ledger`` only cover simulated minibatches — the
    semantic contract covers aggregates, not per-minibatch ledgers.
    """
    sim = pipeline.sim
    if getattr(pipeline, "jitter", 0.0) > 0.0:
        # Near-periodic by construction: the detector would refuse every
        # cycle anyway, so skip the bookkeeping entirely.
        sim.run_until_idle(**({"max_events": max_events} if max_events else {}))
        return 0
    det = detector if detector is not None else SteadyStateDetector()
    tree = StateTree(pipeline)
    boundaries = sorted(b for b in set(preserve) if b > 0)
    skipped = 0
    executed = 0
    last_completed = pipeline.completed
    while sim.step():
        executed += 1
        if max_events is not None and executed > max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        if pipeline.completed == last_completed:
            continue
        last_completed = pipeline.completed
        cycle = det.observe(sim.now, collect_counters(sim, tree), collect_shape(sim, tree))
        if cycle is None:
            continue
        m = cycle.period
        # Admissions during skipped cycles must stay within the limit
        # (steady state implies one inject per completion)...
        injected_public = pipeline.next_minibatch - 1 + pipeline.mb_offset
        budget = limit - injected_public
        # ...and no skipped cycle may swallow a preserved completion.
        for boundary in boundaries:
            if boundary > pipeline.completed:
                budget = min(budget, boundary - 1 - pipeline.completed)
                break
        cycles = budget // m
        if cycles <= 0:
            continue
        dt = cycles * cycle.dt
        deltas = CycleDeltas(sim, tree, cycle.deltas)
        # Fill the coalesced completion times before counters move: each
        # boundary is one completion, at the confirmed per-boundary dts.
        done = pipeline.done_times
        anchor = sim.now
        index = pipeline.completed
        for i in range(cycles):
            base = anchor + i * cycle.dt
            offset = 0.0
            for boundary_dt in cycle.boundary_dts:
                offset += boundary_dt
                index += 1
                done[index] = base + offset
        advance_components(sim, tree, cycles, deltas, dt)
        minibatches = cycles * m
        skipped += minibatches
        pipeline.trace.emit(
            sim.now,
            "fast_forward",
            pipeline.name,
            cycles=cycles,
            period=m,
            dt=dt,
            minibatches=minibatches,
            events=cycles * deltas.events,
        )
        det.rebase(dt, tuple(cycles * d for d in cycle.deltas))
        last_completed = pipeline.completed
    return skipped
