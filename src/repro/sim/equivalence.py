"""The semantic-equivalence fidelity contract.

Fast-forward runs no longer replay the full run event for event, so the
bit-identical-digest check cannot gate them.  What replaces it is this
contract: a coalesced run must reproduce the *semantics* of the full run
— makespan, per-stage and per-resource utilization and traffic, PS
queueing, minibatch/wave/pull counts, and staleness statistics — within
``REL_TOL_EQUIVALENCE`` relative error.  Integer-valued quantities must
match exactly.

:func:`semantic_fingerprint` flattens a finished
:class:`~repro.wsp.runtime.HetPipeRuntime` into a named scalar map and
:func:`compare_fingerprints` diffs two of them; the fuzz harness runs
the full-fidelity twin of every fast-forwarded scenario and reports any
difference as a violation (``repro fuzz --fidelity fast_forward`` must
report zero), and the hypothesis suite drives the same comparison over
generated configurations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - layering: sim must not import wsp
    from repro.wsp.runtime import HetPipeRuntime

#: The contract's tolerance for float quantities (relative).
REL_TOL_EQUIVALENCE = 1e-9

#: Absolute floor so quantities that are exactly zero in one mode and
#: ~1e-300 in the other (dead channels) do not trip the relative test.
ABS_TOL_EQUIVALENCE = 1e-12


def semantic_fingerprint(runtime: "HetPipeRuntime") -> dict[str, Any]:
    """Flatten a finished runtime into the contract's observable scalars.

    Keys are stable, human-readable paths so a violation names exactly
    which observable diverged.  Per-minibatch ledgers are deliberately
    absent: a coalesced run re-labels in-flight ids across a skip, and
    the contract covers aggregates, not event-level artifacts.
    """
    fp: dict[str, Any] = {
        "makespan": runtime.sim.now,
        "ps.pushes": runtime.ps.pushes_completed,
        "ps.pulls": runtime.ps.pulls_completed,
        "ps.sync_bytes": runtime.ps.sync_bytes_total,
        "ps.sync_bytes_cross_node": runtime.ps.sync_bytes_cross_node,
        "ps.global_version": runtime.ps.global_version,
        # PS-stream queueing; the stage links below carry their own
        "ps.queue_delay": runtime.ps_queue_stats()[0],
    }
    for vw, wave in enumerate(runtime.ps.pushed_wave):
        fp[f"ps.pushed_wave.vw{vw}"] = wave
    # Sharded PS only (empty at shards=1, keeping legacy fingerprints
    # key-identical): per-shard-slot cumulative bytes.
    for slot, nbytes in enumerate(runtime.ps.shard_bytes):
        fp[f"ps.shard_bytes.k{slot}"] = nbytes
    for vw, (pipeline, stats, gate) in enumerate(
        zip(runtime.pipelines, runtime.stats, runtime.gates)
    ):
        prefix = f"vw{vw}"
        fp[f"{prefix}.minibatches"] = stats.minibatches_done
        fp[f"{prefix}.waves"] = stats.waves_pushed
        fp[f"{prefix}.pulls"] = stats.pulls
        fp[f"{prefix}.waiting_time"] = stats.waiting_time
        fp[f"{prefix}.idle_in_wait"] = stats.idle_in_wait
        fp[f"{prefix}.completed"] = pipeline.completed
        fp[f"{prefix}.pulled_version"] = gate.pulled_version
        for s, state in enumerate(pipeline.stages):
            fp[f"{prefix}.s{s}.busy_time"] = state.processor.busy_time
            fp[f"{prefix}.s{s}.jobs"] = state.processor.jobs_completed
            fp[f"{prefix}.s{s}.utilization"] = state.processor.utilization()
            fp[f"{prefix}.s{s}.peak_in_flight"] = state.peak_in_flight
            for label, edge in (("act", state.to_next), ("grad", state.to_prev)):
                if edge is None:
                    continue
                fp[f"{prefix}.s{s}.{label}.bytes"] = edge.bytes_moved
                fp[f"{prefix}.s{s}.{label}.transfers"] = edge.transfers_completed
                # Dedicated channels track occupancy/queueing per edge;
                # FabricEdge adapters share those at the fabric level.
                busy_time = getattr(edge, "busy_time", None)
                if busy_time is not None:
                    fp[f"{prefix}.s{s}.{label}.busy_time"] = busy_time
                    fp[f"{prefix}.s{s}.{label}.queue_delay"] = edge.queue_delay_total
    # Staleness statistics come from the live oracle when one is attached
    # (the fuzz harness always attaches the default suite).
    for oracle in runtime.oracles:
        max_missing = getattr(oracle, "max_missing", None)
        if max_missing is not None:
            fp["staleness.max_missing"] = max_missing
            fp["staleness.bound"] = oracle.bound
            break
    return fp


def compare_fingerprints(
    reference: dict[str, Any],
    candidate: dict[str, Any],
    rel_tol: float = REL_TOL_EQUIVALENCE,
    abs_tol: float = ABS_TOL_EQUIVALENCE,
) -> list[str]:
    """Differences between two fingerprints, empty when equivalent.

    ``reference`` is the full-fidelity run.  Integer observables must
    match exactly; floats within ``rel_tol`` (or ``abs_tol`` near zero).
    """
    problems: list[str] = []
    for key in sorted(set(reference) | set(candidate)):
        if key not in reference or key not in candidate:
            problems.append(f"equivalence: {key} present in only one run")
            continue
        a, b = reference[key], candidate[key]
        if isinstance(a, int) and isinstance(b, int):
            if a != b:
                problems.append(f"equivalence: {key} full={a} fast_forward={b}")
            continue
        if a == b:
            continue
        scale = max(abs(float(a)), abs(float(b)))
        if abs(float(a) - float(b)) > max(abs_tol, rel_tol * scale):
            problems.append(
                f"equivalence: {key} full={a!r} fast_forward={b!r} "
                f"(rel err {abs(float(a) - float(b)) / scale:.3e})"
            )
    return problems
