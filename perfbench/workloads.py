"""Workload definitions shared by the pass runner and the reference generator.

A *run* is one fuzz scenario (``run_fuzz`` on a single scenario seed) on
the fuzz workloads, and one checked-in experiment spec on
``paper-figures``.  A *pass* is the list of runs one fresh interpreter
executes; the workload seed chooses that list and nothing else, so the
program only ever sees scenario seeds and specs.
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SCHEMA = "perfbench-reference/1"

#: Scenario seeds every fuzz workload draws from.  The reference holds
#: the outcome of each one, so the workload seed can pick any subset.
#: 0-299 covers the canonical 100-seed fuzz set and the jittered
#: 100-299 range where the shared-fabric contention oracle fires.
FUZZ_POOL = range(300)

#: ``run_fuzz`` keyword arguments per fuzz workload (``jobs=1`` is added
#: at the call: one process, no worker pool).
FUZZ_OPTIONS = {
    # CI's fuzz path: dedicated links, full fidelity, vw_hetpipe, 1 shard.
    "fuzz-dedicated": {},
    # The same scenario draw on the shared fabric with a 4-way sharded PS;
    # every scenario also runs its dedicated twin (contention oracle).
    "fuzz-shared-sharded": {
        "network_model": "shared",
        "shards": 4,
        "shard_placement": "contention_aware",
    },
    # Jitter-free seeds, long horizon, fast-forward coalescing; the
    # equivalence twins are off, so the reference's full-fidelity
    # makespans stand in for them.
    "fuzz-long-ff": {
        "fidelity": "fast_forward",
        "verify_equivalence": False,
        "waves_scale": 32,
    },
}

#: How a pass is drawn from the pool, ranked by reference event count
#: (host time follows it closely): the heaviest tenth runs in every pass,
#: because a few long scenarios dominate the totals and the tail, and so
#: does every scenario the reference records as failing, so that every
#: seed's pass fails the same number of runs; the seed picks one scenario
#: from each stratum of this width in the rest, so every seed's pass
#: carries the same mix of cheap and dear scenarios.
FUZZ_STRATUM = {"fuzz-dedicated": 3, "fuzz-shared-sharded": 3, "fuzz-long-ff": 2}

#: The checked-in experiment specs ``paper-figures`` runs, in order.
PAPER_SPECS = ("fig3", "fig4", "table4")

WORKLOADS = (*FUZZ_OPTIONS, "paper-figures")

#: The relative tolerance of the fast-forward equivalence contract.
EQUIVALENCE_RTOL = 1e-9


def paper_spec_path(name: str) -> str:
    return os.path.join("examples", "specs", f"{name}_vgg19.json")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference.get("schema") != REFERENCE_SCHEMA or reference.get("workload") != workload:
        raise ValueError(f"{reference_path(workload)} is not a {workload} reference")
    return reference


def draw_runs(workload: str, seed: int, reference: dict) -> list:
    """The run ids of one pass: scenario seeds, or experiment spec names."""
    if workload == "paper-figures":
        return list(PAPER_SPECS)  # fixed inputs: the seed does not apply
    runs = reference["runs"]
    ranked = sorted(runs, key=lambda s: (-runs[s]["events_simulated"], int(s)))
    heavy = len(ranked) // 10
    always = ranked[:heavy] + [s for s in ranked[heavy:] if runs[s]["violations"]]
    rest = [s for s in ranked if s not in always]
    width = FUZZ_STRATUM[workload]
    rng = random.Random(seed)
    picked = always + [rng.choice(rest[i : i + width]) for i in range(0, len(rest), width)]
    rng.shuffle(picked)
    return [int(s) for s in picked]


def fuzz_outcome(result) -> dict:
    """The deterministic fields of a ``ScenarioResult`` the reference pins."""
    return {
        "digest": result.digest,
        "events": result.events,
        "events_simulated": result.events_simulated,
        "events_fast_forwarded": result.events_fast_forwarded,
        "violations": list(result.violations),
    }


def check_fuzz(workload: str, result, expected: dict) -> list[str]:
    """Mismatches of one fuzz result against its reference entry."""
    seed = result.spec.seed
    problems = [
        f"seed {seed}: {key} {value!r} != reference {expected[key]!r}"
        for key, value in fuzz_outcome(result).items()
        if value != expected[key]
    ]
    if workload == "fuzz-long-ff":
        if result.spec.jitter != 0.0:
            problems.append(f"seed {seed}: jitter {result.spec.jitter} is not 0")
        if expected["violations"]:
            # A run the reference records as failing is pinned by its
            # digest and violations above; it has no makespan to compare.
            return problems
        full = expected["makespan_full"]
        scale = max(abs(full), abs(result.makespan), 1e-12)
        if not math.isfinite(result.makespan) or abs(result.makespan - full) > (
            EQUIVALENCE_RTOL * scale
        ):
            problems.append(
                f"seed {seed}: fast-forward makespan {result.makespan!r} differs from "
                f"the full-fidelity {full!r} beyond {EQUIVALENCE_RTOL} relative"
            )
    return problems
