"""Regenerate the benchmark's correctness reference from the current tree.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

The fuzz references come from ``run_fuzz`` itself (the ``repro fuzz``
code path), so every oracle verdict it records, failures included, is
what ``repro fuzz`` reports for the same seeds.  ``fuzz-long-ff`` also
records each scenario's full-fidelity makespan at the same horizon;
``paper-figures`` records the byte-exact ``render()`` output.
Regenerate only when the program's outputs change on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def fuzz_reference(workload: str) -> dict:
    from repro.scenarios import run_fuzz
    from repro.scenarios.generator import generate_scenario

    options = workloads.FUZZ_OPTIONS[workload]
    pool = list(workloads.FUZZ_POOL)
    if workload == "fuzz-long-ff":
        # The same rule `repro bench` uses for its long-horizon seeds.
        pool = [seed for seed in pool if generate_scenario(seed).spec.jitter == 0.0]
    report = run_fuzz(pool, jobs=1, **options)
    runs = {str(r.spec.seed): workloads.fuzz_outcome(r) for r in report.results}
    if workload == "fuzz-long-ff":
        full = run_fuzz(pool, jobs=1, waves_scale=options["waves_scale"])
        for result in full.results:
            runs[str(result.spec.seed)]["makespan_full"] = result.makespan
    return {"run_fuzz": options, "failing": len(report.failures), "runs": runs}


def paper_reference() -> dict:
    from repro.api.run import run
    from repro.api.spec import RunSpec

    runs = {}
    for name in workloads.PAPER_SPECS:
        path = workloads.paper_spec_path(name)
        with open(path, encoding="utf-8") as handle:
            spec = RunSpec.from_json(handle.read())
        runs[name] = {"spec": path, "render": run(spec).render()}
    return {"runs": runs}


def main(argv: list[str]) -> int:
    chosen = argv or list(workloads.WORKLOADS)
    unknown = sorted(set(chosen) - set(workloads.WORKLOADS))
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for workload in chosen:
        body = paper_reference() if workload == "paper-figures" else fuzz_reference(workload)
        reference = {"schema": workloads.REFERENCE_SCHEMA, "workload": workload, **body}
        with open(workloads.reference_path(workload), "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{workload}: {len(reference['runs'])} runs, "
              f"{reference.get('failing', 0)} failing")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
