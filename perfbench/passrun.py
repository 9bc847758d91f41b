"""One benchmark pass: a fresh interpreter that executes one workload's runs.

``run.py`` starts this script once per pass, one at a time, so the plan
cache and the scenario materialization cache start cold, as they do for
a CLI user.  It prints one JSON line: the time set-up finished and the
mean probe chunk right after it (and nothing else with ``--setup-only``),
each run's host latency and status, the mean probe chunk between runs,
the pinned outputs (for comparing traced with untraced passes), peak RSS
and, when traced, the per-layer metrics.

Host speed on a shared machine drifts by tens of percent over seconds
and minutes, and it slows the program and any other interpreted code
alike.  So the pass also times a fixed slice of simulator-like work (a
*probe chunk*): a batch right after set-up, and between runs enough
chunks to fill ``PROBE_SHARE`` of the time the runs took.  ``run.py``
scales host times by the chunk's reference time over its measured mean.

Run statuses: ``ok``; ``violation`` (the run failed an oracle exactly
as the reference records); ``mismatch`` (the output differs from the
reference); ``error`` (the call raised).
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import sys
import time
import traceback

import workloads


#: Probe time between runs, as a share of the runs' own host time.
PROBE_SHARE = 0.1

#: Probe chunks timed right after set-up.
SETUP_PROBE_CHUNKS = 40


def _probe_chunk() -> float:
    """Host seconds of one fixed slice of heap, dict and tuple traffic."""
    start = time.perf_counter()
    queue, totals = [], {}
    for i in range(1000):
        heapq.heappush(queue, ((i * 7919) % 211, i))
    while queue:
        key, i = heapq.heappop(queue)
        totals[key] = totals.get(key, 0) + i
    return time.perf_counter() - start


def _setup_probe_s() -> float:
    return sum(_probe_chunk() for _ in range(SETUP_PROBE_CHUNKS)) / SETUP_PROBE_CHUNKS


def _fuzz_runner(workload: str, reference: dict):
    from repro.scenarios import run_fuzz

    options = workloads.FUZZ_OPTIONS[workload]
    expected = reference["runs"]

    def call(seed: int):
        return run_fuzz([seed], jobs=1, **options).results[0]

    def check(seed: int, result) -> tuple[str, list, list[str]]:
        outcome = workloads.fuzz_outcome(result)
        pinned = [outcome["digest"], outcome["events_simulated"], outcome["events_fast_forwarded"]]
        problems = workloads.check_fuzz(workload, result, expected[str(seed)])
        if problems:
            return "mismatch", pinned, problems
        return ("violation" if result.violations else "ok"), pinned, []

    return call, check


def _paper_runner(reference: dict):
    from repro.api.run import run
    from repro.api.spec import RunSpec

    specs = {}
    for name in workloads.PAPER_SPECS:
        with open(workloads.paper_spec_path(name), encoding="utf-8") as handle:
            specs[name] = RunSpec.from_json(handle.read())
    expected = reference["runs"]

    def call(name: str) -> str:
        return run(specs[name], jobs=1).render()

    def check(name: str, text: str) -> tuple[str, list, list[str]]:
        pinned = [hashlib.sha256(text.encode()).hexdigest()]
        if text != expected[name]["render"]:
            return "mismatch", pinned, [f"{name}: render() differs from the reference"]
        return "ok", pinned, []

    return call, check


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans-out", help="trace this pass and write its spans here")
    parser.add_argument(
        "--setup-only", action="store_true", help="stop once set-up is done; execute no run"
    )
    args = parser.parse_args(argv)

    reference = workloads.load_reference(args.workload)
    run_ids = workloads.draw_runs(args.workload, args.seed, reference)
    if args.workload == "paper-figures":
        call, check = _paper_runner(reference)
    else:
        call, check = _fuzz_runner(args.workload, reference)
    if args.setup_only:
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "setup_probe_s": _setup_probe_s()}))
        return 0
    recorder = None
    if args.spans_out:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    ready = time.monotonic()
    setup_probe_s = _setup_probe_s()

    runs, pinned, problems = [], {}, []
    probe_s, probe_chunks, owed = 0.0, 0, 0.0
    for index, run_id in enumerate(run_ids):
        if recorder is not None:
            # Spans share the run's id: the scenario seed, or the spec's
            # position on paper-figures.
            if isinstance(run_id, int):
                recorder.begin_run(run_id, "bench.run")
            else:
                recorder.begin_run(index, f"experiments.{run_id}")
        start = time.perf_counter()
        error = None
        try:
            output = call(run_id)
        except Exception:  # a crashing run is a failed run, not a crashed pass
            error = f"{run_id}: {traceback.format_exc(limit=3)}"
        seconds = time.perf_counter() - start
        if recorder is not None:
            recorder.end_run()
        owed += PROBE_SHARE * seconds
        while owed > 0.0:
            chunk = _probe_chunk()
            probe_s, probe_chunks, owed = probe_s + chunk, probe_chunks + 1, owed - chunk
        if error is not None:
            runs.append([run_id, seconds, "error"])
            problems.append(error)
            continue
        status, pinned[str(run_id)], found = check(run_id, output)
        runs.append([run_id, seconds, status])
        problems.extend(found)

    result = {
        "ready": ready,
        "setup_probe_s": setup_probe_s,
        "probe_s": probe_s / probe_chunks,
        "runs": runs,
        "pinned": pinned,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["layers"] = recorder.metrics()
        recorder.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
