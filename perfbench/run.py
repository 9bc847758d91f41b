"""Benchmark entry point for the HetPipe simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fuzz-dedicated --seed 1 --seconds 30 --trace 0

It starts ``passrun.py`` passes one after another, each in a fresh
interpreter, and stops at the pass boundary nearest to ``--seconds``
(at least one pass), checks every run against the reference in
``perfbench/reference/``, prints a table of every metric with its unit,
and ends with one JSON line.

``--trace 0`` reports the end-to-end metrics from untraced passes.
Every pass repeats the same runs, and every repetition is a latency
sample: ``runs_per_s`` is samples divided by the sum of their latencies,
``run_ms_p50``/``run_ms_p90`` are taken across all samples, so host
noise averages out over the whole measurement instead of resting on a
single fast or slow repetition.

Times are host seconds scaled to a reference host speed: each pass times
a fixed probe chunk between its runs (see ``passrun.py``), and every
latency of the pass is multiplied by ``PROBE_REF_S`` over that pass's
mean chunk; each ``setup_s`` sample likewise by the chunk timed right
after that set-up.  On a shared host whose speed drifts by tens of
percent from minute to minute, the probe moves with the program, so
the scaled figures keep only the program's own changes.  The table also
prints the unscaled host figures.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over passes, each figure
for one pass of the workload's runs), the tracing overhead as traced
minus untraced ``runs_per_s``, and asserts that traced and untraced
passes pin identical outputs.  Spans are written to ``.perfbench/<workload>.npz``.

``attempted`` counts the distinct runs of the workload seed's draw,
each repeated in every pass; ``failed`` counts those with an oracle
violation, an error, or output that differs from the reference in any
repetition, so ``fail_ratio = failed / attempted`` does not depend on
how many passes fit in the time.  ``correct`` is false when any run
differs from the reference (a violation the reference records is the
expected output) or when a traced pass disagrees with an untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPANS_DIR = ".perfbench"

#: A run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0

#: The probe chunk's time on the reference host: scaled times are host
#: times on a host where one chunk takes this long.
PROBE_REF_S = 1.0e-3

#: Interpreter starts that only set up, before the passes: ``setup_s`` is
#: their median together with the untraced passes' set-up.
SETUP_STARTS = 5

#: A p90 is only a p90 with at least this many samples beyond it.
MIN_TAIL = 10

E2E_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _checkout_problem() -> str | None:
    """Why the current directory cannot run the benchmark, if it cannot."""
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        return "src/repro is missing: run from the root of a repository checkout"
    for name in workloads.PAPER_SPECS:
        if not os.path.isfile(workloads.paper_spec_path(name)):
            return f"{workloads.paper_spec_path(name)} is missing"
    return None


def _run_pass(args, traced: bool, timeout: float, setup_only: bool = False) -> dict:
    """One pass in a fresh interpreter; returns its parsed report.

    ``setup_s`` is measured from just before the interpreter starts to
    the moment the pass has imported the program and prepared its inputs.
    """
    command = [
        sys.executable, os.path.join(HERE, "passrun.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if setup_only:
        command.append("--setup-only")
    elif traced:
        # Each traced pass overwrites the last: a run leaves one spans file.
        command += ["--spans-out", os.path.join(SPANS_DIR, f"{args.workload}.npz")]
    src = os.path.abspath("src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the pass
        return {"error": f"pass timed out after {timeout:.0f}s"}
    if proc.returncode != 0:
        return {"error": f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"pass printed no result: {proc.stderr.strip()[-2000:]}"}
    report["host_setup_s"] = report["ready"] - started
    report["setup_s"] = report["host_setup_s"] * PROBE_REF_S / report["setup_probe_s"]
    report["traced"] = traced
    return report


def _latencies_ms(passes: list[dict], scaled: bool = True) -> list[float]:
    """Every repetition of every run over ``passes``, in milliseconds."""
    return sorted(
        seconds * 1e3 * (PROBE_REF_S / report["probe_s"] if scaled else 1.0)
        for report in passes
        for _, seconds, _ in report["runs"]
    )


def _runs_per_s(latencies_ms: list[float]) -> float:
    return len(latencies_ms) * 1e3 / sum(latencies_ms)


def _p90(samples: list[float]) -> float:
    # "inclusive" interpolates between samples; it never extrapolates past
    # the slowest one when there are only a few (paper-figures has three
    # runs a pass).
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    problem = _checkout_problem()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(args.workload)
    planned = len(workloads.draw_runs(args.workload, args.seed, reference))
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)

    begin = time.monotonic()
    setups, errors = [], []
    for _ in range(SETUP_STARTS):
        report = _run_pass(args, False, RUN_LIMIT_S / 4, setup_only=True)
        if "error" in report:
            errors.append(report["error"])
            break
        setups.append(report)
    # Trace runs alternate untraced and traced passes, so they stop on pairs.
    unit = 2 if args.trace else 1
    passes, passes_begin = [], time.monotonic()
    while not errors:
        traced = bool(args.trace) and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - begin)
        report = _run_pass(args, traced, max(remaining, 1.0))
        if "error" in report:
            errors.append(report["error"])
            break
        passes.append(report)
        if len(passes) % unit:
            continue
        now = time.monotonic()
        # Stop at the boundary nearest to --seconds: go on only while the
        # next unit would end closer to it than this one does.
        unit_s = (now - passes_begin) * unit / len(passes)
        if now - begin + unit_s / 2 >= args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    statuses: dict[str, set] = {}
    for report in passes:
        for run_id, _, status in report["runs"]:
            statuses.setdefault(str(run_id), set()).add(status)
    attempted = planned
    failed = planned if errors else sum(found != {"ok"} for found in statuses.values())
    problems = [text for p in passes for text in p["problems"]] + errors
    correct = not errors and all(
        status in ("ok", "violation") for found in statuses.values() for status in found
    )
    if any(p["pinned"] != passes[0]["pinned"] for p in passes):
        # Every pass runs the same inputs, traced or not.
        correct = False
        problems.append("passes disagree on digests or event counts (traced vs untraced?)")

    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(passes)} passes ({len(traced_passes)} traced) of {planned} runs"
    ]
    metrics: dict[str, dict] = {}
    if untraced:
        latencies = _latencies_ms(untraced)
        p90 = _p90(latencies)
        tail = sum(ms > p90 for ms in latencies)
        e2e = {
            "runs_per_s": _runs_per_s(latencies),
            "run_ms_p50": statistics.median(latencies),
            "run_ms_p90": p90,
            "setup_s": statistics.median(p["setup_s"] for p in setups + untraced),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
        }
        notes = {
            "runs_per_s": f"{len(latencies)} samples: {planned} runs x {len(untraced)} passes",
            "run_ms_p50": f"n={len(latencies)} samples",
            "run_ms_p90": f"n={len(latencies)} samples, {tail} beyond"
            + ("" if tail >= MIN_TAIL else f" (fewer than {MIN_TAIL}: not a resolved p90)"),
            "setup_s": f"median over {len(setups) + len(untraced)} starts: interpreter, "
            "imports, inputs",
            "peak_rss_mb": "max over passes of the pass process's peak RSS",
        }
        for name, value in e2e.items():
            lines.append(f"  {name:<28} {value:14.6f} {E2E_UNITS[name]:<6} {notes[name]}")
        host = _latencies_ms(untraced, scaled=False)
        lines.append(
            f"  unscaled host figures: runs_per_s {_runs_per_s(host):.6f}, run_ms_p50 "
            f"{statistics.median(host):.6f}, run_ms_p90 {_p90(host):.6f}, setup_s "
            f"{statistics.median(p['host_setup_s'] for p in setups + untraced):.6f}; "
            f"probe chunk {statistics.median(p['probe_s'] for p in untraced) * 1e3:.6f} ms "
            f"(reference {PROBE_REF_S * 1e3:g} ms)"
        )
        if not args.trace:
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()
            }
    lines.append(
        f"  {'fail_ratio':<28} {failed / attempted if attempted else 0.0:14.6f} "
        f"{'ratio':<6} {failed} failed / {attempted} attempted"
    )
    if traced_passes:
        overhead = "bench.trace_overhead.runs_per_s"
        layers = {
            name: statistics.median(p["layers"][name] for p in traced_passes)
            for name in spans.LAYER_METRICS
            if name != overhead
        }
        untraced_rate = _runs_per_s(_latencies_ms(untraced))
        traced_rate = _runs_per_s(_latencies_ms(traced_passes))
        layers[overhead] = traced_rate - untraced_rate
        lines.append(
            f"  per layer, medians over {len(traced_passes)} traced passes of {planned} runs each"
            f" (traced {traced_rate:.3f} runs/s, untraced {untraced_rate:.3f}):"
        )
        metrics = {}
        for name, value in layers.items():
            unit, _, note = spans.LAYER_METRICS[name]
            lines.append(f"  {name:<32} {value:16.6f} {unit:<6} {note}")
            metrics[name] = {"value": value, "unit": unit}
    failing = sorted(run_id for run_id, found in statuses.items() if found != {"ok"})
    if failing:
        lines.append(f"  failed runs: {', '.join(failing)}")
    lines.extend(f"  problem: {text}" for text in problems[:10])
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
