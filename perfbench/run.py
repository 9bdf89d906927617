"""Benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed, times set-up and measures the
program's peak memory in fresh processes, then runs timed rounds for S
seconds, checking every output against the reference. CPU-bound timings
are scaled to a reference speed (see calibration.py). Prints a readable summary on stderr and, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Exits 1 when any output disagrees
with the reference, and 2 when the program's source is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibration  # noqa: E402
from perfbench.oracle import Tally  # noqa: E402
from perfbench.tracing import PER_LAYER_UNITS, Tracer, layer_metrics, write_spans  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, load_program, make_workload, median, quiet_library_log,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pages_per_s": "pages/s",
    "gate_pages_per_s": "pages/s",
    "rerun_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported
ROUND_PROBES = 3  # of those, how many also run one round for peak_rss_mb
MIN_ROUNDS = 3
OUT_DIR = ROOT / ".perfbench"


def probe(workload: str, work: Path, with_round: bool) -> tuple[float, float]:
    """Set-up time, scaled to reference seconds, and peak memory of one fresh process."""
    before = calibration.loop_time()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         "--workload", workload, "--work", str(work)] + (["--round"] if with_round else []),
        capture_output=True, text=True, timeout=120, check=True,
    )
    after = calibration.loop_time()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"] * calibration.scale(before, after), result["peak_rss_mb"]


def measure(args, dm, work: Path, tally: Tally) -> dict[str, float]:
    workload = make_workload(args.workload, args.seed, work)
    workload.prepare(dm, tally)
    setup_s = peak_rss_mb = 0.0
    if not args.trace:
        probes = [probe(args.workload, work, i < ROUND_PROBES) for i in range(SETUP_PROBES)]
        setup_s = median([s for s, _ in probes])
        peak_rss_mb = median([rss for _, rss in probes[:ROUND_PROBES]])
    state = workload.setup(dm)
    backend = workload.make_backend(dm, state)
    gate = workload.make_gate(state)

    tracer = Tracer() if args.trace else None
    layers, spans = [], []
    pages_per_s, traced_pages_per_s, gate_pages_per_s, rerun_s = [], [], [], []
    loop_before = calibration.loop_time()
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(pages_per_s) < MIN_ROUNDS
           or (tracer and not traced_pages_per_s)):
        # a traced run alternates untraced and traced rounds to measure the overhead
        trace_this = tracer is not None and len(traced_pages_per_s) < len(pages_per_s)
        if trace_this:
            tracer.install(dm, backend=backend, gate=gate)
            try:
                result = workload.run_round(dm, state, backend, gate, tally)
            finally:
                tracer.uninstall()
            round_spans, counts = tracer.take()
            layer = layer_metrics(round_spans, counts)
            layer.update(result.layer)
            layers.append(layer)
            spans = round_spans
        else:
            result = workload.run_round(dm, state, backend, gate, tally)
        loop_after = calibration.loop_time()
        # reruns are CPU-bound everywhere; whole rounds only where nothing waits
        cpu = calibration.scale(loop_before, loop_after)
        wall = cpu if workload.cpu_bound else 1.0
        loop_before = loop_after
        if trace_this:
            traced_pages_per_s.append(result.pages / (result.round_s * wall))
        else:
            pages_per_s.append(result.pages / (result.round_s * wall))
            gate_pages_per_s.append(result.gate_pages / (result.gate_s * wall))
            rerun_s.extend(t * cpu for t in result.reruns)
        if tally.failed:
            break

    if tracer is not None:
        write_spans(OUT_DIR / f"trace-{args.workload}.jsonl", spans)
        out = {name: median([layer.get(name, 0.0) for layer in layers])
               for name in PER_LAYER_UNITS if name != "trace.overhead_pct"}
        untraced, with_trace = median(pages_per_s), median(traced_pages_per_s)
        out["trace.overhead_pct"] = (untraced / with_trace - 1.0) * 100.0 if with_trace else 0.0
        return out
    return {
        "setup_s": setup_s,
        "pages_per_s": median(pages_per_s),
        "gate_pages_per_s": median(gate_pages_per_s),
        "rerun_s": median(rerun_s),
        "peak_rss_mb": peak_rss_mb,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        dm = load_program(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    quiet_library_log()

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        metrics = measure(args, dm, work, tally)
    except Exception:  # a crash in the program is a failed run, reported like one
        traceback.print_exc()
        tally.add(1, 1, "the run raised an exception")
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:>15} {name:<30} {metrics.get(name, float('nan')):>14.6g} {unit}",
              file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
