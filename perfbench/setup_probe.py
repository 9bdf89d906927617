"""Time the set-up of one workload in a fresh process, and optionally its memory.

Usage: python3 perfbench/setup_probe.py --workload NAME --work DIR [--round]

The clock starts before the program is imported and stops when the
workload's set-up is done; the inputs in DIR were made beforehand by the
benchmark, so their generation is not timed. With --round the process then
does the program's work of one round on those inputs, unchecked (the timed
rounds check the same work). Prints {"setup_s": seconds, "peak_rss_mb": MB}.

The memory figure is VmHWM, the peak resident set of this process's own
address space, which holds the program and no generated inputs. It is not
ru_maxrss: Linux carries the spawning process's peak into ru_maxrss across
exec, so that figure would include the benchmark's memory.
"""

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import load_program, make_workload, quiet_library_log  # noqa: E402  (imports no program code)


def peak_rss_kib() -> int:
    for row in Path("/proc/self/status").read_text().splitlines():
        if row.startswith("VmHWM:"):
            return int(row.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--round", action="store_true")
    args = parser.parse_args()
    workload = make_workload(args.workload, 0, args.work)
    t0 = time.perf_counter()
    dm = load_program(ROOT)
    quiet_library_log()
    state = workload.setup(dm)
    setup_s = time.perf_counter() - t0
    if args.round:
        out = args.work / "probe-out"
        workload.execute(dm, state, workload.make_backend(dm, state), workload.make_gate(state), out)
        shutil.rmtree(out)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_kib() / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
