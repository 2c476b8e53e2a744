"""Run one untraced cell in a fresh process and report its peak memory.

Usage: python3 simbench/one_cell.py <workload> <seed>

Prints one JSON object: ``peak_rss_mib`` (the process's peak resident set,
imports included) and the cell's simulated ``outputs``, which the caller
compares with its own repeats of the same seed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cells import WORKLOADS, run_cell  # noqa: E402


def peak_rss_mib() -> float:
    """Peak resident set of this process's own address space.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would keep the parent's
    high-water mark across fork and exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    run = run_cell(workload, seed)
    print(json.dumps({"peak_rss_mib": peak_rss_mib(), "outputs": run.outputs}))


if __name__ == "__main__":
    main()
