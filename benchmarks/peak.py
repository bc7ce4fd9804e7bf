"""Peak resident memory of round 0's library calls, apart from the benchmark.

    python3 -S benchmarks/peak.py census|stream SEED
    python3 -S benchmarks/peak.py cli < argv-lists.json

Run with `src/` on PYTHONPATH, as `run.py` runs it.  For census and stream,
makes round 0's inputs, warms the caches as a run does, and calls the
library once per operation, dropping each result before the next call:
nothing is converted, checked or hashed.  For cli, runs each request read
from standard input as a `python -S -m pencilforge.cli` child, one at a
time.  Prints two figures in KiB: the benchmark's own part (this process
before the calls), then the peak.

The peak is this process's own high-water mark (VmHWM), or for cli the
largest child's.  A child's maximum RSS as getrusage reports it is at least
its parent's high-water mark when it was started, because exec records the
memory it replaces; so a cli child's figure is only its own while this
process stays small, which is why this mode imports nothing from the
benchmark or the library.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def high_water_kib() -> int:
    """This process's own peak resident memory in KiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(name: str, seed: str = "0") -> int:
    if name == "cli":
        requests = json.load(sys.stdin)
        before = high_water_kib()
        for argv in requests:
            subprocess.run([sys.executable, "-S", "-m", "pencilforge.cli", *argv],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        print(before, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return 0
    import workloads

    workload = {"census": workloads.Census, "stream": workloads.Stream}[name](int(seed))
    workload.warm()
    ops = workload.round(0)
    before = high_water_kib()
    for op in ops:
        workload.call(op)
    print(before, high_water_kib())
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
