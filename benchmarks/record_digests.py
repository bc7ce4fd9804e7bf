"""Record the round-0 output digest of each workload for a range of seeds.

    python3 benchmarks/record_digests.py [--seeds 0-63] [--workloads census,stream,cli]

Writes `benchmarks/digests.json`, which `run.py` compares against, so any
change in the library's outputs shows as a failed run.  The census ignores
its seed and gets one digest.  Re-record only in a
change that alters the benchmark's inputs or deliberately alters outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    path = run.HERE / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in args.workloads.split(","):
        # the census ignores its seed: one digest serves every seed
        for seed in [0] if name == "census" else seed_range(args.seeds):
            workload = run.make_workload(name, seed)
            workload.warm()
            tally = run.Tally()
            digest = run.run_round(workload, workload.round(0), tally)
            if tally.failed:
                print(f"{name} seed {seed}: {tally.messages}", file=sys.stderr)
                return 1
            if name == "census":
                digests[name] = digest
            else:
                digests.setdefault(name, {})[str(seed)] = digest
            print(name, seed, digest[:16], flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
