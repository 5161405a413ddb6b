"""Record the sha256 of every figures-workload CSV for seeds 0-15.

    python3 perfbench/record_golden.py

The figures workload compares its CSVs byte for byte with these digests
whenever it runs at a recorded seed.  Run this only on a commit whose CSV
output is the reference (the digests in the repository come from the
commit that introduced the benchmark); a change that alters CSV bytes on
purpose must say so and re-record.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden_csv.json"
SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import tribell.cli
    import workloads

    workdir = HERE.parent / ".perfbench" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for seed in SEEDS:
        wl = workloads.figures(seed, workdir, SRC)
        for op in wl.ops:
            rc, _ = op.run(tribell)
            if rc != 0:
                raise SystemExit(f"seed {seed}: {op.label} exited {rc}")
        digests[str(seed)] = {
            op.label: hashlib.sha256((workdir / f"{op.label}.csv").read_bytes()).hexdigest()
            for op in wl.ops}
        print(f"seed {seed}: {len(wl.ops)} CSVs", flush=True)
    GOLDEN.write_text(json.dumps({"sha256": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
