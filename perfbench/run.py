"""Cold-process benchmark of tribell's CLI workloads.

    python3 perfbench/run.py --workload tables|figures|optimize|verify \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Every pass runs in a fresh interpreter (``child.py``)
with ``TRIBELL_TABLES`` unset, one at a time, so ``lru_cache`` state never
carries from one pass to the next.  All passes of a run repeat the same
session, built from ``--seed``.  Every pass is pinned to one CPU
(``PASS_CPU``), so the CLI's pool threads hand the interpreter lock to
each other on one core rather than across two virtual CPUs that the
hypervisor schedules independently.

Times are reported at reference machine speed: each pass leaves out the
time the hypervisor took its CPU away (steal time) and measures its own
slowdown with a fixed kernel timed throughout the pass (``speed.py``), and
its wall and set-up times are divided by it.  On a shared VM whose speed
drifts by up to a factor of two over minutes, this is what makes runs at
different moments comparable.

With ``--trace 0`` a run makes ``PASSES[workload]`` untraced passes, a
number that never depends on how fast they go, so every run and every
commit is measured on the same sample count, and reports the median over
the passes of ``wall_s`` (time to solution), ``setup_s`` and
``peak_rss_mb``.
``--seconds`` is the nominal run length recorded in BENCHMARK.json; it does
not change the pass count.  With ``--trace 1`` a run makes one untraced and
one traced pass and reports the per-layer metrics plus the tracing
overhead.

The last line of standard output is the JSON result; the lines before it
are the environment record and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("tables", "figures", "optimize", "verify")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# untraced passes per untraced run: figures, the shortest pass and the one
# the speed probe corrects least, gets a third within the same time budget
PASSES = {"tables": 2, "figures": 3, "optimize": 2, "verify": 2}
RUN_LIMIT_S = 150.0   # a run exits within 180 s, so no pass may outlast this
PASS_CPU = max(os.sched_getaffinity(0))  # the same CPU for every pass of a run
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from child import per_layer_units  # noqa: E402
from speed import steal_s  # noqa: E402


class PassFailed(RuntimeError):
    pass


def environment() -> dict:
    """What the numbers depend on besides the code: cores, interpreter,
    numpy and its BLAS, BLAS thread settings, the CLI pool's default size
    and the shipped numeric table."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    with ThreadPoolExecutor() as pool:
        workers = pool._max_workers  # what cli._map_parallel gets by default
    table = SRC / "tribell" / "data" / "two_outcome_numeric.json"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "pool_default_workers": workers,
        "pass_cpu": PASS_CPU,
        "tables_sha256": hashlib.sha256(table.read_bytes()).hexdigest(),
        "tribell_tables_env": "unset for every pass",
    }


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one pass in a new interpreter pinned to `PASS_CPU`, killed at
    `deadline` (monotonic)."""
    env = dict(os.environ)
    env.pop("TRIBELL_TABLES", None)
    steal0 = steal_s(PASS_CPU)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--t0", repr(t0),
             "--steal0", repr(steal0)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, {PASS_CPU}),
            timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise PassFailed(f"{mode} pass of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def at_ref_speed(p: dict, key: str) -> float:
    return p[key] / p["slowdown"]


def measure(workload: str, seed: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    modes = ("plain", "traced") if trace else ("plain",) * PASSES[workload]
    passes = [spawn(workload, seed, m, deadline) for m in modes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    if trace:
        plain, traced = passes
        layers = dict(traced["layers"])
        layers["optimize.excess_bits"] = traced["excess_bits"]
        layers["proc.cpu_s"] = plain["cpu_s"]
        layers["proc.slowdown"] = plain["slowdown"]
        layers["proc.steal_s"] = plain["steal_s"]
        layers["trace.overhead_s"] = \
            at_ref_speed(traced, "wall_s") - at_ref_speed(plain, "wall_s")
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, (unit, _) in per_layer_units().items()}
    else:
        values = {
            "wall_s": statistics.median(at_ref_speed(p, "wall_s") for p in passes),
            "setup_s": statistics.median(at_ref_speed(p, "setup_s") for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    raw = ", ".join(f"wall {p['wall_s']:.3f} s / slowdown {p['slowdown']:.3f}"
                    f" / steal {p['steal_s']:.2f} s"
                    for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "raw": raw,
            "errors": [e for p in passes for e in p["errors"]][:8]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Cold-process benchmark of tribell")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal run length; the pass count is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tribell" / "__init__.py").is_file():
        print(f"error: no tribell sources under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    (OUT / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    print("env " + json.dumps(env), flush=True)
    try:
        res = measure(args.workload, args.seed, bool(args.trace))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for err in res.pop("errors"):
        print(f"check failed: {err}")
    print(f"{args.workload} seed={args.seed} attempted={res['attempted']} "
          f"failed={res['failed']}; passes: {res.pop('raw')}")
    for name, m in res["metrics"].items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
