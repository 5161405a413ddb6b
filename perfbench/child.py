"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode plain|traced \
        --t0 T --steal0 S

The parent pins this process to one CPU.  `--t0` is the parent's
``time.monotonic()`` just before it started this process, so the set-up
time includes interpreter start-up, and `--steal0` that CPU's steal time
then.  The set-up and wall times leave out the CPU's steal time, and the
wall time the speed probe's own samples; the slowdown is reported beside
them (``speed.py``).  The last line of standard output is one JSON object
with the pass's measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe, steal_s
from tracing import MODULES, Tracer, layer_stats, pool_stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# functions reported with calls and busy seconds / busy seconds only
CALLS_BUSY = (
    "bounds.best_alpha_bound", "bounds.asym_chsh_one_outcome",
    "bounds.holz_two_outcome", "rates.threshold_p", "rates.dicka_rate",
    "rates.dire_rate_spot", "rates.dire_rate_recycled",
    "rates.two_outcome_numeric", "rates.beta_of_p", "bell.bell_value",
    "cli.main", "optimize.minimize_holz_two_outcome",
    "optimize.minimize_parity_two_outcome", "optimize.minimize_chsh_two_outcome",
    "centropy.cond_entropy", "qmath.eig_hermitian",
    "states.BlockDiagState.correlators", "states.BlockDiagState.to_matrix",
)
BUSY_ONLY = (
    "bounds.solve_beta_star_holz", "bounds.solve_beta_star_colbeck",
    "verification.check_appendix_b", "verification.check_appendix_c",
    "verification.check_uncertainty", "verification.check_quantum_bounds",
    "verification.check_tightness", "verification.check_bound_curves",
    "verification.check_reduced_value_consistency",
)


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out = {}
    for fn in CALLS_BUSY:
        out[f"{fn}.calls"] = ("count", "lower")
        out[f"{fn}.busy_s"] = ("s", "lower")
    for fn in BUSY_ONLY:
        out[f"{fn}.busy_s"] = ("s", "lower")
    out.update({
        "bounds.asym_tangent.hits": ("count", "higher"),
        "bounds.asym_tangent.misses": ("count", "lower"),
        "bounds.asym_tangent.hit_ratio": ("ratio", "higher"),
        "cli.pool.busy_s": ("s", "lower"),
        "cli.pool.wait_s": ("s", "lower"),
        "optimize.restarts": ("count", "lower"),
        "optimize.converged_ratio": ("ratio", "higher"),
        "optimize.max_beta_deficit": ("beta", "lower"),
        "optimize.excess_bits": ("bits", "lower"),
    })
    for mod in MODULES:
        out[f"{mod}.self_s"] = ("s", "lower")
    out["proc.cpu_s"] = ("s", "lower")
    out["proc.slowdown"] = ("ratio", "lower")
    out["proc.steal_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


def layer_metrics(tracer, spans, stats) -> dict[str, float]:
    """Per-layer numbers of one traced pass (all but the two proc/trace
    diagnostics, which the caller adds).  Layers never called read 0."""
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}
    for fn in CALLS_BUSY:
        out[f"{fn}.calls"] = stats.get(fn, zero)["calls"]
        out[f"{fn}.busy_s"] = stats.get(fn, zero)["busy_s"]
    for fn in BUSY_ONLY:
        out[f"{fn}.busy_s"] = stats.get(fn, zero)["busy_s"]
    info = tracer.cache_fns["bounds.asym_tangent"].cache_info()
    looked = info.hits + info.misses
    out["bounds.asym_tangent.hits"] = info.hits
    out["bounds.asym_tangent.misses"] = info.misses
    out["bounds.asym_tangent.hit_ratio"] = info.hits / looked if looked else 0.0
    out["cli.pool.busy_s"], out["cli.pool.wait_s"] = pool_stats(tracer.names, spans)
    solves = tracer.solves
    out["optimize.restarts"] = sum(s[0] for s in solves)
    out["optimize.converged_ratio"] = \
        sum(s[1] for s in solves) / len(solves) if solves else 0.0
    out["optimize.max_beta_deficit"] = max((s[2] for s in solves), default=0.0)
    for mod in MODULES:
        # the pool's own span on the main thread only waits for its tasks
        out[f"{mod}.self_s"] = sum(
            st["self_s"] for name, st in stats.items()
            if name.split(".")[0] == mod and name != "cli.pool.map")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["plain", "traced"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--steal0", type=float, required=True)
    args = ap.parse_args(argv)
    (cpu,) = os.sched_getaffinity(0)

    sys.path.insert(0, str(SRC))
    import tribell
    import tribell.cli
    import workloads

    if Path(tribell.__file__).resolve().parent != (SRC / "tribell").resolve():
        raise SystemExit(f"imported tribell from {tribell.__file__}, not {SRC}")
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, SRC)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(tribell)

    t_first = time.monotonic()
    steal_first = steal_s(cpu)
    result = {"setup_s": t_first - args.t0 - (steal_first - args.steal0)}
    cpu0 = time.process_time()
    probe = SpeedProbe()
    probe.start()
    outputs = []
    for op in wl.ops:
        probe.sample()
        try:
            outputs.append((op, op.run(tribell), None))
        except Exception as exc:  # a crashing command is a failed operation
            outputs.append((op, None, traceback.format_exception_only(exc)[-1].strip()))
    probe.stop()
    t_end = time.monotonic()
    cpu_s = time.process_time() - cpu0
    stolen = steal_s(cpu) - steal_first

    attempted = failed = 0
    errors = []
    for op, out, exc in outputs:
        attempted += op.weight
        if exc is None:
            try:
                errs = op.check(out)
            except Exception as check_exc:  # unparsable output
                errs = [f"unreadable output: {check_exc!r}"]
        else:
            errs = [exc]
        if errs:
            failed += min(len(errs), op.weight) if exc is None else op.weight
            errors.append(f"{op.label}: {'; '.join(errs)}")
    excess = wl.notes.get("excess", [])
    result.update({
        "wall_s": t_end - t_first - probe.spent_s() - stolen,
        "slowdown": probe.slowdown(),
        "steal_s": stolen,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:8],
        "excess_bits": sum(excess) / len(excess) if excess else 0.0,
    })
    if tracer is not None:
        spans = tracer.arrays()
        stats = layer_stats(tracer.names, spans)
        result["layers"] = layer_metrics(tracer, spans, stats)
        # thread CPU per span name: unlike busy time, free of GIL wait on
        # pool threads, so layer shares compare across workloads
        result["layer_cpu_s"] = {name: st["cpu_s"] for name, st in stats.items()}
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
