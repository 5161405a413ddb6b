"""Workload-shape self-check: each workload still stresses the layer it was
chosen for, and only that one.

    python3 perfbench/selfcheck.py

Runs one traced pass of every workload at seed 1 and asserts the zero-work
predictions (the eigensolver only on verify, the alpha search only on
tables, the minimizers only on optimize, the thread pool only on figures),
that each workload's dominant layer holds the largest share of the pass's
CPU time among the layer roots, and that BENCHMARK.json lists exactly the
metrics the benchmark reports.  Prints each workload's root shares and
exits 1 if any assertion fails.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import sys
import time

from run import END_TO_END, ROOT, RUN_LIMIT_S, WORKLOADS, spawn
from child import per_layer_units

SEED = 1

MINIMIZERS = ("optimize.minimize_holz_two_outcome",
              "optimize.minimize_parity_two_outcome",
              "optimize.minimize_chsh_two_outcome")

# a layer's work, as a function of one traced pass's per-layer numbers
LAYERS = {
    "alpha search": lambda m: m["bounds.best_alpha_bound.calls"],
    "eigensolver": lambda m: m["qmath.eig_hermitian.calls"],
    "cond_entropy": lambda m: m["centropy.cond_entropy.calls"],
    "minimizers": lambda m: sum(m[f"{f}.calls"] for f in MINIMIZERS),
    "thread pool": lambda m: m["cli.pool.busy_s"],
}
# which workload alone may do work in each layer
OWNER = {"alpha search": "tables", "eigensolver": "verify",
         "cond_entropy": "verify", "minimizers": "optimize",
         "thread pool": "figures"}

# disjoint layer roots (none calls another), each a set of traced names;
# the dominant one of each workload must hold the most CPU time.  CPU, not
# busy time: on figures' pool threads busy time includes GIL wait.
ROOTS = {
    "bounds.best_alpha_bound": ("bounds.best_alpha_bound",),
    "rates.beta_of_p": ("rates.beta_of_p",),
    "bounds.holz_two_outcome": ("bounds.holz_two_outcome",),
    "optimize.minimize_*": MINIMIZERS,
    "qmath.eig_hermitian": ("qmath.eig_hermitian",),
    "states.BlockDiagState.correlators": ("states.BlockDiagState.correlators",),
}
DOMINANT = {"tables": "bounds.best_alpha_bound", "figures": "rates.beta_of_p",
            "optimize": "optimize.minimize_*", "verify": "qmath.eig_hermitian"}


def check_manifest() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = []
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        errs.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != list(per_layer_units()):
        errs.append("BENCHMARK.json per_layer differs from child.per_layer_units()")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errs.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return errs


def check_shape(workload: str, res: dict) -> list[str]:
    layers, cpu = res["layers"], res["layer_cpu_s"]
    errs = []
    for layer, work in LAYERS.items():
        amount = work(layers)
        if OWNER[layer] == workload and amount <= 0:
            errs.append(f"{workload}: no work in its own layer {layer!r}")
        if OWNER[layer] != workload and amount != 0:
            errs.append(f"{workload}: {layer} should read 0, reads {amount}")
    busy = {root: sum(cpu.get(n, 0.0) for n in names) for root, names in ROOTS.items()}
    top = max(busy, key=busy.get)
    if top != DOMINANT[workload]:
        errs.append(f"{workload}: busiest layer is {top} ({busy[top]:.3g} s), "
                    f"expected {DOMINANT[workload]} ({busy[DOMINANT[workload]]:.3g} s)")
    shares = ", ".join(f"{root} {t / res['cpu_s']:.1%}"
                       for root, t in sorted(busy.items(), key=lambda kv: -kv[1]) if t)
    print(f"  {workload}: CPU {res['cpu_s']:.2f} s, wall {res['wall_s']:.2f} s; "
          f"root shares of CPU: {shares}")
    return errs


def main() -> int:
    errs = check_manifest()
    for workload in WORKLOADS:
        res = spawn(workload, SEED, "traced", time.monotonic() + RUN_LIMIT_S)
        found = check_shape(workload, res)
        if res["failed"]:
            found.append(f"{workload}: {res['failed']} failed operations")
        print(f"[{'FAIL' if found else 'PASS'}] {workload}")
        errs += found
    for e in errs:
        print("  " + e)
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
