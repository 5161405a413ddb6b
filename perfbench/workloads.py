"""The four workloads: inputs generated from the seed, and the checks that
each output must pass.

Every operation is what a user would run: a `tribell` command line through
``cli.main(argv)``, or, where the CLI hides an input, the public function
behind it.  A workload is built by ``WORKLOADS[name](seed, workdir, src)``
and returns its operations in the order they run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import refs

INEQS = ("holz", "parity-chsh", "mabk", "chsh")
NOISES = ("local", "global")
GRID_POINTS = 201


@dataclass
class Op:
    """One user operation.  `run` returns its output; `check` returns the
    list of reference failures found in that output."""

    label: str
    run: Callable[[object], object]
    check: Callable[[object], list]
    weight: int = 1  # operations this one stands for (verify: one per check)


@dataclass
class Workload:
    ops: list
    notes: dict = field(default_factory=dict)


def cli_op(label: str, argv: list, check: Callable[[str], list]) -> Op:
    """A command through ``cli.main``; its output is the captured stdout and
    a nonzero exit code is a failure."""
    def run(tribell):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = tribell.cli.main(argv)
        return rc, buf.getvalue()

    def checked(out):
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        return check(text)

    return Op(label, run, checked)


# ---------------------------------------------------------------------------
# tables: the paper's 16 thresholds

def tables(seed: int, workdir: Path, src: Path) -> Workload:
    keys = list(refs.PAPER_THRESHOLDS)
    random.Random(seed).shuffle(keys)

    def checker(key):
        def check(text):
            got = float(text)
            errs = []
            if abs(got - refs.PAPER_THRESHOLDS[key]) > refs.PAPER_TOL:
                errs.append(f"{got} vs paper {refs.PAPER_THRESHOLDS[key]}")
            exact = refs.ANALYTIC_THRESHOLDS.get(key)
            if exact is not None and abs(got - exact) > refs.ANALYTIC_TOL:
                errs.append(f"{got} vs analytic {exact!r}")
            return errs
        return check

    ops = [cli_op("threshold " + " ".join(key),
                  ["threshold", "--rate", key[0], "--inequality", key[1],
                   "--noise", key[2]], checker(key))
           for key in keys]
    return Workload(ops)


# ---------------------------------------------------------------------------
# figures: 201-point CSV curves over p and beta

SWEEPS = (
    ("beta", INEQS), ("bound-one", INEQS), ("bound-two", INEQS),
    ("rate-dicka", ("holz", "parity-chsh")),  # chsh would run the alpha search
    ("rate-dire-spot", INEQS), ("rate-dire-recycled", ("chsh",)),
)
# (inequality, flag, beta range) for `bound --grid`
BOUND_GRIDS = (
    ("holz", "--two-outcome", 1.0, 1.5), ("mabk", "--two-outcome", 2.0, 4.0),
    ("parity-chsh", None, 1.0, refs.SQRT2),
    ("chsh", "--recycled", 2.0, 2.0 * refs.SQRT2),
)
RATE_GRIDS = (
    (["--dicka"], "holz", "local"), (["--dire", "spot"], "mabk", "global"),
    (["--dire", "recycled"], "chsh", "local"),
)


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _csv_checker(path: Path, grid: np.ndarray, row_check, digest_ref):
    """Row count, per-row reference check against the exact grid value, and
    the file's sha256 where a digest was recorded for this seed."""
    def check(_text):
        data = path.read_bytes()
        rows = _read_csv(path)[1:]
        if len(rows) != len(grid):
            return [f"{len(rows)} rows, expected {len(grid)}"]
        errs = []
        for x, row in zip(grid, rows):
            err = row_check(float(x), row)
            if err:
                errs.append(err)
                break
        if digest_ref is not None and hashlib.sha256(data).hexdigest() != digest_ref:
            errs.append("CSV bytes differ from the recorded digest")
        return errs
    return check


def _sweep_row_check(quantity, ineq, noise):
    qb = refs.QUANTUM_BOUND[ineq]

    def check(p, row):
        beta = refs.honest_beta(ineq, noise, p)
        col = row[5] if quantity == "beta" else row[4]
        ref = min(beta, qb)
        if not refs.matches_printed(col, ref):
            return f"p={p!r}: beta {col} vs closed form {ref!r}"
        if quantity == "bound-one" and \
                not refs.matches_printed(row[5], refs.one_outcome(ineq, beta)):
            return f"p={p!r}: one-outcome bound {row[5]}"
        return None
    return check


def _beta_row_check(ineq, flag):
    def check(beta, row):
        if not refs.matches_printed(row[4], beta):
            return f"beta column {row[4]} vs {beta!r}"
        if flag is None and not refs.matches_printed(row[5], refs.one_outcome(ineq, beta)):
            return f"beta={beta!r}: one-outcome bound {row[5]}"
        return None
    return check


def figures(seed: int, workdir: Path, src: Path) -> Workload:
    rng = random.Random(seed)
    digests = json.loads((Path(__file__).parent / "golden_csv.json")
                         .read_text())["sha256"].get(str(seed), {})

    def p_grid():
        lo = round(0.5 + 0.1 * rng.random(), 6)
        hi = round(1.0 - 0.01 * rng.random(), 6)
        return lo, hi

    ops = []

    def add(label, argv, grid, row_check):
        path = workdir / f"{label}.csv"
        argv = argv + ["--grid", f"{float(grid[0])!r}:{float(grid[-1])!r}:{len(grid)}",
                       "--out", str(path)]
        ops.append(cli_op(label, argv,
                          _csv_checker(path, grid, row_check, digests.get(label))))

    for quantity, ineqs in SWEEPS:
        for ineq in ineqs:
            for noise in NOISES:
                lo, hi = p_grid()
                add(f"sweep-{quantity}-{ineq}-{noise}",
                    ["sweep", "--quantity", quantity, "--inequality", ineq,
                     "--noise", noise],
                    np.linspace(lo, hi, GRID_POINTS),
                    _sweep_row_check(quantity, ineq, noise))
    for ineq, flag, lo, hi in BOUND_GRIDS:
        width = hi - lo
        grid = np.linspace(lo + 0.01 * width * rng.random(),
                           hi - 0.01 * width * rng.random(), GRID_POINTS)
        add(f"bound-{ineq}-{(flag or '--one-outcome')[2:]}",
            ["bound", "--inequality", ineq] + ([flag] if flag else []),
            grid, _beta_row_check(ineq, flag))
    for rate, ineq, noise in RATE_GRIDS:
        lo, hi = p_grid()
        add(f"rate-{'-'.join(r.lstrip('-') for r in rate)}-{ineq}-{noise}",
            ["rate"] + rate + ["--inequality", ineq, "--noise", noise],
            np.linspace(lo, hi, GRID_POINTS),
            _sweep_row_check("rate", ineq, noise))
    return Workload(ops)


# ---------------------------------------------------------------------------
# optimize: two-outcome entropy minimization, cold batches and a warm grid

OPT_POINTS = (("holz", 1.45), ("parity-chsh", 1.3), ("chsh", 2.7))
OPT_RESTARTS = 64
OPT_GRID = ("holz", 1.05, 1.5, 5)
OPT_GRID_RESTARTS = 8


def _numeric_table(src: Path, ineq: str, beta: float) -> float:
    """The shipped numeric two-outcome curve, read from the data file."""
    tab = json.loads((src / "tribell" / "data" / "two_outcome_numeric.json")
                     .read_text())["curves"][ineq]
    return float(np.interp(beta, tab["beta"], tab["value"]))


def _solve_errors(ineq, beta, entropy):
    errs = []
    lo = refs.one_outcome(ineq, beta)
    if not lo - 1e-9 <= entropy <= 2.0:
        errs.append(f"{ineq} beta={beta}: entropy {entropy} outside [{lo}, 2]")
    if ineq == "holz" and entropy < refs.HOLZ_CONJECTURED[beta] - refs.HOLZ_MARGIN:
        errs.append(f"holz beta={beta}: entropy {entropy} below the conjectured curve")
    return errs


def optimize(seed: int, workdir: Path, src: Path) -> Workload:
    notes = {"excess": []}

    def reference(ineq, beta):
        if ineq == "holz":
            return refs.HOLZ_CONJECTURED[beta]
        return _numeric_table(src, ineq, beta)

    def point_check(ineq, beta):
        ref = reference(ineq, beta)

        def check(text):
            fields = text.split()
            out = dict(zip(fields[::2], fields[1::2]))
            entropy = float(out["entropy"])
            notes["excess"].append(entropy - ref)
            errs = _solve_errors(ineq, beta, entropy)
            if out["converged"] != "True":
                errs.append(f"{ineq} beta={beta}: not converged")
            if abs(float(out["achieved-beta"]) - beta) > 1e-7:
                errs.append(f"{ineq}: achieved beta {out['achieved-beta']} != {beta}")
            return errs
        return check

    ops = [cli_op(f"optimize-{ineq}-{beta}",
                  ["optimize", "--inequality", ineq, "--beta", repr(beta),
                   "--restarts", str(OPT_RESTARTS), "--seed", str(seed)],
                  point_check(ineq, beta))
           for ineq, beta in OPT_POINTS]

    ineq, lo, hi, n = OPT_GRID
    grid = [float(b) for b in np.linspace(lo, hi, n)]
    path = workdir / "optimize-grid.csv"

    def grid_check(_text):
        rows = _read_csv(path)[1:]
        if len(rows) != n:
            return [f"{len(rows)} grid rows, expected {n}"]
        errs = []
        for beta, row in zip(grid, rows):
            entropy = float(row[5])
            notes["excess"].append(entropy - reference(ineq, beta))
            errs += _solve_errors(ineq, beta, entropy)
            if "infeasible" in row[6].split():
                errs.append(f"grid beta={beta}: not converged")
        return errs

    ops.append(cli_op("optimize-grid",
                      ["optimize", "--inequality", ineq,
                       "--grid", f"{lo!r}:{hi!r}:{n}",
                       "--restarts", str(OPT_GRID_RESTARTS), "--seed", str(seed),
                       "--out", str(path)], grid_check))
    return Workload(ops, notes)


# ---------------------------------------------------------------------------
# verify: the property-check suites; the CLI does not expose their seed

VERIFY_SAMPLES = 10_000
VERIFY_CHECKS = 15
KNOWN_FAIL = ("curve-shape:mabk-two",)


def verify(seed: int, workdir: Path, src: Path) -> Workload:
    def run(tribell):
        return tribell.verification.run_all(samples=VERIFY_SAMPLES, seed=seed)

    def check(results):
        errs = [f"{r.name}: {r.detail}" for r in results
                if not r.passed and (r.name not in KNOWN_FAIL or not r.expected_failure)]
        if len(results) != VERIFY_CHECKS:
            errs.append(f"{len(results)} checks, expected {VERIFY_CHECKS}")
        return errs

    return Workload([Op("verification.run_all", run, check,
                                  weight=VERIFY_CHECKS)])


WORKLOADS = {"tables": tables, "figures": figures, "optimize": optimize,
             "verify": verify}

