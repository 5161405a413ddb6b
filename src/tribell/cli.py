"""Command-line surface: evaluate bounds and rates, sweep curves to CSV,
find thresholds, run the entropy optimizer, and run the verification suite.

CSV rows are `quantity,inequality,noise,p,beta,value,flags`, floats printed
with 9 significant digits, rows sorted by the sweep variable; identical
seeds give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import optimize, rates, verification
from .bell import spec_by_name
from .errors import NumericError, ValidationError
from .states import NoiseModel

INEQS = ["holz", "parity-chsh", "mabk", "chsh", "asym-chsh"]
CSV_HEADER = ["quantity", "inequality", "noise", "p", "beta", "value", "flags"]


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    s = f"{float(x):.9g}"
    if "e" not in s and "." not in s and "n" not in s:
        s += ".0"
    return s


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}, expected start:stop:steps") from exc
    if n < 1:
        raise ValidationError("grid needs at least one point")
    return np.linspace(a, b, n)


def _write_csv(path, rows, sort_key):
    rows = sorted(rows, key=sort_key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _map_parallel(fn, xs):
    # serial: the work holds the GIL; perfbench/tracing.py wraps this name
    return [fn(x) for x in xs]


def _sweep_csv(args, quantity, value) -> int:
    """Write value(p) = (value, beta, flags) over the --grid of p to --out."""
    grid = _parse_grid(args.grid)
    rows = [(quantity, args.inequality, args.noise, p, beta, val, " ".join(flags))
            for p, (val, beta, flags) in zip(grid, _map_parallel(value, grid))]
    _write_csv(args.out, rows, sort_key=lambda r: r[3])
    return 0


# ---------------------------------------------------------------------------
# bound

def cmd_bound(args) -> int:
    """evaluate an entropy bound at a violation"""
    outcome = "recycled" if args.recycled else "two" if args.two_outcome else "one"
    curve = rates.bound_curve(spec_by_name(args.inequality, args.alpha), outcome)
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        vals = _map_parallel(curve.fn, grid)
        # `bound --recycled` CSVs have never carried the curve's conjectured
        # flag; perfbench/golden_csv.json pins their bytes (ROADMAP item 5)
        flags = "" if args.recycled else " ".join(curve.flags)
        rows = [(f"bound-{outcome}", args.inequality, "", "", b, v, flags)
                for b, v in zip(grid, vals)]
        _write_csv(args.out, rows, sort_key=lambda r: r[4])
        return 0
    print(_fmt(curve.fn(args.beta)))
    return 0


# ---------------------------------------------------------------------------
# rate

def _rate_value(args, kind, spec, p):
    r = rates.rate(kind, spec, NoiseModel(args.noise, p), args.gamma)
    return r.rate, r.beta_at_p, r.flags


def cmd_rate(args) -> int:
    """DICKA or DIRE rate at a noise level"""
    kind = "dicka" if args.dicka else f"dire-{args.dire}"
    spec = spec_by_name(args.inequality)
    if args.grid is not None:
        return _sweep_csv(args, f"rate-{kind}",
                          lambda p: _rate_value(args, kind, spec, p))
    print(_fmt(_rate_value(args, kind, spec, args.p)[0]))
    return 0


# ---------------------------------------------------------------------------
# threshold

def cmd_threshold(args) -> int:
    """threshold p where a rate turns positive"""
    fn = rates.rate_function(args.rate, args.inequality, args.noise,
                             gamma=args.gamma)
    print(_fmt(rates.threshold_p(fn)))
    return 0


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    """two-outcome entropy minimization"""
    cfg = optimize.OptConfig(restarts=args.restarts, seed=args.seed)
    if args.regen_tables:
        curves = {ineq: rates.generate_two_outcome_table(
            ineq, points=args.points, restarts=args.restarts, seed=args.seed)
            for ineq in rates.NUMERIC_CURVES}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"curves": curves}, fh, indent=1)
        print(f"wrote {args.out}; export {rates.TABLE_ENV}={args.out} to use it")
        return 0
    if args.grid is not None:
        grid = _parse_grid(args.grid)[::-1]  # descending: warm starts come from above
        rows = []
        for b, res in zip(grid, optimize.sweep_two_outcome(args.inequality, grid, cfg)):
            flags = ["non-certified"] + (["infeasible"] if not res.converged else [])
            rows.append(("optimize-two", args.inequality, "", "", b,
                         res.entropy, " ".join(flags)))
        _write_csv(args.out, rows, sort_key=lambda r: r[4])
        return 0
    res = optimize.MINIMIZERS[args.inequality](args.beta, cfg)
    print(f"entropy {_fmt(res.entropy)} achieved-beta {_fmt(res.achieved_beta)} "
          f"converged {res.converged} restarts {res.restarts_used}")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    """run the property-check suites"""
    results = verification.run_all(samples=args.samples)
    failed = 0
    for r in results:
        if r.passed:
            status = "PASS"
        elif r.expected_failure:
            status = "KNOWN-FAIL"
        else:
            status = "FAIL"
            failed += 1
        print(f"[{status}] {r.name}: {r.detail}")
    print(f"{len(results)} checks, {failed} unexpected failures")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# sweep (figure reproduction over p)

def _sweep_value(args, spec, p):
    kind = args.quantity.removeprefix("rate-")
    if kind in rates.RATE_KINDS:
        return _rate_value(args, kind, spec, p)
    noise = NoiseModel(args.noise, p)
    if args.optimize_alpha:
        _, val, beta = rates.best_alpha_one_outcome(noise)
        return val, beta, ()
    beta = rates.beta_of_p(spec, noise)
    if args.quantity == "beta":
        return beta, "", ()
    curve = rates.bound_curve(spec, args.quantity.removeprefix("bound-"))
    return curve.fn(beta), beta, curve.flags


def cmd_sweep(args) -> int:
    """sweep a quantity over p to CSV"""
    spec = spec_by_name(args.inequality, args.alpha)
    return _sweep_csv(args, args.quantity, lambda p: _sweep_value(args, spec, p))


# ---------------------------------------------------------------------------
# options

def _opt(commands, flags, when=None, domain=None, **spec):
    spec.setdefault("default", False if spec.get("action") == "store_true" else None)
    return commands.split(), flags.split(), when, domain, spec


UNIT = (lambda x: 0.0 <= x <= 1.0, "outside [0, 1]")
DIR = (lambda p: os.path.isdir(os.path.dirname(p) or "."), "is in no existing directory")

# Every option once: the commands that take it; its flag (two flags exclude
# each other); when a command reads it, as a test on the parsed arguments and
# the words that end "FLAG applies only" (with no default, it must then be
# given); a test its values pass, and why one fails; its argparse spec.
OPTIONS = [
    _opt("bound rate threshold sweep", "--inequality", choices=INEQS, default="holz"),
    _opt("optimize", "--inequality", (lambda a: not a.regen_tables, "without --regen-tables"),
         (lambda name: name in optimize.MINIMIZERS, "has no two-outcome minimizer"),
         choices=INEQS, default="holz"),
    _opt("rate threshold sweep", "--noise", choices=["local", "global"], default="local"),
    _opt("rate", "--gamma", (lambda a: a.dire == "spot", "with --dire spot"), UNIT,
         type=float, default=rates.GAMMA_DEFAULT),
    _opt("threshold", "--gamma", (lambda a: a.rate == "dire-spot", "with --rate dire-spot"),
         UNIT, type=float, default=0.0),
    _opt("sweep", "--gamma", (lambda a: a.quantity == "rate-dire-spot",
                              "with --quantity rate-dire-spot"), UNIT,
         type=float, default=rates.GAMMA_DEFAULT),
    _opt("bound sweep", "--alpha",
         (lambda a: a.inequality == "asym-chsh" and not getattr(a, "optimize_alpha", False),
          "with --inequality asym-chsh (sweep: without --optimize-alpha)"),
         type=float, default=1.0),
    _opt("bound", "--two-outcome --recycled", action="store_true"),
    _opt("rate", "--dicka", action="store_true"),
    _opt("rate", "--dire", (lambda a: not a.dicka, "without --dicka"),
         choices=["spot", "recycled"]),
    _opt("threshold", "--rate", choices=rates.RATE_KINDS, required=True),
    _opt("sweep", "--quantity", required=True, choices=["beta", "bound-one", "bound-two"]
         + [f"rate-{kind}" for kind in rates.RATE_KINDS]),
    _opt("sweep", "--optimize-alpha",
         (lambda a: a.quantity == "bound-one" and a.inequality in ("chsh", "asym-chsh"),
          "to --quantity bound-one with --inequality chsh or asym-chsh"),
         action="store_true", help="maximize asym-chsh bounds over alpha at each p"),
    _opt("bound", "--beta", (lambda a: a.grid is None, "without --grid"), type=float),
    _opt("optimize", "--beta", (lambda a: a.grid is None and not a.regen_tables,
                                "without --grid or --regen-tables"), type=float),
    _opt("rate", "--p", (lambda a: a.grid is None, "without --grid"), type=float),
    _opt("bound optimize", "--grid", help="beta grid start:stop:steps (CSV output)"),
    _opt("rate", "--grid", help="p grid start:stop:steps (CSV output)"),
    _opt("sweep", "--grid", required=True, help="p grid start:stop:steps"),
    _opt("bound rate", "--out", (lambda a: a.grid is not None, "with --grid"), DIR,
         help="CSV path for --grid"),
    _opt("optimize", "--out", (lambda a: a.grid is not None or a.regen_tables,
                               "with --grid or --regen-tables"), DIR,
         help="CSV/JSON output path"),
    _opt("sweep", "--out", None, DIR, required=True),
    _opt("optimize", "--restarts", type=int, default=64),
    _opt("optimize", "--seed", type=int, default=0),
    _opt("optimize", "--regen-tables", (lambda a: a.grid is None, "without --grid"),
         action="store_true", help="regenerate the numeric two-outcome tables JSON"),
    _opt("optimize", "--points", (lambda a: a.regen_tables, "with --regen-tables"),
         type=int, default=200, help="table points (default 200)"),
    _opt("verify", "--samples", None, (lambda n: n >= 2, "is below 2"), type=int, default=10000),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Tripartite Bell inequalities: entropy bounds and DI rates")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("bound", "rate", "threshold", "optimize", "verify", "sweep"):
        func = globals()[f"cmd_{command}"]
        p = sub.add_parser(command, help=func.__doc__)
        p.set_defaults(func=func)
        for commands, flags, _, _, spec in OPTIONS:
            if command in commands:
                group = p if len(flags) == 1 else p.add_mutually_exclusive_group()
                for flag in flags:
                    group.add_argument(flag, **spec)
    return parser


def _check_args(args) -> None:
    """Refuse, naming the option, a value outside its domain (floats must be finite),
    away from its default where not read, or missing where it must be given."""
    for commands, flags, when, domain, spec in OPTIONS:
        for flag in flags if args.command in commands else ():
            value = getattr(args, flag[2:].replace("-", "_"))
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{flag}={value!r} is not finite")
            if domain and value is not None and not domain[0](value):
                raise ValidationError(f"{flag}={value!r} {domain[1]}")
            if when and not when[0](args) and value != spec["default"]:
                raise ValidationError(f"{flag} applies only {when[1]}")
            if when and when[0](args) and value is None:
                raise ValidationError(f"{flag} is required {when[1]}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
