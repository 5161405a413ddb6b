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
    if args.beta is None:
        raise ValidationError("provide --beta or --grid")
    print(_fmt(curve.fn(args.beta)))
    return 0


# ---------------------------------------------------------------------------
# rate

def _rate_value(args, kind, spec, p):
    r = rates.rate(kind, spec, NoiseModel(args.noise, p), args.gamma)
    return r.rate, r.beta_at_p, r.flags


def cmd_rate(args) -> int:
    if not args.dicka and args.dire is None:
        raise ValidationError("choose --dicka or --dire {spot,recycled}")
    kind = "dicka" if args.dicka else f"dire-{args.dire}"
    spec = spec_by_name(args.inequality)
    if args.grid is not None:
        return _sweep_csv(args, f"rate-{kind}",
                          lambda p: _rate_value(args, kind, spec, p))
    if args.p is None:
        raise ValidationError("provide --p or --grid")
    print(_fmt(_rate_value(args, kind, spec, args.p)[0]))
    return 0


# ---------------------------------------------------------------------------
# threshold

def cmd_threshold(args) -> int:
    fn = rates.rate_function(args.rate, args.inequality, args.noise,
                             gamma=args.gamma)
    print(_fmt(rates.threshold_p(fn)))
    return 0


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    if args.points is not None and not args.regen_tables:
        raise ValidationError("--points applies only with --regen-tables")
    cfg = optimize.OptConfig(restarts=args.restarts, seed=args.seed)
    if args.regen_tables:
        if args.out is None:
            raise ValidationError("--regen-tables needs --out FILE")
        points = 200 if args.points is None else args.points
        curves = {ineq: rates.generate_two_outcome_table(
            ineq, points=points, restarts=args.restarts, seed=args.seed)
            for ineq in rates.NUMERIC_CURVES}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"curves": curves}, fh, indent=1)
        print(f"wrote {args.out}; export {rates.TABLE_ENV}={args.out} to use it")
        return 0
    if args.inequality not in optimize.MINIMIZERS:
        raise ValidationError(f"no two-outcome minimizer for {args.inequality!r}")
    if args.grid is not None:
        grid = _parse_grid(args.grid)[::-1]  # descending: warm starts come from above
        rows = []
        for b, res in zip(grid, optimize.sweep_two_outcome(args.inequality, grid, cfg)):
            flags = ["non-certified"] + (["infeasible"] if not res.converged else [])
            rows.append(("optimize-two", args.inequality, "", "", b,
                         res.entropy, " ".join(flags)))
        _write_csv(args.out, rows, sort_key=lambda r: r[4])
        return 0
    if args.beta is None:
        raise ValidationError("provide --beta or --grid")
    res = optimize.MINIMIZERS[args.inequality](args.beta, cfg)
    print(f"entropy {_fmt(res.entropy)} achieved-beta {_fmt(res.achieved_beta)} "
          f"converged {res.converged} restarts {res.restarts_used}")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
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
    spec = spec_by_name(args.inequality, args.alpha)
    if args.optimize_alpha and (args.quantity != "bound-one"
                                or spec.kind != "asym-chsh"):
        raise ValidationError("--optimize-alpha applies only to --quantity "
                              "bound-one with --inequality chsh or asym-chsh")
    return _sweep_csv(args, args.quantity, lambda p: _sweep_value(args, spec, p))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Tripartite Bell inequalities: entropy bounds and DI rates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, noise=False, gamma_default=rates.GAMMA_DEFAULT):
        p.add_argument("--inequality", choices=INEQS, default="holz")
        if noise:
            p.add_argument("--noise", choices=["local", "global"], default="local")
            p.add_argument("--gamma", type=float, default=gamma_default)

    p = sub.add_parser("bound", help="evaluate an entropy bound at a violation")
    common(p)
    p.add_argument("--alpha", type=float, default=1.0)
    outcome = p.add_mutually_exclusive_group()
    outcome.add_argument("--two-outcome", action="store_true")
    outcome.add_argument("--recycled", action="store_true")
    p.add_argument("--beta", type=float)
    p.add_argument("--grid", help="beta grid start:stop:steps (CSV output)")
    p.add_argument("--out", help="CSV path for --grid")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("rate", help="DICKA or DIRE rate at a noise level")
    common(p, noise=True)
    p.add_argument("--dicka", action="store_true")
    p.add_argument("--dire", choices=["spot", "recycled"])
    p.add_argument("--p", type=float)
    p.add_argument("--grid", help="p grid start:stop:steps (CSV output)")
    p.add_argument("--out", help="CSV path for --grid")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("threshold", help="threshold p where a rate turns positive")
    common(p, noise=True, gamma_default=0.0)
    p.add_argument("--rate", choices=rates.RATE_KINDS, required=True)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("optimize", help="two-outcome entropy minimization")
    common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--grid", help="beta grid start:stop:steps (CSV output)")
    p.add_argument("--out", help="CSV/JSON output path")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regen-tables", action="store_true",
                   help="regenerate the numeric two-outcome tables JSON")
    p.add_argument("--points", type=int, help="table points (default 200)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run the property-check suites")
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep a quantity over p to CSV")
    common(p, noise=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--quantity", required=True,
                   choices=["beta", "bound-one", "bound-two"]
                   + [f"rate-{kind}" for kind in rates.RATE_KINDS])
    p.add_argument("--optimize-alpha", action="store_true",
                   help="maximize asym-chsh bounds over alpha at each p")
    p.add_argument("--grid", required=True, help="p grid start:stop:steps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def _check_args(args) -> None:
    for name in ("beta", "alpha", "gamma"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"--{name}={value!r} is not finite")
    if getattr(args, "grid", None) is None:
        return
    for name in ("beta", "p"):
        if getattr(args, name, None) is not None:
            raise ValidationError(f"--{name} and --grid exclude each other")
    if args.out is None:
        raise ValidationError("--grid needs --out FILE")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
