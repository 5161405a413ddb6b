"""Command-line surface: evaluate bounds and rates, sweep curves to CSV,
find thresholds, run the entropy optimizer, and run the verification suite.

CSV rows are `quantity,inequality,noise,p,beta,value,flags`, sorted stably
by the grid column (p, or beta for a beta grid); a float is printed with 9
significant digits, with ".0" appended to an integral value.  A file is
formatted in full, each column once, into one string of joined rows before
it is opened, and written with one write; no field holds a comma, a quote
or a line break, so none is quoted.  Identical seeds give byte-identical
files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import optimize, rates, verification
from .bell import INEQUALITIES, spec_by_name
from .errors import NumericError, ValidationError

__all__ = ["cmd_bound", "cmd_rate", "cmd_threshold", "cmd_optimize", "cmd_verify", "cmd_sweep",
           "OPTIONS", "build_parser", "main"]

CSV_HEADER = ["quantity", "inequality", "noise", "p", "beta", "value", "flags"]


def _texts(xs) -> list[str]:
    """Each float of xs printed with 9 significant digits, and ".0" appended
    where that text reads as an integer."""
    texts = [f"{v:.9g}" for v in np.asarray(xs, dtype=float).tolist()]
    return [t if "." in t or "e" in t or "n" in t else t + ".0" for t in texts]


def _fmt(x) -> str:
    """One float as _texts prints it."""
    return _texts([x])[0]


def _allocatable(n: int) -> bool:
    """Whether numpy can allocate n floats: it refuses a count past its own
    limit (ValueError) or the machine's memory (MemoryError) at once, having
    allocated nothing."""
    try:
        np.empty(n)
    except (MemoryError, ValueError):
        return False
    return True


SIZE = (_allocatable, "asks for more floats than numpy can allocate")


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}, expected start:stop:steps") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"--grid {text!r} has a non-finite endpoint")
    if n < 1:
        raise ValidationError("grid needs at least one point")
    if not _allocatable(n):
        raise ValidationError(f"--grid {text!r} {SIZE[1]}")
    return np.linspace(a, b, n)


@contextlib.contextmanager
def _overwrite(path):
    """Open path for writing text in place and cut it to what was written.

    open(path, "w") truncates an existing file to zero bytes first, and
    ext4 (auto_da_alloc) then waits on close until the new bytes reach the
    disk: tens of milliseconds per file, against under one for writing over
    the old bytes."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="", encoding="utf-8") as fh:
        try:
            yield fh
        finally:  # never leave the old file's tail behind the new bytes
            fh.truncate()


def _write_csv(path, quantity, inequality, noise, *, p=(), beta=(), value, flags):
    """Write grid rows to path: the constant quantity, inequality and noise;
    the float columns p, beta and value, each of one length or empty (); and
    flags, one string for every row or one per row.  Rows are sorted stably
    by the grid column, p where given and beta otherwise; the whole file is
    one string, written with one write, before which path is not opened.
    No field is quoted: every one is a float's text or a word of a fixed
    vocabulary, none holding a comma, a quote or a line break."""
    # Python's stable sort of the grid's floats: numpy's stable argsort gives
    # the same order but maps about 0.13 MB more of numpy's code into a
    # process that sorts nothing else
    keys = np.asarray(p if len(p) else beta, dtype=float).tolist()
    n = len(keys)

    def text(column):
        return _texts(column) if len(column) else [""] * n

    lead = f"{quantity},{inequality},{noise},"
    flag_texts = [flags] * n if isinstance(flags, str) else flags
    rows = [f"{lead}{a},{b},{c},{f}\n"
            for a, b, c, f in zip(text(p), text(beta), text(value), flag_texts)]
    body = ",".join(CSV_HEADER) + "\n" + "".join(
        [rows[i] for i in sorted(range(n), key=keys.__getitem__)])
    with _overwrite(path) as fh:
        fh.write(body)


def _note_curve(name, flags) -> None:
    """A stderr line naming the curve a printed value rests on when that
    curve is conjectured or non-certified; --grid CSVs carry the flags in
    their rows instead."""
    if flags:
        print(f"note: rests on the {' '.join(flags)} curve {name}", file=sys.stderr)


def _map_parallel(fn, xs):
    # no caller: kept only because perfbench/tracing.py rebinds this name
    return [fn(x) for x in xs]


def _sweep_csv(args, quantity, columns) -> int:
    """Write columns(grid), the value, beta and flags columns over the p of
    the --grid, to --out."""
    grid = _parse_grid(args.grid)
    value, beta, flags = columns(grid)
    _write_csv(args.out, quantity, args.inequality, args.noise,
               p=grid, beta=beta, value=value, flags=flags)
    return 0


# ---------------------------------------------------------------------------
# bound

def cmd_bound(args) -> int:
    """evaluate an entropy bound at a violation"""
    outcome = "recycled" if args.recycled else "two" if args.two_outcome else "one"
    curve = rates.bound_curve(spec_by_name(args.inequality, args.alpha), outcome)
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        # `bound --recycled` CSVs have never carried the curve's conjectured
        # flag; perfbench/golden_csv.json pins their bytes (ROADMAP item 31)
        flags = "" if args.recycled else " ".join(curve.flags)
        _write_csv(args.out, f"bound-{outcome}", args.inequality, "",
                   beta=grid, value=curve.fn(grid), flags=flags)
        return 0
    print(_fmt(curve.fn(args.beta)))
    _note_curve(curve.name, curve.flags)
    return 0


# ---------------------------------------------------------------------------
# rate

def _rate_columns(args, kind, spec, grid):
    result = rates.rate_grid(kind, spec, args.noise, grid, args.gamma)
    return result.rate, result.beta_at_p, " ".join(result.flags)


def cmd_rate(args) -> int:
    """DICKA or DIRE rate at a noise level"""
    kind = "dicka" if args.dicka else f"dire-{args.dire}"
    spec = spec_by_name(args.inequality)
    if args.grid is not None:
        return _sweep_csv(args, f"rate-{kind}",
                          lambda grid: _rate_columns(args, kind, spec, grid))
    r = rates.rate_grid(kind, spec, args.noise, [args.p], args.gamma)
    print(_fmt(r.rate[0]))
    _note_curve(r.bound_used, r.flags)
    return 0


# ---------------------------------------------------------------------------
# threshold

def cmd_threshold(args) -> int:
    """threshold p where a rate turns positive"""
    spec = spec_by_name(args.inequality)
    print(_fmt(rates.threshold_p(args.rate, spec, args.noise, args.gamma)))
    curve = rates.rate_curve(args.rate, spec, args.gamma)
    if curve is not None:  # asym-CHSH DICKA's alpha search rests on no flagged curve
        _note_curve(curve.name, curve.flags)
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
        with _overwrite(args.out) as fh:
            json.dump({"curves": curves}, fh, indent=1)
        print(f"wrote {args.out}; export {rates.TABLE_ENV}={args.out} to use it")
        return 0
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        results = optimize.sweep_two_outcome(args.inequality, grid, cfg)
        flags = ["non-certified" if r.converged else "non-certified infeasible"
                 for r in results]
        _write_csv(args.out, "optimize-two", args.inequality, "", beta=grid,
                   value=[r.entropy for r in results], flags=flags)
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

def _sweep_columns(args, spec, grid):
    kind = args.quantity.removeprefix("rate-")
    if kind in rates.RATE_KINDS:
        return _rate_columns(args, kind, spec, grid)
    if args.optimize_alpha:
        _, bound, beta = rates.best_alpha_one_outcome(args.noise, grid)
        return bound, beta, ""
    if args.quantity == "beta":
        return rates.betas_of_p(spec, args.noise, grid), (), ""
    curve = rates.bound_curve(spec, args.quantity.removeprefix("bound-"))
    betas = rates.betas_of_p(spec, args.noise, grid)
    return curve.fn(betas), betas, " ".join(curve.flags)


def cmd_sweep(args) -> int:
    """sweep a quantity over p to CSV"""
    spec = spec_by_name(args.inequality, args.alpha)
    return _sweep_csv(args, args.quantity, lambda grid: _sweep_columns(args, spec, grid))


# ---------------------------------------------------------------------------
# options

def _opt(commands, flags, when=None, *domains, **spec):
    spec.setdefault("default", False if spec.get("action") == "store_true" else None)
    return commands.split(), flags.split(), when, domains, spec


UNIT = (lambda x: 0.0 <= x <= 1.0, "outside [0, 1]")
OUT_PATH = (lambda p: os.path.isdir(os.path.dirname(p) or ".") and not os.path.isdir(p),
            "is a directory or is in no existing directory")

# Every option once: the commands that take it; its flag (two flags exclude
# each other); when a command reads it, as a test on the parsed arguments and
# the words that end "FLAG applies only" (with no default, it must then be
# given); the tests its values pass, each with why one fails; its argparse spec.
OPTIONS = [
    _opt("bound rate threshold sweep", "--inequality", choices=list(INEQUALITIES), default="holz"),
    _opt("optimize", "--inequality", (lambda a: not a.regen_tables, "without --regen-tables"),
         (lambda name: name in optimize.MINIMIZERS, "has no two-outcome minimizer"),
         choices=list(INEQUALITIES), default="holz"),
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
    _opt("rate", "--p", (lambda a: a.grid is None, "without --grid"), UNIT, type=float),
    _opt("bound optimize", "--grid", help="beta grid start:stop:steps (CSV output)"),
    _opt("rate", "--grid", help="p grid start:stop:steps (CSV output)"),
    _opt("sweep", "--grid", required=True, help="p grid start:stop:steps"),
    _opt("bound rate", "--out", (lambda a: a.grid is not None, "with --grid"), OUT_PATH,
         help="CSV path for --grid"),
    _opt("optimize", "--out", (lambda a: a.grid is not None or a.regen_tables,
                               "with --grid or --regen-tables"), OUT_PATH,
         help="CSV/JSON output path"),
    _opt("sweep", "--out", None, OUT_PATH, required=True),
    _opt("optimize", "--restarts", None, (lambda n: n >= 1, "is below 1"),
         type=int, default=64),
    _opt("optimize", "--seed", None, (lambda n: n >= 0, "is negative"), type=int, default=0),
    _opt("optimize", "--regen-tables", (lambda a: a.grid is None, "without --grid"),
         action="store_true", help="regenerate the numeric two-outcome tables JSON"),
    _opt("optimize", "--points", (lambda a: a.regen_tables, "with --regen-tables"),
         (lambda n: n >= 2, "is below 2: a table needs at least 2 points"), SIZE,
         type=int, default=200, help="table points (default 200)"),
    _opt("verify", "--samples", None, (lambda n: n >= 2, "is below 2"), SIZE, type=int,
         default=10000,
         help="samples of the Appendix B check; the uncertainty and quantum-bound"
              " checks take 1/10 and 1/20 of it (at least 100 and 50)"),
]


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a --help written into a closed pipe raises
    BrokenPipeError, which argparse would drop before exiting 0."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every command and its OPTIONS; `main` builds one per process."""
    parser = _Parser(
        prog="tribell",
        description="Tripartite Bell inequalities: entropy bounds and DI rates")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("bound", "rate", "threshold", "optimize", "verify", "sweep"):
        p = sub.add_parser(command, help=globals()[f"cmd_{command}"].__doc__)
        for commands, flags, _, _, spec in OPTIONS:
            if command in commands:
                group = p if len(flags) == 1 else p.add_mutually_exclusive_group()
                for flag in flags:
                    group.add_argument(flag, **spec)
    return parser


def _check_args(args) -> None:
    """Refuse, naming the option, a value outside its domain (floats must be finite),
    away from its default where not read, or missing where it must be given."""
    for commands, flags, when, domains, spec in OPTIONS:
        for flag in flags if args.command in commands else ():
            value = getattr(args, flag[2:].replace("-", "_"))
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{flag}={value!r} is not finite")
            for test, why in domains:
                if value is not None and not test(value):
                    raise ValidationError(f"{flag}={value!r} {why}")
            if when and not when[0](args) and value != spec["default"]:
                raise ValidationError(f"{flag} applies only {when[1]}")
            if when and when[0](args) and value is None:
                raise ValidationError(f"{flag} is required {when[1]}")


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        finally:
            sys.stdout.flush()  # --help's text: a closed pipe raises here, not at exit
        _check_args(args)
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout has gone: exit as a SIGPIPE kill reports
        # (128 + 13), with stdout on devnull so the final flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
