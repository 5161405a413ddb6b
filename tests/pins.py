"""The recorded output in pins.json, beside this file: the CLI's and the library's.

A CLI entry runs its `before` argv lists, if any, then `argv`, through
tribell.cli.main in a fresh temporary directory.  Each must exit 0; they
must print `stdout` and `stderr` ("" unless pinned) and leave each file
under `sha256` with that digest.  A library entry's `call` names a function
of CALLS, which reads the entry's other fields as inputs and must give
`out`, its outputs by case as text: a float as its float.hex() (which may
move by its case's `atol`, if it has one), an error as "ErrorClass:
message" and an array as the sha256 of its bytes.  The `figures` call
rebuilds perfbench's figures workload at the entry's seed from the
checkout's perfbench/workloads.py, so that its argv keep one definition;
its cases are the workload's row labels, each the sha256 of that row's CSV.
RuntimeWarning is an error throughout.  `python tests/pins.py` runs every
entry against the tribell that Python imports, prints where that package
lives, lists every mismatch and exits 1 if there is one."""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

import tribell
from tribell import bounds, cli, optimize, rates, verification
from tribell.bell import spec_by_name
from tribell.errors import NumericError, ValidationError

MANIFEST = Path(__file__).with_name("pins.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = {"stdout": "", "stderr": "", "sha256": {}}  # each pinned field and its default


def load() -> list:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def dump(manifest) -> str:  # pins.json's text
    return json.dumps(manifest, indent=1) + "\n"


def calls(name) -> list:  # the library entries whose call is name
    return [entry for entry in load() if entry.get("call") == name]


def run(entry) -> dict:
    """What entry gives.  A library entry's call gives its outputs by case,
    or raises.  A CLI entry's commands give the first nonzero exit code or
    uncaught exception's name (else 0), all they print on stdout (less the
    lines that start with an `omit` prefix) and on stderr, tracebacks
    included, and the sha256 of each pinned file (None where it is missing)."""
    if "call" in entry:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return {"exit": 0, "out": CALLS[entry["call"]](entry)}
    cwd, out, err = os.getcwd(), io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        os.chdir(tmp)
        try:
            for argv in entry.get("before", []) + [entry["argv"]]:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refusing argv
                    code = exc.code
                except Exception as exc:  # a RuntimeWarning made an error, or a bug
                    traceback.print_exc()
                    code = type(exc).__name__
                if code != 0:
                    break
            digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                       if os.path.isfile(name) else None for name in entry.get("sha256", {})}
        finally:
            os.chdir(cwd)
    omit = tuple(entry.get("omit", ()))
    stdout = "".join(line for line in out.getvalue().splitlines(True)
                     if not line.startswith(omit))
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue(), "sha256": digests}


def kept(entry, case, value) -> bool:
    """Whether value is entry's recorded output of case, or a float within the case's atol."""
    want, atol = entry["out"].get(case), entry.get("atol", {})
    return value == want or value is not None and case in atol \
        and abs(float.fromhex(value) - float.fromhex(want)) <= atol[case]


def _place(text):
    """A float.hex() text's place among the floats, in ulps from 0; None for other text."""
    if isinstance(text, str) and text.lstrip("-").startswith(("0x", "inf", "nan")):
        bits = int(np.float64(float.fromhex(text)).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)
    return None


def _moved(entry, out) -> list:
    """One line per case whose output in out is not kept, a float's with the ulps it moved."""
    lines = []
    for case in dict.fromkeys([*entry["out"], *out]):
        want, got = entry["out"].get(case), out.get(case)
        if not kept(entry, case, got):
            places = _place(want), _place(got)
            ulps = "" if None in places else f" ({places[1] - places[0]:+d} ulp)"
            lines.append(f" {case}: expected {want}, got {got}{ulps}")
    return lines


def mismatches(entry, got=None) -> list:
    """One line per way entry's run (got, if given) differs from its pins,
    each starting with the entry's id."""
    got = run(entry) if got is None else got
    if "call" in entry:
        return [entry["id"] + line for line in _moved(entry, got["out"])]
    want = dict(PINNED, **entry, exit=0)
    lines = [f"{field}: expected {want[field]!r}, got {got[field]!r}"
             for field in ("exit", "stdout", "stderr") if got[field] != want[field]]
    lines += [f"sha256 of {name}: expected {digest}, got {got['sha256'][name]}"
              for name, digest in want["sha256"].items() if got["sha256"][name] != digest]
    return [f"{entry['id']}: {line}" for line in lines]


# ---------------------------------------------------------------------------
# the library functions that entries call

def floats(texts) -> np.ndarray:
    return np.array([float.fromhex(text) for text in texts])


def _hex(values) -> list:
    return [float(v).hex() for v in np.asarray(values, dtype=float).tolist()]


def argmin_digest(res) -> str:
    """The sha256 of an OptResult's argmin arrays, in key order."""
    digest = hashlib.sha256()
    for key in sorted(res.argmin):
        digest.update(np.ascontiguousarray(res.argmin[key], dtype=float).tobytes())
    return digest.hexdigest()


def threshold_p(entry) -> dict:
    spec = spec_by_name(entry["inequality"])

    def text(gamma):
        try:
            return rates.threshold_p(entry["kind"], spec, entry["noise"], gamma).hex()
        except (NumericError, ValidationError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return {f"gamma={gamma!r}": text(gamma) for gamma in entry["gamma"]}


def best_alpha_bound(entry) -> dict:
    alpha, bound = map(_hex, bounds.best_alpha_bound(floats(entry["scale"])))
    return {f"{name} at {scale}": value for scale, a, b in zip(entry["scale"], alpha, bound)
            for name, value in (("alpha", a), ("bound", b))}


def asym_chsh_one_outcome(entry) -> dict:
    values = bounds.asym_chsh_one_outcome(floats(entry["beta"]), entry["alpha"])
    return {f"beta[{i}]": value for i, value in enumerate(_hex(values))}


def bound_curve(entry) -> dict:
    curve = rates.bound_curve(spec_by_name(entry["inequality"], entry["alpha"]),
                              entry["outcome"])
    values = _hex(curve.fn(np.array(entry["beta"])))
    return {f"beta={beta!r}": value for beta, value in zip(entry["beta"], values)}


def minimize(entry) -> dict:
    cfg = optimize.OptConfig(restarts=entry["restarts"], seed=entry["seed"])
    res = optimize.MINIMIZERS[entry["inequality"]](entry["beta"], cfg)
    entropy, achieved = _hex([res.entropy, res.achieved_beta])
    return {"entropy": entropy, "achieved_beta": achieved, "converged": repr(res.converged),
            "argmin sha256": argmin_digest(res)}


def run_all(entry) -> dict:
    """Each of the entry's checks' pass status, and every number its detail prints."""
    out = {}
    for r in verification.run_all(entry["samples"], entry["seed"]):
        if r.name in entry["checks"]:
            out[f"{r.name} passed"] = repr(r.passed)
            numbers = re.findall(r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?", r.detail)
            out.update({f"{r.name} [{i}]": float(x).hex() for i, x in enumerate(numbers)})
    return out


def random_density_matrices(entry) -> dict:
    rho = verification.random_density_matrices(entry["count"], entry["dim"], entry["seed"])
    return {"sha256": hashlib.sha256(rho.tobytes()).hexdigest()}


def figures(entry) -> dict:
    """The sha256 of each CSV of perfbench's figures workload at the entry's
    seed, by row label: each row's argv through cli.main, writing into a
    temporary directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads  # read only: its figures() builds the argv from the seed
    finally:
        sys.path.remove(str(PERFBENCH))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.figures(entry["seed"], Path(tmp), None).ops:
            code, _ = op.run(tribell)
            if code != 0:
                raise RuntimeError(f"{entry['id']} {op.label}: exit {code}")
            out[op.label] = hashlib.sha256(Path(tmp, op.label + ".csv").read_bytes()).hexdigest()
    return out


CALLS = {fn.__name__: fn for fn in (threshold_p, best_alpha_bound, asym_chsh_one_outcome,
                                    bound_curve, minimize, run_all, random_density_matrices,
                                    figures)}


if __name__ == "__main__":
    print(f"tribell from {os.path.dirname(cli.__file__)}")
    manifest = load()
    failed = [line for entry in manifest for line in mismatches(entry)]
    print("\n".join(failed + [f"{len(manifest)} pins, {len(failed)} mismatches"]))
    sys.exit(1 if failed else 0)
