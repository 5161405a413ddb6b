"""The pinned CLI output in pins.json, beside this file, run through tribell.cli.main.

An entry runs its `before` argv lists, if any, then `argv`, in a fresh
temporary directory with RuntimeWarning an error.  Each must exit 0; they
must print `stdout` and `stderr` ("" unless pinned) and leave each file
under `sha256` with that digest.  `python tests/pins.py` runs every entry
against the tribell that Python imports, prints where that package lives,
lists every mismatch and exits 1 if there is one."""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from tribell import cli

MANIFEST = Path(__file__).with_name("pins.json")
PINNED = {"stdout": "", "stderr": "", "sha256": {}}  # each pinned field and its default


def load() -> list:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def dump(manifest) -> str:  # pins.json's text
    return json.dumps(manifest, indent=1) + "\n"


def run(entry) -> dict:
    """What entry's commands give: the first nonzero exit code or uncaught
    exception's name (else 0), all they print on stdout (less the lines that
    start with an `omit` prefix) and on stderr, tracebacks included, and the
    sha256 of each pinned file (None where it is missing)."""
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


def mismatches(entry, got=None) -> list:
    """One line per way entry's run (got, if given) differs from its pins,
    each starting with the entry's id."""
    got = run(entry) if got is None else got
    want = dict(PINNED, **entry, exit=0)
    lines = [f"{field}: expected {want[field]!r}, got {got[field]!r}"
             for field in ("exit", "stdout", "stderr") if got[field] != want[field]]
    lines += [f"sha256 of {name}: expected {digest}, got {got['sha256'][name]}"
              for name, digest in want["sha256"].items() if got["sha256"][name] != digest]
    return [f"{entry['id']}: {line}" for line in lines]


if __name__ == "__main__":
    print(f"tribell from {os.path.dirname(cli.__file__)}")
    manifest = load()
    failed = [line for entry in manifest for line in mismatches(entry)]
    print("\n".join(failed + [f"{len(manifest)} pins, {len(failed)} mismatches"]))
    sys.exit(1 if failed else 0)
