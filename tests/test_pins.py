"""The recorded output in pins.json, run in-process by pins.py; and that runner.
The library entries run in the test files of their modules, through the same
pins.mismatches."""

import copy
import math

import pytest

import pins

MANIFEST = pins.load()
BY_ID = {entry["id"]: entry for entry in MANIFEST}
CLI = [entry for entry in MANIFEST if "argv" in entry]


@pytest.mark.parametrize("entry", CLI, ids=[entry["id"] for entry in CLI])
def test_pin(entry):
    assert pins.mismatches(entry) == []


def test_manifest_is_what_the_recorder_writes():
    # with the tests that run each entry, record_pins.py leaves an unchanged
    # tree's manifest as it is
    assert pins.MANIFEST.read_text(encoding="utf-8") == pins.dump(MANIFEST)
    assert len(BY_ID) == len(MANIFEST)
    assert all(("argv" in entry) != ("call" in entry) for entry in MANIFEST)
    library = [entry for entry in MANIFEST if "call" in entry]
    assert {entry["call"] for entry in library} == set(pins.CALLS)
    assert all(set(entry.get("atol", {})) <= set(entry["out"]) for entry in library)


def _one_char(text):
    return chr(ord(text[0]) ^ 1) + text[1:]


def _set(case, change):
    """A change of a library entry's recorded output of case."""
    return lambda e: e["out"].update({case: change(e["out"][case])})


def _next_float(toward):
    return lambda x: math.nextafter(float.fromhex(x), toward).hex()


H2 = "bound-holz-two-outcome-grid-1:1.5:201"
DIGEST = BY_ID[H2]["sha256"]["h2.csv"]
HOLZ, MABK = "threshold_p-dicka-holz-local", "threshold_p-dicka-mabk-local"
RHO = "random_density_matrices-1000x8-seed=13"
FIG, ROW = "figures-seed=0", "sweep-beta-holz-local"


# a CLI entry's lines read "<id>: <field>: expected ...", a library entry's
# "<id> <case>: expected ..., got ...", with the ulps a float moved
@pytest.mark.parametrize("entry_id, where, change, tail", [
    ("threshold-dicka-holz-local", ": stdout",
     lambda e: e.update(stdout=_one_char(e["stdout"])), ""),
    ("threshold-dire-spot-holz-local", ": stderr",
     lambda e: e.update(stderr=_one_char(e["stderr"])), ""),
    (H2, ": sha256 of h2.csv", lambda e: e.update(sha256={"h2.csv": _one_char(DIGEST)}), ""),
    (H2, ": sha256 of h3.csv", lambda e: e.update(sha256={"h3.csv": DIGEST}), ""),
    ("bound-holz-1.3", ": exit", lambda e: e.update(argv=["bound", "--inequality", "asym-chsh",
                                                          "--alpha", "0", "--beta", "2.5"]), ""),
    ("bound-holz-1.3", ": exit", lambda e: e["argv"].append("--no-such-option"), ""),
    (HOLZ, " gamma=0.0", _set("gamma=0.0", _next_float(1.0)), " (-1 ulp)"),
    (HOLZ, " gamma=0.0", _set("gamma=0.0", _next_float(0.0)), " (+1 ulp)"),
    (MABK, " gamma=0.0", _set("gamma=0.0", _one_char), f", got {BY_ID[MABK]['out']['gamma=0.0']}"),
    (RHO, " sha256", _set("sha256", _one_char), f", got {BY_ID[RHO]['out']['sha256']}"),
    (FIG, f" {ROW}", _set(ROW, _one_char), f", got {BY_ID[FIG]['out'][ROW]}"),
], ids=["stdout", "stderr", "sha256", "missing-file", "exit-2", "exit-2-usage",
        "float-up", "float-down", "error-text", "digest", "figure-digest"])
def test_wrong_pin_is_named(entry_id, where, change, tail):
    entry = copy.deepcopy(BY_ID[entry_id])
    change(entry)
    lines = pins.mismatches(entry)
    assert all(line.startswith(entry_id + where[0]) for line in lines)
    assert any(line.startswith(f"{entry_id}{where}: expected ") and line.endswith(tail)
               for line in lines)
