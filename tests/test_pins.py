"""The pinned CLI output in pins.json, run in-process by pins.py; and that runner."""

import copy

import pytest

import pins

MANIFEST = pins.load()
BY_ID = {entry["id"]: entry for entry in MANIFEST}


@pytest.mark.parametrize("entry", MANIFEST, ids=list(BY_ID))
def test_pin(entry):
    assert pins.mismatches(entry) == []


def test_manifest_is_what_the_recorder_writes():
    # with test_pin, record_pins.py leaves an unchanged tree's manifest as it is
    assert pins.MANIFEST.read_text(encoding="utf-8") == pins.dump(MANIFEST)
    assert len(BY_ID) == len(MANIFEST)


def _one_char(text):
    return chr(ord(text[0]) ^ 1) + text[1:]


H2 = "bound-holz-two-outcome-grid-1:1.5:201"
DIGEST = BY_ID[H2]["sha256"]["h2.csv"]


@pytest.mark.parametrize("entry_id, field, change", [
    ("threshold-dicka-holz-local", "stdout", lambda e: e.update(stdout=_one_char(e["stdout"]))),
    ("threshold-dire-spot-holz-local", "stderr",
     lambda e: e.update(stderr=_one_char(e["stderr"]))),
    (H2, "sha256 of h2.csv", lambda e: e.update(sha256={"h2.csv": _one_char(DIGEST)})),
    (H2, "sha256 of h3.csv", lambda e: e.update(sha256={"h3.csv": DIGEST})),
    ("bound-holz-1.3", "exit", lambda e: e.update(argv=["bound", "--inequality", "asym-chsh",
                                                        "--alpha", "0", "--beta", "2.5"])),
    ("bound-holz-1.3", "exit", lambda e: e["argv"].append("--no-such-option")),
], ids=["stdout", "stderr", "sha256", "missing-file", "exit-2", "exit-2-usage"])
def test_wrong_pin_is_named(entry_id, field, change):
    entry = copy.deepcopy(BY_ID[entry_id])
    change(entry)
    lines = pins.mismatches(entry)
    assert all(line.startswith(f"{entry_id}: ") for line in lines)
    assert any(line.startswith(f"{entry_id}: {field}: expected ") for line in lines)
