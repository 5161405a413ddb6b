"""Re-record pins.json from what tribell gives now: `python tests/record_pins.py`.

A CLI entry's stdout, stderr and sha256 are rewritten, and a library entry's
`out`; its inputs, `atol` among them, are kept.  Every moved value is
printed, old and new, a float with the ulps it moved.  A CLI entry whose
commands fail is printed and kept as it was, and the script then exits 1; a
library call that raises stops the script before it writes."""

import sys

import pins


if __name__ == "__main__":
    manifest, moved, failed = pins.load(), [], []
    for entry in manifest:
        got = pins.run(entry)
        lines = pins.mismatches(entry, got)
        if got["exit"] != 0 or None in got.get("sha256", {}).values():
            failed += lines
            continue
        moved += lines
        if "call" in entry:
            entry["out"] = {case: entry["out"][case] if pins.kept(entry, case, value) else value
                            for case, value in got["out"].items()}
        for field, default in pins.PINNED.items() if "argv" in entry else ():
            if field in entry or got[field] != default:
                entry[field] = got[field]
    pins.MANIFEST.write_text(pins.dump(manifest), encoding="utf-8")
    print("\n".join(moved + failed + [f"{len(moved)} moved, {len(failed)} failing"]))
    sys.exit(1 if failed else 0)
