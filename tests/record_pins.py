"""Re-record pins.json from what tribell prints now: `python tests/record_pins.py`.

Each entry's stdout, stderr and sha256 are rewritten, and every moved value
is printed, old and new.  An entry whose commands fail is printed and kept
as it was, and the script then exits 1."""

import sys

import pins


if __name__ == "__main__":
    manifest, moved, failed = pins.load(), [], []
    for entry in manifest:
        got = pins.run(entry)
        lines = pins.mismatches(entry, got)
        if got["exit"] != 0 or None in got["sha256"].values():
            failed += lines
            continue
        moved += lines
        for field, default in pins.PINNED.items():
            if field in entry or got[field] != default:
                entry[field] = got[field]
    pins.MANIFEST.write_text(pins.dump(manifest), encoding="utf-8")
    print("\n".join(moved + failed + [f"{len(moved)} moved, {len(failed)} failing"]))
    sys.exit(1 if failed else 0)
