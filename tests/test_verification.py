"""verification: check results as plain data."""

import dataclasses
import json

from tribell import verification


def test_run_all_results_serialize_to_json():
    results = verification.run_all(200)
    for r in results:
        assert type(r.passed) is bool and type(r.expected_failure) is bool, r.name
    rows = json.loads(json.dumps([dataclasses.asdict(r) for r in results]))
    assert [row["name"] for row in rows] == [r.name for r in results]
