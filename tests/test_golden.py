"""Golden fingerprints: the artifact CSVs of every bundled scenario, byte for byte.

A change that moves a single packet, radio segment, buffer sample or summary
figure changes a hash here.  Such a change must state its reason in
CHANGES.md and update tests/golden.json with it.
"""

import hashlib
import json
from pathlib import Path

from streamsim.harness import write_artifacts

GOLDEN = Path(__file__).with_name("golden.json")
KINDS = ("timeline", "radio", "buffer", "summary")


def test_bundled_artifacts_match_their_golden_fingerprints(grid, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(grid)
    changed = []
    for name, report in grid.items():
        write_artifacts(report, tmp_path)
        for kind in KINDS:
            data = (tmp_path / f"{name}.{kind}.csv").read_bytes()
            if hashlib.sha256(data).hexdigest() != golden[name][kind]:
                changed.append(f"{name}.{kind}.csv")
    assert changed == []
