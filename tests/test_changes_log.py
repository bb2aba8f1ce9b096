"""CHANGES.md stays readable: an entry (a ``- PR N`` line) numbered
``FIRST_CAPPED_PR`` or later is at most 2.5 KB, its detail in the results
file it cites. FOUND and MENDED lines are hand-offs, not entries, and are
not counted."""

import os
import re

CHANGES = os.path.join(os.path.dirname(__file__), os.pardir, "CHANGES.md")
FIRST_CAPPED_PR = 60
MAX_ENTRY_BYTES = 2500


def test_new_entries_fit_in_2500_bytes():
    with open(CHANGES, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    oversized = []
    for line in lines:
        match = re.match(r"- PR (\d+)\b", line)
        if match and int(match.group(1)) >= FIRST_CAPPED_PR and len(line.encode("utf-8")) > MAX_ENTRY_BYTES:
            oversized.append((match.group(1), len(line.encode("utf-8"))))
    assert not oversized, f"CHANGES.md entries over {MAX_ENTRY_BYTES} bytes (entry, bytes): {oversized}"
