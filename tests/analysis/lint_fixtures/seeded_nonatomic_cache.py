"""Seeded REP012 violation: cache entry written without os.replace.

The check-CLI tests copy this file to
``<tmp>/analysis/cost/calibrate.py`` (the rule is scoped to the
persistent cost-model calibration cache; everything under ``tests/``
is exempt in place) and assert the finding renders in text,
JSON and SARIF.  Intentionally broken -- do not "fix" it.
"""

import json


def save_entry(path, payload: dict):
    # Bug on purpose: writes the final file in place.  A reader racing
    # this writer (or a crash mid-dump) sees a torn JSON file.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
