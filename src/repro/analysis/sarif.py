"""SARIF 2.1.0 emitter for :class:`~repro.analysis.diagnostics.DiagnosticReport`.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest; the CI ``check`` job uploads the file this module produces.
Only the core subset is emitted -- one ``run``, one ``tool.driver``,
rule metadata for every rule that *can* fire, and one ``result`` per
diagnostic -- but it validates against the 2.1.0 schema shape the
GitHub/SARIF viewers require.
"""

from __future__ import annotations

import json

from repro.analysis.diagnostics import (
    DiagnosticReport,
    ERROR,
    INFO,
    WARNING,
)

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-check"

#: diagnostic severity -> SARIF result level.
LEVEL_FOR_SEVERITY = {
    ERROR: "error",
    WARNING: "warning",
    INFO: "note",
}


def _location(diag) -> dict:
    physical: dict = {
        "artifactLocation": {"uri": diag.path or "<unknown>"},
    }
    if diag.line:
        region: dict = {"startLine": diag.line}
        if diag.col:
            region["startColumn"] = diag.col
        physical["region"] = region
    location: dict = {"physicalLocation": physical}
    if diag.node:
        location["logicalLocations"] = [
            {"name": diag.node, "kind": "member"},
        ]
    return location


def to_sarif(report: DiagnosticReport, *, tool_version: str = "") -> dict:
    """Render a report as a SARIF 2.1.0 log object (a plain dict).

    The driver lists every rule id the tool can emit once, from
    :data:`repro.analysis.ALL_RULES` (where a rule two passes register
    keeps its first registration).
    """
    from repro.analysis import ALL_RULES

    rules = dict(ALL_RULES)
    # A result whose rule id no registry declared (e.g. from an external
    # pass) still must resolve: synthesize a driver entry so every
    # result carries a valid ruleIndex instead of a dangling ruleId.
    for diag in report.diagnostics:
        rules.setdefault(diag.rule, "(no registered description)")
    rule_ids = sorted(rules)
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}

    results = []
    for diag in report.sorted():
        message = diag.message
        if diag.hint:
            message = f"{message} (hint: {diag.hint})"
        result: dict = {
            "ruleId": diag.rule,
            "level": LEVEL_FOR_SEVERITY[diag.severity],
            "message": {"text": message},
            "locations": [_location(diag)],
            "ruleIndex": rule_index[diag.rule],
        }
        results.append(result)

    driver: dict = {
        "name": TOOL_NAME,
        "informationUri": "https://github.com/mixgemm/repro",
        "rules": [
            {
                "id": rid,
                "shortDescription": {"text": rules[rid]},
                "helpUri": "docs/static_analysis.md",
            }
            for rid in rule_ids
        ],
    }
    if tool_version:
        driver["version"] = tool_version

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def to_sarif_json(report: DiagnosticReport, *,
                  tool_version: str = "") -> str:
    """:func:`to_sarif`, serialized with stable 2-space indentation."""
    return json.dumps(to_sarif(report, tool_version=tool_version),
                      indent=2, sort_keys=False)


__all__ = [
    "LEVEL_FOR_SEVERITY",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "TOOL_NAME",
    "to_sarif",
    "to_sarif_json",
]
