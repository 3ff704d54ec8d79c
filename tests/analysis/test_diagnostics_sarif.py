"""Diagnostic/report plumbing and the SARIF 2.1.0 emitter."""

import json

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.diagnostics import (
    AnalysisError,
    Diagnostic,
    DiagnosticReport,
    severity_rank,
)
from repro.analysis.sarif import (
    LEVEL_FOR_SEVERITY,
    SARIF_SCHEMA,
    to_sarif,
    to_sarif_json,
)


def _sample_report() -> DiagnosticReport:
    report = DiagnosticReport()
    report.add(Diagnostic(rule="REP002", severity="error",
                          message="unseeded rng", path="src/x.py",
                          line=12, col=5, hint="seed it"))
    report.add(Diagnostic(rule="ACC-MARGIN", severity="warning",
                          message="thin headroom", node="n3",
                          path="model.json"))
    report.add(Diagnostic(rule="PACK-PAD", severity="info",
                          message="observation"))
    return report


class TestDiagnostic:
    def test_severity_validated_eagerly(self):
        with pytest.raises(AnalysisError):
            Diagnostic(rule="X", severity="fatal", message="m")

    def test_severity_rank_ordering(self):
        assert severity_rank("error") < severity_rank("warning")
        assert severity_rank("warning") < severity_rank("info")

    def test_location_lint_style(self):
        d = Diagnostic(rule="R", severity="error", message="m",
                       path="a.py", line=3, col=7)
        assert d.location() == "a.py:3:7"

    def test_location_graph_style(self):
        d = Diagnostic(rule="R", severity="error", message="m",
                       node="conv1", path="model.json")
        assert d.location() == "model.json:node 'conv1'"

    def test_render_includes_rule_and_hint(self):
        d = Diagnostic(rule="REP004", severity="error", message="bad",
                       hint="fix it")
        assert "[REP004]" in d.render()
        assert "fix it" in d.render()

    def test_to_json_omits_empty_fields(self):
        d = Diagnostic(rule="R", severity="info", message="m")
        assert set(d.to_json()) == {"rule", "severity", "message"}


class TestReport:
    def test_counts_and_accessors(self):
        report = _sample_report()
        assert report.counts() == {"error": 1, "warning": 1, "info": 1}
        assert len(report.errors) == 1
        assert len(report.warnings) == 1

    def test_sorted_severity_first(self):
        severities = [d.severity for d in _sample_report().sorted()]
        assert severities == ["error", "warning", "info"]

    def test_exit_code_thresholds(self):
        report = _sample_report()
        assert report.exit_code(fail_on="error") == 1
        empty = DiagnosticReport()
        assert empty.exit_code() == 0
        warn_only = DiagnosticReport()
        warn_only.add(Diagnostic(rule="R", severity="warning",
                                 message="m"))
        assert warn_only.exit_code(fail_on="error") == 0
        assert warn_only.exit_code(fail_on="warning") == 1

    def test_json_roundtrip(self):
        payload = json.loads(_sample_report().to_json())
        assert payload["counts"]["error"] == 1
        assert payload["diagnostics"][0]["rule"] == "REP002"


class TestSarif:
    def test_top_level_shape(self):
        log = to_sarif(_sample_report())
        assert log["version"] == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"

    def test_every_rule_registered(self):
        rules = to_sarif(DiagnosticReport())["runs"][0]["tool"][
            "driver"]["rules"]
        ids = {r["id"] for r in rules}
        assert ids == set(ALL_RULES)
        for r in rules:
            assert r["shortDescription"]["text"]

    def test_results_levels_and_locations(self):
        results = to_sarif(_sample_report())["runs"][0]["results"]
        assert [r["level"] for r in results] == [
            "error", "warning", "note"]
        lint = results[0]
        region = lint["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 12, "startColumn": 5}
        graph = results[1]
        logical = graph["locations"][0]["logicalLocations"][0]
        assert logical["name"] == "n3"

    def test_rule_index_consistent(self):
        log = to_sarif(_sample_report())
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_hint_folded_into_message(self):
        results = to_sarif(_sample_report())["runs"][0]["results"]
        assert "seed it" in results[0]["message"]["text"]

    def test_json_rendering_parses(self):
        parsed = json.loads(to_sarif_json(_sample_report(),
                                          tool_version="1.0.0"))
        assert parsed["runs"][0]["tool"]["driver"]["version"] == "1.0.0"

    def test_level_map_complete(self):
        assert set(LEVEL_FOR_SEVERITY) == {"error", "warning", "info"}


class TestSarifSchemaValidation:
    """Validate against the SARIF 2.1.0 core subset with jsonschema."""

    SCHEMA = {
        "type": "object",
        "required": ["version", "runs"],
        "properties": {
            "version": {"const": "2.1.0"},
            "runs": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["tool", "results"],
                    "properties": {
                        "tool": {
                            "type": "object",
                            "required": ["driver"],
                            "properties": {
                                "driver": {
                                    "type": "object",
                                    "required": ["name"],
                                    "properties": {
                                        "name": {"type": "string"},
                                        "rules": {"type": "array"},
                                    },
                                },
                            },
                        },
                        "results": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["ruleId", "message",
                                             "level"],
                                "properties": {
                                    "ruleId": {"type": "string"},
                                    "level": {
                                        "enum": ["error", "warning",
                                                 "note", "none"],
                                    },
                                    "message": {
                                        "type": "object",
                                        "required": ["text"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    }

    def test_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif(_sample_report()), self.SCHEMA)


class TestRuleDedup:
    """Shared rule ids appear exactly once in the SARIF driver."""

    def test_driver_rule_ids_unique(self):
        sarif = to_sarif(_sample_report())
        ids = [r["id"] for r in
               sarif["runs"][0]["tool"]["driver"]["rules"]]
        assert len(ids) == len(set(ids))

    def test_registry_union_has_no_duplicate_ids(self):
        from repro.analysis.astlint import LINT_RULES
        from repro.analysis.concurrency import CONC_RULES
        from repro.analysis.contracts import CONTRACT_RULES
        from repro.analysis.cost import COST_RULES
        from repro.analysis.ranges import RANGES_RULES
        merged = {}
        for registry in (CONTRACT_RULES, LINT_RULES, CONC_RULES,
                         RANGES_RULES, COST_RULES):
            for rid, description in registry.items():
                merged.setdefault(rid, description)
        assert set(merged) == set(ALL_RULES)

    def test_shared_grf_parse_registered_once(self):
        from repro.analysis.contracts import CONTRACT_RULES
        from repro.analysis.ranges import RANGES_RULES
        # Only the shared loader (contracts.graph) emits it.
        assert "GRF-PARSE" in CONTRACT_RULES
        assert "GRF-PARSE" not in RANGES_RULES
        report = DiagnosticReport()
        report.add(Diagnostic(rule="GRF-PARSE", severity="error",
                              message="m", path="a.json"))
        report.add(Diagnostic(rule="GRF-PARSE", severity="error",
                              message="m", path="b.json"))
        rules = to_sarif(report)["runs"][0]["tool"]["driver"]["rules"]
        matches = [r for r in rules if r["id"] == "GRF-PARSE"]
        assert len(matches) == 1
        # first registration (contracts) supplies the description
        assert matches[0]["shortDescription"]["text"] \
            == CONTRACT_RULES["GRF-PARSE"]

    def test_ranges_rules_present_in_driver(self):
        sarif = to_sarif(_sample_report())
        ids = {r["id"] for r in
               sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert {"RANGE-OVERFLOW", "RANGE-NARROWABLE", "RANGE-EQUIV",
                "RANGE-OBSERVED"} <= ids

    def test_unregistered_rule_gets_synthesized_entry(self):
        report = DiagnosticReport()
        report.add(Diagnostic(rule="X-UNKNOWN", severity="warning",
                              message="mystery"))
        sarif = to_sarif(report)
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        [entry] = [r for r in rules if r["id"] == "X-UNKNOWN"]
        assert entry["shortDescription"]["text"] \
            == "(no registered description)"
        [result] = sarif["runs"][0]["results"]
        assert rules[result["ruleIndex"]]["id"] == "X-UNKNOWN"
