"""``repro check`` end to end: targets, formats, exit-code gates."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.contracts.graph import load_graph_file
from repro.cli import build_parser, main
from repro.robustness.faults import demo_graph
from repro.runtime.graph import GraphModel, NodeSpec


@pytest.fixture()
def clean_model(tmp_path):
    path = tmp_path / "model.json"
    demo_graph().save(str(path))
    return str(path)


@pytest.fixture()
def overflowing_model(tmp_path):
    graph = GraphModel(nodes=[NodeSpec(
        op="quant_linear",
        attrs={"act_scale": 1.0, "act_bits": 8, "act_signed": True,
               "weight_bits": 8},
        tensors={"weight": np.ones((4, 64))},
    )])
    path = tmp_path / "overflow.json"
    graph.save(str(path))
    return str(path)


class TestParser:
    def test_check_registered(self):
        args = build_parser().parse_args(["check", "--lint", "src"])
        assert callable(args.func)
        assert args.lint == ["src"]

    def test_defaults(self):
        args = build_parser().parse_args(["check", "--graph", "m.json"])
        assert args.format == "text"
        assert args.fail_on == "error"
        assert args.accmem_bits is None


class TestCheckCommand:
    def test_no_targets_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_clean_graph_exits_zero(self, clean_model, capsys):
        assert main(["check", "--graph", clean_model]) == 0
        assert "clean" in capsys.readouterr().out

    def test_overflow_graph_fails_with_acc_overflow(
            self, overflowing_model, capsys):
        code = main(["check", "--graph", overflowing_model,
                     "--accmem-bits", "20"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ACC-OVERFLOW" in out

    def test_same_graph_passes_at_default_width(self, overflowing_model):
        assert main(["check", "--graph", overflowing_model]) == 0

    def test_lint_repo_src_passes(self, capsys):
        src = str(Path(__file__).resolve().parents[2] / "src")
        assert main(["check", "--lint", src]) == 0

    def test_lint_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("class E(ValueError):\n    pass\n")
        assert main(["check", "--lint", str(bad)]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_missing_lint_target_is_usage_error(self, capsys):
        assert main(["check", "--lint", "/no/such/path"]) == 2

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = np.random.rand(2)\n")
        assert main(["check", "--lint", str(bad),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1
        assert payload["diagnostics"][0]["rule"] == "REP002"

    def test_sarif_output_file(self, tmp_path, clean_model, capsys):
        out_file = tmp_path / "report.sarif"
        assert main(["check", "--graph", clean_model,
                     "--format", "sarif",
                     "--output", str(out_file)]) == 0
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []
        assert str(out_file) in capsys.readouterr().out

    def test_sarif_records_findings(self, tmp_path, overflowing_model):
        out_file = tmp_path / "report.sarif"
        main(["check", "--graph", overflowing_model,
              "--accmem-bits", "20", "--format", "sarif",
              "--output", str(out_file)])
        results = json.loads(out_file.read_text())["runs"][0]["results"]
        assert any(r["ruleId"] == "ACC-OVERFLOW"
                   and r["level"] == "error" for r in results)

    def test_fail_on_warning_gates_warnings(self, tmp_path):
        graph = GraphModel(nodes=[NodeSpec(
            op="quant_linear",
            attrs={"act_scale": 1.0, "act_bits": 8, "act_signed": True,
                   "weight_bits": 8},
            tensors={"weight": np.ones((4, 64))},
        )])
        path = tmp_path / "margin.json"
        graph.save(str(path))
        # 22 bits: fits, but with <1 bit of headroom -> ACC-MARGIN.
        assert main(["check", "--graph", str(path),
                     "--accmem-bits", "22"]) == 0
        assert main(["check", "--graph", str(path),
                     "--accmem-bits", "22",
                     "--fail-on", "warning"]) == 1

    def test_combined_graph_and_lint(self, clean_model, tmp_path,
                                     capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    f()\nexcept:\n    pass\n")
        assert main(["check", "--graph", clean_model,
                     "--lint", str(bad)]) == 1
        assert "REP004" in capsys.readouterr().out

    def test_unparseable_model_reported(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("]")
        assert main(["check", "--graph", str(path)]) == 1
        assert "GRF-PARSE" in capsys.readouterr().out

    @pytest.mark.parametrize("content", ["]", '{"nodes": 3}', None])
    def test_every_pass_reports_one_grf_parse(self, tmp_path, capsys,
                                              content):
        """``--graph``, ``--ranges`` and ``--cost`` load model files
        through one loader, so a corrupt (or missing) file yields the
        same single diagnostic from each."""
        path = tmp_path / "corrupt.json"
        if content is not None:
            path.write_text(content)
        _, want = load_graph_file(str(path))
        outputs = []
        for flag in ("--graph", "--ranges", "--cost"):
            assert main(["check", flag, str(path),
                         "--format", "json"]) == 1
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0]["diagnostics"] == [want.to_json()]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestExitCodeConsistency:
    """--fail-on and usage errors behave the same across every pass."""

    def test_missing_lint_target_is_usage_error(self, capsys):
        assert main(["check", "--lint", "/nonexistent/path.py"]) == 2
        err = capsys.readouterr().err
        assert "nonexistent" in err and "Traceback" not in err

    def test_missing_concurrency_target_is_usage_error(self, capsys):
        assert main(["check",
                     "--concurrency", "/nonexistent/path.py"]) == 2
        err = capsys.readouterr().err
        assert "nonexistent" in err and "Traceback" not in err

    def test_usage_error_still_renders_other_findings(
            self, clean_model, capsys):
        """A broken target in one pass must not swallow findings
        from the passes that did run."""
        code = main(["check", "--lint", "/nonexistent/path.py",
                     "--ranges", clean_model,
                     "--accmem-bits", "10"])
        captured = capsys.readouterr()
        assert code == 2  # usage error outranks the findings gate
        assert "RANGE-OVERFLOW" in captured.out

    def test_fail_on_uniform_across_combined_passes(
            self, clean_model, tmp_path):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("x = 1\n")
        argv = ["check", "--graph", clean_model,
                "--lint", str(quiet),
                "--ranges", clean_model]
        # RANGE-NARROWABLE info findings exist in the merged report:
        # gated out at the default threshold, fatal under --fail-on info
        assert main(argv) == 0
        assert main(argv + ["--fail-on", "info"]) == 1

    def test_fail_on_error_ignores_range_infos(self, clean_model):
        assert main(["check", "--ranges", clean_model,
                     "--fail-on", "error"]) == 0

    def test_nothing_to_check_mentions_ranges(self, capsys):
        main(["check"])
        assert "--ranges" in capsys.readouterr().err


class TestRep011Fixture:
    """The seeded SharedMemory-leak fixture fires in every format."""

    @pytest.fixture()
    def leaky_runtime_file(self, tmp_path):
        fixture = (Path(__file__).parent / "lint_fixtures"
                   / "seeded_shm_leak.py")
        runtime_dir = tmp_path / "runtime"
        runtime_dir.mkdir()
        target = runtime_dir / "shm_leak.py"
        target.write_text(fixture.read_text())
        return str(target)

    def test_text_format(self, leaky_runtime_file, capsys):
        assert main(["check", "--lint", leaky_runtime_file]) == 1
        out = capsys.readouterr().out
        assert "REP011" in out
        assert "close()/unlink()" in out

    def test_json_format(self, leaky_runtime_file, capsys):
        assert main(["check", "--lint", leaky_runtime_file,
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1
        diag = payload["diagnostics"][0]
        assert diag["rule"] == "REP011"
        assert diag["path"] == leaky_runtime_file

    def test_sarif_format(self, leaky_runtime_file, tmp_path):
        out_file = tmp_path / "report.sarif"
        assert main(["check", "--lint", leaky_runtime_file,
                     "--format", "sarif",
                     "--output", str(out_file)]) == 1
        run = json.loads(out_file.read_text())["runs"][0]
        results = run["results"]
        assert any(r["ruleId"] == "REP011" and r["level"] == "error"
                   for r in results)
        rule_ids = {r["id"] for r in
                    run["tool"]["driver"]["rules"]}
        assert "REP011" in rule_ids

    def test_fixture_in_place_is_exempt(self):
        """Under tests/ the fixture itself must not fail the lint."""
        fixture = (Path(__file__).parent / "lint_fixtures"
                   / "seeded_shm_leak.py")
        assert main(["check", "--lint", str(fixture)]) == 0


class TestCostPass:
    """``--cost``: standalone, combined, all three formats, --fail-on."""

    @pytest.fixture()
    def narrow_model(self, tmp_path):
        """One quant_linear whose N=4 cannot feed 4 workers."""
        graph = GraphModel(nodes=[NodeSpec(
            op="quant_linear",
            attrs={"act_scale": 0.05, "act_bits": 8, "act_signed": True,
                   "weight_bits": 8},
            tensors={"weight": np.ones((4, 256)) * 0.05},
        )])
        path = tmp_path / "narrow.json"
        graph.save(str(path))
        return str(path)

    def test_clean_model_exits_zero(self, clean_model, capsys):
        assert main(["check", "--cost", clean_model]) == 0
        assert "clean" in capsys.readouterr().out

    def test_imbalance_is_warning_gated_by_fail_on(self, narrow_model):
        assert main(["check", "--cost", narrow_model,
                     "--cost-workers", "4"]) == 0
        assert main(["check", "--cost", narrow_model,
                     "--cost-workers", "4",
                     "--fail-on", "warning"]) == 1

    def test_json_format(self, narrow_model, capsys):
        main(["check", "--cost", narrow_model, "--cost-workers", "4",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert any(d["rule"] == "COST-IMBALANCE"
                   for d in payload["diagnostics"])

    def test_sarif_format_registers_cost_rules(self, narrow_model,
                                               tmp_path):
        out_file = tmp_path / "cost.sarif"
        main(["check", "--cost", narrow_model, "--cost-workers", "4",
              "--format", "sarif", "--output", str(out_file)])
        run = json.loads(out_file.read_text())["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        rule_ids = [r["id"] for r in rules]
        for rid in ("COST-BLOCKING-INEFFICIENT", "COST-IMBALANCE"):
            assert rid in rule_ids
        # ruleIndex convention: every result resolves into the
        # driver's rule array at the id it names.
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
        assert any(r["ruleId"] == "COST-IMBALANCE"
                   and r["level"] == "warning" for r in run["results"])

    def test_combined_with_other_passes(self, clean_model, narrow_model,
                                        tmp_path, capsys):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("x = 1\n")
        assert main(["check", "--graph", clean_model,
                     "--lint", str(quiet),
                     "--ranges", clean_model,
                     "--cost", narrow_model,
                     "--cost-workers", "4",
                     "--fail-on", "warning"]) == 1
        assert "COST-IMBALANCE" in capsys.readouterr().out

    def test_missing_model_is_grf_parse(self, tmp_path, capsys):
        assert main(["check",
                     "--cost", str(tmp_path / "nope.json")]) == 1
        assert "GRF-PARSE" in capsys.readouterr().out

    def test_nothing_to_check_mentions_cost(self, capsys):
        main(["check"])
        assert "--cost" in capsys.readouterr().err


class TestRep013Fixture:
    """The seeded cycle-cost fixture fires in every format."""

    @pytest.fixture()
    def costly_file(self, tmp_path):
        fixture = (Path(__file__).parent / "lint_fixtures"
                   / "seeded_cycle_cost.py")
        target = tmp_path / "sched" / "cycle_cost.py"
        target.parent.mkdir()
        target.write_text(fixture.read_text())
        return str(target)

    def test_text_format(self, costly_file, capsys):
        assert main(["check", "--lint", costly_file]) == 1
        out = capsys.readouterr().out
        assert "REP013" in out
        assert "ISA cost table" in out

    def test_json_format(self, costly_file, capsys):
        assert main(["check", "--lint", costly_file,
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        rep013 = [d for d in payload["diagnostics"]
                  if d["rule"] == "REP013"]
        assert len(rep013) == 3
        assert all(d["path"] == costly_file for d in rep013)

    def test_sarif_format(self, costly_file, tmp_path):
        out_file = tmp_path / "report.sarif"
        assert main(["check", "--lint", costly_file,
                     "--format", "sarif",
                     "--output", str(out_file)]) == 1
        run = json.loads(out_file.read_text())["runs"][0]
        assert any(r["ruleId"] == "REP013" and r["level"] == "error"
                   for r in run["results"])
        assert "REP013" in {r["id"] for r in
                            run["tool"]["driver"]["rules"]}

    def test_noqa_respected_end_to_end(self, tmp_path):
        target = tmp_path / "pkg" / "timing.py"
        target.parent.mkdir()
        target.write_text(
            "wakeup_latency = 9  # repro: noqa REP013\n")
        assert main(["check", "--lint", str(target)]) == 0
