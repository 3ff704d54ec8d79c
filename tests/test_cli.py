"""CLI tests (``python -m repro ...``)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("info", "gemm", "figure6", "figure7", "table",
                        "network", "explore", "report", "faultsim"):
            # parse_args should accept each command's minimal invocation.
            if command == "table":
                args = parser.parse_args([command, "1"])
            elif command in ("network", "explore"):
                args = parser.parse_args([command, "resnet18"])
            elif command == "report":
                args = parser.parse_args([command, "--output", "x.md"])
            else:
                args = parser.parse_args([command])
            assert callable(args.func)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Mix-GEMM" in out
        assert "a2-w2" in out

    def test_gemm_exact(self, capsys):
        assert main(["gemm", "-m", "4", "-k", "40", "-n", "4",
                     "--abits", "4", "--wbits", "4"]) == 0
        out = capsys.readouterr().out
        assert "exact=True" in out
        assert "MAC/cycle" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "mc=256" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "Src Buffers" in capsys.readouterr().out

    def test_network_ladder(self, capsys):
        assert main(["network", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "a8-w8" in out
        assert "GOPS/W" in out

    def test_explore(self, capsys):
        assert main(["explore", "mobilenet_v1", "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "mixed:" in out
        assert "uniform:" in out

    def test_report(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["report", "--output", str(path)]) == 0
        text = path.read_text()
        assert "Figure 6" in text
        assert "Table III" in text
        assert "Extensions" in text

    def test_unknown_network_raises(self):
        with pytest.raises(KeyError):
            main(["network", "lenet"])


class TestFaultsim:
    def test_campaign_passes_at_full_guards(self, capsys):
        assert main(["faultsim", "--trials", "8", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "guard_level=off" in out
        assert "guard_level=full" in out
        assert "PASS" in out

    def test_unknown_site_rejected(self, capsys):
        assert main(["faultsim", "--sites", "tlb"]) == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_guard_level_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faultsim", "--guard-level", "off"])


class TestRun:
    def test_run_is_served_from_the_plan(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "compiled plan: 4 steps" in out
        assert "cost model:" in out
        layers = [line for line in out.splitlines() if "cycles=" in line
                  and "macs=" in line]
        assert len(layers) == 3
        for line in layers:
            cycles = line.split("cycles=")[1].split()[0]
            assert line.endswith(f"predicted={cycles}")

    def test_guarded_run_prints_fused_plan(self, capsys):
        assert main(["run"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "--guard-level", "light"]) == 0
        out = capsys.readouterr().out
        assert "compiled plan: 4 steps" in out
        assert "2 activations fused" in out
        assert "; guarded at light)" in out
        assert "unfused" not in out
        assert "predicted=" not in out

        def pick(text, prefix):
            return [line for line in text.splitlines()
                    if line.startswith(prefix)]

        for prefix in ("cycles:", "output shape:"):
            assert pick(out, prefix) == pick(plain, prefix)

    @pytest.mark.parametrize("argv", [["run", "--compiled"],
                                      ["serve", "--uncompiled"]])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
