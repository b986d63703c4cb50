"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.perf.sweep import SWEEPS, run_sweep


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.re == 0.1 and args.rt == 0.4 and args.cores == 4
        args = build_parser().parse_args(["fig3"])
        assert args.re == 0.4 and args.rt == 0.1 and args.seed == 2014


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out and "xalancbmk" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "3.375" in out and "E(p_k)" in out

    def test_ranges(self, capsys):
        assert main(["ranges"]) == 0
        out = capsys.readouterr().out
        assert "1.6 GHz" in out and "3 GHz" in out

    def test_ranges_custom_pricing(self, capsys):
        assert main(["ranges", "--re", "0.4", "--rt", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Re=0.4" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Sim" in out and "Exp" in out and "gap %" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "WBG (ref)" in out and "OLB" in out and "PS" in out
        assert "paper:" in out

    def test_batch(self, capsys):
        assert main(["batch", "10", "50", "200"]) == 0
        out = capsys.readouterr().out
        assert "job0" in out and "total cost" in out

    def test_batch_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["batch", "ten"])

    def test_gantt(self, capsys):
        assert main(["gantt", "40", "10", "90", "--cores", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "core 0 |" in out and "core 1 |" in out
        assert "tasks:" in out

    def test_frontier(self, capsys):
        assert main(["frontier", "30", "12", "50", "--points", "8"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "Energy (J)" in out

    @pytest.mark.parametrize("argv, message", [
        (["gantt", "--width", "5", "10", "20"], "width must be at least 10"),
        (["frontier", "--points", "1", "10", "20"], "need at least two sweep points"),
    ])
    def test_bad_value_is_a_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [
        ["batch", "0"],
        ["batch", "nan"],
        ["frontier", "--", "-3"],
        ["fig1", "--cores", "0"],
        ["fig2", "--cores", "0"],
        ["fig3", "--cores", "0"],
        ["batch", "--cores", "0", "10"],
        ["fig3", "--re", "nan"],
        ["fig2", "--rt", "-1"],
        ["ranges", "--re", "0"],
        ["workload", "x.jsonl", "--interactive", "-1"],
        ["workload", "x.jsonl", "--duration", "nan"],
    ])
    def test_out_of_range_value_is_a_usage_error(self, capsys, argv):
        # rejected by the parser before any command runs
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ranges", "--json", "x"],
        ["ranges", "--cores", "2"],
        ["batch", "--json", "x", "1"],
        ["gantt", "--json", "x", "1"],
    ])
    def test_unread_options_are_rejected(self, argv):
        # only the commands that read --cores / export --json accept them
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_workload_jsonl(self, capsys, tmp_path):
        out_path = str(tmp_path / "t.jsonl")
        assert main([
            "workload", "--interactive", "20", "--noninteractive", "5",
            "--duration", "30", out_path,
        ]) == 0
        from repro.workloads import load_trace_jsonl

        loaded = load_trace_jsonl(out_path)
        assert len(loaded) == 25

    def test_workload_csv(self, tmp_path):
        out_path = str(tmp_path / "t.csv")
        assert main([
            "workload", "--interactive", "5", "--noninteractive", "2",
            "--duration", "10", out_path,
        ]) == 0
        from repro.workloads import load_trace_csv

        assert len(load_trace_csv(out_path)) == 7

    def test_workload_bad_extension(self, tmp_path):
        assert main(["workload", "--interactive", "1", "--noninteractive", "1",
                     str(tmp_path / "t.txt")]) == 2

    def test_trace_prints_decision_log(self, capsys):
        assert main(["trace", "wbg", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "wbg.slot_pick" in out
        assert "ranges.build" in out
        assert "more (use --limit" in out

    def test_trace_rejects_negative_limit(self, capsys):
        # a negative slice bound would print all but the last |N| events
        with pytest.raises(SystemExit) as exc:
            main(["trace", "wbg", "--limit", "-3"])
        assert exc.value.code == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err

    def test_trace_writes_jsonl(self, capsys, tmp_path):
        out_path = str(tmp_path / "decisions.jsonl")
        assert main(["trace", "lmc", "--out", out_path]) == 0
        from repro.obs import read_trace

        events = read_trace(out_path)
        assert events
        assert any(e.kind == "lmc.interactive" for e in events)

    def test_explain_from_scenario(self, capsys):
        assert main(["explain", "perlbench/ref"]) == 0
        out = capsys.readouterr().out
        assert "batch mode" in out
        assert "Algorithm 1 dominating range" in out
        assert "Algorithm 3" in out

    def test_explain_from_trace_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "decisions.jsonl")
        assert main(["trace", "lmc", "--out", out_path]) == 0
        capsys.readouterr()
        assert main(["explain", "query0", "--trace", out_path]) == 0
        out = capsys.readouterr().out
        assert "least marginal cost" in out
        assert "Equation 27" in out

    @pytest.mark.parametrize("argv, scenario, option", [
        (["trace", "wbg", "--seed", "5"], "wbg", "seed"),
        (["trace", "dynamic", "--cores", "3"], "dynamic", "n_cores"),
        (["explain", "3", "--seed", "5"], "wbg", "seed"),
    ])
    def test_scenario_rejects_an_option_it_ignores(self, capsys, argv, scenario, option):
        # the fixed SPEC batch takes no seed and the single-queue churn no
        # core count; both used to run as if the option applied
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert f"error: trace scenario {scenario!r} does not take option(s): {option}" in out

    def test_explain_offers_no_dynamic_scenario(self, capsys):
        # the dynamic churn inserts no task payloads, so it records no
        # placement an explanation could cite; argparse rejects it
        with pytest.raises(SystemExit) as exc:
            main(["explain", "0", "--scenario", "dynamic"])
        assert exc.value.code == 2
        assert "invalid choice: 'dynamic'" in capsys.readouterr().err

    def test_scenario_ignoring_options_is_a_value_error(self):
        from repro.obs import RecordingTracer, run_traced_scenario

        with pytest.raises(ValueError, match="'wbg'.*seed"):
            run_traced_scenario("wbg", RecordingTracer(), seed=5)
        with pytest.raises(ValueError, match="'dynamic'.*n_cores"):
            run_traced_scenario("dynamic", RecordingTracer(), n_cores=3)

    def test_explain_unknown_task(self, capsys):
        assert main(["explain", "no-such-task"]) == 1
        assert "no placement decision" in capsys.readouterr().out


class TestSweepCommand:
    """``repro sweep NAME --quick`` prints a full table for every registered sweep."""

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_every_sweep_quick(self, capsys, name):
        assert main(["sweep", name, "--quick"]) == 0
        out = capsys.readouterr().out
        assert f"sweep {name} (quick)" in out
        rows = run_sweep(name, quick=True).rows
        # the header is the first-seen union of every row's columns
        for column in dict.fromkeys(h for row in rows for h in row):
            assert column in out
        assert f"{len(rows)} cells in" in out

    def test_core_count_mixes_batch_and_online_rows(self, capsys):
        assert main(["sweep", "core_count", "--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("mode"))
        assert "vs_ps_total_pct" in header
        online = [line for line in lines if line.startswith("online")]
        assert online
        # online rows carry no PS margin: their last cell is blank
        assert all(line.split("|")[-1].strip() == "" for line in online)
