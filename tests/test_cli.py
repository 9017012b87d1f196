"""Tests for the repro-explore CLI."""

import pytest

from repro.cli import main


class TestTables:
    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5])
    def test_table_commands(self, number, capsys):
        assert main(["table", str(number)]) == 0
        out = capsys.readouterr().out
        assert f"Table" in out

    def test_table5_values(self, capsys):
        main(["table", "5"])
        out = capsys.readouterr().out
        assert "410" in out


class TestFigures:
    @pytest.mark.parametrize("number", [5, 6, 7])
    def test_figure_commands(self, number, capsys):
        assert main(["figure", str(number)]) == 0
        out = capsys.readouterr().out
        assert f"Figure {number}" in out


class TestJobsFlag:
    def test_figure_with_jobs_and_stats(self, capsys):
        assert main(["figure", "5", "--jobs", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "[run]" in out and "completed" in out

    def test_rank_with_jobs_matches_serial_output(self, capsys):
        assert main(["rank", "--top", "3", "--sample", "6"]) == 0
        serial = capsys.readouterr().out
        assert main(["rank", "--top", "3", "--sample", "6", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_rejects_invalid_jobs(self, capsys):
        from repro.cli import EXIT_CONFIG_ERROR

        assert main(["rank", "--jobs", "0", "--sample", "6"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["serve", "--port", "-1"],
            ["serve", "--port", "70000"],
            ["serve", "--queue-depth", "0"],
            ["rank", "--top", "-1", "--sample", "6"],
            ["rank", "--top", "0", "--sample", "6"],
            ["rank", "--sample", "-5"],
            ["faults", "--top", "-1", "--sample", "4"],
            ["faults", "--top", "0", "--sample", "4"],
            ["faults", "--sample", "-5"],
        ],
    )
    def test_rejects_out_of_range_integers(self, args, capsys):
        """Out-of-range integer flags are configuration errors (exit 2),
        never a traceback or a silently misread value."""
        from repro.cli import EXIT_CONFIG_ERROR

        assert main(args) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["figure", "5", "--jobs", "2", "--job-timeout", "nan"],
            ["figure", "5", "--job-timeout", "nan"],
            ["figure", "5", "--jobs", "2", "--job-timeout", "inf"],
            ["serve", "--port", "0", "--deadline", "nan"],
            ["serve", "--port", "0", "--deadline", "inf"],
            ["guidelines", "--w-perf", "nan"],
            ["bench", "--scale", "nan"],
            ["bench", "--scale", "inf"],
            ["bench", "--mode", "sweep", "--sweep-scale", "nan"],
            ["bench", "--sweep-scale", "inf"],
            ["bench", "--tolerance", "nan"],
            ["bench", "--tolerance", "5"],
            ["bench", "--tolerance", "-0.1"],
            ["bench", "--min-speedup", "nan"],
            ["bench", "--min-speedup", "inf"],
            ["bench", "--min-speedup", "0"],
        ],
    )
    def test_rejects_non_finite_floats(self, args, capsys):
        """NaN and infinity pass a ``<= 0`` range check; they are
        configuration errors (exit 2) before any work starts."""
        from repro.cli import EXIT_CONFIG_ERROR

        assert main(args) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        from repro.version import __version__

        assert __version__ in out


class TestVerbosity:
    def test_quiet_suppresses_output(self, capsys):
        assert main(["-q", "table", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_verbose_still_prints_output(self, capsys):
        assert main(["-v", "table", "1"]) == 0
        assert "Table" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_figure_trace_out_is_loadable_chrome_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["figure", "5", "--trace-out", str(path)]) == 0
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert events
        for event in events:
            assert "ph" in event and "ts" in event
            assert "pid" in event and "tid" in event
        tracks = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
        assert len(tracks) >= 5
        assert f"wrote {path}" in capsys.readouterr().out

    def test_figure_metrics_out_covers_all_domains(self, tmp_path, capsys):
        import csv

        path = tmp_path / "metrics.csv"
        assert main(["figure", "5", "--metrics-out", str(path)]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["metric", "value"]
        domains = {row[0].split(".")[0] for row in rows[1:]}
        assert {"cache", "dram", "comm", "exec"} <= domains

    def test_metrics_out_json_variant(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["rank", "--sample", "6", "--metrics-out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data and all(isinstance(v, (int, float)) for v in data.values())


class TestMetricsDiff:
    def test_diff_reports_changed_metrics(self, tmp_path, capsys):
        before = tmp_path / "before.csv"
        after = tmp_path / "after.csv"
        before.write_text("metric,value\ncomm.transfers,4\ncache.hits,10\n")
        after.write_text("metric,value\ncomm.transfers,6\ncache.hits,10\n")
        assert main(["metrics-diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "comm.transfers" in out
        assert "cache.hits" not in out  # unchanged metrics elided by default

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        from repro.cli import EXIT_CONFIG_ERROR

        code = main(["metrics-diff", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err


class TestCompare:
    def test_compare_exits_zero_when_all_pass(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "checks passed" in out


class TestGuidelines:
    def test_guidelines_recommend_pas(self, capsys):
        assert main(["guidelines"]) == 0
        out = capsys.readouterr().out
        assert "recommendation: PAS" in out

    def test_weights_change_outcome(self, capsys):
        assert main(["guidelines", "--w-options", "0"]) == 0
        out = capsys.readouterr().out
        assert "recommendation: UNI" in out


class TestPartition:
    def test_partition_table(self, capsys):
        assert main(["partition"]) == 0
        out = capsys.readouterr().out
        assert "optimal split" in out
        assert "reduction" in out


class TestLitmus:
    def test_litmus_verdicts(self, capsys):
        assert main(["litmus"]) == 0
        out = capsys.readouterr().out
        assert "SB" in out
        assert "forbidden" in out and "allowed" in out


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", str(out)]) == 0
        text = out.read_text()
        assert "30/30 passed" in text
        assert "Table V" in text
        assert "Figure 7" in text

    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out


class TestCodegen:
    def test_codegen_writes_24_sources(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["codegen", str(out)]) == 0
        files = list(out.glob("*.c"))
        assert len(files) == 24  # 6 kernels x 4 address spaces
        pas = (out / "reduction.pas.c").read_text()
        assert "releaseOwnership" in pas
        dis = (out / "reduction.dis.c").read_text()
        assert "MemcpyHosttoDevice" in dis


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--json"],
            ["check", "--sarif"],
            ["check", "--metrics-out"],
            ["figure", "5", "--trace-out"],
            ["export"],
        ],
        ids=["check-json", "check-sarif", "check-metrics-out", "figure-trace-out", "export"],
    )
    def test_unwritable_path_is_config_error(self, argv, tmp_path, capsys):
        from repro.cli import EXIT_CONFIG_ERROR

        target = tmp_path / "missing-dir" / "x"
        assert main(argv + [str(target)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == f"repro-explore: cannot write {target}: No such file or directory\n"


class TestExport:
    def test_export_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "results.json"
        assert main(["export", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["table3"]["reduction"]["cpu_instructions"] == 70006


class TestRank:
    def test_rank_prints_table(self, capsys):
        assert main(["rank", "--top", "3", "--sample", "6"]) == 0
        out = capsys.readouterr().out
        assert "design point" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    def test_bad_table_number(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])


class TestFaultFlags:
    def test_malformed_faults_spec_is_config_error(self, capsys):
        from repro.cli import EXIT_CONFIG_ERROR

        code = main(["rank", "--sample", "6", "--faults", "warp:explode=9"])
        assert code == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_faulty_rank_is_reproducible_and_exits_zero(self, capsys):
        args = ["rank", "--sample", "6", "--faults", "seed=3;pcie:fail=0.2", "--retries", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_faults_change_the_timings(self, capsys):
        assert main(["rank", "--sample", "6"]) == 0
        clean = capsys.readouterr().out
        assert main(["rank", "--sample", "6", "--faults", "*:degrade=0.5,factor=4"]) == 0
        assert capsys.readouterr().out != clean

    def test_fault_metrics_are_exported(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        assert (
            main(
                [
                    "rank",
                    "--sample", "6",
                    "--faults", "*:degrade=0.5,factor=4",
                    "--retries", "3",
                    "--metrics-out", str(path),
                ]
            )
            == 0
        )
        text = path.read_text()
        assert "faults.degraded_transfers" in text
        assert "exec.retry.attempts" in text

    def test_faults_subcommand_ranks_fragility(self, capsys):
        assert main(["faults", "--sample", "4", "--top", "4", "--rates", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Fault sensitivity" in out
        assert "@0.1" in out

    def test_bad_rates_is_config_error(self, capsys):
        from repro.cli import EXIT_CONFIG_ERROR

        assert main(["faults", "--rates", "lots"]) == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("rates", ["-0.5", "0.1,1.5"])
    def test_rate_outside_unit_interval_is_config_error(self, rates, capsys):
        from repro.cli import EXIT_CONFIG_ERROR

        code = main(["faults", "--sample", "4", "--rates", rates])
        assert code == EXIT_CONFIG_ERROR
        assert "fault rates must be in [0, 1]" in capsys.readouterr().err


class TestCheckpointFlag:
    def test_kill_and_resume_reproduces_the_uninterrupted_output(
        self, tmp_path, capsys
    ):
        path = tmp_path / "sweep.store"
        args = ["rank", "--sample", "6", "--checkpoint", str(path)]
        assert main(args) == 0
        full = capsys.readouterr().out
        # Simulate a mid-sweep kill: keep only the first two journal
        # commits, so reopening drops every later record.
        journal = path / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        assert len(lines) > 2
        journal.write_bytes(b"".join(lines[:2]))
        assert main(args) == 0
        assert capsys.readouterr().out == full

    def test_checkpointed_output_matches_plain(self, tmp_path, capsys):
        assert main(["rank", "--sample", "6"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["rank", "--sample", "6", "--checkpoint", str(tmp_path / "cp.store")]
        ) == 0
        assert capsys.readouterr().out == plain


class TestInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli as cli_mod

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_cmd_compare", interrupted)
        assert main(["compare"]) == cli_mod.EXIT_INTERRUPTED == 130
        assert "interrupted" in capsys.readouterr().err


class TestCoherenceSurfaces:
    def test_figure_coherence_dispatches(self, capsys, monkeypatch):
        # The full coherence figure is an 18 s detailed sweep (covered by
        # tests/analysis); here we only pin the CLI wiring.
        from repro.analysis import figures

        monkeypatch.setattr(
            figures, "coherence_text", lambda explorer: "coherence-figure-stub"
        )
        assert main(["figure", "coherence"]) == 0
        assert "coherence-figure-stub" in capsys.readouterr().out

    def test_bench_mode_coherence(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--mode",
                "coherence",
                "--scale",
                "0.002",
                "--kernel",
                "reduction",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Coherence protocol overhead" in text
        import json

        doc = json.loads(out.read_text())
        assert set(doc["coherence"]["kernels"]) == {"reduction"}
        protocols = doc["coherence"]["kernels"]["reduction"]["protocols"]
        assert set(protocols) == {"snoop", "directory"}
        for cell in protocols.values():
            assert cell["slowdown"] > 0


class TestStoreSurfaces:
    def test_rank_with_store_matches_storeless_output(self, tmp_path, capsys):
        assert main(["rank", "--top", "3", "--sample", "6"]) == 0
        plain = capsys.readouterr().out
        store = str(tmp_path / "store")
        assert main(["rank", "--top", "3", "--sample", "6", "--store", store]) == 0
        cold = capsys.readouterr().out
        assert cold == plain
        # Warm rerun against the same store: byte-identical again.
        assert main(["rank", "--top", "3", "--sample", "6", "--store", store]) == 0
        assert capsys.readouterr().out == plain

    def test_store_stat_verify_gc_export(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["rank", "--top", "3", "--sample", "6", "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "stat", store]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["store", "verify", store]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["store", "gc", store]) == 0
        assert "kept" in capsys.readouterr().out
        out = str(tmp_path / "export.jsonl")
        assert main(["store", "export", store, out]) == 0
        capsys.readouterr()
        import os

        assert os.path.getsize(out) > 0

    def test_store_verify_exits_5_on_corruption(self, tmp_path, capsys):
        from repro.cli import EXIT_STORE_ERROR
        from repro.store.store import ResultStore

        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put_bytes("result/aa", b"payload-a")
        # Same-length corruption inside the committed region.
        segment = root / "segments" / "seg-000001.jsonl"
        raw = bytearray(segment.read_bytes())
        probe = raw.index(b'"p": "') + len(b'"p": "')
        raw[probe] = ord("A") if raw[probe] != ord("A") else ord("B")
        segment.write_bytes(bytes(raw))
        assert main(["store", "verify", str(root)]) == EXIT_STORE_ERROR
        assert "CORRUPT" in capsys.readouterr().out

    def test_store_export_requires_out_path(self, tmp_path, capsys):
        from repro.cli import EXIT_CONFIG_ERROR
        from repro.store.store import ResultStore

        store = str(tmp_path / "store")
        ResultStore(store).close()
        assert main(["store", "export", store]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("action", ["stat", "verify", "gc", "export"])
    def test_store_commands_refuse_a_missing_store(self, action, tmp_path, capsys):
        """Maintenance commands inspect a store; they never create one."""
        from repro.cli import EXIT_STORE_ERROR

        root = tmp_path / "nowhere"
        args = ["store", action, str(root)]
        if action == "export":
            args.append(str(tmp_path / "export.jsonl"))
        assert main(args) == EXIT_STORE_ERROR
        assert "not a result store" in capsys.readouterr().err
        assert not root.exists()
        assert not (tmp_path / "export.jsonl").exists()

    def test_store_commands_refuse_a_directory_without_meta(self, tmp_path, capsys):
        from repro.cli import EXIT_STORE_ERROR

        root = tmp_path / "empty"
        root.mkdir()
        assert main(["store", "verify", str(root)]) == EXIT_STORE_ERROR
        assert list(root.iterdir()) == []


class TestChaosSurfaces:
    def test_chaos_list(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "store-torn-write" in out
        assert "serve-deadline" in out

    def test_chaos_store_scenarios_pass(self, capsys):
        code = main(
            [
                "chaos",
                "--scenario",
                "store-torn-write",
                "--scenario",
                "store-corrupt-entry",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 scenarios passed" in out

    def test_chaos_unknown_scenario_exits_5(self, capsys):
        from repro.cli import EXIT_STORE_ERROR

        assert main(["chaos", "--scenario", "nope"]) == EXIT_STORE_ERROR
        assert "integrity error" in capsys.readouterr().err


class TestServeSignals:
    def test_sigint_stops_a_server_started_with_sigint_ignored(self, tmp_path):
        """A background job of a non-interactive shell starts with SIGINT
        ignored; ``serve`` must still stop on it, leaving a sound store."""
        import os
        import re
        import signal
        import subprocess
        import sys
        import time

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [
                os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
                env.get("PYTHONPATH", ""),
            ]
        )
        store = tmp_path / "D"
        log_path = tmp_path / "serve.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--store", str(store)],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
            )
        try:
            deadline = time.monotonic() + 60.0
            while "serving on" not in log_path.read_text():
                assert proc.poll() is None, log_path.read_text()
                assert time.monotonic() < deadline, "server never started"
                time.sleep(0.02)
            # The line perfbench parses stays as it was.
            assert re.search(
                r"^serving on http://[0-9.]+:\d+ \(Ctrl-C to stop\)$",
                log_path.read_text(),
                re.MULTILINE,
            )
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 130
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert main(["store", "verify", str(store)]) == 0
