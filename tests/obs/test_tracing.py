"""Tests for the results-built tracer and its Chrome trace_event export."""

import json

from repro.core.explorer import Explorer
from repro.obs.tracing import Tracer, trace_from_results


class TestTracer:
    def test_tracks_get_stable_ids_and_metadata(self):
        t = Tracer()
        pid1, tid1 = t.track("proc", "cpu-core")
        pid2, tid2 = t.track("proc", "gpu-core")
        assert pid1 == pid2
        assert tid1 != tid2
        assert t.track("proc", "cpu-core") == (pid1, tid1)
        meta = [e for e in t.events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"proc", "cpu-core", "gpu-core"} <= names

    def test_chrome_json_round_trip(self):
        t = Tracer()
        t.complete("proc", "cpu-core", "work", 0.0, 10.0, args={"n": 1})
        t.counter("proc", "l3", "l3", 10.0, {"hits": 3.0})
        data = json.loads(t.to_json())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert "ph" in event
            assert "ts" in event
            assert "pid" in event
            assert "tid" in event
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C"} <= phases

    def test_write_produces_loadable_file(self, tmp_path):
        t = Tracer()
        t.complete("proc", "cpu-core", "work", 0.0, 10.0)
        path = tmp_path / "trace.json"
        t.write(str(path))
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) >= 1


class TestTraceFromResults:
    def test_synthesized_trace_covers_all_runs_and_domains(self):
        explorer = Explorer()
        explorer.run_case_studies()
        tracer = trace_from_results(
            explorer.last_results, run_stats=explorer.run_stats
        )
        # One process per (kernel, system) run plus the exploration runtime.
        data = json.loads(tracer.to_json())
        process_names = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(process_names) == len(explorer.last_results) + 1
        assert "exploration-runtime" in process_names
        assert tracer.track_count >= 5

    def test_span_durations_match_result_phases(self):
        explorer = Explorer()
        results = explorer.run_case_studies()
        result = next(iter(next(iter(results.values())).values()))
        tracer = trace_from_results([result])
        spans = [e for e in tracer.events if e["ph"] == "X"]
        total_us = sum(
            p.seconds * 1e6 for p in result.phases if p.kind != "parallel"
        ) + sum(
            max(p.cpu_seconds, p.gpu_seconds) * 1e6
            for p in result.phases
            if p.kind == "parallel"
        )
        import pytest

        last_end = max(e["ts"] + e["dur"] for e in spans)
        assert last_end == pytest.approx(total_us, rel=1e-9)
