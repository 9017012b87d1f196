"""The bench document logic: section-gated comparison and formatting.

Pure-dict tests — the timing harnesses themselves are exercised by
``benchmarks/bench_hotpath.py`` and the CI perf-smoke job; here we pin the
mode-awareness rules: a partial (``--mode sweep`` / ``--mode hotpath``)
run is judged only against the sections it measured.
"""

from repro.perf.bench import SCHEMA, compare_to_baseline, format_bench


def hotpath_doc(speedup=4.0):
    return {
        "schema": SCHEMA,
        "scale": 0.05,
        "fidelities": {
            "serial": {
                "kernels": {
                    "reduction": {
                        "legacy_seconds": speedup,
                        "compiled_seconds": 1.0,
                        "speedup": speedup,
                    }
                },
                "geomean_speedup": speedup,
            }
        },
    }


def sweep_doc(speedup=20.0):
    return {
        "schema": SCHEMA,
        "sweep": {
            "scale": 0.01,
            "repeats": 1,
            "stride": 3,
            "points": 486,
            "distinct": 22,
            "kernels": {
                "reduction": {
                    "single_seconds": speedup,
                    "batched_seconds": 1.0,
                    "speedup": speedup,
                }
            },
            "geomean_speedup": speedup,
        },
    }


def full_doc(hotpath_speedup=4.0, sweep_speedup=20.0):
    doc = hotpath_doc(hotpath_speedup)
    doc["sweep"] = sweep_doc(sweep_speedup)["sweep"]
    return doc


class TestCompareSections:
    def test_identical_docs_have_no_regressions(self):
        assert compare_to_baseline(full_doc(), full_doc()) == []

    def test_sweep_regression_detected(self):
        problems = compare_to_baseline(full_doc(sweep_speedup=2.0), full_doc())
        assert any(p.startswith("sweep/reduction") for p in problems)

    def test_hotpath_regression_detected(self):
        problems = compare_to_baseline(full_doc(hotpath_speedup=1.0), full_doc())
        assert any(p.startswith("serial/reduction") for p in problems)

    def test_within_tolerance_passes(self):
        current = full_doc(hotpath_speedup=2.5, sweep_speedup=11.0)
        assert compare_to_baseline(current, full_doc(), tolerance=0.5) == []

    def test_sweep_only_run_skips_hotpath_sections(self):
        # --mode sweep against a full baseline: the missing fidelities are
        # deliberate, not a regression.
        assert compare_to_baseline(sweep_doc(), full_doc()) == []

    def test_hotpath_only_run_skips_sweep_section(self):
        assert compare_to_baseline(hotpath_doc(), full_doc()) == []

    def test_sweep_kernel_missing_from_current_flagged(self):
        current = sweep_doc()
        current["sweep"]["kernels"] = {}
        problems = compare_to_baseline(current, full_doc())
        assert problems == ["sweep/reduction: missing from current run"]

    def test_legacy_baseline_without_sweep_still_works(self):
        # Committed baselines predating the sweep section compare cleanly.
        assert compare_to_baseline(full_doc(), hotpath_doc()) == []


class TestFormat:
    def test_full_doc_renders_both_tables(self):
        text = format_bench(full_doc())
        assert "DetailedSimulator hot path" in text
        assert "Batched design-point sweep" in text
        assert "486 points (22 timing-distinct)" in text

    def test_sweep_only_doc_renders(self):
        text = format_bench(sweep_doc())
        assert "Batched design-point sweep" in text
        assert "DetailedSimulator hot path" not in text


def coherence_doc(slowdown=1.2):
    return {
        "schema": SCHEMA,
        "coherence": {
            "scale": 0.05,
            "repeats": 1,
            "case": "CPU+GPU",
            "kernels": {
                "reduction": {
                    "off_seconds": 1.0,
                    "protocols": {
                        "snoop": {
                            "seconds": slowdown,
                            "slowdown": slowdown,
                            "invalidations": 42.0,
                        },
                        "directory": {
                            "seconds": 1.1,
                            "slowdown": 1.1,
                            "invalidations": 42.0,
                        },
                    },
                }
            },
            "geomean_slowdown": {"snoop": slowdown, "directory": 1.1},
        },
    }


class TestCoherenceSection:
    def test_identical_docs_have_no_regressions(self):
        assert compare_to_baseline(coherence_doc(), coherence_doc()) == []

    def test_slowdown_growth_is_a_regression(self):
        # The coherence section judges *slowdown* (higher is worse), the
        # mirror of the speedup sections.
        problems = compare_to_baseline(
            coherence_doc(slowdown=2.0), coherence_doc(slowdown=1.2)
        )
        assert any(p.startswith("coherence/reduction/snoop") for p in problems)

    def test_slowdown_within_tolerance_passes(self):
        problems = compare_to_baseline(
            coherence_doc(slowdown=1.5), coherence_doc(slowdown=1.2), tolerance=0.5
        )
        assert problems == []

    def test_coherence_only_run_skips_other_sections(self):
        assert compare_to_baseline(coherence_doc(), full_doc()) == []
        assert compare_to_baseline(full_doc(), coherence_doc()) == []

    def test_missing_kernel_flagged(self):
        current = coherence_doc()
        current["coherence"]["kernels"] = {}
        problems = compare_to_baseline(current, coherence_doc())
        assert problems == ["coherence/reduction: missing from current run"]

    def test_format_renders_the_protocol_table(self):
        text = format_bench(coherence_doc())
        assert "Coherence protocol overhead" in text
        assert "snoop x" in text and "directory x" in text
        assert "1.20x" in text

    def test_full_doc_with_coherence_renders_all_tables(self):
        doc = full_doc()
        doc["coherence"] = coherence_doc()["coherence"]
        text = format_bench(doc)
        assert "DetailedSimulator hot path" in text
        assert "Coherence protocol overhead" in text
        assert "Batched design-point sweep" in text
