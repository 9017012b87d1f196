"""Tests for store-backed sweep checkpointing and explorer-level resume.

A rank with a durable :class:`~repro.store.ResultStore` commits one
``sweep`` record per completed timing-key group, keyed by the sweep
signature and the group's timing key. These tests pin the checkpoint
contract on top of that: the signature, the records a sweep leaves
behind, recovery of a torn store, and that a killed-and-resumed sweep
ranks exactly like an uninterrupted one.
"""

from pathlib import Path

from repro.core.explorer import SWEEP_KIND, Explorer
from repro.core.space import DesignSpace
from repro.exec.cache import ResultCache, TraceCache
from repro.exec.sweepjob import timing_key
from repro.kernels.registry import all_kernels
from repro.store import ResultStore

#: Six points in six timing-key groups, so a sweep commits several records.
POINTS = DesignSpace().feasible_points()[::300][:6]
KERNELS = all_kernels()[:2]


def _flat(evaluations):
    return [
        (
            e.point.label,
            e.mean_seconds,
            e.mean_comm_fraction,
            e.comm_lines_total,
            e.locality_options,
        )
        for e in evaluations
    ]


def _explorer(store=None):
    if store is not None:
        # The store also backs the result memo, as under ``rank --store``.
        return Explorer(trace_cache=TraceCache(), store=store)
    return Explorer(trace_cache=TraceCache(), result_cache=ResultCache())


def _rank(root, points=POINTS, kernels=KERNELS):
    """Rank ``points`` against a store at ``root``; (evaluations, explorer)."""
    with ResultStore(root) as store:
        explorer = _explorer(store)
        return explorer.rank_design_points(points, kernels), explorer


def _signature(points=POINTS, kernels=KERNELS):
    explorer = _explorer()
    traces = [explorer.trace_cache.get(kernel) for kernel in kernels]
    return explorer._sweep_signature(points, traces)


def _groups(root, points=POINTS, kernels=KERNELS):
    """The stored rows of every timing-key group of the sweep (None = absent)."""
    signature = _signature(points, kernels)
    with ResultStore(root) as store:
        return {
            key: store.get_object((signature, key), kind=SWEEP_KIND)
            for key in dict.fromkeys(timing_key(p) for p in points)
        }


def _keep_commits(root, count):
    """Simulate a kill: keep only the first ``count`` journal commits."""
    journal = Path(root) / "journal.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) > count
    journal.write_bytes(b"".join(lines[:count]))
    return len(lines)


class TestSignature:
    def test_order_insensitive_within_a_part(self):
        assert _signature(POINTS[::-1]) == _signature(POINTS)

    def test_content_sensitive(self):
        assert _signature(POINTS[:5]) != _signature(POINTS)
        assert _signature(kernels=KERNELS[:1]) != _signature()


class TestStore:
    def test_round_trip(self, tmp_path):
        evaluations, _ = _rank(tmp_path / "cp")
        stored = {}
        for rows in _groups(tmp_path / "cp").values():
            assert rows is not None
            stored.update({label: (s, c) for label, s, c in rows})
        assert stored == {
            e.point.label: (e.mean_seconds, e.mean_comm_fraction) for e in evaluations
        }

    def test_missing_file_loads_empty(self, tmp_path):
        assert set(_groups(tmp_path / "absent").values()) == {None}
        _, fresh = _rank(tmp_path / "absent")
        plain = _explorer()
        plain.rank_design_points(POINTS, KERNELS)
        assert fresh.run_stats.cache_misses == plain.run_stats.cache_misses > 0

    def test_resume_truncates_the_torn_tail(self, tmp_path):
        root = tmp_path / "cp"
        full, _ = _rank(root)
        (segment,) = sorted((root / "segments").glob("seg-*.jsonl"))
        committed = segment.stat().st_size
        # A crash mid-append: half a record past the last commit, and a
        # torn journal line describing it.
        with open(segment, "ab") as handle:
            handle.write(b'{"k": "sweep/torn", "s": "')
        with open(root / "journal.jsonl", "ab") as handle:
            handle.write(b'{"segment": "seg-')
        resumed, explorer = _rank(root)
        assert _flat(resumed) == _flat(full)
        assert explorer.run_stats.cache_misses == 0
        assert segment.stat().st_size == committed

    def test_signature_mismatch_starts_fresh(self, tmp_path):
        root = tmp_path / "cp"
        _rank(root, kernels=KERNELS[:1])
        # Same points, another kernel set: a different sweep signature, so
        # none of the first sweep's group records is taken.
        assert set(_groups(root).values()) == {None}
        resumed, explorer = _rank(root)
        assert explorer.run_stats.cache_misses > 0
        assert _flat(resumed) == _flat(_explorer().rank_design_points(POINTS, KERNELS))

    def test_truncated_trailing_entry_keeps_the_rest(self, tmp_path):
        root = tmp_path / "cp"
        full, _ = _rank(root)
        with ResultStore(root) as store:
            entries = len(store)
        # Drop the last commit and cut its record short in the segment.
        total = _keep_commits(root, entries - 1)
        assert total == entries
        (segment,) = sorted((root / "segments").glob("seg-*.jsonl"))
        raw = segment.read_bytes()
        segment.write_bytes(raw[: raw.rstrip(b"\n").rfind(b"\n") + 1 + 10])
        with ResultStore(root) as store:
            assert len(store) == entries - 1
        resumed, _ = _rank(root)
        assert _flat(resumed) == _flat(full)

    def test_unterminated_trailing_entry_is_torn(self, tmp_path):
        root = tmp_path / "cp"
        full, _ = _rank(root)
        with ResultStore(root) as store:
            entries = len(store)
        # No journal to consult and a final record missing its newline:
        # the clean prefix ends before it.
        (root / "journal.jsonl").unlink()
        (segment,) = sorted((root / "segments").glob("seg-*.jsonl"))
        segment.write_bytes(segment.read_bytes().rstrip(b"\n"))
        with ResultStore(root) as store:
            assert len(store) == entries - 1
        resumed, _ = _rank(root)
        assert _flat(resumed) == _flat(full)


class TestExplorerResume:
    """The acceptance check: killed-and-resumed sweep == uninterrupted sweep."""

    def test_checkpointed_matches_plain(self, tmp_path):
        plain = _explorer().rank_design_points(POINTS, KERNELS)
        checkpointed, _ = _rank(tmp_path / "cp")
        assert _flat(checkpointed) == _flat(plain)

    def test_resume_after_a_kill_is_identical(self, tmp_path):
        root = tmp_path / "cp"
        full, _ = _rank(root)
        _keep_commits(root, 3)
        assert None in _groups(root).values()
        resumed, explorer = _rank(root)
        assert _flat(resumed) == _flat(full)
        assert explorer.run_stats.cache_misses > 0
        # The resumed run completed the store.
        assert None not in _groups(root).values()

    def test_relabel_on_hit_lands_with_its_own_label(self, tmp_path):
        # Points equal on every timing axis (only the label-bearing axes
        # differ) share one simulation; the group record must hold each
        # *point's* label, and a resume loading it must stay identical to
        # a fresh run.
        all_points = DesignSpace().feasible_points()
        first = all_points[0]
        twins = [
            p
            for p in all_points
            if (p.address_space, p.comm) == (first.address_space, first.comm)
        ][:4]
        assert len(twins) >= 2  # same timing key, distinct labels
        kernels = KERNELS[:1]
        root = tmp_path / "cp"
        full, _ = _rank(root, twins, kernels)
        (rows,) = _groups(root, twins, kernels).values()
        assert [row[0] for row in rows] == [p.label for p in twins]
        # Kill after the simulation committed but before the group record.
        _keep_commits(root, 1)
        resumed, _ = _rank(root, twins, kernels)
        assert _flat(resumed) == _flat(full)
        plain = _explorer().rank_design_points(twins, kernels)
        assert _flat(resumed) == _flat(plain)

    def test_changed_sweep_is_not_mixed_in(self, tmp_path):
        root = tmp_path / "cp"
        _rank(root)
        points = POINTS[:3]  # different point set
        evaluations, explorer = _rank(root, points)
        assert len(evaluations) == 3
        assert explorer.run_stats.cache_misses > 0
        assert _flat(evaluations) == _flat(
            _explorer().rank_design_points(points, KERNELS)
        )
        # Both sweeps' records are in the store, each under its own signature.
        assert None not in _groups(root).values()
        assert None not in _groups(root, points).values()
