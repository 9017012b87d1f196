"""The detailed simulator against committed exact results.

The parity suites (``tests/perf``) compare the reference oracle with the
production walk, but both drive the same memory hierarchy, so a change
inside a cache, the ring, DRAM or a coherence/translation front moves
both sides together and goes unseen there. ``data/detailed_oracle.json``
pins the absolute outcome instead: for each run, the time breakdown and
per-phase timings as ``repr`` floats and every counter, exactly.

Coverage: the six kernels on a shared-staged trace under coherence
``none``, ``snoop`` and ``directory``; an L1-prefetch run, a warp-mode
GPU run and an MMU-staged run (as in ``test_parity.py::TestVariantModes``);
and one :class:`~repro.perf.sweep.SweepSimulator` batch over the five
case-study systems.

The data file changes only with a deliberate model change. To rewrite it
after one, run::

    PYTHONPATH=src python tests/integration/test_detailed_oracle.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.config.presets import case_study, case_study_names
from repro.kernels.registry import all_kernels, kernel
from repro.perf.sweep import SweepPoint, SweepSimulator
from repro.sim.detailed import DetailedSimulator
from repro.sim.mmu import stage_shared_trace
from repro.taxonomy import AddressSpaceKind

DATA = Path(__file__).parent / "data" / "detailed_oracle.json"

#: Tiny traces: every kernel still exercises both PUs, misses and branches.
SCALE = 0.01

KERNELS = [k.name for k in all_kernels()]
PROTOCOLS = ["none", "snoop", "directory"]


def _trace(kernel_name):
    return kernel(kernel_name).build().scaled(SCALE)


def _staged(kernel_name):
    return stage_shared_trace(_trace(kernel_name), AddressSpaceKind.UNIFIED)


def record(result):
    """An exact, JSON-safe rendering of one simulation result."""
    breakdown = result.breakdown
    return {
        "breakdown": [
            repr(breakdown.sequential),
            repr(breakdown.parallel),
            repr(breakdown.communication),
        ],
        "phases": [
            [
                phase.label,
                phase.kind,
                repr(phase.seconds),
                repr(phase.cpu_seconds),
                repr(phase.gpu_seconds),
                repr(phase.overlapped_seconds),
            ]
            for phase in result.phases
        ],
        "counters": [[key, repr(value)] for key, value in sorted(result.counters.items())],
    }


def _coherence_run(kernel_name, protocol):
    return DetailedSimulator().run(
        _staged(kernel_name), case=case_study("CPU+GPU"), coherence=protocol
    )


def _variant_run(name):
    case = case_study("CPU+GPU")
    if name == "l1-prefetch":
        return DetailedSimulator(l1_prefetch=True).run(_trace("convolution"), case=case)
    if name == "warp":
        return DetailedSimulator(gpu_mode="warp").run(_trace("reduction"), case=case)
    if name == "mmu-disjoint":
        return DetailedSimulator().run(
            _trace("merge sort"), case=case, address_space=AddressSpaceKind.DISJOINT
        )
    raise ValueError(name)


VARIANTS = ["l1-prefetch", "warp", "mmu-disjoint"]
SWEEP_KERNEL = "k-mean"


def _sweep_runs():
    points = [SweepPoint(case=case_study(name)) for name in case_study_names()]
    return SweepSimulator().run(_staged(SWEEP_KERNEL), points)


def build_oracle():
    """Every record of the data file, keyed by run name."""
    records = {}
    for kernel_name in KERNELS:
        for protocol in PROTOCOLS:
            records[f"{kernel_name}/{protocol}"] = record(
                _coherence_run(kernel_name, protocol)
            )
    for name in VARIANTS:
        records[f"variant/{name}"] = record(_variant_run(name))
    for name, result in zip(case_study_names(), _sweep_runs()):
        records[f"sweep/{SWEEP_KERNEL}/{name}"] = record(result)
    return records


@pytest.fixture(scope="module")
def oracle():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_coherence_runs_match_the_oracle(oracle, kernel_name, protocol):
    assert record(_coherence_run(kernel_name, protocol)) == oracle[
        f"{kernel_name}/{protocol}"
    ]


@pytest.mark.parametrize("name", VARIANTS)
def test_variant_runs_match_the_oracle(oracle, name):
    assert record(_variant_run(name)) == oracle[f"variant/{name}"]


def test_sweep_batch_matches_the_oracle(oracle):
    names = list(case_study_names())
    assert len(names) > 1
    for name, result in zip(names, _sweep_runs()):
        assert record(result) == oracle[f"sweep/{SWEEP_KERNEL}/{name}"]


def test_oracle_covers_every_run(oracle):
    expected = {f"{k}/{p}" for k in KERNELS for p in PROTOCOLS}
    expected |= {f"variant/{name}" for name in VARIANTS}
    expected |= {f"sweep/{SWEEP_KERNEL}/{name}" for name in case_study_names()}
    assert set(oracle) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_detailed_oracle.py --write")
    DATA.write_text(
        json.dumps(build_oracle(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
