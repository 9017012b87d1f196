"""The static checker against committed exact reports.

Only the 14 seeded fixtures pinned exact findings before this file
(``golden/fixture_reports.json``). ``data/check_oracle.json`` pins many
more: for each report, its sorted ``(rule, phase_index, segment,
confirmed)`` tuples and a SHA-256 of its full ``as_dict()`` JSON, so a
changed message, label or fix hint shows up as a digest mismatch.

Coverage: 60 seeded random traces built from ``Segment``,
``ParallelPhase``, ``CommPhase`` and ``SequentialPhase`` (as
:mod:`repro.check.fixtures` builds them) under eight configurations,
each with optimize off and on; the fixtures under their own
configuration, both modes; and the six paper kernels under the same
eight configurations, both modes. Every rule id fires somewhere.

The data file changes only with a deliberate change to what the checker
reports. To rewrite it after one, run::

    PYTHONPATH=src python tests/check/test_check_oracle.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.check import CheckConfig, check_trace
from repro.check.fixtures import all_fixtures
from repro.check.rules import rule_ids
from repro.kernels.registry import all_kernels
from repro.taxonomy import (
    AddressSpaceKind,
    CoherenceKind,
    ConsistencyModel,
    LocalityScheme,
    ProcessingUnit,
)
from repro.trace.mix import InstructionMix
from repro.trace.phase import CommPhase, Direction, ParallelPhase, Segment, SequentialPhase
from repro.trace.stream import KernelTrace

DATA = Path(__file__).parent / "data" / "check_oracle.json"

SEEDS = range(60)
_BASE = 0x1000_0000
_KB = 1024

CONFIGS = (
    CheckConfig(
        address_space=AddressSpaceKind.UNIFIED,
        coherence=CoherenceKind.HARDWARE_DIRECTORY,
        consistency=ConsistencyModel.WEAK,
        name="UNI/weak",
    ),
    CheckConfig(
        address_space=AddressSpaceKind.UNIFIED,
        coherence=CoherenceKind.HARDWARE_DIRECTORY,
        consistency=ConsistencyModel.STRONG,
        name="UNI/strong",
    ),
    CheckConfig(
        address_space=AddressSpaceKind.PARTIALLY_SHARED,
        coherence=CoherenceKind.OWNERSHIP,
        consistency=ConsistencyModel.WEAK,
        name="PAS/ownership",
    ),
    CheckConfig(
        address_space=AddressSpaceKind.PARTIALLY_SHARED,
        coherence=CoherenceKind.OWNERSHIP,
        consistency=ConsistencyModel.WEAK,
        locality=LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED,
        name="PAS/expl-shared",
    ),
    CheckConfig(
        address_space=AddressSpaceKind.DISJOINT,
        coherence=CoherenceKind.NONE,
        consistency=ConsistencyModel.WEAK,
        name="DIS/pci-e",
    ),
    CheckConfig.from_space(AddressSpaceKind.ADSM),
    CheckConfig(
        address_space=AddressSpaceKind.UNIFIED,
        coherence=CoherenceKind.HARDWARE_SNOOP,
        consistency=ConsistencyModel.WEAK,
        name="UNI/snoop+decls",
        declared_writes=((_BASE, _BASE + 4 * _KB), (_BASE + 8 * _KB, _BASE + 12 * _KB)),
    ),
    CheckConfig(
        address_space=AddressSpaceKind.UNIFIED,
        coherence=CoherenceKind.HARDWARE_SNOOP,
        consistency=ConsistencyModel.WEAK,
        name="UNI/snoop+reduce",
        declared_writes=(),
        # Both bounds fall strictly inside segment spans of the generator.
        reduce_ranges=((_BASE + 512, _BASE + 6 * _KB + 512),),
    ),
)


def _segment(rng, pu, name):
    loads = rng.choice((0, 0, 4, 8))
    stores = rng.choice((0, 0, 4, 8))
    if pu is ProcessingUnit.GPU:
        mix = InstructionMix(simd_loads=loads, simd_stores=stores, int_alu=8)
    else:
        mix = InstructionMix(loads=loads, stores=stores, int_alu=8)
    if loads or stores:
        footprint = rng.choice((1, 2, 4, 8)) * _KB
    else:
        footprint = rng.choice((0, 4 * _KB))
    return Segment(
        pu=pu,
        mix=mix,
        base_addr=_BASE + rng.randrange(8) * _KB,
        footprint_bytes=footprint,
        label=rng.choice((name, name, "")),
    )


def random_trace(seed):
    """A small well-formed trace: CPU-only sequential phases, and at
    least one comm phase whenever a parallel phase occurs."""
    rng = random.Random(seed)
    phases = []
    for i in range(rng.randint(1, 7)):
        kind = rng.choice(("parallel", "parallel", "comm", "comm", "sequential"))
        if kind == "parallel":
            phases.append(
                ParallelPhase(
                    label=f"par{i}",
                    cpu=_segment(rng, ProcessingUnit.CPU, f"cpu{i}"),
                    gpu=_segment(rng, ProcessingUnit.GPU, f"gpu{i}"),
                )
            )
        elif kind == "comm":
            phases.append(
                CommPhase(
                    label=f"comm{i}",
                    direction=rng.choice((Direction.H2D, Direction.D2H)),
                    num_bytes=rng.choice((0, 1, 4)) * _KB,
                    num_objects=rng.randint(1, 3),
                )
            )
        else:
            phases.append(
                SequentialPhase(
                    label=f"seq{i}",
                    segment=_segment(rng, ProcessingUnit.CPU, f"host{i}"),
                )
            )
    has_parallel = any(isinstance(p, ParallelPhase) for p in phases)
    if has_parallel and not any(isinstance(p, CommPhase) for p in phases):
        phases.insert(
            rng.randrange(len(phases) + 1),
            CommPhase(label="fixup", direction=Direction.H2D, num_bytes=4 * _KB),
        )
    return KernelTrace(name=f"random-{seed:02d}", phases=tuple(phases))


def _cases():
    """Every (key, trace, config, optimize) the oracle pins."""
    for seed in SEEDS:
        trace = random_trace(seed)
        for config in CONFIGS:
            for optimize in (False, True):
                yield f"{trace.name}/{config.label}/{int(optimize)}", trace, config, optimize
    for fixture in all_fixtures():
        for optimize in (False, True):
            yield f"fixture/{fixture.name}/{int(optimize)}", fixture.trace, fixture.config, optimize
    for k in all_kernels():
        trace = k.trace()
        for config in CONFIGS:
            for optimize in (False, True):
                yield f"kernel/{k.name}/{config.label}/{int(optimize)}", trace, config, optimize


def record(report):
    """The sorted finding tuples plus a digest of the full JSON form."""
    full = json.dumps(report.as_dict(), sort_keys=True)
    return {
        "findings": sorted(
            [f.rule, f.phase_index, f.segment, f.confirmed] for f in report.findings
        ),
        "sha256": hashlib.sha256(full.encode("utf-8")).hexdigest(),
    }


def build_oracle():
    return {
        key: record(check_trace(trace, config, optimize=optimize))
        for key, trace, config, optimize in _cases()
    }


@pytest.fixture(scope="module")
def oracle():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def produced():
    return build_oracle()


def test_oracle_covers_every_case(oracle, produced):
    assert set(produced) == set(oracle)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_traces_match_the_oracle(oracle, produced, seed):
    prefix = f"random-{seed:02d}/"
    keys = [key for key in oracle if key.startswith(prefix)]
    assert len(keys) == 2 * len(CONFIGS)
    for key in keys:
        assert produced[key] == oracle[key], key


def test_fixtures_and_kernels_match_the_oracle(oracle, produced):
    keys = [key for key in oracle if key.startswith(("fixture/", "kernel/"))]
    assert keys
    for key in keys:
        assert produced[key] == oracle[key], key


def test_every_rule_fires(oracle):
    fired = {f[0] for entry in oracle.values() for f in entry["findings"]}
    assert fired == set(rule_ids())


def test_random_traces_are_seed_stable():
    assert random_trace(7) == random_trace(7)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_check_oracle.py --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps(build_oracle(), separators=(",", ":"), sort_keys=True) + "\n",
        encoding="utf-8",
    )
