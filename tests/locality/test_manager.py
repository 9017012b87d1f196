"""Tests for the locality manager (push routing + hybrid L3)."""

import pytest

from repro.errors import LocalityError
from repro.locality.manager import LocalityManager
from repro.mem.cache.replacement import HybridLocalityPolicy
from repro.sim.system import build_machine
from repro.taxonomy import AddressSpaceKind, LocalityScheme

PAS = AddressSpaceKind.PARTIALLY_SHARED


def manager(scheme, hybrid_l3=False):
    policy = HybridLocalityPolicy(ways=32) if hybrid_l3 else None
    machine = build_machine(l3_policy=policy)
    return LocalityManager(machine, scheme, PAS), machine


class TestConstruction:
    def test_infeasible_combo_rejected(self):
        machine = build_machine()
        with pytest.raises(LocalityError):
            LocalityManager(
                machine,
                LocalityScheme.IMPLICIT_PRIVATE_IMPLICIT_SHARED,
                AddressSpaceKind.DISJOINT,
            )

    def test_hybrid_requires_hybrid_policy(self):
        machine = build_machine()
        with pytest.raises(LocalityError):
            LocalityManager(machine, LocalityScheme.HYBRID_SHARED, PAS)

    def test_hybrid_with_policy_ok(self):
        mgr, _ = manager(LocalityScheme.HYBRID_SHARED, hybrid_l3=True)
        assert mgr.scheme is LocalityScheme.HYBRID_SHARED


class TestPushRouting:
    def test_push_to_gpu_scratchpad(self):
        mgr, machine = manager(LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED)
        mgr.push(0x1000, 4096, "GPU.P")
        assert machine.gpu_core.scratchpad.contains(0x1000)

    def test_push_to_shared_l3_sets_locality_bit(self):
        mgr, machine = manager(LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED)
        mgr.push(0x30000000, 256, "S")
        assert machine.l3.is_explicit(0x30000000)
        assert machine.l3.is_explicit(0x30000000 + 192)

    def test_push_to_cpu_private(self):
        mgr, machine = manager(LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED)
        mgr.push(0x2000, 128, "CPU.P")
        assert machine.cpu_l1d.is_explicit(0x2000)

    def test_is_explicit_tracks_ranges(self):
        mgr, _ = manager(LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED)
        mgr.push(0x30000000, 256, "S")
        assert mgr.is_explicit(0x30000000 + 100)
        assert not mgr.is_explicit(0x40000000)


class TestSchemeEnforcement:
    def test_implicit_private_rejects_cpu_push(self):
        mgr, _ = manager(LocalityScheme.IMPLICIT_PRIVATE_EXPLICIT_SHARED)
        with pytest.raises(LocalityError):
            mgr.push(0x0, 64, "CPU.P")

    def test_implicit_shared_rejects_shared_push(self):
        mgr, _ = manager(LocalityScheme.EXPLICIT_PRIVATE_IMPLICIT_SHARED)
        with pytest.raises(LocalityError):
            mgr.push(0x30000000, 64, "S")

    def test_mixed_scheme_allows_gpu_not_cpu(self):
        mgr, _ = manager(LocalityScheme.MIXED_PRIVATE_EXPLICIT_SHARED)
        mgr.push(0x1000, 64, "GPU.P")
        with pytest.raises(LocalityError):
            mgr.push(0x1000, 64, "CPU.P")

    def test_unknown_level(self):
        mgr, _ = manager(LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED)
        with pytest.raises(LocalityError):
            mgr.push(0x0, 64, "L4")

    def test_zero_size_rejected(self):
        mgr, _ = manager(LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED)
        with pytest.raises(LocalityError):
            mgr.push(0x0, 0, "GPU.P")

    def test_stats(self):
        mgr, _ = manager(LocalityScheme.EXPLICIT_PRIVATE_EXPLICIT_SHARED)
        mgr.push(0x1000, 64, "GPU.P")
        mgr.push(0x30000000, 64, "S")
        stats = mgr.stats()
        assert stats["pushes_GPU.P"] == 1
        assert stats["pushes_S"] == 1


class TestHybridEndToEnd:
    def test_protected_blocks_survive_implicit_streaming(self):
        """§II-B5 end-to-end: explicit L3 lines survive an implicit sweep
        that would evict everything under plain LRU."""
        mgr, machine = manager(LocalityScheme.HYBRID_SHARED, hybrid_l3=True)

        protected = 0x3000_0000
        mgr.push(protected, 64, "S")
        # Stream far more lines than the L3 set can hold through the same set.
        l3 = machine.l3
        num_sets = l3.config.num_sets * l3.config.tiles
        stride = num_sets * 64
        for i in range(1, 64 + 4):
            addr = protected + i * stride
            l3.access(addr)
        assert l3.is_explicit(protected)
        assert l3.contains(protected)
