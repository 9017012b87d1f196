"""Tests for the stable content-addressed key scheme."""

import subprocess
import sys

import pytest

from repro.config.presets import case_study
from repro.errors import StoreError
from repro.exec.job import SimJob
from repro.kernels.registry import kernel
from repro.store.keys import PICKLE_PROTOCOL, stable_digest, stable_key
from repro.taxonomy import AddressSpaceKind, CoherenceKind, CommMechanism


class TestStableDigest:
    def test_deterministic_within_a_process(self):
        obj = ("reduction", 3, 2.5, ("nested", None))
        assert stable_digest(obj) == stable_digest(obj)

    def test_distinct_objects_distinct_digests(self):
        assert stable_digest(("a", 1)) != stable_digest(("a", 2))

    def test_tuples_digest_elementwise(self):
        # A tuple's digest is built from its elements' digests, so a
        # memoized trace digest is reused across thousands of job keys.
        trace = kernel("reduction").trace()
        first = stable_digest((trace, "x"))
        second = stable_digest((trace, "y"))
        assert first != second
        assert stable_digest((trace, "x")) == first

    def test_stable_across_processes(self):
        obj_src = "('reduction', 3, 2.5, ('nested', None))"
        code = (
            "from repro.store.keys import stable_digest; "
            f"print(stable_digest({obj_src}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert out == stable_digest(("reduction", 3, 2.5, ("nested", None)))

    def test_real_memo_keys_digest(self):
        trace = kernel("reduction").trace()
        case = case_study("CPU+GPU")
        job = SimJob(trace=trace, case=case)
        digest = stable_digest(job.cache_key())
        assert len(digest) == 64
        assert digest == stable_digest(job.cache_key())
        # Durable stores key results by these tuples: the field order and
        # the raw (unresolved) coherence value must never change, or every
        # store written before would miss.
        assert job.cache_key() == (
            trace, case, None, False, None, None, None, False, None
        )
        detailed = SimJob(
            trace=trace,
            mechanism=CommMechanism.DMA_ASYNC,
            async_overlap=True,
            address_space=AddressSpaceKind.UNIFIED,
            system_name="not part of the key",
            detailed=True,
            coherence=CoherenceKind.HARDWARE_DIRECTORY,
        )
        assert detailed.cache_key() == (
            trace,
            None,
            CommMechanism.DMA_ASYNC,
            True,
            AddressSpaceKind.UNIFIED,
            None,
            None,
            True,
            CoherenceKind.HARDWARE_DIRECTORY,
        )

    def test_unpicklable_raises_store_error(self):
        with pytest.raises(StoreError):
            stable_digest(lambda: None)


class TestStableKey:
    def test_kind_prefixes_the_digest(self):
        key = stable_key(("a", 1), kind="result")
        assert key.startswith("result/")
        assert key.split("/", 1)[1] == stable_digest(("a", 1))

    def test_kinds_namespace_the_same_memo_key(self):
        assert stable_key(("a",), kind="result") != stable_key(("a",), kind="trace")

    @pytest.mark.parametrize("kind", ["", "a/b"])
    def test_bad_kind_rejected(self, kind):
        with pytest.raises(StoreError):
            stable_key(("a",), kind=kind)

    def test_protocol_is_pinned(self):
        # The digest scheme breaks silently if the protocol ever floats
        # with the interpreter default; pin it.
        assert PICKLE_PROTOCOL == 4
