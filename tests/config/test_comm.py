"""Tests for the Table IV communication parameters."""

import pickle
from dataclasses import fields, replace

import pytest

from repro.config.comm import CommParams
from repro.errors import ConfigError
from repro.store.keys import PICKLE_PROTOCOL, stable_key
from repro.store.store import ResultStore
from repro.units import GHZ, Bandwidth, Frequency


class TestDefaultsMatchTable4:
    def test_api_pci_base(self, comm_params):
        assert comm_params.api_pci_base_cycles == 33250

    def test_api_acq(self, comm_params):
        assert comm_params.api_acq_cycles == 1000

    def test_api_tr(self, comm_params):
        assert comm_params.api_tr_cycles == 7000

    def test_lib_pf(self, comm_params):
        assert comm_params.lib_pf_cycles == 42000

    def test_trans_rate_is_pcie2(self, comm_params):
        assert comm_params.pci_bandwidth.bytes_per_second == pytest.approx(16e9)


class TestApiPci:
    def test_zero_bytes_is_base_only(self, comm_params):
        assert comm_params.api_pci_cycles(0) == 33250

    def test_size_term(self, comm_params):
        # 16 GB over a 16 GB/s link takes 1 s = 3.5e9 CPU cycles.
        cycles = comm_params.api_pci_cycles(16 * 10**9)
        assert cycles == 33250 + 3_500_000_000

    def test_monotone_in_size(self, comm_params):
        assert comm_params.api_pci_cycles(2000) >= comm_params.api_pci_cycles(1000)

    def test_seconds_conversion(self, comm_params):
        seconds = comm_params.api_pci_seconds(0)
        assert seconds == pytest.approx(33250 / 3.5e9)

    def test_rejects_negative_size(self, comm_params):
        with pytest.raises(ConfigError):
            comm_params.api_pci_cycles(-1)


class TestSecondsHelpers:
    def test_acq_seconds(self, comm_params):
        assert comm_params.api_acq_seconds() == pytest.approx(1000 / 3.5e9)

    def test_tr_seconds(self, comm_params):
        assert comm_params.api_tr_seconds() == pytest.approx(7000 / 3.5e9)

    def test_pf_seconds(self, comm_params):
        assert comm_params.lib_pf_seconds() == pytest.approx(42000 / 3.5e9)

    def test_custom_cpu_frequency(self):
        params = CommParams(cpu_frequency=Frequency(1 * GHZ))
        assert params.api_acq_seconds() == pytest.approx(1000 / 1e9)


class TestValidation:
    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            CommParams(api_acq_cycles=-1)

    def test_table_rows(self, comm_params):
        rows = comm_params.table_rows()
        assert len(rows) == 4
        names = [row[0] for row in rows]
        assert names == ["api-pci", "api-acq", "api-tr", "lib-pf"]


#: Store keys of ``("comm-params", params)`` as written before the hash
#: was stored on the instance: a store from then must still hit.
STORED_KEYS = {
    "default": "result/85377b5c3b054886a58af19abf10d4fff7ad78c13995663e8d67ad2b6b4a988d",
    "custom": "result/19a1b117a2f7dd916a58998329d04fb2d3fb139953d69b371e6007feef596408",
}


class TestHash:
    """The stored hash equals the field-tuple hash and stays out of
    equality, repr, pickles and store keys."""

    PARAMS = {
        "default": CommParams(),
        "custom": CommParams(
            api_acq_cycles=2000, pci_bandwidth=Bandwidth.from_gb_per_s(32.0)
        ),
    }

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_memo_is_out_of_eq_repr_and_pickle(self, name):
        params = replace(self.PARAMS[name])
        before = (pickle.dumps(params, protocol=PICKLE_PROTOCOL), repr(params))
        assert hash(params) == hash(tuple(getattr(params, f.name) for f in fields(params)))
        assert "_hash" in vars(params)
        assert (pickle.dumps(params, protocol=PICKLE_PROTOCOL), repr(params)) == before
        copy = pickle.loads(before[0])
        assert "_hash" not in vars(copy)
        assert copy == params and hash(copy) == hash(params)

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_store_written_before_the_memo_still_hits(self, name, tmp_path):
        params = replace(self.PARAMS[name])
        hash(params)
        with ResultStore(tmp_path / "store") as store:
            store.put_bytes(STORED_KEYS[name], pickle.dumps(name))
            assert stable_key(("comm-params", params)) == STORED_KEYS[name]
            assert store.get_object(("comm-params", params)) == name
