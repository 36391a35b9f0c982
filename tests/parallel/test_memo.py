"""SimulationMemoStore: round-trips, verification, self-healing."""

from __future__ import annotations

import gc
import json
import zlib

import pytest

from repro import obs
from repro.instrument import MeasurementConfig
from repro.parallel import CellSpec, SimulationMemoStore, measurement_key
from repro.parallel.executor import CellPool, execute_cells
from repro.parallel.worker import CellResult
from repro.parallel.keys import SCHEMA_VERSION
from repro.simmachine import ibm_sp_argonne
from tests.parallel.conftest import count_serialisation


@pytest.fixture
def store(tmp_path):
    return SimulationMemoStore(tmp_path / "memo")


def key_for(kernels=("solve_x",), nprocs=4):
    return measurement_key(
        ibm_sp_argonne(), MeasurementConfig(), "BT", "S", nprocs, kernels
    )


PAYLOAD = {"samples": [0.1 + 0.2, 1e-17], "overhead": 0.002, "tag": "x"}


def canonical(value, **dumps_kwargs):
    options = {"sort_keys": True, "separators": (",", ":"), **dumps_kwargs}
    return json.dumps(value, **options)


def record_text(key, payload, key_text=None, payload_text=None):
    """A record in the layout every earlier store wrote: ``json.dumps`` of
    the whole wrapper, the checksum over the canonical payload JSON.
    ``key_text`` / ``payload_text`` splice in a re-encoded field."""
    wrapper = {
        "schema": SCHEMA_VERSION,
        "key": dict(key),
        "checksum": zlib.crc32(canonical(payload).encode("utf-8")),
        "payload": payload,
    }
    text = canonical(wrapper)
    if key_text is not None:
        text = text.replace(canonical(dict(key)), key_text, 1)
    if payload_text is not None:
        text = text.replace(canonical(payload), payload_text, 1)
    return text


def corruptions_detected():
    return obs.counter_snapshot().get(("cache_corruption_detected", ()), 0)


class TestRoundTrip:
    def test_get_before_put_is_a_miss(self, store):
        assert store.get(key_for()) is None
        assert store.stats()["misses"] == 1

    def test_put_then_get(self, store):
        payload = {"samples": [0.25, 0.5], "overhead": 0.002}
        store.put(key_for(), payload)
        assert store.get(key_for()) == payload
        assert store.stats() == {
            "hits": 1, "misses": 0, "stores": 1, "corruptions": 0,
        }

    def test_distinct_keys_do_not_alias(self, store):
        store.put(key_for(("solve_x",)), {"overhead": 1.0})
        store.put(key_for(("solve_y",)), {"overhead": 2.0})
        assert store.get(key_for(("solve_x",)))["overhead"] == 1.0
        assert store.get(key_for(("solve_y",)))["overhead"] == 2.0
        assert len(store) == 2

    def test_floats_survive_bit_exactly(self, store):
        samples = [0.1 + 0.2, 1e-17, 123456.789012345]
        store.put(key_for(), {"samples": samples, "overhead": 0.0})
        assert store.get(key_for())["samples"] == samples

    def test_last_write_wins(self, store):
        store.put(key_for(), {"overhead": 1.0})
        store.put(key_for(), {"overhead": 2.0})
        assert store.get(key_for())["overhead"] == 2.0
        assert len(store) == 1

    def test_sharded_layout(self, store):
        store.put(key_for(), {"overhead": 1.0})
        path = store.path_for(key_for())
        assert path.exists()
        assert path.parent.name == path.name[:2]
        assert path.parent.parent == store.root


class TestSelfHeal:
    def test_truncated_entry_purged_and_missed(self, store):
        store.put(key_for(), {"overhead": 1.0})
        path = store.path_for(key_for())
        path.write_text(path.read_text()[: 10], encoding="utf-8")
        assert store.get(key_for()) is None
        assert not path.exists()
        assert store.stats()["corruptions"] == 1

    def test_bitflip_fails_checksum_and_purges(self, store):
        store.put(key_for(), {"overhead": 1.0})
        path = store.path_for(key_for())
        wrapper = json.loads(path.read_text(encoding="utf-8"))
        wrapper["payload"]["overhead"] = 999.0  # checksum now stale
        path.write_text(json.dumps(wrapper), encoding="utf-8")
        assert store.get(key_for()) is None
        assert not path.exists()
        assert store.stats()["corruptions"] == 1

    def test_schema_bump_invalidates(self, store):
        store.put(key_for(), {"overhead": 1.0})
        path = store.path_for(key_for())
        wrapper = json.loads(path.read_text(encoding="utf-8"))
        wrapper["schema"] = 999
        path.write_text(json.dumps(wrapper), encoding="utf-8")
        assert store.get(key_for()) is None

    def test_wrong_key_in_file_rejected(self, store):
        store.put(key_for(("solve_x",)), {"overhead": 1.0})
        src = store.path_for(key_for(("solve_x",)))
        dst = store.path_for(key_for(("solve_y",)))
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
        assert store.get(key_for(("solve_y",))) is None

    def test_heal_after_purge(self, store):
        store.put(key_for(), {"overhead": 1.0})
        store.path_for(key_for()).write_text("garbage", encoding="utf-8")
        assert store.get(key_for()) is None
        store.put(key_for(), {"overhead": 1.0})
        assert store.get(key_for()) == {"overhead": 1.0}


class TestRecordBytes:
    def test_record_in_the_established_layout_is_a_hit(self, store):
        path = store.path_for(key_for())
        path.parent.mkdir(parents=True)
        path.write_text(record_text(key_for(), PAYLOAD), encoding="utf-8")
        assert store.get(key_for()) == PAYLOAD
        assert store.stats()["hits"] == 1
        assert store.stats()["corruptions"] == 0

    @pytest.mark.parametrize("write", ["put", "put_if_absent"])
    def test_writes_are_byte_identical_to_that_layout(self, store, write):
        getattr(store, write)(key_for(), PAYLOAD)
        written = store.path_for(key_for()).read_bytes()
        assert written == record_text(key_for(), PAYLOAD).encode("utf-8")

    @pytest.mark.parametrize("field", ["key", "payload"])
    def test_field_reencoded_with_whitespace_is_purged(self, store, field):
        spaced = {
            "key": {"key_text": canonical(dict(key_for()), separators=None)},
            "payload": {"payload_text": canonical(PAYLOAD, indent=1)},
        }[field]
        text = record_text(key_for(), PAYLOAD, **spaced)
        assert json.loads(text) == json.loads(record_text(key_for(), PAYLOAD))
        path = store.path_for(key_for())
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        assert store.get(key_for()) is None
        assert not path.exists()
        assert store.stats()["corruptions"] == 1
        assert corruptions_detected() == 1


class TestHitCost:
    def test_a_hit_renders_the_key_once_and_parses_the_payload_once(
        self, store, monkeypatch
    ):
        # A plain mapping has no carried text: it is rendered once.
        key = dict(key_for())
        store.put(key, PAYLOAD)
        calls = count_serialisation(monkeypatch)
        assert store.get(key) == PAYLOAD
        assert calls == {"canonical_json": 1, "dumps": 1, "loads": 1}

    def test_a_hit_on_a_built_key_renders_nothing(self, store, monkeypatch):
        store.put(key_for(), PAYLOAD)
        calls = count_serialisation(monkeypatch)
        assert store.get(key_for()) == PAYLOAD
        assert calls == {"canonical_json": 0, "dumps": 0, "loads": 1}


def memo_hits():
    return obs.counter_snapshot().get(("parallel_memo_hits", ()), 0)


class TestCounters:
    def test_hits_after_a_reset_land_in_the_new_registry(self, store):
        store.put(key_for(), PAYLOAD)
        store.get(key_for())
        first = obs.get_registry()
        assert memo_hits() == 1
        obs.reset()
        store.get(key_for())
        store.get(key_for(("solve_y",)))
        assert obs.get_registry() is not first
        assert memo_hits() == 1
        assert obs.counter_snapshot()[("parallel_memo_misses", ())] == 1
        assert first.counter("parallel_memo_hits").value == 1

    def test_pool_worker_hits_merge_once_per_cell(self, tmp_path):
        specs = [
            CellSpec(
                benchmark="BT",
                problem_class="S",
                nprocs=nprocs,
                chain_lengths=(2,),
                machine=ibm_sp_argonne(),
                measurement=MeasurementConfig(
                    repetitions=1, warmup=0, seed=0
                ),
                cache_dir=str(tmp_path / "memo"),
            )
            for nprocs in (4, 9)
        ]
        cold = execute_cells(specs)
        stored = sum(cell.memo_stats["stores"] for cell in cold)
        assert stored > 0
        obs.reset()
        pool = CellPool(2)
        try:
            warm = execute_cells(specs, pool)
        finally:
            pool.shutdown()
        assert [cell.memo_stats["hits"] for cell in warm] == [
            cell.memo_stats["stores"] for cell in cold
        ]
        assert memo_hits() == stored


#: The store a forked pool worker inherits from this (parent) process.
_INHERITED: list = []


def close_inherited_store(spec: CellSpec) -> CellResult:
    """Close and collect, in a pool worker, the store it inherited by fork."""
    _INHERITED.pop().close()
    gc.collect()
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=spec.chain_lengths,
        actual=0.0,
        inputs={},
        memo_stats={},
        counters=(),
        duration=0.0,
    )


class TestLifecycle:
    def test_private_directory_removed_on_close(self):
        store = SimulationMemoStore()
        root = store.root
        store.put({"kind": "test"}, {"v": 1})
        assert root.is_dir()
        store.close()
        assert not root.exists()

    def test_collected_store_removes_its_private_directory(self):
        store = SimulationMemoStore()
        root = store.root
        store.put({"kind": "test"}, {"v": 1})
        del store
        gc.collect()
        assert not root.exists()

    def test_given_directory_left_in_place_and_usable(self, tmp_path):
        store = SimulationMemoStore(tmp_path / "memo")
        store.put({"kind": "test"}, {"v": 1})
        store.close()
        assert len(store) == 1  # still there, still usable
        assert store.get({"kind": "test"}) == {"v": 1}

    def test_empty_given_directory_is_adopted(self, tmp_path):
        # An empty store has len() 0 (falsy); the given directory must
        # still be the root, not a private one.
        store = SimulationMemoStore(tmp_path)
        assert store.root == tmp_path
        store.close()
        assert tmp_path.is_dir()

    def test_forked_pool_worker_never_removes_the_parent_directory(self):
        store = SimulationMemoStore()
        store.put({"kind": "test"}, {"v": 1})
        _INHERITED.append(store)
        pool = CellPool(1)
        try:
            spec = CellSpec(
                benchmark="BT",
                problem_class="S",
                nprocs=1,
                chain_lengths=(),
                machine=ibm_sp_argonne(),
                measurement=MeasurementConfig(repetitions=1, warmup=0),
                cache_dir=str(store.root),
            )
            [cell] = pool.submit([spec], close_inherited_store)
            cell.result(timeout=60)
        finally:
            pool.shutdown()
            _INHERITED.clear()
        assert store.get({"kind": "test"}) == {"v": 1}
        store.close()
        assert not store.root.exists()
