"""Unit tests of the two-tier result store and the warm-state store."""

from __future__ import annotations

import json

import pytest

from repro.engine.cache import ResultCache
from repro.serve import ResultStore, WarmStateStore


def document(status: str = "ok", tag: str = "x") -> dict:
    return {"status": status, "fingerprint": tag, "objective": 1.0}


class TestMemoryTier:
    def test_put_then_get(self):
        store = ResultStore(memory_entries=4)
        assert store.put("k1", document()) is True
        assert store.get("k1")["fingerprint"] == "x"
        assert store.stats()["memory_hits"] == 1

    def test_miss_is_counted(self):
        store = ResultStore(memory_entries=4)
        assert store.get("nope") is None
        assert store.stats()["memory_misses"] == 1

    def test_lru_evicts_the_coldest_entry(self):
        store = ResultStore(memory_entries=2)
        store.put("a", document(tag="a"))
        store.put("b", document(tag="b"))
        store.get("a")  # touch: a is now warmer than b
        store.put("c", document(tag="c"))
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.get("c") is not None
        assert len(store) == 2

    def test_nondeterministic_outcomes_are_refused(self):
        store = ResultStore(memory_entries=4)
        assert store.put("t", document(status="timeout")) is False
        assert store.put("e", document(status="error")) is False
        assert store.get("t") is None
        # Deterministic failures are memoized like successes.
        assert store.put("f", document(status="failed")) is True

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ResultStore(memory_entries=0)


class TestDiskTier:
    def test_stats_include_disk_when_attached(self, tmp_path):
        disk = ResultCache(tmp_path)
        store = ResultStore(memory_entries=4, disk=disk)
        stats = store.stats()
        assert stats["disk"] is not None
        assert stats["disk"]["entries"] == 0

    def test_stats_without_disk(self):
        assert ResultStore(memory_entries=4).stats()["disk"] is None


CHAIN = {"seed_assignment": {"s": "BRAM"}}


class TestWarmStateStore:
    def test_first_writer_wins(self, tmp_path):
        first = WarmStateStore(tmp_path, instance="replica-1")
        second = WarmStateStore(tmp_path, instance="replica-2")
        assert first.put("k", CHAIN) is not None
        assert second.put("k", {"seed_assignment": {"s": "LUTRAM"}}) is None
        document = second.get("k")
        assert document["source"] == "replica-1"
        assert document["chain_context"] == CHAIN
        assert first.stats()["exports"] == 1
        assert second.stats()["exports"] == 0

    def test_corrupt_entry_is_a_silent_miss(self, tmp_path):
        store = WarmStateStore(tmp_path, instance="a")
        (tmp_path / "k-garbage.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "k-shapeless.json").write_text(
            json.dumps({"warm_key": "k-shapeless", "chain_context": []}),
            encoding="utf-8",
        )
        assert store.get("k-garbage") is None
        assert store.get("k-shapeless") is None
        assert store.get("k-missing") is None
        assert store.stats()["reuses"] == 0
        assert store.stats()["imports"] == 0

    def test_imports_count_only_other_instances(self, tmp_path):
        own = WarmStateStore(tmp_path, instance="replica-1")
        sibling = WarmStateStore(tmp_path, instance="replica-2")
        own.put("k-own", CHAIN)
        sibling.put("k-sib", CHAIN)
        assert own.get("k-own")["source"] == "replica-1"
        assert own.stats()["reuses"] == 1
        assert own.stats()["imports"] == 0
        assert own.get("k-sib")["source"] == "replica-2"
        assert own.stats()["reuses"] == 2
        assert own.stats()["imports"] == 1

    def test_entries_with_a_legacy_signature_still_read(self, tmp_path):
        (tmp_path / "k-old.json").write_text(
            json.dumps({
                "warm_key": "k-old",
                "source": "elsewhere",
                "signature": {"kind": "warm_signature"},
                "chain_context": CHAIN,
            }),
            encoding="utf-8",
        )
        store = WarmStateStore(tmp_path, instance="a")
        assert store.get("k-old")["chain_context"] == CHAIN
        assert store.stats()["imports"] == 1

    def test_eviction_bounds_the_shared_directory(self, tmp_path):
        store = WarmStateStore(tmp_path, instance="a", max_entries=2)
        for index in range(4):
            store.put(f"k-{index}", CHAIN)
        assert len(store) == 2
        assert store.stats()["evictions"] == 2

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            WarmStateStore(tmp_path, max_entries=0)
