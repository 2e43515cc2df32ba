"""Unit tests for the durable on-disk analysis store (DESIGN.md §13).

The durability contract under test:

* a crash mid-``put`` never leaves a half-written entry visible under
  its real key — only a ``*.tmp.*`` orphan, swept at the next startup;
* a checksum mismatch (bit rot, torn page, injected corruption) is
  **quarantined** — moved aside, counted, never served;
* the footprint bound evicts least-recently-*used* entries (a read
  refreshes recency);
* a second store instance over the same root serves the first one's
  entries byte-identically — the warm-restart property.
"""

import json
import os

import pytest

from repro.service.store import DurableStore, payload_store_key


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "store")


def entry_path(store, key):
    return os.path.join(store.root, "objects", key[:2], key)


class TestContentAddressing:
    def test_key_is_deterministic(self):
        assert payload_store_key("abc", "agrawal", 15, "positives") == (
            payload_store_key("abc", "agrawal", 15, "positives")
        )

    def test_every_component_changes_the_key(self):
        base = payload_store_key("abc", "agrawal", 15, "positives")
        assert payload_store_key("abd", "agrawal", 15, "positives") != base
        assert payload_store_key("abc", "ball-horwitz", 15, "positives") != base
        assert payload_store_key("abc", "agrawal", 16, "positives") != base
        assert payload_store_key("abc", "agrawal", 15, "sum") != base
        assert payload_store_key("abc", "agrawal", 15, "positives", "p") != base


class TestRoundTrip:
    def test_put_get_roundtrip(self, root):
        store = DurableStore(root)
        key = payload_store_key("k", "agrawal", 1, "x")
        assert store.put(key, b"payload bytes")
        assert store.get(key) == b"payload bytes"
        assert store.hits == 1 and store.misses == 0 and store.puts == 1

    def test_missing_key_is_a_miss(self, root):
        store = DurableStore(root)
        assert store.get("0" * 64) is None
        assert store.misses == 1 and store.hits == 0

    def test_json_roundtrip_is_byte_stable(self, root):
        store = DurableStore(root)
        payload = {"nodes": [3, 1, 2], "degraded": False}
        store.put_json("a" * 64, payload)
        assert store.get_json("a" * 64) == payload

    def test_stats_shape(self, root):
        store = DurableStore(root, max_bytes=1024)
        store.put("b" * 64, b"x")
        store.get("b" * 64)
        store.get("c" * 64)
        stats = store.stats()
        assert stats["root"] == root
        assert stats["max_bytes"] == 1024
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["bytes"] > 0


class TestAtomicVisibility:
    def test_failed_put_leaves_no_visible_entry(self, root, monkeypatch):
        """A crash at the rename (the last durability step) must not
        make a partial entry readable under the real key."""
        store = DurableStore(root)
        key = "d" * 64

        def refuse(*args, **kwargs):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", refuse)
        assert store.put(key, b"never visible") is False
        monkeypatch.undo()
        assert store.errors == 1
        assert store.get(key) is None
        assert store.entry_count() == 0

    def test_orphan_temp_files_are_swept_at_startup(self, root):
        first = DurableStore(root)
        key = "e" * 64
        first.put(key, b"survivor")
        # A crash mid-write leaves exactly this artefact behind: a temp
        # file next to the final name, never renamed.
        orphan = entry_path(first, key) + ".tmp.123"
        with open(orphan, "wb") as handle:
            handle.write(b"torn half-write")
        second = DurableStore(root)
        assert not os.path.exists(orphan)
        assert second.get(key) == b"survivor"
        assert second.entry_count() == 1

    def test_second_instance_serves_warm_bytes_identically(self, root):
        """The warm-restart property: a fresh process over the same
        root answers from disk, byte-for-byte."""
        payload = json.dumps({"slice": [1, 2, 3]}).encode()
        key = payload_store_key("warm", "agrawal", 2, "y")
        DurableStore(root).put(key, payload)
        restarted = DurableStore(root)
        assert restarted.get(key) == payload
        assert restarted.hits == 1


class TestQuarantine:
    def test_flipped_bit_is_quarantined_not_served(self, root):
        store = DurableStore(root)
        key = "f" * 64
        store.put(key, b"precious result")
        path = entry_path(store, key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x01  # rot one payload bit
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        assert store.get(key) is None
        assert store.quarantined == 1
        assert not os.path.exists(path)
        quarantine = os.path.join(root, "quarantine")
        assert os.listdir(quarantine) == [key]

    def test_truncated_entry_is_quarantined(self, root):
        store = DurableStore(root)
        key = "1" * 64
        store.put(key, b"will be torn")
        path = entry_path(store, key)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.get(key) is None
        assert store.quarantined == 1

    def test_armed_corruption_round_trips_through_quarantine(self, root):
        """The ``store-corruption`` fault end to end: the armed put
        writes a bad entry, the next get refuses to serve it, and a
        clean re-put recovers."""
        store = DurableStore(root)
        key = "2" * 64
        store.arm_corruption()
        store.put(key, b"doomed")
        assert store.get(key) is None
        assert store.quarantined == 1
        store.put(key, b"doomed")
        assert store.get(key) == b"doomed"
        assert store.quarantined == 1

    def test_garbage_json_under_good_checksum_is_quarantined(self, root):
        store = DurableStore(root)
        key = "3" * 64
        store.put(key, b"not json at all")
        assert store.get_json(key) is None
        assert store.quarantined == 1
        assert store.hits == 0


class TestEviction:
    def test_lru_eviction_keeps_recently_used(self, root):
        store = DurableStore(root, max_bytes=400, fsync=False)
        keys = [str(i) * 64 for i in range(4, 9)]
        for i, key in enumerate(keys):
            store.put(key, bytes(120))
            # Pin recency explicitly (the sub-second clock can tie):
            # the first entry stays hot, the rest age in write order.
            stamp = 2_000_000_000 if i == 0 else 1_000_000_000 + i
            try:
                os.utime(entry_path(store, key), (stamp, stamp))
            except FileNotFoundError:
                pass  # already evicted mid-loop; recency no longer matters
        assert store.evictions > 0
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is None

    def test_unbounded_store_never_evicts(self, root):
        store = DurableStore(root, max_bytes=0, fsync=False)
        for i in range(10):
            store.put(str(i) * 64, bytes(256))
        assert store.evictions == 0
        assert store.entry_count() == 10


class TestEngineTier:
    """The engine writes each fresh exact slice once, under its
    exact-source key, and a cold request parses its source once."""

    def test_each_fresh_slice_is_one_put(self, root):
        from repro.corpus import PAPER_PROGRAMS
        from repro.service.engine import SlicingEngine

        entry = PAPER_PROGRAMS["fig3a"]
        criteria = [(15, "positives"), (14, "sum"), (8, "positives"),
                    (10, "sum")]
        with SlicingEngine(store=DurableStore(root, fsync=False)) as engine:
            for algorithm in ("agrawal", "ball-horwitz"):
                for line, var in criteria:
                    response = engine.handle_payload(
                        {"version": 1, "op": "slice", "algorithm": algorithm,
                         "source": entry.source, "line": line, "var": var}
                    )
                    assert response["ok"], response
            fresh = engine.stats_payload()["slice_cache"]["misses"]
            assert fresh == 2 * len(criteria)
            assert engine.store.stats()["puts"] == fresh

    def test_cold_request_parses_its_source_once(self, root, monkeypatch):
        import repro.lang.parser as parser
        import repro.pdg.builder as builder
        import repro.service.incremental as incremental
        from repro.corpus import PAPER_PROGRAMS
        from repro.service.engine import SlicingEngine

        calls = []
        real = parser.parse_program

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (parser, builder, incremental):
            monkeypatch.setattr(module, "parse_program", counting)
        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        with SlicingEngine(store=DurableStore(root, fsync=False)) as engine:
            response = engine.handle_payload(
                {"version": 1, "op": "slice", "source": entry.source,
                 "line": line, "var": var}
            )
        assert response["ok"], response
        assert len(calls) == 1
