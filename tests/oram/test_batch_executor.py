"""Tests for the epoch-based parallel ORAM executor."""

import random
import struct

import pytest

from repro.oram import path_math
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite, IntegrityError
from repro.oram.parameters import RingOramParameters
from repro.oram.ring_oram import RingOram, slot_storage_key
from repro.sim.clock import SimClock
from repro.storage.backend import StorageOp
from repro.storage.memory import InMemoryStorageServer


def make_executor(seed=0, backend="server", buffer_writes=True, depth=4, z=4, s=6, a=3,
                  parallelism=64):
    clock = SimClock()
    storage = InMemoryStorageServer(latency=backend, clock=clock, charge_latency=False)
    params = RingOramParameters(num_blocks=z << depth, z_real=z, s_dummies=s,
                                evict_rate=a, depth=depth, block_size=64)
    oram = RingOram(params, storage, cipher=CipherSuite(block_size=72), clock=clock,
                    seed=seed, dummiless_writes=True)
    executor = EpochBatchExecutor(oram, latency=backend, parallelism=parallelism,
                                  buffer_writes=buffer_writes)
    return executor, oram, storage


class TestCorrectness:
    def test_write_then_read_across_epochs(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({1: b"alpha", 2: b"beta"})
        executor.flush_epoch()
        executor.begin_epoch()
        values = executor.execute_read_batch([1, 2], batch_size=4)
        executor.flush_epoch()
        assert values[1] == b"alpha"
        assert values[2] == b"beta"

    def test_read_of_unknown_block_is_none(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        values = executor.execute_read_batch([9], batch_size=2)
        executor.flush_epoch()
        assert values[9] is None

    def test_padding_entries_do_not_produce_results(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        values = executor.execute_read_batch([1], batch_size=8)
        executor.flush_epoch()
        assert set(values) == {1}

    def test_multi_epoch_random_workload_matches_reference(self):
        executor, _, _ = make_executor(seed=3)
        rng = random.Random(17)
        reference = {}
        for _epoch in range(6):
            executor.begin_epoch()
            reads = [rng.randrange(20) for _ in range(6)]
            values = executor.execute_read_batch(reads, batch_size=8)
            for block in reads:
                assert values[block] == reference.get(block), f"block {block}"
            writes = {rng.randrange(20): f"e{_epoch}-{i}".encode() for i in range(4)}
            executor.execute_write_batch(writes)
            reference.update(writes)
            executor.flush_epoch()

    def test_abort_epoch_discards_buffered_bucket_writes(self):
        # Epoch abort drops the buffered bucket rewrites so nothing from the
        # aborted epoch reaches the untrusted store; rolling the *proxy* state
        # back is the recovery manager's job (the proxy is rebuilt from its
        # checkpoint after a crash).
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({i: b"will-vanish" for i in range(6)})
        assert executor.pending_bucket_writes() > 0
        executor.abort_epoch()
        assert executor.pending_bucket_writes() == 0
        assert storage.stats_writes == 0

    def test_begin_epoch_requires_flush(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        # Enough writes to trigger an eviction and buffer bucket rewrites.
        executor.execute_write_batch({i: b"x" for i in range(6)})
        assert executor.pending_bucket_writes() > 0
        with pytest.raises(RuntimeError):
            executor.begin_epoch()

    def test_stash_hits_served_without_physical_reads(self):
        executor, oram, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({1: b"cached"})
        executor.flush_epoch()
        # If the block is still in the stash after the flush (mapped there by
        # the dummiless write), a read must not issue new path requests.
        if 1 in oram.stash:
            executor.begin_epoch()
            before = executor.lifetime_stats.physical_reads
            values = executor.execute_read_batch([1], batch_size=1)
            assert values[1] == b"cached"
            assert executor.lifetime_stats.physical_reads == before
            executor.flush_epoch()


class TestDeferredWrites:
    def test_no_storage_writes_before_flush(self):
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_read_batch([1, 2, 3], batch_size=8)
        executor.execute_write_batch({5: b"x"})
        writes_before_flush = storage.stats_writes
        executor.flush_epoch()
        assert storage.stats_writes > writes_before_flush
        assert writes_before_flush == 0

    def test_write_deduplication_within_epoch(self):
        executor, oram, _ = make_executor(a=2)
        executor.begin_epoch()
        # Enough traffic that the root is rewritten by several evictions.
        executor.execute_read_batch(list(range(12)), batch_size=12)
        executor.execute_write_batch({i: bytes([i]) for i in range(8)})
        saved = executor.stats.buffered_bucket_writes_saved
        pending = executor.pending_bucket_writes()
        executor.flush_epoch()
        assert saved > 0
        assert pending < executor.stats.evictions * (oram.params.depth + 1)

    def test_immediate_mode_writes_during_epoch(self):
        executor, _, storage = make_executor(buffer_writes=False)
        executor.begin_epoch()
        executor.execute_read_batch(list(range(8)), batch_size=8)
        assert storage.stats_writes > 0
        executor.flush_epoch()

    def test_buffered_mode_faster_than_immediate(self):
        buffered, oram_b, _ = make_executor(backend="server_wan", buffer_writes=True)
        immediate, oram_i, _ = make_executor(backend="server_wan", buffer_writes=False)
        for executor, oram in ((buffered, oram_b), (immediate, oram_i)):
            executor.begin_epoch()
            for _ in range(4):
                executor.execute_read_batch(list(range(10)), batch_size=10)
            executor.flush_epoch()
        assert oram_b.clock.now_ms < oram_i.clock.now_ms

    def test_flush_returns_elapsed_and_clears_state(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({1: b"x", 2: b"y"})
        elapsed = executor.flush_epoch()
        assert elapsed >= 0.0
        assert executor.pending_bucket_writes() == 0


class TestAdversaryView:
    def test_trace_shows_fixed_read_batch_size(self):
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_read_batch([1], batch_size=16)
        executor.flush_epoch()
        read_batches = [(kind, size) for kind, size in storage.trace.batch_shape()
                        if kind == "read"]
        assert read_batches[0] == ("read", 16)

    def test_reads_precede_writes_within_epoch(self):
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_read_batch(list(range(6)), batch_size=8)
        executor.execute_write_batch({1: b"x"})
        executor.flush_epoch()
        events = [e for e in storage.trace.events if e.key.startswith("oram/")]
        first_write_index = next(i for i, e in enumerate(events) if e.op == StorageOp.WRITE)
        assert all(e.op == StorageOp.READ for e in events[:first_write_index])
        assert all(e.op == StorageOp.WRITE for e in events[first_write_index:])

    def test_no_physical_key_read_twice_per_epoch(self):
        executor, _, storage = make_executor(seed=2)
        executor.begin_epoch()
        executor.execute_read_batch(list(range(10)), batch_size=10)
        executor.execute_read_batch(list(range(10)), batch_size=10)
        executor.flush_epoch()
        reads = [e.key for e in storage.trace.events
                 if e.op == StorageOp.READ and e.key.startswith("oram/")]
        assert len(reads) == len(set(reads))

    def test_clock_advances_more_on_wan(self):
        lan, oram_lan, _ = make_executor(backend="server")
        wan, oram_wan, _ = make_executor(backend="server_wan")
        for executor in (lan, wan):
            executor.begin_epoch()
            executor.execute_read_batch(list(range(8)), batch_size=8)
            executor.flush_epoch()
        assert oram_wan.clock.now_ms > oram_lan.clock.now_ms


def spy(monkeypatch, obj, name):
    """Record the positional arguments of every call to ``obj.name``."""
    calls = []
    original = getattr(obj, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, wrapper)
    return calls


def busy_epoch(executor, reads=12, writes=8):
    """An epoch with enough traffic that buckets near the root are rewritten
    several times; returns the rewrites that survive to the flush."""
    executor.begin_epoch()
    executor.execute_read_batch(list(range(reads)), batch_size=reads)
    executor.execute_write_batch({i: b"w%d" % i for i in range(writes)})
    return list(executor._buffered_rewrites.values())


def locate(oram, block_id):
    """(bucket, version, slot) of the valid tree copy of ``block_id``, if any."""
    leaf = oram.position_map.lookup(block_id)
    if leaf is None:
        return None
    for bid in path_math.path_buckets(leaf, oram.params.depth):
        meta = oram.metadata.bucket(bid)
        idx = meta.slot_of_block(block_id)
        if idx is not None:
            return bid, meta.version, idx
    return None


class TestLazySealing:
    """Rewrites stay plaintext until the flush; only real slots are sealed."""

    def test_flush_seals_exactly_the_real_slots_of_surviving_rewrites(self, monkeypatch):
        executor, oram, storage = make_executor(a=2)
        sealed = spy(monkeypatch, oram.cipher, "encrypt_many")
        surviving = busy_epoch(executor)
        assert sealed == []                       # nothing sealed before the flush
        executor.flush_epoch()
        assert len(sealed) == 1
        plaintexts, contexts = sealed[0]
        expected = sorted((r.bucket_id, r.version, idx)
                          for r in surviving
                          for idx, block in enumerate(r.slot_blocks) if block is not None)
        assert expected
        assert sorted(struct.unpack(">qqq", c) for c in contexts) == expected
        # Each real slot on the server opens to the block the rewrite placed.
        for r in surviving:
            for idx, block in enumerate(r.slot_blocks):
                if block is not None:
                    blob = storage.read(slot_storage_key(r.bucket_id, r.version, idx))
                    ctx = struct.pack(">qqq", r.bucket_id, r.version, idx)
                    assert oram.cipher.open_block(blob, ctx) == (block, r.plain_contents[block])

    def test_bucket_rewritten_twice_in_one_epoch_is_sealed_once(self, monkeypatch):
        executor, oram, storage = make_executor(a=2)
        start_version = oram.metadata.bucket(0).version
        sealed = spy(monkeypatch, oram.cipher, "encrypt_many")
        busy_epoch(executor)
        final_version = oram.metadata.bucket(0).version
        assert final_version - start_version >= 2        # the root was superseded
        assert executor.stats.buffered_bucket_writes_saved > 0
        executor.flush_epoch()
        root = [struct.unpack(">qqq", c) for _, contexts in sealed for c in contexts
                if struct.unpack(">qqq", c)[0] == 0]
        real_slots = len(oram.metadata.bucket(0).real_block_ids())
        assert [version for _, version, _ in root] == [final_version] * real_slots
        root_keys = [k for k in storage.keys() if k.startswith("oram/0/")]
        assert {k.split("/")[2] for k in root_keys} == {f"v{final_version}"}
        assert len(root_keys) == oram.params.z_real + oram.params.s_dummies

    def test_dummy_and_empty_payloads_are_fresh_ciphertext_sized_strings(self):
        executor, oram, storage = make_executor(a=2)
        surviving = busy_epoch(executor)
        executor.flush_epoch()
        filler = [storage.read(slot_storage_key(r.bucket_id, r.version, idx))
                  for r in surviving
                  for idx, block in enumerate(r.slot_blocks) if block is None]
        assert len(filler) > 50
        assert {len(blob) for blob in filler} == {oram.cipher.ciphertext_size}
        assert len(set(filler)) == len(filler)

    def test_no_dummy_payload_is_ever_opened(self, monkeypatch):
        executor, oram, _ = make_executor(seed=5, a=2)
        filler_calls = []
        draw = oram.cipher.filler_blocks

        def recording_filler(count):
            out = draw(count)
            filler_calls.extend(out)
            return out

        monkeypatch.setattr(oram.cipher, "filler_blocks", recording_filler)
        opened = spy(monkeypatch, oram.cipher, "decrypt_many")
        rng = random.Random(4)
        for epoch in range(8):
            executor.begin_epoch()
            executor.execute_read_batch([rng.randrange(24) for _ in range(8)], batch_size=8)
            executor.execute_write_batch({rng.randrange(24): b"e%d" % epoch
                                          for _ in range(4)})
            executor.flush_epoch()
        blobs = [blob for args in opened for blob in args[0]]
        assert blobs and filler_calls
        assert not set(blobs) & set(filler_calls)

    def test_trace_sizes_match_for_real_and_filler_slots(self):
        executor, oram, storage = make_executor(a=2)
        surviving = busy_epoch(executor)
        executor.flush_epoch()
        executor.begin_epoch()
        executor.execute_read_batch(list(range(12)), batch_size=12)
        executor.flush_epoch()
        written = {slot_storage_key(r.bucket_id, r.version, idx): block is not None
                   for r in surviving for idx, block in enumerate(r.slot_blocks)}
        sizes = {}
        for event in storage.trace.events:
            if event.key in written:
                sizes.setdefault((event.op, written[event.key]), set()).add(event.size_bytes)
        size = {oram.cipher.ciphertext_size}
        assert sizes[(StorageOp.WRITE, True)] == sizes[(StorageOp.WRITE, False)] == size
        assert sizes[(StorageOp.READ, True)] == sizes[(StorageOp.READ, False)] == size


class TestFailClosed:
    """A server that drops or replays a real slot raises, never yields "absent"."""

    def settled(self, executor, oram, block_id, value):
        """Write ``block_id`` and run epochs until it is evicted into the tree."""
        executor.begin_epoch()
        executor.execute_write_batch({block_id: value})
        executor.flush_epoch()
        for _ in range(20):
            where = locate(oram, block_id)
            if where is not None:
                return where
            executor.begin_epoch()
            executor.execute_write_batch({}, batch_size=4)
            executor.flush_epoch()
        raise AssertionError("block never left the stash")

    def test_missing_real_slot_raises(self):
        executor, oram, storage = make_executor(seed=1)
        bucket, version, slot = self.settled(executor, oram, 1, b"kept")
        storage.delete_batch([slot_storage_key(bucket, version, slot)])
        executor.begin_epoch()
        with pytest.raises(IntegrityError):
            executor.execute_read_batch([1], batch_size=2)

    def test_stale_version_replayed_under_current_key_raises(self):
        executor, oram, storage = make_executor(seed=1)
        old = self.settled(executor, oram, 1, b"stale")
        stale_blob = storage.read(slot_storage_key(*old))
        current = self.settled(executor, oram, 1, b"fresh")
        assert current != old
        storage.write(slot_storage_key(*current), stale_blob)
        executor.begin_epoch()
        with pytest.raises(IntegrityError):
            executor.execute_read_batch([1], batch_size=2)
