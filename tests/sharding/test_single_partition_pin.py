"""Golden pin of the ``shards=1`` data path.

The single-tree proxy (the paper's configuration) must stay byte-for-byte
what it is: the same simulated results, the same keys on the untrusted
store and the same adversary-visible access sequence, whatever class
implements its data layer.  Each case drives a fixed-seed run through the
public engine API and compares three digests against values recorded from
a known-good build:

* ``results_signature`` of the run's ``RunStats``;
* the sorted key set the storage server holds after the run;
* every ``AccessTrace`` event and batch boundary (time, op, key, size).

Encrypted payloads carry random nonces, so byte-level storage comparison
only applies to the unencrypted reshard case.
"""

import hashlib

import pytest

from repro.api import EngineConfig, create_engine
from repro.core.client import Read
from repro.elasticity import ReshardPlan
from repro.harness.perfbench import results_signature
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

SEEDS = (3, 11)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line if isinstance(line, bytes) else line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def _key_digest(storage) -> str:
    return _digest(sorted(storage.keys()))


def _bytes_digest(storage) -> str:
    snapshot = storage.snapshot()
    return _digest(key.encode("utf-8") + b"=" + snapshot[key]
                   for key in sorted(snapshot))


def _trace_digest(storage) -> str:
    trace = storage.trace
    events = (f"e|{e.seq}|{e.time_ms!r}|{e.op.value}|{e.key}|{e.size_bytes}|"
              f"{e.batch_id}" for e in trace.events)
    batches = (f"b|{b.batch_id}|{b.time_ms!r}|{b.kind}|{b.request_count}"
               for b in trace.batches)
    return _digest(list(events) + list(batches))


def _digests(stats, storage):
    return (results_signature(stats), _key_digest(storage), _trace_digest(storage))


def _smallbank(seed):
    return SmallBankWorkload(SmallBankConfig(num_accounts=60, seed=seed))


def _config(seed, *, durability, encrypt):
    return (EngineConfig()
            .with_oram(num_blocks=512, z_real=8, block_size=192)
            .with_batching(read_batches=3, read_batch_size=24, write_batch_size=24)
            .with_backend("server")
            .with_durability(durability)
            .with_encryption(encrypt)
            .with_seed(seed))


def _durable_engine(seed):
    workload = _smallbank(seed)
    engine = create_engine("obladi", _config(seed, durability=True, encrypt=True))
    engine.load_initial_data(workload.initial_data())
    return engine, workload


def _read_checking_zero():
    value = yield Read(SmallBankWorkload.checking_key(0))
    return value


def _drain(engine, max_waves=60):
    """Read-only waves until the in-flight migration cuts over."""
    waves = 0
    while engine.reshard_in_flight and waves < max_waves:
        engine.submit_many([_read_checking_zero])
        waves += 1
    assert not engine.reshard_in_flight, "migration never completed"


#: seed -> (RunStats signature, storage key-set digest, trace digest)
DURABLE_GOLDEN = {
    3: ("sha256:64a662b36737cce6", "f223c85a567c74ef", "4a982e4de94aa7b4"),
    11: ("sha256:6302931cfb685957", "1af7bf53239b12c0", "aae2407025a4a8e0"),
}
#: seed -> digests of the second run after crash() + recover()
RECOVERED_GOLDEN = {
    3: ("sha256:253ad90488d0acff", "9d68ca46bc76617b", "c3043ff653e10fb5"),
    11: ("sha256:e8eeedbd211f9d24", "51bdb40d72336c46", "a6cc07dbcb0f0f53"),
}
#: seed -> (final RunStats signature, key-set, trace, full storage bytes)
RESHARD_GOLDEN = {
    3: ("sha256:27492455e8f8b8b2", "de8b276d3a0d8107", "04bab9645a39033a",
        "8a48ae8eeca517a9"),
    11: ("sha256:d96e868350a96eb1", "42611b78d8491536", "34e42b3f99630752",
         "ac4e6df57598a679"),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_durable_encrypted_smallbank_closed_loop(seed):
    engine, workload = _durable_engine(seed)
    stats = engine.run_closed_loop(workload.transaction_factory,
                                   total_transactions=40, clients=6)
    assert engine.proxy.config.shards == 1
    assert _digests(stats, engine.storage) == DURABLE_GOLDEN[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_and_recover(seed):
    engine, workload = _durable_engine(seed)
    engine.run_closed_loop(workload.transaction_factory,
                           total_transactions=30, clients=6)
    engine.crash()
    engine.recover()
    stats = engine.run_closed_loop(workload.transaction_factory,
                                   total_transactions=30, clients=6)
    assert _digests(stats, engine.storage) == RECOVERED_GOLDEN[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_reshard_one_to_two_and_back(seed):
    workload = _smallbank(seed)
    engine = create_engine("obladi", _config(seed, durability=False, encrypt=False))
    engine.load_initial_data(workload.initial_data())
    engine.run_closed_loop(workload.transaction_factory,
                           total_transactions=20, clients=6)
    for shards in (2, 1):
        engine.reshard(ReshardPlan(shards=shards))
        _drain(engine)
        assert engine.proxy.config.shards == shards
        stats = engine.run_closed_loop(workload.transaction_factory,
                                       total_transactions=20, clients=6)
    assert engine.proxy.config.generation == 2
    assert (_digests(stats, engine.storage) + (_bytes_digest(engine.storage),)
            == RESHARD_GOLDEN[seed])
