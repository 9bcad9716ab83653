"""Building blocks of one Ring ORAM partition.

A partition is the paper's proxy data path: one ``RingOram`` tree, one
``EpochBatchExecutor`` and one ``DataHandler`` with its key directory, over
one view of the untrusted storage.
:class:`~repro.sharding.partitioned.PartitionedDataLayer` runs
``config.shards >= 1`` of them; ``shards=1`` is the paper's single tree over
the raw store, a one-partition layer rather than a second class.

This module holds what every partition shares: the keyed-sha256 key
routing (:func:`key_partition`), the :class:`OramPartition` record and the
:func:`build_partition` factory that sizes, keys and seeds one partition.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.config import ObladiConfig
from repro.core.data_handler import DataHandler, KeyDirectory
from repro.core.version_cache import VersionCache
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite
from repro.oram.ring_oram import RingOram
from repro.sim.clock import SimClock
from repro.storage.backend import StorageServer
from repro.storage.namespace import NamespacedStorage, partition_prefix


def key_partition(key: str, shards: int, partition_seed: int = 0) -> int:
    """Deterministic partition of an application key.

    Uses a keyed cryptographic hash rather than Python's builtin ``hash``
    (which is salted per process): the mapping must survive proxy crashes so
    recovery re-routes every key to the partition that holds it.
    """
    if shards <= 1:
        return 0
    digest = hashlib.sha256(f"{partition_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass
class OramPartition:
    """One Ring ORAM partition: tree, executor, key directory, storage view."""

    index: int
    oram: RingOram
    executor: EpochBatchExecutor
    handler: DataHandler
    storage: StorageServer
    component_prefix: str       # storage/checkpoint namespace ("", "p<i>/", "g<g>/…")

    @property
    def directory(self) -> KeyDirectory:
        """The partition's application-key → block-id directory."""
        return self.handler.directory

    @property
    def cipher(self) -> CipherSuite:
        """The partition's ORAM block cipher (per-partition derived key)."""
        return self.oram.cipher


def _oram_cipher_key(master_key: bytes, partition_index: int, shards: int) -> bytes:
    """Per-partition ORAM block key derived from the proxy's master key.

    A single-ORAM layer keeps the historical ``"oram-block"`` purpose string
    so existing deployments (and the recovery path) stay compatible;
    partitions get distinct keys so identical (bucket, version, slot)
    freshness contexts in different partitions never share a keystream.
    """
    from repro.recovery.manager import derive_key
    if shards <= 1:
        return derive_key(master_key, "oram-block")
    return derive_key(master_key, f"oram-block/p{partition_index}")


def build_partition(config: ObladiConfig, index: int, host: StorageServer,
                    clock: SimClock, master_key: bytes, cache: VersionCache,
                    latency=None) -> OramPartition:
    """Assemble partition ``index``'s ORAM stack over its ``host`` server.

    The partition addresses ``host`` through its storage namespace: the
    topology generation's prefix (``""`` at generation 0, ``g<g>/`` after a
    reshard cutover) plus ``p<i>/`` when there is more than one partition.
    A one-partition layer therefore keeps the paper's single-tree layout
    byte-for-byte: the raw store at generation 0, the whole ORAM sizing, the
    configured RNG seed and the historical cipher key.

    ``latency`` is the latency model of the proxy-to-server *link* this
    partition's physical batches travel; it defaults to the configured
    backend and differs per partition only when the partitions live on
    distinct storage servers (see :mod:`repro.storage.cluster`).  The
    executor defers its batch durations: the layer advances the shared
    clock once per fan-out.
    """
    shards = config.shards
    if shards <= 1:
        prefix, seed, oram_config = config.generation_prefix, config.seed, config.oram
    else:
        prefix = config.generation_prefix + partition_prefix(index)
        # Distinct deterministic RNG streams per partition (position
        # remapping, permutations); None stays None (non-reproducible).
        seed = None if config.seed is None else (
            config.seed + 1_000_003 * (index + 1) + config.partition_seed)
        oram_config = config.oram.for_partition(shards)
    storage = NamespacedStorage(host, prefix) if prefix else host
    params = oram_config.to_parameters()
    cipher = CipherSuite(key=_oram_cipher_key(master_key, index, shards),
                         block_size=params.block_size + 8,
                         enabled=config.encrypt)
    oram = RingOram(params, storage, cipher=cipher, clock=clock,
                    cost_model=config.cost_model, seed=seed)
    executor = EpochBatchExecutor(oram,
                                  latency=latency if latency is not None
                                  else config.backend,
                                  parallelism=config.parallelism,
                                  cost_model=config.cost_model,
                                  buffer_writes=config.buffer_writes,
                                  advance_clock=False)
    handler = DataHandler(oram, executor, cache=cache)
    return OramPartition(index=index, oram=oram, executor=executor, handler=handler,
                         storage=storage, component_prefix=prefix)
