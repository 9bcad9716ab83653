"""Partitioned oblivious storage: the proxy's data layer.

The proxy's data path — key directory, version cache, Ring ORAM batches —
is one class, :class:`PartitionedDataLayer`, running ``config.shards >= 1``
hash-partitioned Ring ORAM trees.  One partition is the paper's proxy (a
single tree over the raw store); more are the "sharded Obladi" scale
direction.

A partitioned layer also decides *where* each partition lives: with
``storage_servers > 1`` the partitions are hosted on distinct simulated
servers of a :class:`~repro.storage.cluster.StorageCluster`, each link timed
by its own latency model, and partition-batch fan-out is staggered across
``config.fanout_lanes`` lanes when partitions outnumber the proxy's
parallelism (:class:`FanoutStats` records the bounds).

This package shards the *untrusted* data path; its trusted-tier sibling is
``repro.proxytier`` (same keyed-sha256 partition map, applied to proxy
workers).  ``docs/ARCHITECTURE.md`` walks both layers.
"""

from repro.sharding.data_layer import OramPartition, key_partition
from repro.sharding.partitioned import FanoutStats, PartitionedDataLayer

__all__ = [
    "OramPartition",
    "PartitionedDataLayer",
    "FanoutStats",
    "key_partition",
]
