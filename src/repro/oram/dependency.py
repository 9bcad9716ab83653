"""Dependency analysis for the parallel ORAM executor.

Section 7 of the paper parallelises Ring ORAM using multilevel
serializability: two physical operations must be ordered only if they
conflict, and conflicts are narrow —

* reads to the *same bucket* between reshuffles always touch distinct
  physical slots, so their data accesses never conflict; only their updates
  to the bucket's metadata (access counter, valid map) must be serialised;
* every path read touches the root, so metadata updates near the top of the
  tree form the dependency chains that ultimately bound parallel speedup
  (Figures 10a/10b);
* evictions conflict with reads on the buckets of the evicted path.

The reproduction models the metadata serialisation explicitly: for each
bucket we chain the metadata sub-operations of every physical access that
touches it, while the (much more expensive) network fetches of distinct
slots proceed in parallel.  A batch is described by the bucket id of each
physical slot read, in issue order.

**Closed form.**  When a batch's DAG has no more operations than the pool
has lanes, a greedy list schedule never makes an operation wait for a
lane: every operation starts at its earliest-start time, so the makespan
*is* the DAG's longest path.  For a read batch that path is the longest
per-bucket metadata chain followed by one fetch; for the flat write batch
it is the slowest bucket write.  Both simulate functions compute that
directly and fall back to :class:`repro.sim.scheduler.ParallelScheduler`
only for pools narrower than the batch (the ``dynamo`` backend's 64
lanes, small-parallelism sweeps).  The closed form repeats the
scheduler's float arithmetic operation for operation — a chain of ``k``
metadata ops finishes at ``0.0 + meta + ... + meta`` (``k`` additions,
left to right), which is not always ``k * meta`` — so the simulated
numbers are bit-identical to the list schedule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.latency import CpuCostModel, LatencyModel
from repro.sim.scheduler import ParallelScheduler, ScheduledOp, ScheduleResult


@dataclass
class DependencyGraphBuilder:
    """Builds the (metadata-chain + fetch) DAG for one physical read batch.

    For every physical read we create two scheduler operations:

    1. a *metadata* op (small CPU cost) chained after the previous metadata
       op on the same bucket — this is the per-bucket serialisation required
       by multilevel serializability;
    2. a *fetch* op (one storage round trip) depending only on its own
       metadata op — fetches to different slots never conflict.

    Writes are not modelled here: Obladi defers all bucket writes to the end
    of the epoch, where they form a single deduplicated parallel write batch.
    The per-op durations live in :meth:`meta_ms`, :meth:`fetch_ms` and
    :meth:`write_ms` so the DAG and the closed form price ops identically.
    """

    latency: LatencyModel
    cost_model: CpuCostModel = field(default_factory=CpuCostModel)

    def meta_ms(self) -> float:
        """Duration of one per-bucket metadata op."""
        return (self.cost_model.metadata_per_block_ms
                + self.cost_model.coordination_per_block_ms)

    def fetch_ms(self, encrypted: bool = True) -> float:
        """Duration of one slot fetch: a round trip plus decryption."""
        crypto_cost = self.cost_model.crypto_per_block_ms if encrypted else 0.0
        return (self.latency.read_rtt_ms + self.latency.per_request_server_ms) + crypto_cost

    def write_ms(self, slot_count: int, encrypted: bool = True) -> float:
        """Duration of one bucket write carrying ``slot_count`` slots."""
        crypto_cost = self.cost_model.crypto_per_block_ms if encrypted else 0.0
        return (self.latency.write_rtt_ms
                + self.latency.per_request_server_ms * slot_count
                + crypto_cost * slot_count
                + self.cost_model.metadata_per_block_ms * slot_count)

    def build_read_ops(self, bucket_ids: Sequence[int],
                       encrypted: bool = True) -> List[ScheduledOp]:
        """Operations for a read batch; ``bucket_ids`` holds one entry per slot read."""
        ops: List[ScheduledOp] = []
        last_meta_for_bucket: Dict[int, int] = {}
        meta_cost = self.meta_ms()
        fetch_cost = self.fetch_ms(encrypted)
        for index, bucket_id in enumerate(bucket_ids):
            meta_id = 2 * index
            previous = last_meta_for_bucket.get(bucket_id)
            ops.append(ScheduledOp(op_id=meta_id, duration_ms=meta_cost,
                                   deps=() if previous is None else (previous,),
                                   tag=f"meta:{bucket_id}"))
            last_meta_for_bucket[bucket_id] = meta_id
            ops.append(ScheduledOp(op_id=meta_id + 1, duration_ms=fetch_cost,
                                   deps=(meta_id,), tag=f"fetch:{bucket_id}"))
        return ops

    def build_write_ops(self, bucket_slot_counts: Dict[int, int],
                        encrypted: bool = True) -> List[ScheduledOp]:
        """Operations for the end-of-epoch write-back of deduplicated buckets.

        Each bucket write is one storage round trip carrying its slots, plus
        the CPU cost of re-encrypting every slot; different buckets are
        independent.
        """
        return [ScheduledOp(op_id=index,
                            duration_ms=self.write_ms(slot_count, encrypted),
                            tag=f"write:{bucket_id}")
                for index, (bucket_id, slot_count)
                in enumerate(sorted(bucket_slot_counts.items()))]


def _chain_finish_ms(step_ms: float, length: int) -> float:
    """Finish time of the last op in a chain of ``length`` ops of ``step_ms``.

    Adds ``step_ms`` to ``0.0`` ``length`` times, left to right, exactly as
    the list scheduler accumulates finish times along a chain.
    """
    finish = 0.0
    for _ in range(length):
        finish += step_ms
    return finish


def simulate_parallel_read_batch(bucket_ids: Sequence[int], latency: LatencyModel,
                                 parallelism: int, cost_model: Optional[CpuCostModel] = None,
                                 encrypted: bool = True) -> ScheduleResult:
    """Simulated schedule of a parallel physical read batch.

    ``bucket_ids`` holds the bucket of every physical slot read, in issue
    order.  The makespan is the larger of

    * the DAG makespan (round trips overlapped up to the in-flight cap,
      per-bucket metadata serialised),
    * the *coordinator floor*: the per-block metadata, coordination and
      crypto work, which the proxy's coordination layer serialises — this is
      what makes parallel execution a net loss on the zero-latency ``dummy``
      backend (paper Figure 10a), and
    * the *dispatch floor*: the serial per-request cost of putting physical
      requests on the wire, which caps the achievable speedup on remote
      backends as batch sizes grow (Figure 10b).

    When the batch's ``2 * len(bucket_ids)`` ops fit the effective
    parallelism, the DAG makespan is its longest path,
    ``chain(k_max) + fetch``, where ``k_max`` is the largest number of reads
    on one bucket and ``chain(k)`` sums ``k`` metadata durations left to
    right; the result then carries no ``finish_times``.  Otherwise the DAG is
    list-scheduled by :class:`~repro.sim.scheduler.ParallelScheduler`.
    """
    cm = cost_model or CpuCostModel()
    builder = DependencyGraphBuilder(latency=latency, cost_model=cm)
    lanes = latency.effective_parallelism(parallelism)
    if 2 * len(bucket_ids) <= lanes:
        meta = builder.meta_ms()
        fetch = builder.fetch_ms(encrypted)
        longest_chain = max(Counter(bucket_ids).values(), default=0)
        longest = _chain_finish_ms(meta, longest_chain) + fetch if longest_chain else 0.0
        result = ScheduleResult(makespan_ms=longest, critical_path_ms=longest,
                                total_work_ms=sum([meta, fetch] * len(bucket_ids)))
    else:
        result = ParallelScheduler(lanes).schedule(
            builder.build_read_ops(bucket_ids, encrypted=encrypted))
    per_block_cpu = (cm.metadata_per_block_ms + cm.coordination_per_block_ms
                     + (cm.crypto_per_block_ms if encrypted else 0.0))
    cpu_floor = len(bucket_ids) * per_block_cpu
    dispatch_floor = len(bucket_ids) * latency.dispatch_ms_per_request
    result.makespan_ms = max(result.makespan_ms, cpu_floor, dispatch_floor)
    return result


def simulate_sequential_read_batch(bucket_ids: Sequence[int], latency: LatencyModel,
                                   cost_model: Optional[CpuCostModel] = None,
                                   encrypted: bool = True) -> float:
    """Simulated duration of the same batch executed strictly sequentially.

    Sequential Ring ORAM pays one round trip per slot and the per-block CPU
    costs, with no coordination overhead (Figure 10a's "Sequential" series).
    """
    cm = cost_model or CpuCostModel()
    per_block = (latency.read_rtt_ms + latency.per_request_server_ms
                 + cm.sequential_block_cost_ms(encrypted))
    return per_block * len(bucket_ids)


def simulate_parallel_write_batch(bucket_slot_counts: Dict[int, int], latency: LatencyModel,
                                  parallelism: int,
                                  cost_model: Optional[CpuCostModel] = None,
                                  encrypted: bool = True) -> ScheduleResult:
    """Simulated schedule of the end-of-epoch deduplicated bucket write-back.

    Bucket writes are mutually independent, so the DAG is flat; the same
    coordinator and dispatch floors as the read path apply (the slots of each
    bucket must be re-encrypted and the requests serialised onto the wire).
    When every bucket write has its own lane the DAG makespan is the slowest
    write (no ``finish_times`` are recorded); otherwise the writes are
    list-scheduled by :class:`~repro.sim.scheduler.ParallelScheduler`.
    """
    cm = cost_model or CpuCostModel()
    builder = DependencyGraphBuilder(latency=latency, cost_model=cm)
    lanes = latency.effective_parallelism(parallelism)
    if len(bucket_slot_counts) <= lanes:
        durations = [builder.write_ms(slot_count, encrypted)
                     for _, slot_count in sorted(bucket_slot_counts.items())]
        longest = max(durations, default=0.0)
        result = ScheduleResult(makespan_ms=longest, critical_path_ms=longest,
                                total_work_ms=sum(durations))
    else:
        result = ParallelScheduler(lanes).schedule(
            builder.build_write_ops(bucket_slot_counts, encrypted=encrypted))
    total_slots = sum(bucket_slot_counts.values())
    per_slot_cpu = (cm.metadata_per_block_ms
                    + (cm.crypto_per_block_ms if encrypted else 0.0))
    cpu_floor = total_slots * per_slot_cpu
    dispatch_floor = len(bucket_slot_counts) * latency.dispatch_ms_per_request
    result.makespan_ms = max(result.makespan_ms, cpu_floor, dispatch_floor)
    return result
