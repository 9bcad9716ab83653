"""The closed-form batch makespans equal the list-scheduled DAG, bit for bit.

``simulate_parallel_read_batch`` and ``simulate_parallel_write_batch`` skip
:class:`ParallelScheduler` when every op of the batch has its own lane.  The
reference below is the pre-closed-form computation: build the DAG, list
schedule it on the effective pool, then apply the coordinator and dispatch
floors.  Results are compared with ``==``, never ``approx``.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oram.dependency import (DependencyGraphBuilder, simulate_parallel_read_batch,
                                   simulate_parallel_write_batch)
from repro.sim.latency import BACKENDS, CpuCostModel
from repro.sim.scheduler import ParallelScheduler

BACKEND_NAMES = sorted(BACKENDS)
COST_MODEL = CpuCostModel()

#: How a batch size relates to the pool: anywhere that fits, exactly full,
#: or one op over (read batches have two ops per slot read).
FITS, FULL, OVER = "fits", "full", "over"


def reference_read(bucket_ids, latency, lanes, encrypted):
    builder = DependencyGraphBuilder(latency=latency, cost_model=COST_MODEL)
    result = ParallelScheduler(lanes).schedule(builder.build_read_ops(bucket_ids, encrypted))
    cm = COST_MODEL
    per_block_cpu = (cm.metadata_per_block_ms + cm.coordination_per_block_ms
                     + (cm.crypto_per_block_ms if encrypted else 0.0))
    result.makespan_ms = max(result.makespan_ms, len(bucket_ids) * per_block_cpu,
                             len(bucket_ids) * latency.dispatch_ms_per_request)
    return result


def reference_write(slot_counts, latency, lanes, encrypted):
    builder = DependencyGraphBuilder(latency=latency, cost_model=COST_MODEL)
    result = ParallelScheduler(lanes).schedule(builder.build_write_ops(slot_counts, encrypted))
    cm = COST_MODEL
    per_slot_cpu = cm.metadata_per_block_ms + (cm.crypto_per_block_ms if encrypted else 0.0)
    result.makespan_ms = max(result.makespan_ms, sum(slot_counts.values()) * per_slot_cpu,
                             len(slot_counts) * latency.dispatch_ms_per_request)
    return result


def count_schedule_calls():
    """Patch ``ParallelScheduler.schedule`` with a call-counting pass-through."""
    return mock.patch.object(ParallelScheduler, "schedule", autospec=True,
                             side_effect=ParallelScheduler.schedule)


def assert_same_schedule(got, want):
    assert got.makespan_ms == want.makespan_ms
    assert got.critical_path_ms == want.critical_path_ms
    assert got.total_work_ms == want.total_work_ms


@st.composite
def read_batches(draw):
    """(backend, lanes, encrypted, bucket ids, expected schedule calls)."""
    backend = draw(st.sampled_from(BACKEND_NAMES))
    cap = min(BACKENDS[backend].max_parallel_requests, 600)
    shape = draw(st.sampled_from([FITS, FULL, OVER]))
    if shape == FITS:
        lanes = draw(st.integers(1, cap))
        size = draw(st.integers(0, lanes // 2))
    else:
        half = draw(st.integers(1, cap // 2))
        size = half
        lanes = 2 * half if shape == FULL else 2 * half - 1
    # Few distinct buckets relative to the batch, so metadata chains form.
    distinct = draw(st.integers(1, max(1, size)))
    bucket_ids = draw(st.lists(st.integers(0, distinct - 1), min_size=size, max_size=size))
    encrypted = draw(st.booleans())
    return backend, lanes, encrypted, bucket_ids, 0 if 2 * size <= lanes else 1


@st.composite
def write_batches(draw):
    """(backend, lanes, encrypted, bucket -> slot count, expected schedule calls)."""
    backend = draw(st.sampled_from(BACKEND_NAMES))
    cap = min(BACKENDS[backend].max_parallel_requests, 600)
    shape = draw(st.sampled_from([FITS, FULL, OVER]))
    if shape == FITS:
        lanes = draw(st.integers(1, cap))
        size = draw(st.integers(0, lanes))
    else:
        lanes = draw(st.integers(1, cap - 1))
        size = lanes if shape == FULL else lanes + 1
    buckets = draw(st.lists(st.integers(0, 4 * size + 4), min_size=size, max_size=size,
                            unique=True))
    counts = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
    encrypted = draw(st.booleans())
    return backend, lanes, encrypted, dict(zip(buckets, counts)), 0 if size <= lanes else 1


class TestClosedFormMatchesListSchedule:
    @settings(max_examples=300, deadline=None)
    @given(read_batches())
    def test_read_batch(self, case):
        backend, lanes, encrypted, bucket_ids, expected_calls = case
        latency = BACKENDS[backend]
        assert latency.effective_parallelism(lanes) == lanes
        want = reference_read(bucket_ids, latency, lanes, encrypted)
        with count_schedule_calls() as spy:
            got = simulate_parallel_read_batch(bucket_ids, latency, lanes, COST_MODEL,
                                               encrypted=encrypted)
        assert spy.call_count == expected_calls
        assert_same_schedule(got, want)

    @settings(max_examples=300, deadline=None)
    @given(write_batches())
    def test_write_batch(self, case):
        backend, lanes, encrypted, slot_counts, expected_calls = case
        latency = BACKENDS[backend]
        assert latency.effective_parallelism(lanes) == lanes
        want = reference_write(slot_counts, latency, lanes, encrypted)
        with count_schedule_calls() as spy:
            got = simulate_parallel_write_batch(slot_counts, latency, lanes, COST_MODEL,
                                                encrypted=encrypted)
        assert spy.call_count == expected_calls
        assert_same_schedule(got, want)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.integers(1, 600))
    def test_single_bucket_chain(self, meta_ms, length):
        """One bucket read ``length`` times: the chain is summed, not multiplied."""
        cost_model = CpuCostModel(metadata_per_block_ms=meta_ms, coordination_per_block_ms=0.0)
        latency = BACKENDS["server"]
        builder = DependencyGraphBuilder(latency=latency, cost_model=cost_model)
        scheduled = ParallelScheduler(2 * length).schedule(
            builder.build_read_ops([0] * length, encrypted=False))
        closed = simulate_parallel_read_batch([0] * length, latency, 2 * length, cost_model,
                                              encrypted=False)
        assert closed.critical_path_ms == scheduled.critical_path_ms
