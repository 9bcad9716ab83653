"""Tests for the parallel-batch dependency model."""

from unittest import mock

from repro.api import EngineConfig, create_engine
from repro.oram.dependency import (DependencyGraphBuilder, simulate_parallel_read_batch,
                                   simulate_parallel_write_batch,
                                   simulate_sequential_read_batch)
from repro.sim.latency import BACKENDS
from repro.sim.scheduler import ParallelScheduler
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload


def make_reads(n, buckets=None):
    """Bucket ids of ``n`` physical slot reads (distinct buckets by default)."""
    return list(buckets) if buckets is not None else list(range(n))


class TestGraphBuilder:
    def test_two_ops_per_read(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(5))
        assert len(ops) == 10

    def test_same_bucket_metadata_is_chained(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(3, buckets=[7, 7, 7]))
        meta_ops = [op for op in ops if op.tag.startswith("meta:")]
        chained = [op for op in meta_ops if op.deps]
        assert len(chained) == 2

    def test_different_buckets_not_chained(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(3, buckets=[1, 2, 3]))
        meta_ops = [op for op in ops if op.tag.startswith("meta:")]
        assert all(not op.deps for op in meta_ops)

    def test_fetch_depends_on_its_metadata(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(2))
        fetches = [op for op in ops if op.tag.startswith("fetch:")]
        assert all(len(op.deps) == 1 for op in fetches)

    def test_write_ops_one_per_bucket(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_write_ops({1: 10, 2: 10, 5: 10})
        assert len(ops) == 3
        assert all(not op.deps for op in ops)


class TestSimulatedSchedules:
    def test_parallel_beats_sequential_on_remote_backends(self):
        reads = make_reads(64, buckets=list(range(64)))
        for backend in ("server", "server_wan", "dynamo"):
            parallel = simulate_parallel_read_batch(reads, BACKENDS[backend], 128).makespan_ms
            sequential = simulate_sequential_read_batch(reads, BACKENDS[backend])
            assert parallel < sequential, backend

    def test_parallel_does_not_beat_sequential_on_dummy(self):
        # The zero-latency backend is CPU bound; coordination makes the
        # parallel executor no faster (paper Figure 10a).
        reads = make_reads(256, buckets=[i % 15 for i in range(256)])
        parallel = simulate_parallel_read_batch(reads, BACKENDS["dummy"], 128).makespan_ms
        sequential = simulate_sequential_read_batch(reads, BACKENDS["dummy"])
        assert parallel >= sequential * 0.9

    def test_speedup_grows_with_latency(self):
        reads = make_reads(200, buckets=[i % 63 for i in range(200)])
        speedups = {}
        for backend in ("server", "server_wan"):
            model = BACKENDS[backend]
            parallel = simulate_parallel_read_batch(reads, model, 256).makespan_ms
            sequential = simulate_sequential_read_batch(reads, model)
            speedups[backend] = sequential / parallel
        assert speedups["server_wan"] > speedups["server"]

    def test_crypto_cost_increases_makespan_when_cpu_bound(self):
        reads = make_reads(512, buckets=[i % 7 for i in range(512)])
        with_crypto = simulate_parallel_read_batch(reads, BACKENDS["dummy"], 64,
                                                   encrypted=True).makespan_ms
        without = simulate_parallel_read_batch(reads, BACKENDS["dummy"], 64,
                                               encrypted=False).makespan_ms
        assert with_crypto > without

    def test_dispatch_floor_limits_large_batches(self):
        model = BACKENDS["server"]
        small = simulate_parallel_read_batch(make_reads(10), model, 1024).makespan_ms
        large = simulate_parallel_read_batch(make_reads(1000), model, 1024).makespan_ms
        assert large > small
        assert large >= 1000 * model.dispatch_ms_per_request

    def test_write_batch_scales_with_slot_count(self):
        model = BACKENDS["server"]
        small = simulate_parallel_write_batch({1: 10}, model, 64).makespan_ms
        large = simulate_parallel_write_batch({i: 10 for i in range(100)}, model, 64).makespan_ms
        assert large > small

    def test_empty_batch_is_free(self):
        assert simulate_parallel_read_batch([], BACKENDS["server"], 8).makespan_ms == 0.0

    def test_dynamo_parallelism_capped(self):
        reads = make_reads(640, buckets=list(range(640)))
        dynamo = simulate_parallel_read_batch(reads, BACKENDS["dynamo"], 1024).makespan_ms
        server = simulate_parallel_read_batch(reads, BACKENDS["server"], 1024).makespan_ms
        assert dynamo > server


class TestSchedulerFallback:
    """The closed form covers unbounded pools; bounded pools still list-schedule."""

    @staticmethod
    def _epoch_schedule_calls(parallelism):
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=200, seed=5))
        config = (EngineConfig()
                  .with_oram(num_blocks=1024, z_real=8, block_size=192)
                  .with_batching(read_batches=3, read_batch_size=64, write_batch_size=64)
                  .with_backend("server")
                  .with_durability(False)
                  .with_sharding(4)
                  .with_seed(5))
        if parallelism is not None:
            config = config.with_parallelism(parallelism)
        engine = create_engine("obladi", config)
        engine.load_initial_data(workload.initial_data())
        programs = workload.transaction_factories(24)
        with mock.patch.object(ParallelScheduler, "schedule", autospec=True,
                               side_effect=ParallelScheduler.schedule) as spy:
            results = engine.submit_many(programs)
        assert any(result.committed for result in results)
        return spy.call_count

    def test_default_parallelism_epoch_never_list_schedules(self):
        assert self._epoch_schedule_calls(None) == 0

    def test_bounded_pool_epoch_still_list_schedules(self):
        assert self._epoch_schedule_calls(64) > 0
