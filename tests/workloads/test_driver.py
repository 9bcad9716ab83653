"""Tests for driving workloads closed loop through the engine layer."""

import pytest

from repro.api import RunStats, create_engine
from repro.core.config import ObladiConfig, RingOramConfig
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload


@pytest.fixture
def smallbank():
    return SmallBankWorkload(SmallBankConfig(num_accounts=60, seed=5))


def _obladi(smallbank, **overrides):
    config = ObladiConfig(
        oram=RingOramConfig(num_blocks=512, z_real=8, block_size=192),
        read_batches=3, read_batch_size=24, write_batch_size=24,
        backend="server", durability=False, seed=2, **overrides,
    )
    engine = create_engine("obladi", config)
    engine.load_initial_data(smallbank.initial_data())
    return engine


@pytest.fixture
def obladi(smallbank):
    return _obladi(smallbank)


@pytest.fixture
def nopriv(smallbank):
    engine = create_engine("nopriv", backend="server")
    engine.load_initial_data(smallbank.initial_data())
    return engine


class TestLoopReportsTopologyStats:
    """The closed loop reports per-server and per-partition breakdowns."""

    def _sharded(self, smallbank, storage_servers):
        return _obladi(smallbank, encrypt=False, shards=4,
                       storage_servers=storage_servers)

    def test_obladi_loop_reports_per_server_stats(self, smallbank):
        engine = self._sharded(smallbank, storage_servers=4)
        run = engine.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.server_physical) == 4
        assert len(run.partition_physical) == 4
        # One homogeneous server per partition and no durability traffic:
        # each server observed exactly its partition's reads.
        for (server_reads, _), (part_reads, _) in zip(run.server_physical,
                                                      run.partition_physical):
            assert server_reads == part_reads
        assert sum(r for r, _ in run.server_physical) > 0

    def test_obladi_loop_reports_single_server_for_colocated(self, smallbank):
        engine = self._sharded(smallbank, storage_servers=1)
        run = engine.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.server_physical) == 1
        assert run.server_physical[0][0] == run.physical_reads

    def test_baseline_loop_reports_server_stats(self, nopriv, smallbank):
        run = nopriv.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.server_physical) == 1
        assert run.server_physical[0] == (run.physical_reads, run.physical_writes)


class TestObladiDriver:
    def test_closed_loop_commits_requested_transactions(self, obladi, smallbank):
        run = obladi.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=24, clients=6)
        assert run.committed + run.aborted >= 24
        assert run.committed > 0
        assert run.epochs >= 4
        assert run.elapsed_ms > 0
        assert run.throughput_tps > 0

    def test_latencies_collected_for_committed(self, obladi, smallbank):
        run = obladi.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.latencies_ms) == run.committed
        assert run.average_latency_ms > 0

    def test_physical_work_recorded(self, obladi, smallbank):
        run = obladi.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert run.physical_reads > 0
        assert run.physical_writes > 0


class TestBaselineDriver:
    def test_baseline_closed_loop(self, nopriv, smallbank):
        run = nopriv.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=30, clients=6)
        assert run.engine == "nopriv"
        assert run.committed > 0
        assert run.elapsed_ms > 0


class TestRunStatsMetrics:
    def test_zero_division_guards(self):
        run = RunStats(engine="x")
        assert run.throughput_tps == 0.0
        assert run.average_latency_ms == 0.0
        assert run.abort_rate == 0.0

    def test_abort_rate(self):
        run = RunStats(engine="x", committed=8, aborted=2)
        assert run.abort_rate == pytest.approx(0.2)
