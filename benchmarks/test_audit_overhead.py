"""Audit overhead: what continuous integrity checking costs.

The streaming auditor (:mod:`repro.audit`) rides along as a passive engine
observer, so its entire cost is wall-clock CPU on the auditing host — it
must not move a single *simulated* number.  This benchmark runs the same
fixed-seed SmallBank closed-loop workload twice, bare and audited, and pins
three claims:

* **Zero simulated perturbation.**  The audited run's ``RunStats`` repr is
  byte-identical to the bare run's (the ``audit`` field is excluded from
  repr), so every figure stays valid with auditing enabled.
* **Bounded memory.**  The auditor's retained-node high-water mark stays
  far below the total history it certified — the epoch-fenced GC collapses
  the settled prefix into per-key frontiers.
* **Modest wall-clock overhead.**  Maintaining the DSG incrementally costs
  a bounded multiple of the bare run's wall time (a loose 2x bound; in
  practice it is a few percent).

The overhead is measured as the median ratio of three *interleaved*
bare/audited rounds after a discarded warm-up run — a single cold
``perf_counter`` sample per arm once put the *audited* arm ahead of the
bare one (overhead_ratio 0.83), which is physically meaningless: the bare
arm ran first and soaked up the process's import/allocator warm-up, and
host-speed drift between the two measurement windows did the rest.
The measured numbers are snapshotted to ``BENCH_audit.json`` and both arms
are appended to a trajectory ledger via :mod:`repro.harness.perfbench`, both
in the session's ``bench_out`` directory (never the checkout).
"""

import json
import statistics
import time

from repro.api import EngineConfig, create_engine
from repro.audit import AuditingObserver
from repro.harness import perfbench
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

from .conftest import SCALE, run_once


def _engine(num_accounts, clients, seed=11):
    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend("server")
              .with_oram(num_blocks=max(2048, 4 * num_accounts), z_real=8,
                         block_size=192)
              .with_batching(read_batches=3, read_batch_size=2 * clients,
                             write_batch_size=2 * clients)
              .with_durability(False)
              .with_encryption(False)
              .with_seed(seed))
    engine = create_engine("obladi", config)
    workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts,
                                                 seed=seed))
    engine.load_initial_data(workload.initial_data())
    return engine, workload


def test_audit_overhead(benchmark, bench_scale, bench_out):
    """Bare vs audited run of the same fixed-seed workload."""
    transactions = bench_scale["transactions"]
    clients = bench_scale["clients"]
    num_accounts = max(200, int(10_000 * bench_scale["workload_scale"]))

    def arm(audited):
        engine, workload = _engine(num_accounts, clients)
        if audited:
            engine.attach_observer(AuditingObserver())
        started = time.perf_counter()
        stats = engine.run_closed_loop(workload.transaction_factory,
                                       total_transactions=transactions,
                                       clients=clients)
        return stats, time.perf_counter() - started

    def pair():
        # Discarded warm-up: the first run in a fresh process pays import,
        # allocator and cache warm-up that would otherwise land entirely in
        # whichever arm is timed first (it once made the *audited* arm look
        # 17% faster than bare).
        arm(False)
        # Three interleaved bare/audited rounds: back-to-back pairs share
        # whatever thermal/scheduling state the host is in, so the per-round
        # *ratio* is robust to the slow drift that independent medians of a
        # single cold sample are hostage to.
        rounds = [(arm(False), arm(True)) for _ in range(3)]
        walls = {False: statistics.median(b[1] for b, _ in rounds),
                 True: statistics.median(a[1] for _, a in rounds)}
        ratio = statistics.median(a[1] / max(b[1], 1e-9) for b, a in rounds)
        stats = {False: rounds[-1][0][0], True: rounds[-1][1][0]}
        return stats, walls, ratio

    stats, walls, overhead = run_once(benchmark, pair)
    bare, bare_wall = stats[False], walls[False]
    audited, audited_wall = stats[True], walls[True]

    # Claim 1: the simulation is untouched — byte-identical RunStats.
    assert bare.audit is None and audited.audit is not None
    assert repr(bare) == repr(audited)

    # Claim 2: the history is certified with bounded memory.
    report = audited.audit
    assert report.ok, report.violations[:1]
    assert report.txns_ingested == audited.committed
    assert report.txns_settled > report.txns_ingested / 2
    # Retention is bounded by the settle window (settle_lag + 1 waves of at
    # most ``clients`` transactions), independent of how long the run is.
    assert report.max_retained_nodes <= 3 * clients
    assert report.max_retained_nodes < report.txns_ingested

    # Claim 3: loose wall-clock bound (generous — CI machines are noisy).
    # ``overhead`` is the median of the per-round audited/bare ratios.
    assert overhead < 2.0, f"auditing cost {overhead:.2f}x wall clock"

    snapshot = {
        "workload": "smallbank-closed-loop",
        "transactions": transactions,
        "clients": clients,
        "committed": audited.committed,
        "throughput_tps_simulated": audited.throughput_tps,
        "bare_wall_s": round(bare_wall, 4),
        "audited_wall_s": round(audited_wall, 4),
        "overhead_ratio": round(overhead, 4),
        "audit_ok": report.ok,
        "txns_ingested": report.txns_ingested,
        "txns_settled": report.txns_settled,
        "max_retained_nodes": report.max_retained_nodes,
        "max_retained_edges": report.max_retained_edges,
        "watermark_ts": report.watermark_ts,
    }
    with open(bench_out.dir / "BENCH_audit.json", "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # Append both arms to the trajectory ledger.
    signature = perfbench.results_signature(bare)
    for bench, wall, stats in (("audit-overhead-bare", bare_wall, bare),
                               ("audit-overhead-audited", audited_wall, audited)):
        perfbench.append_entry(
            bench_out.ledger, bench, wall, scale=SCALE, repeats=3,
            metrics={"committed": stats.committed,
                     "simulated_tps": round(stats.throughput_tps, 1),
                     "overhead_ratio": round(overhead, 4)},
            signature=signature)

    print(f"\n  bare {bare_wall * 1e3:8.1f} ms   audited {audited_wall * 1e3:8.1f} ms"
          f"   overhead {overhead:5.2f}x")
    print(f"  ingested {report.txns_ingested}   settled {report.txns_settled}"
          f"   retained high-water {report.max_retained_nodes} nodes"
          f" / {report.max_retained_edges} edges")
