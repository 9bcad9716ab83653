"""The benchmark's workloads: engine configurations and seeded input generators.

Each workload is chosen so that one group of layers does most of the wall
time on it and little on another workload (see ``README.md`` for the
prediction table).  Inputs come only from the seed: the same seed gives the
same initial data and the same stream of transaction programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.api import EngineConfig, PoissonArrivals, create_engine
from repro.audit.observer import AuditingObserver
from repro.core.client import AbortRequest
from repro.workloads.records import encode_record
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


class TrackedProgram:
    """A program factory that remembers whether its latest attempt chose to abort.

    SmallBank programs abort on purpose (``AbortRequest`` on insufficient
    funds).  Such a program has completed as its client asked, so it is not
    a failed operation; one that never commits for any other reason is.
    """

    __slots__ = ("factory", "user_aborted")

    def __init__(self, factory) -> None:
        self.factory = factory
        self.user_aborted = False

    def __call__(self):
        self.user_aborted = False
        return self._attempt(self.factory())

    def _attempt(self, generator):
        sent = None
        while True:
            try:
                op = generator.send(sent)
            except StopIteration as stop:
                return stop.value
            if op.__class__ is AbortRequest:
                self.user_aborted = True
            sent = yield op


class ProgramSource:
    """Draws tracked programs from a workload generator, keeping every one issued."""

    def __init__(self, draw: Callable[[], Callable]) -> None:
        self._draw = draw
        self.issued = []

    def __call__(self) -> TrackedProgram:
        program = TrackedProgram(self._draw())
        self.issued.append(program)
        return program

    @property
    def user_aborted(self) -> int:
        """Programs whose final attempt aborted on the program's own request."""
        return sum(1 for program in self.issued if program.user_aborted)


class VersionedYCSB(YCSBWorkload):
    """YCSB whose every record write carries bytes no other write produced.

    The stock generator rewrites a record with its initial payload, so a
    lost update would read back as the right bytes.  A per-write sequence
    number in the record makes the delivered-bytes check able to see it.
    """

    def __init__(self, config: YCSBConfig) -> None:
        super().__init__(config)
        self._writes = 0

    def value(self, index: int) -> bytes:
        self._writes += 1
        filler = "x" * max(0, self.config.value_size - 40)
        return encode_record({"id": index, "v": self._writes, "f": filler})


@dataclass(frozen=True)
class Workload:
    """One named workload: what it runs, on which engine, and how it is driven.

    ``transactions`` is the fixed size of one repetition; a benchmark run
    repeats it at the same seed until its time is up, so every metric
    describes the same amount of work on any host.
    """

    name: str
    why: str
    engine_kind: str
    loop: str                      # "closed" or "open"
    transactions: int
    clients: int
    max_retries: int
    audit: bool
    #: Read-back wave shape: (programs per wave, keys each program reads).
    readback: Tuple[int, int]
    generator: Dict[str, object]
    engine: Dict[str, object] = field(default_factory=dict)
    arrival_tps: Optional[float] = None

    def make_generator(self, seed: int):
        """The seeded input generator (initial data and program stream)."""
        params = dict(self.generator)
        kind = params.pop("kind")
        if kind == "smallbank":
            return SmallBankWorkload(SmallBankConfig(seed=seed, **params))
        return VersionedYCSB(YCSBConfig(seed=seed, **params))

    def engine_config(self, seed: int) -> EngineConfig:
        """The engine configuration; only Obladi reads the ORAM/epoch fields."""
        e = self.engine
        config = EngineConfig().with_backend("server").with_seed(seed)
        if self.engine_kind != "obladi":
            return config
        return (config.with_workload(e["preset"])
                .with_oram(num_blocks=e["num_blocks"], z_real=e["z_real"],
                           block_size=e["block_size"])
                .with_batching(read_batches=e["read_batches"],
                               read_batch_size=e["read_batch_size"],
                               write_batch_size=e["write_batch_size"],
                               batch_interval_ms=e.get("batch_interval_ms"))
                .with_durability(e["durability"],
                                 checkpoint_frequency=e.get("checkpoint_frequency"))
                .with_encryption(True)
                .with_sharding(e["shards"])
                .with_storage_servers(e.get("storage_servers", 1))
                .with_proxy_workers(e.get("proxy_workers", 1)))

    def create(self, seed: int, data: Dict[str, bytes]):
        """``create_engine`` plus ``load_initial_data``: what ``setup_s`` times."""
        engine = create_engine(self.engine_kind, self.engine_config(seed))
        engine.load_initial_data(data)
        return engine

    def attach_auditor(self, engine) -> Optional[AuditingObserver]:
        return engine.attach_observer(AuditingObserver()) if self.audit else None

    def drive(self, engine, source: ProgramSource, seed: int):
        """Run one repetition's programs through the engine; returns ``RunStats``."""
        if self.loop == "closed":
            return engine.run_closed_loop(source, total_transactions=self.transactions,
                                          clients=self.clients,
                                          max_retries=self.max_retries)
        return engine.run_open_loop(source, total_transactions=self.transactions,
                                    arrivals=PoissonArrivals(self.arrival_tps, seed=seed),
                                    clients=self.clients, max_retries=self.max_retries)

    def scaled(self, transactions: int, **generator) -> "Workload":
        """The same workload at another size (the benchmark's own tests use it)."""
        return replace(self, transactions=transactions,
                       generator={**self.generator, **generator})


SMALLBANK = {"kind": "smallbank", "num_accounts": 2000}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="smallbank-oram",
        why=("ORAM planning, crypto, storage and the sim scheduler carry the wall "
             "time; durability is off, so recovery does nothing"),
        engine_kind="obladi", loop="closed", transactions=2200, clients=24,
        max_retries=2, audit=False, readback=(64, 3), generator=SMALLBANK,
        engine={"preset": "smallbank", "num_blocks": 4096, "z_real": 8,
                "block_size": 192, "read_batches": 3, "read_batch_size": 64,
                "write_batch_size": 64, "batch_interval_ms": 1.0,
                "durability": False, "shards": 4}),
    Workload(
        name="ycsb-durable-open",
        why=("write-heavy zipfian ORAM traffic with WAL, checkpoints, two storage "
             "servers, two proxy workers, the open loop and the auditor"),
        engine_kind="obladi", loop="open", transactions=1200, clients=64,
        max_retries=40, audit=True, readback=(64, 1), arrival_tps=600.0,
        generator={"kind": "ycsb", "num_records": 2000, "read_proportion": 0.2,
                   "update_proportion": 0.8, "distribution": "zipfian",
                   "zipfian_theta": 0.99, "ops_per_transaction": 4},
        engine={"preset": "ycsb", "num_blocks": 4096, "z_real": 8,
                "block_size": 192, "read_batches": 1, "read_batch_size": 64,
                "write_batch_size": 64, "durability": True,
                "checkpoint_frequency": 4, "shards": 2, "storage_servers": 2,
                "proxy_workers": 2}),
    Workload(
        name="smallbank-nopriv",
        why=("the paper's NoPriv denominator: no ORAM, so the loop driver, MVTSO, "
             "the NoPriv executor and the auditor carry the wall time"),
        engine_kind="nopriv", loop="closed", transactions=20000, clients=24,
        max_retries=2, audit=True, readback=(256, 4), generator=SMALLBANK),
)}
