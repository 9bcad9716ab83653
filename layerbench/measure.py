"""One repetition of a workload, timed from outside, and the end-to-end metrics.

A repetition is: generate the seeded inputs, time ``create_engine`` plus
``load_initial_data`` (set-up), time the loop driver over the workload's
fixed number of programs, then gate the outputs.  Nothing here imports the
tracing code; a traced run passes a tracer in and this module only tells it
which phase is running.

Timings are *calibrated*.  The speed of a shared host's CPU drifts by tens
of percent within seconds, and wall time drifts with it.  So a fixed
reference kernel is timed right before and right after every timed
interval (each set-up, each engine wave), outside the interval, and the
interval's wall time is scaled by ``REFERENCE_NOMINAL_S`` over the mean of
the two reference times: a calibrated second is a second on a host where
the kernel takes ``REFERENCE_NOMINAL_S``.  Raw wall times are kept as well.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.audit.observer import EngineObserver

from layerbench.gate import check_delivered_bytes, check_history
from layerbench.workloads import ProgramSource, Workload

#: Set-up is timed at least this many times, and for at least this many
#: seconds in all, per run; ``setup_s`` is the median.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 1.0

#: What the reference kernel takes on the nominal host (seconds).
REFERENCE_NOMINAL_S = 250e-6
_REFERENCE_STATE = hashlib.sha256(b"layerbench reference kernel" * 2)


def reference_s() -> float:
    """Run the fixed reference kernel once; returns its wall time.

    Three hundred SHA-256 midstate copies, each finished over an 8-byte
    counter: CPU-bound, cache-resident and creating nothing the garbage
    collector tracks, so its time moves only with the host's speed.
    """
    started = time.perf_counter()
    for i in range(300):
        state = _REFERENCE_STATE.copy()
        state.update(i.to_bytes(8, "little"))
        state.digest()
    return time.perf_counter() - started


def calibrated(wall_s: float, reference_before_s: float, reference_after_s: float) -> float:
    """``wall_s`` scaled to the nominal host's speed."""
    return wall_s * 2 * REFERENCE_NOMINAL_S / (reference_before_s + reference_after_s)


class WaveTimer(EngineObserver):
    """Wall time of each engine wave, from ``on_wave`` timestamps.

    With ``calibrate`` the reference kernel runs before the first wave and
    after each wave, outside the timed intervals, and each wave also gets a
    calibrated time.  A traced run leaves it off, so that no reference time
    lands in a layer's self time.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.wall_s: List[float] = []
        self.cal_s: List[float] = []
        self.reference_s: List[float] = []
        self._started: Optional[float] = None

    def start(self) -> None:
        if self.calibrate:
            self.reference_s.append(reference_s())
        self._started = time.perf_counter()

    def on_wave(self, engine, results) -> None:
        ended = time.perf_counter()
        if self._started is None:
            return
        wall = ended - self._started
        self.wall_s.append(wall)
        if self.calibrate:
            self.reference_s.append(reference_s())
            self.cal_s.append(calibrated(wall, *self.reference_s[-2:]))
        self._started = time.perf_counter()


@dataclass
class Rep:
    """What one repetition measured and what its gate found.

    Only numbers are kept from the run's ``RunStats``: holding its result
    lists would grow the heap, and with it the garbage collector's work,
    from one repetition to the next.
    """

    setup_s: float
    setup_cal_s: float
    wall_s: float
    waves: WaveTimer
    committed: int
    offered: int
    failed: int
    digest: str
    storage_bytes: int
    user_bytes: int
    sim_tps: float
    sim_latency_ms_mean: float
    sim_latency_ms_p50: float
    sim_latency_ms_p95: float
    abort_rate: float
    engine: object = None
    auditor: object = None


def stats_digest(stats) -> str:
    """SHA-256 of the ``RunStats`` repr: equal digests mean identical runs."""
    return hashlib.sha256(repr(stats).encode()).hexdigest()


def time_setup(workload: Workload, seed: int, data: Dict[str, bytes], tracer=None):
    """Build and load one engine; returns ``(engine, wall seconds, calibrated seconds)``."""
    before = reference_s()
    if tracer is not None:
        tracer.phase("setup")
    started = time.perf_counter()
    engine = workload.create(seed, data)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.phase(None)
    return engine, elapsed, calibrated(elapsed, before, reference_s())


def run_rep(workload: Workload, seed: int, tracer=None, calibrate: bool = True) -> Rep:
    """Set up and drive one repetition of ``workload`` at ``seed``.

    ``calibrate`` times the reference kernel between waves (see
    :class:`WaveTimer`).  The returned ``Rep`` still holds its engine;
    :func:`gate` checks the outputs and releases it.
    """
    generator = workload.make_generator(seed)
    data = generator.initial_data()
    gc.collect()
    engine, setup_s, setup_cal_s = time_setup(workload, seed, data, tracer)
    auditor = workload.attach_auditor(engine)
    timer = engine.attach_observer(WaveTimer(calibrate))
    source = ProgramSource(generator.transaction_factory)

    gc.collect()
    if tracer is not None:
        tracer.phase("run")
    timer.start()
    started = time.perf_counter()
    stats = workload.drive(engine, source, seed)
    wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.phase(None)
    engine.detach_observer(timer)

    offered = stats.offered if workload.loop == "open" else workload.transactions
    return Rep(setup_s=setup_s, setup_cal_s=setup_cal_s, wall_s=wall_s, waves=timer,
               committed=stats.committed, offered=offered,
               failed=offered - stats.committed - source.user_aborted,
               digest=stats_digest(stats),
               storage_bytes=engine.storage.size_bytes(),
               user_bytes=sum(len(k) + len(v) for k, v in data.items()),
               sim_tps=stats.throughput_tps,
               sim_latency_ms_mean=stats.average_total_latency_ms,
               sim_latency_ms_p50=stats.p50_total_latency_ms,
               sim_latency_ms_p95=stats.p95_total_latency_ms,
               abort_rate=stats.abort_rate,
               engine=engine, auditor=auditor)


def gate(rep: Rep, workload: Workload) -> List[str]:
    """Check one repetition's outputs and release its engine; returns the problems.

    The delivered-bytes read-back runs more epochs on the engine, so callers
    run it only after they have taken the repetition's memory figures.
    """
    problems = check_delivered_bytes(rep.engine, *workload.readback)
    problems += check_history(rep.engine, rep.auditor)
    rep.engine = rep.auditor = None
    return problems


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (the smallest value with ``fraction`` at or below)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: List[Rep], setups_cal_s: List[float],
               rss_mb: float) -> Dict[str, tuple]:
    """Every end-to-end metric as ``name -> (value, unit)``.

    Wave metrics pool the waves of all repetitions; the simulated metrics
    come from the first one (repetitions at one seed are identical, which
    the caller checks through the digests).  Simulated latency is a mean:
    its percentiles take a handful of discrete values, the same for every
    seed.
    """
    first = reps[0]
    waves_ms = [d * 1000.0 for rep in reps for d in rep.waves.cal_s]
    return {
        "setup_s": (statistics.median(setups_cal_s), "s"),
        "commits_per_cal_s": (sum(r.committed for r in reps)
                              / sum(sum(r.waves.cal_s) for r in reps), "txn/cal-s"),
        "wave_cal_ms_p50": (percentile(waves_ms, 0.50), "cal-ms"),
        "wave_cal_ms_p90": (percentile(waves_ms, 0.90), "cal-ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "storage_bytes_per_user_byte": (first.storage_bytes / first.user_bytes, "ratio"),
        "sim_tps": (first.sim_tps, "txn/sim-s"),
        "sim_latency_ms_mean": (first.sim_latency_ms_mean, "sim-ms"),
    }


def raw_wall(reps: List[Rep], setups_s: List[float]) -> Dict[str, tuple]:
    """The uncalibrated wall-time counterparts, printed beside the metrics."""
    waves_ms = [d * 1000.0 for rep in reps for d in rep.waves.wall_s]
    references = [r for rep in reps for r in rep.waves.reference_s]
    return {
        "setup_wall_s": (statistics.median(setups_s), "s"),
        "commits_per_wall_s": (sum(r.committed for r in reps)
                               / sum(sum(r.waves.wall_s) for r in reps), "txn/s"),
        "wave_wall_ms_p50": (percentile(waves_ms, 0.50), "ms"),
        "wave_wall_ms_p90": (percentile(waves_ms, 0.90), "ms"),
        "reference_us_p50": (statistics.median(references) * 1e6, "us"),
    }
