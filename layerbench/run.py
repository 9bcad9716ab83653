#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 layerbench/run.py --workload smallbank-oram --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload at the seed while the next repetition is
expected to end within ``--seconds`` of driver wall, and prints every
end-to-end metric.  ``--trace 1``
runs the workload once untraced and once with every layer's entry points
wrapped, and prints the per-layer metrics.  ``--workload all`` runs each
workload in a process of its own, one after another.

Every run gates its outputs (see ``gate.py``), writes its full record (host
fingerprint, sample counts, spans when traced) to ``--out`` and prints, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


def host_fingerprint() -> dict:
    """What results are tied to: compare results only under one ``host_class``.

    ``speed`` is the nominal reference-kernel time over its median time
    here at the start of the run (see ``measure.reference_s``).
    """
    from layerbench.measure import REFERENCE_NOMINAL_S, reference_s

    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    stable = {"python": platform.python_version(), "platform": platform.platform(),
              "nproc": os.cpu_count(), "numpy": has_numpy}
    reference = statistics.median(reference_s() for _ in range(9))
    return {**stable,
            "host_class": hashlib.sha256(json.dumps(stable, sort_keys=True)
                                         .encode()).hexdigest()[:16],
            "speed": REFERENCE_NOMINAL_S / reference}


def measured_run(workload, seed: int, seconds: float):
    """Untraced repetitions for about ``seconds`` of driver wall; end-to-end metrics.

    A repetition starts only if it is expected to end within ``seconds``
    (the first always runs).  Set-up runs once untimed first, so that lazy
    imports do not land in ``setup_s``.
    """
    from layerbench.measure import (MIN_SETUP_SECONDS, MIN_SETUPS, end_to_end, gate,
                                    peak_rss_mb, raw_wall, run_rep, time_setup)

    data = workload.make_generator(seed).initial_data()
    time_setup(workload, seed, data)
    reps = []
    while True:
        rep = run_rep(workload, seed)
        reps.append(rep)
        spent = sum(r.wall_s for r in reps)
        if spent + spent / len(reps) > seconds:
            break
        rep.engine = rep.auditor = None
    rss_mb = peak_rss_mb()
    # Repetitions at one seed must be identical runs, so gating the last
    # one gates them all.
    problems = gate(reps[-1], workload)
    if len({rep.digest for rep in reps}) != 1:
        problems.append("repetitions at one seed produced different RunStats")

    setups = [(rep.setup_s, rep.setup_cal_s) for rep in reps]
    gc.collect()
    while len(setups) < MIN_SETUPS or sum(s for s, _ in setups) < MIN_SETUP_SECONDS:
        setups.append(time_setup(workload, seed, data)[1:])

    metrics = end_to_end(reps, [cal for _, cal in setups], rss_mb)
    record = {"repetitions": len(reps), "setups": len(setups),
              "waves": sum(len(r.waves.wall_s) for r in reps),
              "transactions_per_repetition": workload.transactions,
              "driver_wall_s": [r.wall_s for r in reps],
              "wave_wall_s": [r.waves.wall_s for r in reps],
              "wave_cal_s": [r.waves.cal_s for r in reps],
              "reference_s": [r.waves.reference_s for r in reps],
              "setup_wall_and_cal_s": setups, "runstats_digest": reps[0].digest,
              "printed": {**raw_wall(reps, [s for s, _ in setups]),
                          "sim_latency_ms_p50": (reps[0].sim_latency_ms_p50, "sim-ms"),
                          "sim_latency_ms_p95": (reps[0].sim_latency_ms_p95, "sim-ms"),
                          "abort_rate": (reps[0].abort_rate, "ratio")}}
    return reps[0], problems, metrics, record


def traced_run(workload, seed: int):
    """One untraced and one traced repetition; per-layer metrics."""
    from layerbench.measure import gate, run_rep
    from layerbench.tracing import LAYERS, Tracer, per_layer_metrics

    # Neither repetition runs the reference kernel between waves: in the
    # traced one it would land in the loop's self time.
    reference = run_rep(workload, seed, calibrate=False)
    reference.engine = reference.auditor = None
    tracer = Tracer(workload.loop)
    tracer.install()
    try:
        rep = run_rep(workload, seed, tracer=tracer, calibrate=False)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, rep.wall_s, reference.wall_s, rep.engine,
                                rep.auditor, rep.abort_rate)
    problems = gate(rep, workload)
    if rep.digest != reference.digest:
        problems.append("tracing changed the run's RunStats")
    self_sum = sum(tracer.self_s("run", layer) for layer in LAYERS)
    if abs(self_sum - rep.wall_s) > 0.05 * rep.wall_s:
        problems.append(f"layer self times sum to {self_sum:.3f}s, "
                        f"traced wall is {rep.wall_s:.3f}s")
    record = {"runstats_digest": rep.digest, "self_time_sum_s": self_sum,
              "untraced_wall_s": reference.wall_s, "spans": tracer.spans()}
    return rep, problems, metrics, record


def run_one(args) -> int:
    from layerbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    fingerprint = host_fingerprint()
    if args.trace:
        rep, problems, metrics, record = traced_run(workload, args.seed)
    else:
        rep, problems, metrics, record = measured_run(workload, args.seed, args.seconds)
    correct = not problems
    failed = rep.failed if correct else rep.offered
    result = {"correct": correct, "attempted": rep.offered, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    out = Path(args.out) if args.out else (
        BENCH_DIR / "results" /
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz")
    out.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(out, "wt") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "host": fingerprint, "problems": problems,
                   "failed_fraction": failed / rep.offered, "result": result,
                   **record}, handle)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} host={fingerprint}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    for key in ("repetitions", "setups", "waves", "runstats_digest"):
        if key in record:
            print(f"# {key} {record[key]}")
    # Printed but not bounded (see README.md): raw wall times, simulated
    # latency percentiles, the abort rate and failed_fraction.
    for name, (value, unit) in {**metrics, **record.get("printed", {})}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_fraction {failed / rep.offered:.6g} ratio ({failed} of {rep.offered})")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    from layerbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the run's full record "
                        "(gzipped JSON; default layerbench/results/)")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {REPO / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from layerbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
