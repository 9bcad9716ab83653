"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer at runtime (and
every subclass override of them), records one span per call with its parent
link in flat in-memory arrays, and counts work at the same boundaries.  A
layer's self time is the sum over its spans of duration minus the time the
span's children cover, so the self times of all layers, the loop root
included, add up to the root span.  :meth:`Tracer.uninstall` puts every
original method back.  Only a traced run imports this module.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple


def _count(name: str, measure: Optional[Callable] = None) -> Callable:
    """A counting hook: add 1, or ``measure(args, result)``, to ``name``."""
    def hook(counts, args, result):
        counts[name] += 1 if measure is None else measure(args, result)
    return hook


def _several(*hooks: Callable) -> Callable:
    def hook(counts, args, result):
        for one in hooks:
            one(counts, args, result)
    return hook


def _partition_slots(quota_field: str) -> Callable:
    def measure(args, result):
        layer = args[0]
        return getattr(layer.config, quota_field) * len(layer.partitions)
    return measure


def _stash_max(counts, args, result):
    counts["oram.stash_blocks_max"] = max(counts["oram.stash_blocks_max"],
                                          len(args[0].stash))


_API = "api"   # resolved to api.loop / api.openloop per run

#: (layer, "module:Class", method, counting hook or None).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("api.loop", "repro.api.engine:TransactionEngine", "run_closed_loop", None),
    ("api.openloop", "repro.api.engine:TransactionEngine", "run_open_loop", None),
    (_API, "repro.api.engine:TransactionEngine", "submit_many", _several(
        _count("waves"), _count("programs", lambda a, r: len(a[1])))),
    ("proxy", "repro.core.proxy:ObladiProxy", "run_epoch", _count("proxy.epochs")),
    ("proxy", "repro.proxytier.coordinator:ProxyCoordinator", "run_epoch",
     _count("proxy.epochs")),
    *(("concurrency", "repro.concurrency.mvtso:MVTSOManager", method,
       _count("concurrency.ops"))
      for method in ("read", "write", "can_commit", "commit")),
    ("concurrency", "repro.concurrency.mvtso:MVTSOManager", "abort",
     _several(_count("concurrency.ops"), _count("concurrency.aborts"))),
    ("baseline", "repro.baseline.nopriv:NoPrivProxy", "run_transactions", None),
    ("sharding", "repro.sharding.partitioned:PartitionedDataLayer", "execute_read_batch",
     _several(_count("sharding.read_batches"),
              _count("sharding.real_keys", lambda a, r: len(a[1])),
              _count("sharding.slots", _partition_slots("partition_read_batch_size")))),
    ("sharding", "repro.sharding.partitioned:PartitionedDataLayer", "execute_write_batch",
     _several(_count("sharding.real_keys", lambda a, r: len(a[1])),
              _count("sharding.slots", _partition_slots("partition_write_batch_size")))),
    ("sharding", "repro.sharding.partitioned:PartitionedDataLayer", "flush", None),
    ("sharding", "repro.sharding.partitioned:PartitionedDataLayer", "bulk_load", None),
    *(("oram", "repro.oram.batch_executor:EpochBatchExecutor", method, None)
      for method in ("execute_read_batch", "execute_write_batch", "flush_epoch")),
    ("oram", "repro.oram.ring_oram:RingOram", "plan_path_read",
     _several(_count("oram.path_reads"), _stash_max)),
    ("oram", "repro.oram.ring_oram:RingOram", "plan_eviction", _count("oram.evictions")),
    ("oram", "repro.oram.ring_oram:RingOram", "plan_early_reshuffle",
     _count("oram.early_reshuffles")),
    ("oram", "repro.oram.ring_oram:RingOram", "complete_eviction", _stash_max),
    ("oram", "repro.oram.ring_oram:RingOram", "bulk_load", None),
    # seal_blocks / open_blocks delegate to the *_many calls, which count.
    ("crypto", "repro.oram.crypto:CipherSuite", "encrypt_many",
     _count("crypto.blocks_sealed", lambda a, r: len(a[1]))),
    ("crypto", "repro.oram.crypto:CipherSuite", "decrypt_many",
     _count("crypto.blocks_opened", lambda a, r: len(a[1]))),
    ("crypto", "repro.oram.crypto:CipherSuite", "seal_blocks", None),
    ("crypto", "repro.oram.crypto:CipherSuite", "open_blocks", None),
    ("storage", "repro.storage.memory:InMemoryStorageServer", "read_batch",
     _count("storage.read_requests", lambda a, r: len(a[1]))),
    ("storage", "repro.storage.memory:InMemoryStorageServer", "write_batch",
     _several(_count("storage.write_requests", lambda a, r: len(a[1])),
              _count("storage.bytes_written",
                     lambda a, r: sum(len(v) for v in a[1].values())))),
    ("storage", "repro.storage.memory:InMemoryStorageServer", "delete_batch", None),
    ("storage", "repro.storage.trace:AccessTrace", "record", None),
    ("sim", "repro.sim.scheduler:ParallelScheduler", "schedule",
     _several(_count("sim.calls"), _count("sim.ops_scheduled", lambda a, r: len(a[1])))),
    ("recovery", "repro.recovery.manager:RecoveryManager", "log_read_batch",
     _count("recovery.wal_records")),
    ("recovery", "repro.recovery.manager:RecoveryManager", "checkpoint_data_layer",
     _several(_count("recovery.checkpoints"),
              _count("recovery.checkpoint_bytes", lambda a, r: r.total_bytes))),
    ("audit", "repro.audit.streaming:StreamingSerializationGraph", "ingest_batch",
     _count("audit.txns_ingested", lambda a, r: len(a[1]))),
)

#: Modules whose subclasses override the entry points above; imported before
#: wrapping so that every override is found.
SUBCLASS_MODULES = ("repro.api.adapters", "repro.proxytier", "repro.storage.cluster")

LAYERS = ("api.loop", "api.openloop", "proxy", "concurrency", "baseline", "sharding",
          "oram", "crypto", "storage", "sim", "recovery", "audit")


def _classes_defining(root: type, method: str) -> List[type]:
    """``root`` and every subclass whose own namespace defines ``method``."""
    found, todo, seen = [], [root], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        func = cls.__dict__.get(method)
        if func is not None and not getattr(func, "__isabstractmethod__", False):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Tracer:
    """Records spans and counts around the layers' entry points.

    Spans are kept as five parallel columns (id, parent id, entry point,
    start ns, end ns); self time and counts accumulate per phase
    (``"setup"`` or ``"run"``).  Outside a phase the wrappers only forward.
    """

    def __init__(self, loop: str) -> None:
        self.api_layer = "api.loop" if loop == "closed" else "api.openloop"
        self.points: List[Tuple[str, str, str]] = []      # (layer, class, method)
        self.columns = {name: array("q") for name in ("id", "parent", "point",
                                                      "start_ns", "end_ns")}
        self.self_ns: Dict[str, Dict[str, int]] = {}
        self.counts: Dict[str, Dict[str, int]] = {}
        self._phase: Optional[str] = None
        self._stack: List[list] = []
        self._next_id = 0
        self._originals: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #
    def phase(self, name: Optional[str]) -> None:
        """Start recording into phase ``name``; ``None`` stops recording."""
        self._phase = name
        if name is not None:
            self.self_ns.setdefault(name, defaultdict(int))
            self.counts.setdefault(name, defaultdict(int))

    def install(self) -> None:
        """Wrap every entry point (and subclass override) in place."""
        for module in SUBCLASS_MODULES:
            importlib.import_module(module)
        for layer, target, method, hook in ENTRY_POINTS:
            module_name, class_name = target.split(":")
            root = getattr(importlib.import_module(module_name), class_name)
            if layer == _API:
                layer = self.api_layer
            for cls in _classes_defining(root, method):
                original = cls.__dict__[method]
                point = len(self.points)
                self.points.append((layer, cls.__qualname__, method))
                self._originals.append((cls, method, original))
                setattr(cls, method, self._wrap(original, layer, point, hook))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def _wrap(self, func, layer: str, point: int, hook: Optional[Callable]):
        stack = self._stack
        cols = self.columns
        ids, parents, points = cols["id"], cols["parent"], cols["point"]
        starts, ends = cols["start_ns"], cols["end_ns"]
        method = self.points[point][2]

        def wrapper(*args, **kwargs):
            if self._phase is None:
                return func(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0, layer, method]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.self_ns[self._phase][layer] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                ids.append(span_id)
                parents.append(parent[0] if parent is not None else -1)
                points.append(point)
                starts.append(start)
                ends.append(end)
            # A subclass override calling its base (same layer and method)
            # is one operation: only the outer span counts it.
            if hook is not None and not (parent is not None and parent[2] == layer
                                         and parent[3] == method):
                hook(self.counts[self._phase], args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", method)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------ #
    def spans(self) -> Dict[str, object]:
        """The recorded spans, columnar, for writing out."""
        return {"points": [list(p) for p in self.points],
                **{name: col.tolist() for name, col in self.columns.items()}}

    def self_s(self, phase: str, layer: str) -> float:
        return self.self_ns.get(phase, {}).get(layer, 0) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float,
                      engine, auditor, abort_rate: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``, from the run phase.

    ``engine`` is the traced repetition's engine, read after its run and
    before any read-back adds epochs to it; ``abort_rate`` is its
    ``RunStats.abort_rate``.
    """
    history = engine.committed_history
    c = tracer.counts.get("run", defaultdict(int))
    storage = engine.storage
    traces = getattr(storage, "traces", None) or [storage.trace]
    keys = storage.all_keys() if hasattr(storage, "all_keys") else storage.keys()
    user_written = sum(len(v) for txn in history for v in txn.write_set.values()
                       if v is not None)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s("run", layer), "s")
    api = tracer.api_layer
    for layer in ("api.loop", "api.openloop"):
        waves = c["waves"] if layer == api else 0
        metrics[f"{layer}.waves"] = (waves, "count")
        metrics[f"{layer}.programs_per_wave"] = (
            _ratio(c["programs"], c["waves"]) if layer == api else 0.0, "ratio")
    metrics.update({
        "proxy.epochs": (c["proxy.epochs"], "count"),
        "proxy.rounds": (c["sharding.read_batches"], "count"),
        "concurrency.ops": (c["concurrency.ops"], "count"),
        "concurrency.aborts": (c["concurrency.aborts"], "count"),
        "concurrency.abort_rate": (abort_rate, "ratio"),
        "sharding.read_batches": (c["sharding.read_batches"], "count"),
        "sharding.real_keys_per_slot": (_ratio(c["sharding.real_keys"],
                                               c["sharding.slots"]), "ratio"),
        "oram.path_reads": (c["oram.path_reads"], "count"),
        "oram.evictions": (c["oram.evictions"], "count"),
        "oram.early_reshuffles": (c["oram.early_reshuffles"], "count"),
        "oram.stash_blocks_max": (c["oram.stash_blocks_max"], "count"),
        "crypto.setup_self_s": (tracer.self_s("setup", "crypto"), "s"),
        "crypto.blocks_sealed": (c["crypto.blocks_sealed"], "count"),
        "crypto.blocks_opened": (c["crypto.blocks_opened"], "count"),
        "crypto.opened_per_sealed": (_ratio(c["crypto.blocks_opened"],
                                            c["crypto.blocks_sealed"]), "ratio"),
        "storage.read_requests": (c["storage.read_requests"], "count"),
        "storage.write_requests": (c["storage.write_requests"], "count"),
        "storage.bytes_written": (c["storage.bytes_written"], "bytes"),
        "storage.write_amp": (_ratio(c["storage.bytes_written"], user_written), "ratio"),
        "storage.keys_held": (len(keys), "count"),
        "storage.trace_events": (sum(len(t) for t in traces if t is not None), "count"),
        "sim.calls": (c["sim.calls"], "count"),
        "sim.ops_scheduled": (c["sim.ops_scheduled"], "count"),
        "recovery.wal_records": (c["recovery.wal_records"], "count"),
        "recovery.checkpoints": (c["recovery.checkpoints"], "count"),
        "recovery.checkpoint_bytes": (c["recovery.checkpoint_bytes"], "bytes"),
        "audit.txns_ingested": (c["audit.txns_ingested"], "count"),
        "audit.retained_nodes_max": (
            auditor.report().max_retained_nodes if auditor is not None else 0, "count"),
        "traced_wall_s": (traced_wall_s, "s"),
        "tracing_overhead": (_ratio(traced_wall_s, untraced_wall_s), "ratio"),
    })
    return metrics
