"""The correctness gate every benchmark run passes outside its timed region.

Three checks, each judged from outside the engine:

* the committed history is serializable (``check_serializable``);
* an attached streaming auditor reports no violation;
* every written key reads back, through engine transactions, as the bytes
  the committed write sets say it holds.  The versions an engine records
  can look serializable while the bytes it delivers are wrong (a lost
  update, or a storage slot that silently reads back as absent), so the
  bytes are what is compared.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Optional, Sequence

from repro.concurrency.serializability import check_serializable
from repro.core.client import Read

#: How often a read-back program is resubmitted after an abort.
READBACK_ATTEMPTS = 5


def expected_state(history) -> Dict[str, Optional[bytes]]:
    """Replay committed write sets in timestamp order.

    Returns the expected final value of every key some committed
    transaction wrote; the initial load is overwritten for each of them.
    """
    state: Dict[str, Optional[bytes]] = {}
    for txn in sorted(history, key=lambda t: t.timestamp):
        state.update(txn.write_set)
    return state


def _reader(keys: Sequence[str]):
    def program():
        values = []
        for key in keys:
            values.append((yield Read(key)))
        return values
    return program


def read_back(engine, keys: Sequence[str], programs_per_wave: int,
              reads_per_program: int) -> Dict[str, Optional[bytes]]:
    """Read ``keys`` through engine transactions, in waves the engine can take.

    Each program reads ``reads_per_program`` keys one after another and a
    wave holds ``programs_per_wave`` programs, so on Obladi one wave fits
    one epoch's read batches.  Raises ``RuntimeError`` if a program keeps
    aborting.
    """
    chunks = [list(keys[i:i + reads_per_program])
              for i in range(0, len(keys), reads_per_program)]
    delivered: Dict[str, Optional[bytes]] = {}
    for start in range(0, len(chunks), programs_per_wave):
        pending = chunks[start:start + programs_per_wave]
        for _ in range(READBACK_ATTEMPTS):
            results = engine.submit_many([_reader(chunk) for chunk in pending])
            retry = []
            for chunk, result in zip(pending, results):
                if result.committed:
                    delivered.update(zip(chunk, result.return_value))
                else:
                    retry.append(chunk)
            pending = retry
            if not pending:
                break
        if pending:
            raise RuntimeError(f"read-back of {sum(map(len, pending))} keys kept "
                               f"aborting after {READBACK_ATTEMPTS} attempts")
    return delivered


def check_history(engine, auditor) -> List[str]:
    """Serializability of the committed history and the auditor's verdict."""
    problems = []
    ok, cycle = check_serializable(engine.committed_history)
    if not ok:
        problems.append(f"committed history is not serializable: cycle {cycle}")
    if auditor is not None and not auditor.ok:
        first = auditor.graph.violations[0]
        problems.append(f"auditor: {first.kind} on txn {first.txn_id} ({first.detail})")
    return problems


def check_delivered_bytes(engine, programs_per_wave: int,
                          reads_per_program: int) -> List[str]:
    """Compare every written key's delivered bytes with the replayed writes."""
    expected = expected_state(engine.committed_history)
    keys = sorted(expected)
    try:
        delivered = read_back(engine, keys, programs_per_wave, reads_per_program)
    except Exception as exc:  # the engine failing to serve is a failed check
        traceback.print_exc()
        return [f"read-back raised {type(exc).__name__}: {exc}"]
    wrong = [key for key in keys if delivered.get(key) != expected[key]]
    if not wrong:
        return []
    sample = ", ".join(f"{key}={delivered.get(key)!r:.40}" for key in wrong[:3])
    return [f"read-back: {len(wrong)} of {len(keys)} written keys returned other "
            f"bytes than were committed (e.g. {sample})"]
