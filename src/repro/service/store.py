"""Append-only, replayable job store.

Every service-plane decision — tenant registration, admission,
rejection, batch drain, cycle boundary — lands in the store as one
plain-dict event, appended in decision order. The store is the plane's
source of truth for replay: a seeded session writes the same event
stream every time, so :meth:`JobStore.canonical_bytes` (the
``dump_json`` serialization the golden scenarios already use) is
byte-identical across same-seed runs — the persistence analogue of the
golden-trace contract.

:func:`fold_events` independently re-derives per-tenant admission state
(pending counts, accounted energy, quota/budget headroom) from the raw
event stream; ``tests/test_service.py`` compares that fold against the
plane's own bookkeeping, which is what makes the log an *audit* log
rather than a mirror.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ValidationError
from repro.obs.export import dump_json

#: Event kinds the store accepts, in the vocabulary the fold understands.
EVENT_KINDS = ("tenant", "admit", "reject", "batch", "cycle")


class JobStore:
    """An append-only event log with deterministic serialization."""

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._seq = 0

    def append(self, kind: str, **attrs) -> dict:
        """Append one event; returns the stored dict (with its ``seq``)."""
        if kind not in EVENT_KINDS:
            raise ValidationError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        event = {"seq": self._seq, "kind": kind, **attrs}
        self._seq += 1
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[dict, ...]:
        """The event stream, in append order (read-only view)."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def select(self, kind: str) -> list[dict]:
        """Events of one kind, in append order."""
        if kind not in EVENT_KINDS:
            raise ValidationError(f"unknown event kind {kind!r}")
        return [e for e in self._events if e["kind"] == kind]

    # ---------------------------------------------------------- persistence

    def document(self) -> dict:
        """The store as one JSON document."""
        return {"kind": "jobstore", "n_events": len(self._events),
                "events": list(self._events)}

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization (sorted keys, 2-space indent).

        Two same-seed sessions must produce identical bytes here — the
        replay contract asserted by ``tests/test_service.py``.
        """
        return dump_json(self.document()).encode()

    def save(self, path: str | Path) -> Path:
        """Write the canonical document; returns the path."""
        path = Path(path)
        path.write_bytes(self.canonical_bytes())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "JobStore":
        """Rebuild a store from a saved document."""
        doc = json.loads(Path(path).read_text())
        if doc.get("kind") != "jobstore":
            raise ValidationError(f"{path} is not a job-store document")
        store = cls()
        for event in doc["events"]:
            attrs = {k: v for k, v in event.items() if k not in ("seq", "kind")}
            stored = store.append(event["kind"], **attrs)
            if stored["seq"] != event["seq"]:
                raise ValidationError(
                    f"non-contiguous event sequence in {path}: "
                    f"expected seq {stored['seq']}, found {event['seq']}"
                )
        return store


def fold_events(events) -> dict[str, dict]:
    """Re-derive per-tenant admission state from a raw event stream.

    Returns ``{tenant: state}`` where ``state`` has the registration
    attributes plus ``pending`` (admitted-but-undrained count),
    ``admitted``/``rejected`` totals, ``rejects_by_reason``, ``drained``
    (submissions completed through batches) and ``energy_j`` (accounted
    GPU energy). The fold is intentionally independent of
    :class:`~repro.service.plane.SchedulingService` — it trusts only the
    log, so comparing it against the live plane catches bookkeeping bugs
    on either side.
    """
    state: dict[str, dict] = {}
    for event in events:
        kind = event["kind"]
        if kind == "tenant":
            name = event["tenant"]
            if name in state:
                raise ValidationError(f"tenant {name!r} registered twice")
            state[name] = {
                "priority": event["priority"],
                "quota": event["quota"],
                "energy_budget_j": event["energy_budget_j"],
                "target": event["target"],
                "shard": event["shard"],
                "pending": 0,
                "admitted": 0,
                "rejected": 0,
                "rejects_by_reason": {},
                "drained": 0,
                "energy_j": 0.0,
            }
        elif kind == "admit":
            st = state[event["tenant"]]
            st["pending"] += 1
            st["admitted"] += 1
            if st["pending"] > st["quota"]:
                raise ValidationError(
                    f"log admits tenant {event['tenant']!r} beyond its "
                    f"quota ({st['pending']} > {st['quota']}) at seq "
                    f"{event['seq']}"
                )
        elif kind == "reject":
            tenant = event["tenant"]
            if tenant in state:
                st = state[tenant]
                st["rejected"] += 1
                reason = event["reason"]
                st["rejects_by_reason"][reason] = (
                    st["rejects_by_reason"].get(reason, 0) + 1
                )
        elif kind == "batch":
            st = state[event["tenant"]]
            n = event["n"]
            if n > st["pending"]:
                raise ValidationError(
                    f"log drains {n} submissions from tenant "
                    f"{event['tenant']!r} with only {st['pending']} pending "
                    f"at seq {event['seq']}"
                )
            st["pending"] -= n
            st["drained"] += n
            st["energy_j"] += event["energy_j"]
        # "cycle" events carry no per-tenant state.
    return state
