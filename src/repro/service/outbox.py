"""Per-session outboxes: bounded buffers between the tick loop and clients.

The tick loop must never block on (or buffer unboundedly for) a slow
client.  Each :class:`Session` owns one :class:`Outbox` with a fixed
message capacity; the flush phase pushes snapshot/delta messages into it
and the transport (or an in-process consumer) drains it with
:meth:`Session.take`.

When a delta push would overflow the buffer, the outbox refuses it, drops
the subscription's buffered deltas and marks the stream broken: queued
deltas are useless the moment one of them is lost (the stream contract is
"apply every delta in order").  The manager reacts to the refusal *in the
same flush* by pushing a fresh :class:`~repro.service.protocol.Snapshot`
(reason ``"resync:outbox"``).  Snapshots are always accepted and supersede
the subscription's buffered messages — they carry complete state, so
admitting one past the limit strictly reduces future traffic, and a
chronically slow consumer converges to one snapshot per subscription.
"""

from __future__ import annotations

from collections import deque

from repro.service.protocol import Snapshot, SubscriptionMessage

__all__ = ["Outbox", "Session"]

#: Default outbox capacity (messages).  Generous for in-process consumers
#: that drain every tick; TCP sessions may want it smaller.
DEFAULT_CAPACITY = 1024


class Outbox:
    """A bounded FIFO of subscription messages for one session."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("outbox capacity must be at least 1")
        self.capacity = capacity
        self._messages: deque[SubscriptionMessage] = deque()
        #: Subscriptions whose stream is broken (deltas dropped on
        #: overflow) and not yet re-anchored by a snapshot; push refuses
        #: further deltas for them.
        self.needs_resync: set[int] = set()
        self.pushed = 0
        self.dropped = 0
        self.overflows = 0

    def __len__(self) -> int:
        return len(self._messages)

    def push(self, message: SubscriptionMessage) -> bool:
        """Enqueue *message*; returns ``False`` when it was not enqueued.

        Snapshots are always admitted: one supersedes every older buffered
        message of its subscription (which is dropped), so a permanently
        slow consumer converges to at most one snapshot per subscription —
        never an empty, stale box.  A delta that would overflow the buffer
        (or whose stream is already marked broken) is refused; the
        subscription's buffered *deltas* are dropped — the stream contract
        is "apply every delta in order", so once one is lost the rest are
        useless — and the subscription is marked for snapshot-resync.
        """
        if isinstance(message, Snapshot):
            self._drop(message.subscription_id, deltas_only=False)
            self._messages.append(message)
            self.needs_resync.discard(message.subscription_id)
            self.pushed += 1
            return True
        if message.subscription_id in self.needs_resync:
            self.dropped += 1
            return False
        if len(self._messages) < self.capacity:
            self._messages.append(message)
            self.pushed += 1
            return True
        self.overflows += 1
        self._drop(message.subscription_id, deltas_only=True)
        self.needs_resync.add(message.subscription_id)
        return False

    def _drop(self, subscription_id: int, *, deltas_only: bool) -> None:
        kept: deque[SubscriptionMessage] = deque()
        for message in self._messages:
            if message.subscription_id == subscription_id and not (
                deltas_only and isinstance(message, Snapshot)
            ):
                self.dropped += 1
            else:
                kept.append(message)
        self._messages = kept

    def take(self) -> list[SubscriptionMessage]:
        """Drain and return every buffered message, oldest first."""
        out = list(self._messages)
        self._messages.clear()
        return out


class Session:
    """One connected client: an id, a name and an outbox.

    Subscription bookkeeping (which standing queries the session holds)
    lives in the :class:`~repro.service.subscriptions.SubscriptionManager`;
    the session is deliberately transport-agnostic so the asyncio server,
    the benchmarks and in-process consumers share one implementation.
    """

    def __init__(self, session_id: int, name: str = "", outbox_capacity: int = DEFAULT_CAPACITY):
        self.session_id = session_id
        self.name = name or f"session-{session_id}"
        self.outbox = Outbox(outbox_capacity)
        self.subscription_ids: set[int] = set()
        self.closed = False

    def __repr__(self) -> str:
        return f"Session({self.name!r}, subscriptions={len(self.subscription_ids)})"

    def take(self) -> list[SubscriptionMessage]:
        """Drain this session's outbox (transports call this after flush)."""
        return self.outbox.take()
