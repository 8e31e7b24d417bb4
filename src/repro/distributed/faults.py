"""Fault injection for the distributed protocol.

The in-process :class:`~repro.distributed.network.MessageBus` delivers
every message exactly once — real networks do not.  This module provides
a drop/duplicate-injecting bus plus the two mechanisms that make the
paper's token-ring protocol survive it:

* **sender-side retransmission** — the runtime keeps each agent's last
  outbound message (via the bus's outbox hook) and re-sends it when the
  ring stalls (the in-process analogue of a retransmission timeout);
* **receiver-side deduplication** — TOKEN messages carry ``(sweep,
  sender)``; an agent that already acted on a given token ignores
  duplicates, making the retransmission at-least-once semantics safe.

Determinism is preserved: faults are driven by a seeded generator, so a
given ``(seed, drop, duplicate)`` configuration replays exactly.  The
fault-tolerance experiment shows the protocol reaches the *same*
equilibrium as the lossless run, paying only extra messages.

Crash faults (agents dying and restarting, computers going offline) are
the next layer up: see :mod:`repro.distributed.chaos`.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
)
from repro.core.strategy import StrategyProfile
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import MessageBus
from repro.distributed.node import UserAgent
from repro.distributed.runtime import ProtocolOutcome, _Ring
from repro.telemetry.trace import Tracer

__all__ = ["LossyMessageBus", "DedupingAgent", "run_nash_protocol_lossy"]


class LossyMessageBus(MessageBus):
    """A message bus that drops and duplicates messages.

    Parameters
    ----------
    n_agents:
        Ring size.
    drop:
        Probability that a sent message is silently lost.
    duplicate:
        Probability that a delivered message is enqueued twice.
    seed:
        Fault-stream seed (replayable).
    """

    def __init__(
        self,
        n_agents: int,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        seed: int = 0,
        record_transcript: bool = True,
    ):
        super().__init__(n_agents, record_transcript=record_transcript)
        if not 0.0 <= drop < 1.0:
            raise ValueError("drop probability must lie in [0, 1)")
        if not 0.0 <= duplicate < 1.0:
            raise ValueError("duplicate probability must lie in [0, 1)")
        self.drop = drop
        self.duplicate = duplicate
        self._fault_rng = np.random.default_rng(seed)
        self.dropped = 0
        self.duplicated = 0

    def _deliver(self, message: Message) -> None:
        roll = self._fault_rng.random()
        if roll < self.drop:
            self.dropped += 1
            return
        super()._deliver(message)
        if self._fault_rng.random() < self.duplicate:
            self.duplicated += 1
            super()._deliver(message)


class DedupingAgent(UserAgent):
    """A user agent that ignores token messages it has already acted on.

    A TOKEN for sweep ``l`` is acted on at most once; retransmitted or
    duplicated copies are dropped on the floor.  TERMINATE is naturally
    idempotent (acting twice is harmless), so only forwarding is guarded.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_acted_sweep = 0
        self._terminated = False

    def handle(self, message: Message) -> None:
        if message.kind is MessageKind.TOKEN:
            if message.sweep <= self._last_acted_sweep:
                return  # duplicate of an already-processed token
            self._last_acted_sweep = message.sweep
        elif message.kind is MessageKind.TERMINATE:
            if self._terminated:
                return
            self._terminated = True
        # A retransmission can legitimately arrive after the agent
        # considered itself finished; squelch instead of crashing.
        if self.finished:
            return
        super().handle(message)


def run_nash_protocol_lossy(
    system: DistributedSystem,
    *,
    drop: float = 0.1,
    duplicate: float = 0.05,
    fault_seed: int = 0,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    max_retransmissions: int = 1_000_000,
    tracer: Tracer | None = None,
) -> ProtocolOutcome:
    """The NASH ring protocol over a faulty network.

    Runs the shared ring pump of
    :func:`repro.distributed.runtime.run_nash_protocol` with
    :class:`DedupingAgent`\\ s over a :class:`LossyMessageBus`; when the
    ring stalls (every mailbox empty, protocol unfinished) the pump
    retransmits the last message each unfinished agent sent —
    at-least-once delivery, made safe by :class:`DedupingAgent`.
    ``tracer`` additionally records every delivery and retransmission
    (see docs/OBSERVABILITY.md).
    """
    bus = LossyMessageBus(
        system.n_users, drop=drop, duplicate=duplicate, seed=fault_seed
    )
    ring = _Ring(
        system,
        bus,
        DedupingAgent,
        driver="lossy",
        init=init,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        tracer=tracer,
        start=dict(
            tolerance=tolerance,
            max_sweeps=max_sweeps,
            drop=drop,
            duplicate=duplicate,
        ),
    )
    ring.pump(max_retransmissions)
    return ring.finish(
        done=dict(dropped=bus.dropped, duplicated=bus.duplicated)
    )
