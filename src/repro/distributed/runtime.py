"""Driver for the distributed NASH protocol, and the ring pump it shares.

Builds the agents, the shared computer board and the message bus, seeds
the chosen initialization, and pumps messages until the TERMINATE message
has circled the ring.  The result is packaged as the same
:class:`~repro.core.nash.NashResult` the sequential driver produces — and
because the token ring serializes the updates in user order, the two
drivers compute the same iterates, sweep counts and norms up to
floating-point round-off (the board and the model sum the flows in
different orders), a cross-check the test suite enforces.

All four protocol drivers run on the ring pump defined here,
:class:`_Ring`; the resilient supervisor (:mod:`repro.distributed.chaos`)
drives it one delivery pass at a time between its own steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
    NashResult,
    initial_profile,
)
from repro.core.strategy import StrategyProfile
from repro.distributed.messages import Message
from repro.distributed.network import MessageBus
from repro.distributed.node import ComputerBoard, UserAgent
from repro.telemetry.trace import Tracer, current_tracer

__all__ = ["ProtocolOutcome", "run_nash_protocol", "seed_initial_state"]


@dataclass(frozen=True)
class ProtocolOutcome:
    """A protocol run: the Nash result plus transport-level diagnostics.

    Attributes
    ----------
    result:
        The equilibrium outcome, identical in shape to the sequential
        solver's.
    messages_sent:
        Total messages delivered on the bus (token hops + termination).
    transcript:
        Full ordered message log (for protocol-level assertions).
    retransmissions:
        Messages re-sent by the stall-recovery path (always zero on the
        reliable bus; the fault-tolerant drivers report their retries
        here so the overhead accounting is one subtraction away from
        ``messages_sent``).
    """

    result: NashResult
    messages_sent: int
    transcript: tuple[Message, ...]
    retransmissions: int = 0


def _reset_baselines(
    system: DistributedSystem, agents: list[UserAgent], fractions: np.ndarray
) -> None:
    """Set every agent's ``D_j`` baseline to its expected response time
    under ``fractions``; left untouched when the profile overloads a
    computer and so has no finite expected times."""
    try:
        times = system.user_response_times(fractions)
    except ValueError:
        return
    for agent, time in zip(agents, times):
        agent._previous_time = float(time)


def seed_initial_state(
    system: DistributedSystem,
    board: ComputerBoard,
    agents: list[UserAgent],
    init: Initialization | StrategyProfile,
) -> None:
    """Publish the initialization and seed the ``D_j^{(0)}`` baselines.

    Mirrors the sequential solver exactly (see ``NashSolver.solve``): the
    profile's flows are *always* published — NASH_0's zeros are a no-op,
    but a partial or overloaded starting profile is real state the first
    sweep must react to — while the baselines are the profile's expected
    response times only when the profile both conserves flow and keeps
    every computer stable; otherwise they stay zero, the NASH_0
    convention.  (The pre-fix driver skipped the publish entirely and
    crashed on a conserving-but-overloaded start; the regression tests in
    ``tests/distributed/test_runtime.py`` pin the parity.)
    """
    profile0 = initial_profile(system, init)
    flows0 = profile0.fractions * system.arrival_rates[:, None]
    for j in range(len(agents)):
        board.publish(j, flows0[j])
    for agent in agents:
        agent._previous_time = 0.0
    if bool(np.allclose(profile0.fractions.sum(axis=1), 1.0)):
        # A conserving start may still be unstable (e.g. a uniform split
        # overloading a slow computer): then the NASH_0 zeros stay.
        _reset_baselines(system, agents, profile0.fractions)


class _Ring:
    """The ring pump: one protocol run's board, agents and bus.

    Construction builds one ``agent_cls`` per user, seeds the initial
    state, emits ``protocol.start`` and opens the outbox log
    (``last_sent``: each agent's most recent first-class send, the
    message a retransmission re-sends).  :meth:`pump` runs the ring to
    termination; the resilient supervisor instead interleaves
    :meth:`deliver_pending` and :meth:`retransmit` with its own steps.
    """

    def __init__(
        self,
        system: DistributedSystem,
        bus: MessageBus,
        agent_cls: type[UserAgent],
        *,
        driver: str,
        init: Initialization | StrategyProfile,
        tolerance: float,
        max_sweeps: int,
        tracer: Tracer | None,
        start: dict[str, Any],
        **agent_kwargs: Any,
    ):
        m = system.n_users
        tracer = tracer if tracer is not None else current_tracer()
        self.system, self.bus, self.driver = system, bus, driver
        self.tolerance, self.tracer = tolerance, tracer
        self.messages = self.retransmissions = 0
        self.board = ComputerBoard(system.service_rates, m)
        self.agents = [
            agent_cls(
                rank=j,
                job_rate=float(system.arrival_rates[j]),
                board=self.board,
                bus=bus,
                tolerance=tolerance,
                max_sweeps=max_sweeps,
                tracer=tracer,
                **agent_kwargs,
            )
            for j in range(m)
        ]
        seed_initial_state(system, self.board, self.agents, init)
        if tracer.enabled:
            tracer.emit(
                "protocol.start",
                driver=driver,
                users=m,
                computers=system.n_computers,
                **start,
            )
        # The hook fires before a faulty transport rolls the dice, so
        # dropped messages are logged too — the sender believes it sent.
        self.last_sent: dict[int, Message] = {}
        bus.add_outbox_hook(
            lambda message: self.last_sent.__setitem__(message.sender, message)
        )

    def deliver_pending(self) -> int:
        """Deliver every queued message once; returns how many.

        The token ring is strictly sequential, so draining pending ranks
        in order is a faithful (and deterministic) schedule.
        """
        tracer = self.tracer
        pending = self.bus.pending_ranks()
        for rank in pending:
            message = self.bus.recv(rank)
            if tracer.enabled:
                kind = message.kind.name.lower()
                tracer.emit(
                    "protocol.deliver",
                    kind=kind,
                    sender=message.sender,
                    receiver=message.receiver,
                    sweep=message.sweep,
                    norm=message.norm,
                )
                tracer.count(f"protocol.messages.{kind}")
            self.agents[rank].handle(message)
            self.messages += 1
        return len(pending)

    def retransmit(
        self,
        skip: Callable[[int], bool],
        block: Callable[[int], bool] = lambda rank: False,
    ) -> tuple[int, list[int]]:
        """Re-send each agent's last outbound message, in sender order,
        unless its receiver is ``skip``-ped or ``block``-ed.

        Returns the number re-sent and the blocked receivers.
        """
        tracer = self.tracer
        resent = 0
        blocked: list[int] = []
        for _sender, message in sorted(self.last_sent.items()):
            if skip(message.receiver):
                continue
            if block(message.receiver):
                blocked.append(message.receiver)
                continue
            self.bus.resend(message)
            self.retransmissions += 1
            resent += 1
            if tracer.enabled:
                tracer.emit(
                    "protocol.retransmit",
                    kind=message.kind.name.lower(),
                    sender=message.sender,
                    receiver=message.receiver,
                    sweep=message.sweep,
                )
                tracer.count("protocol.retransmissions")
        return resent, blocked

    def pump(self, max_retransmissions: int | None = None) -> None:
        """Start the ring and deliver until every agent has finished.

        A stall (every mailbox empty, protocol unfinished) means a
        message was lost: within the retransmission budget the pump
        re-sends the last message of every agent whose successor still
        needs it (a finished receiver already has everything it will act
        on).  Without a budget (the reliable bus) a stall is a bug.
        """
        agents = self.agents
        agents[0].start()
        while True:
            if self.deliver_pending():
                continue
            if all(agent.finished for agent in agents):
                return
            if max_retransmissions is None:  # pragma: no cover
                raise RuntimeError(
                    "protocol stalled before termination circulated"
                )
            if self.retransmissions >= max_retransmissions:
                raise RuntimeError("retransmission budget exhausted")
            resent, _ = self.retransmit(lambda rank: agents[rank].finished)
            if not resent:  # pragma: no cover - defensive
                raise RuntimeError(
                    "protocol deadlocked with nothing to retransmit"
                )

    def result(self, **overrides: Any) -> NashResult:
        """The board's profile as a :class:`NashResult`; ``user_times``
        raises ``ValueError`` on an overloaded profile unless overridden."""
        profile = StrategyProfile(
            self.board.flows / self.system.arrival_rates[:, None]
        )
        norms = np.asarray(self.agents[0].norm_history, dtype=float)
        fields = dict(
            profile=profile,
            converged=bool(norms.size and norms[-1] <= self.tolerance),
            iterations=int(norms.size),
            norm_history=norms,
        )
        fields.update(overrides)
        if "user_times" not in fields:
            fields["user_times"] = self.system.user_response_times(
                profile.fractions
            )
        return NashResult(**fields)

    def done(
        self, result: NashResult, messages_sent: int | None = None, **fields: Any
    ) -> None:
        """Emit the ``protocol.done`` summary of ``result``."""
        if self.tracer.enabled:
            self.tracer.emit(
                "protocol.done",
                driver=self.driver,
                converged=result.converged,
                sweeps=result.iterations,
                messages_sent=(
                    self.messages if messages_sent is None else messages_sent
                ),
                retransmissions=self.retransmissions,
                **fields,
            )

    def finish(
        self,
        outcome: type[ProtocolOutcome] = ProtocolOutcome,
        done: dict[str, Any] | None = None,
        **fields: Any,
    ) -> ProtocolOutcome:
        """Package the result, emit ``protocol.done`` with the ``done``
        fields, and return the ``outcome`` carrying ``fields``."""
        result = self.result()
        self.done(result, **(done or {}))
        return outcome(
            result=result,
            messages_sent=self.messages,
            transcript=self.bus.transcript,
            retransmissions=self.retransmissions,
            **fields,
        )


def run_nash_protocol(
    system: DistributedSystem,
    *,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    record_transcript: bool = True,
    tracer: Tracer | None = None,
) -> ProtocolOutcome:
    """Execute the NASH distributed algorithm over the message bus.

    Parameters mirror :func:`repro.core.nash.compute_nash_equilibrium`.
    ``tracer`` (default: the ambient tracer) records one
    ``protocol.deliver`` event per bus delivery, per-kind message
    counters, the initiator's ``protocol.sweep`` circulation record and a
    ``protocol.done`` summary — enough to reconstruct the convergence
    history and the full message accounting from the trace alone.
    """
    ring = _Ring(
        system,
        MessageBus(system.n_users, record_transcript=record_transcript),
        UserAgent,
        driver="reliable",
        init=init,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        tracer=tracer,
        start=dict(tolerance=tolerance, max_sweeps=max_sweeps),
    )
    ring.pump()
    return ring.finish()
