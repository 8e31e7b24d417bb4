"""Crash-fault injection and the self-healing NASH protocol driver.

:mod:`repro.distributed.faults` makes the token ring survive a lossy
*network*; this module makes it survive a lossy *system*: user agents
that crash (losing volatile state and mailbox) and later restart, and
computers that go offline (permanently or temporarily) mid-run.

The pieces, bottom up:

* :class:`FaultSchedule` — scripted or seeded ``(step, kind, target)``
  fault events, validated for crash/restart alternation and replayable
  bit-for-bit;
* :class:`CrashyMessageBus` — the lossy bus plus crash semantics: a dead
  rank's mailbox is wiped and everything sent to it is dropped;
* :class:`ResilientAgent` — a deduping agent whose initiator refuses to
  accept a convergence norm measured partly before a topology change;
* :func:`run_nash_protocol_resilient` — the supervisor: heartbeat-based
  failure detection, checkpoint/restore of crashed agents, capped
  exponential retransmission backoff, and graceful degradation onto the
  surviving computer set (or a typed
  :class:`~repro.core.degradation.CapacityExhausted` when the survivors
  cannot carry the load).

The degraded-equilibrium guarantee: a run that loses computers converges
to exactly the Nash equilibrium of the game restricted to the surviving
computers — the fixed point does not remember the failure history, only
the final topology.  Crashes happen *between* supervisor steps (an
agent's message handling is atomic), and the supervisor's outbox log
survives crashes — the classic sender-based message-logging assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterable, Sequence

import numpy as np

from repro.core.degradation import project_profile, surviving_subsystem
from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
)
from repro.core.strategy import StrategyProfile
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.failure_detector import (
    ExponentialBackoff,
    HeartbeatFailureDetector,
)
from repro.distributed.faults import DedupingAgent, LossyMessageBus
from repro.distributed.messages import Message, MessageKind
from repro.distributed.runtime import ProtocolOutcome, _Ring, _reset_baselines
from repro.telemetry.trace import Tracer

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "CrashyMessageBus",
    "ResilientAgent",
    "ResilientOutcome",
    "run_nash_protocol_resilient",
]


class FaultKind(Enum):
    """Crash-fault vocabulary of the chaos layer."""

    #: A user agent process dies: volatile state and mailbox are lost.
    AGENT_CRASH = auto()
    #: A crashed agent comes back and is restored from its checkpoint.
    AGENT_RESTART = auto()
    #: A computer goes offline: it serves no further load.
    COMPUTER_DOWN = auto()
    #: An offline computer rejoins with its full service rate.
    COMPUTER_UP = auto()


_AGENT_KINDS = (FaultKind.AGENT_CRASH, FaultKind.AGENT_RESTART)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault: at supervisor step ``step``, do ``kind`` to
    ``target`` (an agent rank or a computer index)."""

    step: int
    kind: FaultKind
    target: int

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("fault steps are 1-based")
        if self.target < 0:
            raise ValueError("fault target must be nonnegative")


class FaultSchedule:
    """A validated, replayable sequence of fault events.

    Events are applied in ``(step, insertion order)``; the constructor
    rejects schedules that crash an already-crashed agent, restart a
    running one, or toggle a computer into the state it is already in.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        ordered = sorted(events, key=lambda event: event.step)
        agent_down: set[int] = set()
        computer_down: set[int] = set()
        for event in ordered:
            if event.kind is FaultKind.AGENT_CRASH:
                if event.target in agent_down:
                    raise ValueError(
                        f"agent {event.target} crashed while already down"
                    )
                agent_down.add(event.target)
            elif event.kind is FaultKind.AGENT_RESTART:
                if event.target not in agent_down:
                    raise ValueError(
                        f"agent {event.target} restarted while running"
                    )
                agent_down.discard(event.target)
            elif event.kind is FaultKind.COMPUTER_DOWN:
                if event.target in computer_down:
                    raise ValueError(
                        f"computer {event.target} failed while already down"
                    )
                computer_down.add(event.target)
            elif event.kind is FaultKind.COMPUTER_UP:
                if event.target not in computer_down:
                    raise ValueError(
                        f"computer {event.target} restored while online"
                    )
                computer_down.discard(event.target)
        self._events = tuple(ordered)
        self._by_step: dict[int, tuple[FaultEvent, ...]] = {}
        for event in ordered:
            self._by_step.setdefault(event.step, ())
            self._by_step[event.step] += (event,)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def max_step(self) -> int:
        return self._events[-1].step if self._events else 0

    def events_at(self, step: int) -> tuple[FaultEvent, ...]:
        return self._by_step.get(step, ())

    def pending_restart(self, rank: int, step: int) -> bool:
        """Is an AGENT_RESTART for ``rank`` still scheduled after ``step``?"""
        return any(
            event.kind is FaultKind.AGENT_RESTART
            and event.target == rank
            and event.step > step
            for event in self._events
        )

    @classmethod
    def random(
        cls,
        *,
        n_agents: int,
        seed: int,
        horizon: int,
        agent_crashes: int = 1,
        computer_failures: int = 0,
        computer_targets: Sequence[int] = (),
        outage_steps: int = 0,
        min_downtime: int = 6,
    ) -> "FaultSchedule":
        """A seeded chaos schedule for a run expected to span ``horizon``
        supervisor steps.

        Crashes hit distinct agents in the first half of the horizon and
        restart after at least ``min_downtime`` steps.  Computer failures
        hit distinct members of ``computer_targets`` (the caller decides
        which computers are *safe* to lose); they stay down permanently
        unless ``outage_steps`` > 0, in which case each comes back that
        many steps later.
        """
        if horizon < 4 * min_downtime:
            raise ValueError("horizon too short for a meaningful schedule")
        if agent_crashes > n_agents:
            raise ValueError("cannot crash more agents than exist")
        if computer_failures > len(tuple(computer_targets)):
            raise ValueError(
                "computer_failures exceeds the allowed target list"
            )
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        ranks = rng.choice(n_agents, size=agent_crashes, replace=False)
        for rank in ranks:
            crash = int(rng.integers(horizon // 4, horizon // 2))
            downtime = int(rng.integers(min_downtime, 2 * min_downtime + 1))
            events.append(FaultEvent(crash, FaultKind.AGENT_CRASH, int(rank)))
            events.append(
                FaultEvent(crash + downtime, FaultKind.AGENT_RESTART, int(rank))
            )
        if computer_failures:
            chosen = rng.choice(
                np.asarray(tuple(computer_targets), dtype=int),
                size=computer_failures,
                replace=False,
            )
            for computer in chosen:
                down = int(rng.integers(horizon // 4, horizon // 2))
                events.append(
                    FaultEvent(down, FaultKind.COMPUTER_DOWN, int(computer))
                )
                if outage_steps > 0:
                    events.append(
                        FaultEvent(
                            down + outage_steps,
                            FaultKind.COMPUTER_UP,
                            int(computer),
                        )
                    )
        return cls(events)


class CrashyMessageBus(LossyMessageBus):
    """The lossy bus plus crash semantics for dead ranks.

    Messages addressed to a dead rank vanish (counted in
    ``lost_to_crash``); marking a rank dead wipes its mailbox — a crashed
    process loses whatever was in flight to it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._dead: set[int] = set()
        self.lost_to_crash = 0

    def mark_dead(self, rank: int) -> int:
        """Declare ``rank`` dead; returns the number of wiped messages."""
        self._dead.add(rank)
        return self.clear_mailbox(rank)

    def mark_alive(self, rank: int) -> None:
        self._dead.discard(rank)

    def is_dead(self, rank: int) -> bool:
        return rank in self._dead

    def _deliver(self, message: Message) -> None:
        if message.receiver in self._dead:
            self.lost_to_crash += 1
            return
        super()._deliver(message)


class ResilientAgent(DedupingAgent):
    """A deduping agent hardened for topology changes.

    The initiator refuses to terminate on a circulation that began before
    the latest topology change (``min_termination_sweep``): the norm it
    carries mixes pre- and post-failure deltas and proves nothing about
    the degraded game.  The supervisor may also re-inject a token
    (:meth:`rekick`) after cancelling a stale TERMINATE wave.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Earliest sweep whose circulation ran entirely after the last
        #: topology change — termination on earlier sweeps is vetoed.
        self.min_termination_sweep = 0

    def _should_terminate(self, message: Message) -> bool:
        if message.sweep >= self._max_sweeps:
            return True  # budget exhausted: stop even if vetoed
        return (
            message.norm <= self._tolerance
            and message.sweep >= self.min_termination_sweep
        )

    def rekick(self, sweep: int) -> None:
        """Initiator only: restart a dead ring with a fresh token."""
        if self.rank != 0:
            raise RuntimeError("only rank 0 can re-kick the ring")
        norm = self._update()
        self._bus.send(
            Message(
                kind=MessageKind.TOKEN,
                sender=self.rank,
                receiver=self._next_rank,
                sweep=sweep,
                norm=norm,
            )
        )


@dataclass(frozen=True)
class ResilientOutcome(ProtocolOutcome):
    """A resilient protocol run: the Nash result plus the recovery story.

    Extends :class:`~repro.distributed.runtime.ProtocolOutcome` with the
    supervisor's fault/recovery accounting.
    """

    #: Agent crash / restart / checkpoint-restore counts.
    crashes: int = 0
    restarts: int = 0
    checkpoint_restores: int = 0
    checkpoint_captures: int = 0
    #: Failure-detector suspicion events (one per detected death).
    suspicions: int = 0
    #: Messages dropped because their receiver was dead.
    messages_lost_to_crash: int = 0
    #: Computers that failed / rejoined during the run, in event order.
    computers_failed: tuple[int, ...] = ()
    computers_restored: tuple[int, ...] = ()
    #: Final online mask (one entry per computer).
    online_mask: tuple[bool, ...] = ()
    #: True when the run ended on a strict subset of the computers.
    degraded: bool = False
    #: Times the supervisor cancelled a stale TERMINATE wave.
    ring_reopens: int = 0
    #: Supervisor steps executed, and schedule events applied/ignored
    #: (events scheduled after termination are never applied).
    steps: int = 0
    events_applied: int = 0
    events_unapplied: int = 0

    def surviving_fractions(self) -> np.ndarray:
        """The final profile restricted to the online computers — the
        matrix to compare against a from-scratch degraded solve."""
        mask = np.asarray(self.online_mask, dtype=bool)
        return self.result.profile.fractions[:, mask]


def run_nash_protocol_resilient(
    system: DistributedSystem,
    schedule: FaultSchedule | None = None,
    *,
    drop: float = 0.0,
    duplicate: float = 0.0,
    fault_seed: int = 0,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    checkpoint_interval: int = 8,
    suspect_after: int = 3,
    backoff_base: int = 1,
    backoff_cap: int = 16,
    max_steps: int | None = None,
    tracer: Tracer | None = None,
) -> ResilientOutcome:
    """The NASH ring protocol under crash faults and computer failures.

    Runs the token-ring protocol of the paper over a
    :class:`CrashyMessageBus`, supervised: live agents heartbeat every
    step, a :class:`~repro.distributed.failure_detector.\
HeartbeatFailureDetector` suspects silent ones, stalls are healed by
    retransmitting the supervisor's outbox log with capped exponential
    backoff, crashed agents are restored from periodic checkpoints when
    they restart, and computer failures degrade the game onto the
    surviving machines (strategies re-projected, stability re-checked).
    The ring itself — agent construction, the delivery pass, the
    retransmission sweep and the result — is the pump the other three
    drivers share (:mod:`repro.distributed.runtime`); the supervisor
    owns only the step loop around it.

    Raises
    ------
    CapacityExhausted
        When a computer failure leaves ``Phi >= sum of surviving mu_i``.
    RuntimeError
        When the ring cannot recover (an agent crashed with no scheduled
        restart while the protocol still needs it) or ``max_steps`` is
        exceeded.
    """
    schedule = schedule if schedule is not None else FaultSchedule(())
    m = system.n_users
    bus = CrashyMessageBus(m, drop=drop, duplicate=duplicate, seed=fault_seed)
    ring = _Ring(
        system,
        bus,
        ResilientAgent,
        driver="resilient",
        init=init,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        tracer=tracer,
        start=dict(
            tolerance=tolerance,
            max_sweeps=max_sweeps,
            drop=drop,
            duplicate=duplicate,
            checkpoint_interval=checkpoint_interval,
            suspect_after=suspect_after,
            scheduled_events=schedule.n_events,
        ),
    )
    board, agents, tracer = ring.board, ring.agents, ring.tracer
    trace = tracer.enabled
    # The ring's outbox log doubles as the supervisor's write-ahead log
    # (sender-based message logging): it survives agent crashes.
    last_sent = ring.last_sent

    store = CheckpointStore()
    detector = HeartbeatFailureDetector(suspect_after)
    backoff = ExponentialBackoff(backoff_base, backoff_cap)
    generation = 0
    alive = [True] * m
    finished_at_crash = [False] * m

    def checkpoint(at: int) -> None:
        for j in range(m):
            if alive[j]:
                store.capture(agents[j], board, step=at, generation=generation)
                if trace:
                    tracer.emit("protocol.checkpoint", step=at, rank=j)
                    tracer.count("protocol.checkpoint_captures")

    for j in range(m):
        detector.beat(j, 0)
    checkpoint(0)

    def finished_view(rank: int) -> bool:
        return agents[rank].finished if alive[rank] else finished_at_crash[rank]

    crashes = restarts = 0
    computers_failed: list[int] = []
    computers_restored: list[int] = []
    ring_reopens = 0
    rekick_pending = False
    events_applied = 0
    stall = 0
    step = 0
    known_suspects: set[int] = set()
    if max_steps is None:
        max_steps = 64 * (max_sweeps + 2) * (m + 2) + 2 * schedule.max_step

    def note_topology_change() -> None:
        """Veto stale termination; cancel an in-flight TERMINATE wave."""
        nonlocal generation, ring_reopens, rekick_pending
        current_sweep = max(agent._last_acted_sweep for agent in agents)
        agents[0].min_termination_sweep = max(
            agents[0].min_termination_sweep, current_sweep + 1
        )
        if finished_view(0):
            # TERMINATE is circulating on a pre-failure norm: reopen.
            generation += 1
            ring_reopens += 1
            if trace:
                tracer.emit("protocol.reopen", step=step, generation=generation)
                tracer.count("protocol.ring_reopens")
            bus.purge(MessageKind.TERMINATE)
            for j in range(m):
                finished_at_crash[j] = False
                if alive[j]:
                    agents[j].finished = False
                    agents[j]._terminated = False
            for sender in [
                s for s, msg in last_sent.items()
                if msg.kind is MessageKind.TERMINATE
            ]:
                del last_sent[sender]
            rekick_pending = True

    agents[0].start()
    while True:
        if all(finished_view(j) for j in range(m)):
            break
        step += 1
        if step > max_steps:
            raise RuntimeError(
                f"resilient protocol exceeded {max_steps} supervisor steps "
                "without terminating (livelock?)"
            )

        # -- 1. fault injection ---------------------------------------
        for event in schedule.events_at(step):
            events_applied += 1
            rank = computer = event.target
            if trace:
                tracer.emit(
                    "protocol.fault",
                    step=step,
                    kind=event.kind.name.lower(),
                    target=event.target,
                )
            if event.kind is FaultKind.AGENT_CRASH:
                if not alive[rank]:
                    raise RuntimeError(f"agent {rank} crashed twice")
                finished_at_crash[rank] = agents[rank].finished
                alive[rank] = False
                bus.mark_dead(rank)
                crashes += 1
            elif event.kind is FaultKind.AGENT_RESTART:
                bus.mark_alive(rank)
                alive[rank] = True
                store.restore(agents[rank], board, generation=generation)
                if trace:
                    # norm_history_length lets the trace replay the
                    # rollback: the reconstruction truncates rank 0's
                    # history to the checkpointed prefix.
                    tracer.emit(
                        "protocol.restore",
                        rank=rank,
                        step=step,
                        norm_history_length=len(agents[rank].norm_history),
                    )
                    tracer.count("protocol.checkpoint_restores")
                # The checkpointed flows may predate a computer failure:
                # re-project the restored row onto the live computer set.
                row = project_profile(
                    board.flows[rank][None, :],
                    board.online_mask,
                    fallback_rates=system.service_rates,
                )[0]
                board.publish(rank, row)
                detector.beat(rank, step)
                restarts += 1
                stall = 0
                backoff.reset()
            elif event.kind is FaultKind.COMPUTER_DOWN:
                board.set_computer_online(computer, False)
                computers_failed.append(computer)
                # Stability re-check: raises CapacityExhausted (typed,
                # with diagnostics) when the survivors cannot carry Phi.
                surviving_subsystem(system, board.online_mask)
                projected = project_profile(
                    board.flows,
                    board.online_mask,
                    fallback_rates=system.service_rates,
                )
                for j in range(m):
                    board.publish(j, projected[j])
                # Offline computers carry zero flow after projection, so
                # the full-width baselines are exact for the degraded
                # system; a transient overload skips the refresh and the
                # next best replies repair the profile (the norm spikes).
                _reset_baselines(
                    system, agents, board.flows / system.arrival_rates[:, None]
                )
                note_topology_change()
            elif event.kind is FaultKind.COMPUTER_UP:
                board.set_computer_online(computer, True)
                computers_restored.append(computer)
                note_topology_change()
        if rekick_pending and alive[0]:
            next_sweep = max(agent._last_acted_sweep for agent in agents) + 1
            agents[0].rekick(next_sweep)
            rekick_pending = False

        # -- 2. message delivery --------------------------------------
        delivered = ring.deliver_pending()

        # -- 3. heartbeats and failure detection ----------------------
        for j in range(m):
            if alive[j]:
                detector.beat(j, step)
        suspected = detector.check(step)
        if trace:
            for j in sorted(suspected - known_suspects):
                tracer.emit("protocol.suspect", rank=j, step=step)
                tracer.count("protocol.suspicions")
        known_suspects = set(suspected)

        # -- 4. periodic checkpoints ----------------------------------
        if checkpoint_interval and step % checkpoint_interval == 0:
            checkpoint(step)

        # -- 5. stall recovery ----------------------------------------
        if delivered:
            stall = 0
            backoff.reset()
            continue
        if all(finished_view(j) for j in range(m)):
            continue  # loop top will break
        if rekick_pending:
            continue  # ring intentionally idle until rank 0 restarts
        stall += 1
        if stall < backoff.current:
            continue
        stall = 0
        backoff.advance()
        resent, blocked = ring.retransmit(finished_view, detector.is_suspected)
        # Every circulation needs every agent: a suspected, unfinished
        # rank with no restart on the schedule is a dead end no amount
        # of retransmission can route around.
        dead_ends = sorted(
            {r for r in blocked if not schedule.pending_restart(r, step)}
        )
        if dead_ends:
            raise RuntimeError(
                f"agents {dead_ends} crashed with no scheduled restart; "
                "the ring cannot recover"
            )
        if not resent and not blocked:
            raise RuntimeError(
                "protocol deadlocked with nothing to retransmit"
            )

    online = board.online_mask
    degraded = bool(not online.all())
    recovery = dict(
        crashes=crashes,
        restarts=restarts,
        suspicions=detector.suspicions,
        messages_lost_to_crash=bus.lost_to_crash,
        ring_reopens=ring_reopens,
        steps=step,
        degraded=degraded,
    )
    return ring.finish(
        ResilientOutcome,
        done=recovery,
        **recovery,
        checkpoint_restores=store.restores,
        checkpoint_captures=store.captures,
        computers_failed=tuple(computers_failed),
        computers_restored=tuple(computers_restored),
        online_mask=tuple(bool(b) for b in online),
        events_applied=events_applied,
        events_unapplied=schedule.n_events - events_applied,
    )
