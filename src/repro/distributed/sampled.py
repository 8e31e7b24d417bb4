"""The NASH ring protocol under power-of-k sampled information.

The full-information protocol (:mod:`repro.distributed.runtime`) has
every agent observe all ``n`` computers before each best reply — an
``O(m n)`` observation cost per sweep that dwarfs the ``O(m)`` token
hops.  This driver runs the same ring with
:class:`SampledUserAgent`\\ s, which poll only their current support
(free — their own jobs measure those queues) plus ``k`` seeded random
computers per update (:mod:`repro.core.sampled`), cutting the per-sweep
observation cost to ``O(m k)``.

Poll accounting is a first-class protocol quantity: each update's probe
count rides the token next to the norm (``Message.polls``), so the
initiator reads the ring-wide poll cost of every circulation off the
returning token and emits it as one ``protocol.sample`` event — the
trace alone reconstructs the full message economics
(``messages_sent = token/terminate hops + polls``).  With ``k >= n``
every update honestly pays ``n`` polls: that run *is* the
full-information baseline the EXT11 message-reduction figures divide by.

Determinism and parity: agent ``j``'s ``l``-th update draws
``sample_indices(seed, l, j, n, k)`` — the same generator the sequential
:class:`~repro.core.nash.NashSolver` uses for user ``j`` in sweep ``l``
— so the ring computes the sequential sampled solver's iterates up to
the usual board-summation round-off, and exactly the base protocol's
when ``k >= n``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.best_response import optimal_fractions
from repro.core.equilibrium import best_response_regrets
from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
    NashResult,
)
from repro.core.sampled import (
    SampleCertificate,
    reply_set,
    sample_indices,
    widen_reply_set,
)
from repro.core.strategy import StrategyProfile
from repro.distributed.messages import Message
from repro.distributed.network import MessageBus
from repro.distributed.node import UserAgent
from repro.distributed.runtime import _Ring
from repro.telemetry.trace import Tracer

__all__ = [
    "SampledProtocolOutcome",
    "SampledUserAgent",
    "run_sampled_nash_protocol",
]


class SampledUserAgent(UserAgent):
    """A ring agent that best-responds over ``support ∪ k-sample``.

    The update observes the board only at the reply set — an O(k) poll
    via :meth:`~repro.distributed.node.ComputerBoard.available_rates_at`
    — and falls back to the deterministic widening scan (extra polls,
    honestly counted) when the sampled capacity cannot carry the job
    rate, e.g. on a cold start from the all-zero profile.
    """

    def __init__(self, *args: Any, sample_k: int, seed: int = 0, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if sample_k < 1:
            raise ValueError("sample_k must be at least 1")
        self.sample_k = int(sample_k)
        self._seed = int(seed)
        #: Completed updates — the agent's local sweep counter, which by
        #: ring construction equals the sequential solver's sweep index
        #: for this user, so both draw identical samples.
        self._updates = 0
        #: Total availability probes this agent has spent.
        self.polls = 0

    def _update_delta(self) -> float:
        board = self._board
        n = board.service_rates.size
        sweep = self._updates
        indices = sample_indices(self._seed, sweep, self.rank, n, self.sample_k)
        chosen = reply_set(board.flows[self.rank], indices)
        polls = int(indices.size)
        observed = board.available_rates_at(self.rank, chosen)
        if self.job_rate >= float(np.clip(observed, 0.0, None).sum()):
            # The sampled capacity cannot carry the demand: widen the
            # reply set deterministically, paying for every newly
            # examined computer.
            available = board.available_rates(self.rank)
            chosen, extra = widen_reply_set(
                chosen,
                available,
                self.job_rate,
                seed=self._seed,
                sweep=sweep,
                index=self.rank,
            )
            polls += extra
            observed = available[chosen]
        reply = optimal_fractions(observed, self.job_rate)
        flows = np.zeros(n)
        flows[chosen] = reply.fractions * self.job_rate
        board.publish(self.rank, flows)
        self._updates += 1
        self.polls += polls
        self._last_update_polls = polls
        if self._tracer.enabled:
            self._tracer.count("protocol.messages.probe", polls)
        delta = abs(reply.expected_response_time - self._previous_time)
        self._previous_time = reply.expected_response_time
        return delta

    def _record_circulation(self, message: Message) -> None:
        # The returning token carries the circulation's ring-wide poll
        # cost next to its norm; one event per sweep reconstructs the
        # whole poll economics from the trace (see protocol_summary).
        if self._tracer.enabled:
            self._tracer.emit(
                "protocol.sample",
                index=len(self.norm_history) - 1,
                sweep=message.sweep,
                norm=message.norm,
                k=self.sample_k,
                polls=message.polls,
            )


@dataclass(frozen=True)
class SampledProtocolOutcome:
    """A sampled protocol run: equilibrium result plus message economics.

    ``messages_sent`` is the honest total cost — bus messages (token
    hops + termination) **plus** availability polls, since under partial
    information every probe is a message to a computer.  The
    full-information baseline is the same driver at ``k = n``, where
    every update pays ``n`` polls.
    """

    result: NashResult
    messages_sent: int
    bus_messages: int
    polls: int
    sample_k: int
    epsilon: float
    transcript: tuple[Message, ...]


def run_sampled_nash_protocol(
    system: DistributedSystem,
    *,
    sample_k: int,
    seed: int = 0,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    record_transcript: bool = True,
    tracer: Tracer | None = None,
) -> SampledProtocolOutcome:
    """Execute the ring protocol under power-of-k sampled information.

    Runs the shared ring pump of
    :func:`repro.distributed.runtime.run_nash_protocol` with
    :class:`SampledUserAgent`\\ s, so the trace carries the same
    ``protocol.start`` / ``protocol.deliver`` (+ per-kind counters) /
    ``protocol.sweep`` / ``protocol.done`` events, and adds the sampled
    accounting: a ``protocol.messages.probe`` counter per update and one
    ``protocol.sample`` event per completed circulation carrying that
    sweep's ring-wide poll cost.  The result's
    :class:`~repro.core.sampled.SampleCertificate` reports the **true**
    global epsilon of the final profile against exact full-information
    best responses.
    """
    if sample_k < 1:
        raise ValueError("sample_k must be at least 1")
    m, n = system.n_users, system.n_computers
    k = min(sample_k, n)
    ring = _Ring(
        system,
        MessageBus(m, record_transcript=record_transcript),
        SampledUserAgent,
        driver="sampled",
        init=init,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        tracer=tracer,
        start=dict(k=k, tolerance=tolerance, max_sweeps=max_sweeps),
        sample_k=sample_k,
        seed=seed,
    )
    ring.pump()

    polls = sum(agent.polls for agent in ring.agents)
    try:
        result = ring.result()
        epsilon = float(best_response_regrets(system, result.profile).epsilon)
    except ValueError:
        result = ring.result(user_times=np.full(m, np.inf), converged=False)
        epsilon = float("inf")
    norms = result.norm_history
    result = replace(
        result,
        sample=SampleCertificate(
            k=k,
            n_computers=n,
            sweeps=result.iterations,
            polls=polls,
            sampled_norm=float(norms[-1]) if norms.size else 0.0,
            epsilon=epsilon,
        ),
    )
    ring.done(result, messages_sent=ring.messages + polls)
    return SampledProtocolOutcome(
        result=result,
        messages_sent=ring.messages + polls,
        bus_messages=ring.messages,
        polls=polls,
        sample_k=k,
        epsilon=epsilon,
        transcript=ring.bus.transcript,
    )
