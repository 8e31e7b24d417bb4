"""User-class aggregation: million-user equilibria in class space.

The best reply of user ``j`` (paper Theorem 2.1) depends only on the
user's own job rate ``phi_j`` and the aggregate load the *other* users
put on each computer.  Users with identical ``phi`` therefore share one
equilibrium strategy by symmetry — the aggregation insight exploited by
Berenbrink et al. for weighted task classes — so an instance with
``m = 10^6`` users drawn from ``c`` distinct job rates collapses to a
``(c, n)`` problem with ``c << m``.  This module provides that collapse
end to end:

* :func:`aggregate_users` groups users into weighted
  :class:`ClassAggregation` classes — exact grouping by ``phi`` by
  default, with a relative-tolerance knob for nearly-identical rates —
  with weighted demand accounting (a class's demand is the sum of its
  members' rates; its representative per-member rate is the weighted
  mean);
* :class:`ClassNashSolver` runs the best-reply iteration entirely in
  class space with ``(c, n)`` state, reusing the batched water-fill
  kernels, so cost per sweep is ``O(c n log n)`` instead of
  ``O(m n log n)`` and memory ``O(c n)`` instead of ``O(m n)``;
* :func:`class_best_response_regrets` evaluates the *per-user*
  epsilon-Nash certificate in class space: every member of a class has
  the same regret, so ``c`` batched best responses certify all ``m``
  users (the epsilon-Nash early-stop knob of Chakraborty et al.'s
  approximate congestion games).

Exactness.  A class-uniform profile expanded by
:meth:`ClassAggregation.expand` puts identical rows on all members of a
class, so the expanded aggregate loads equal the class-space loads and
the class-space certificate *is* the user-space certificate (exactly for
exact grouping, up to the grouping tolerance otherwise).  With every
class a singleton each class reply is the paper's per-user OPTIMAL
reply, so this module's sweep driver is the only one:
:class:`~repro.core.nash.NashSolver` runs it with one class per user
(and :class:`~repro.core.comm_delay.DelayedNashSolver`, with the delays
as a fill offset), and the parity tests pin it against the frozen
reference driver.

The sweep *norm* is user-weighted (``sum_k count_k |D_k^{(l)} -
D_k^{(l-1)}|``) so ``tolerance`` means the same thing it means for the
per-user solver on the expanded system.

See docs/PERFORMANCE.md ("Class-space solving") for when aggregation
wins and measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ulp
from time import perf_counter
from typing import Callable, Literal, NamedTuple

import numpy as np

from repro._typing import FloatArray
from repro.core.best_response import optimal_fractions, optimal_fractions_batch
from repro.core.model import DistributedSystem
from repro.core.sampled import (
    SampleCertificate,
    sampled_best_reply,
    sampled_best_reply_batch,
    sampled_reply_set,
)
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import InfeasibleDemand
from repro.queueing.mm1 import expected_response_time
from repro.telemetry.trace import Tracer, current_tracer

__all__ = [
    "DEFAULT_MAX_SWEEPS",
    "DEFAULT_TOLERANCE",
    "ClassAggregation",
    "ClassEquilibriumCertificate",
    "ClassNashResult",
    "ClassNashSolver",
    "Initialization",
    "UpdateOrder",
    "aggregate_users",
    "class_best_response_regrets",
    "initial_profile",
]

IntArray = np.ndarray

#: Default acceptance tolerance ``eps`` on the per-sweep norm.
DEFAULT_TOLERANCE = 1e-6
#: Default cap on best-reply sweeps before declaring non-convergence.
DEFAULT_MAX_SWEEPS = 500

Initialization = Literal["zero", "proportional", "uniform"]
UpdateOrder = Literal["roundrobin", "random", "simultaneous"]


@dataclass(frozen=True)
class ClassAggregation:
    """Users grouped into weighted classes over a fixed computer fleet.

    Attributes
    ----------
    service_rates:
        ``mu`` — per-computer processing rates, length ``n``.
    class_rates:
        Representative per-*member* job rate of each class (the weighted
        mean of its members' rates), length ``c``.
    counts:
        Number of users in each class, length ``c``.
    demands:
        Total demand of each class — the *exact sum of its members' job
        rates*, never re-derived from the representative rate.  Summing
        keeps ``demands.sum()`` equal to the system's total arrival rate
        (up to summation order), so a feasible system stays feasible
        after aggregation even at the capacity boundary; the re-derived
        ``class_rates * counts`` form drifts by rounding and used to
        push boundary systems over the feasibility check.
    class_of:
        Per-user class index, length ``m`` (``None`` for synthetic
        aggregations built directly from class vectors, which never
        expand).
    member_rates:
        The original per-user job rates, length ``m`` (``None`` for
        synthetic aggregations).
    grouping_tol:
        The relative tolerance the grouping was built with (0 = exact).
    """

    service_rates: FloatArray
    class_rates: FloatArray
    counts: IntArray
    demands: FloatArray
    class_of: IntArray | None = None
    member_rates: FloatArray | None = None
    grouping_tol: float = 0.0

    def __post_init__(self) -> None:
        mu = np.asarray(self.service_rates, dtype=float)
        rates = np.asarray(self.class_rates, dtype=float)
        counts = np.asarray(self.counts, dtype=np.intp)
        demands = np.asarray(self.demands, dtype=float)
        if mu.ndim != 1 or mu.size == 0 or np.any(mu <= 0.0):
            raise ValueError("service_rates must be a positive 1-D vector")
        if rates.ndim != 1 or rates.size == 0 or np.any(rates <= 0.0):
            raise ValueError("class_rates must be a positive 1-D vector")
        if counts.shape != rates.shape or np.any(counts < 1):
            raise ValueError("counts must be positive, one per class")
        if demands.shape != rates.shape or np.any(demands <= 0.0):
            raise ValueError("demands must be positive, one per class")
        if float(demands.sum()) >= float(mu.sum()):
            raise ValueError(
                "aggregate demand must be strictly below total capacity"
            )
        object.__setattr__(self, "service_rates", mu)
        object.__setattr__(self, "class_rates", rates)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "demands", demands)
        if self.class_of is not None:
            class_of = np.asarray(self.class_of, dtype=np.intp)
            if class_of.ndim != 1 or class_of.size == 0:
                raise ValueError("class_of must be a 1-D vector")
            if class_of.min() < 0 or class_of.max() >= rates.size:
                raise ValueError("class_of holds out-of-range class indices")
            object.__setattr__(self, "class_of", class_of)
        if self.member_rates is not None:
            member = np.asarray(self.member_rates, dtype=float)
            if self.class_of is None or member.shape != self.class_of.shape:
                raise ValueError(
                    "member_rates requires a matching class_of vector"
                )
            object.__setattr__(self, "member_rates", member)

    # ------------------------------------------------------------------
    # Shape and aggregate properties
    # ------------------------------------------------------------------
    @property
    def n_classes(self) -> int:
        """Number of user classes ``c``."""
        return int(self.class_rates.size)

    @property
    def n_computers(self) -> int:
        return int(self.service_rates.size)

    @property
    def n_users(self) -> int:
        """Number of underlying users ``m`` (``sum counts`` when synthetic)."""
        if self.class_of is not None:
            return int(self.class_of.size)
        return int(self.counts.sum())

    @property
    def compression(self) -> float:
        """``m / c`` — the state-size reduction the aggregation buys."""
        return self.n_users / self.n_classes

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())

    # ------------------------------------------------------------------
    # Class-space quantities
    # ------------------------------------------------------------------
    def loads(self, class_fractions: FloatArray) -> FloatArray:
        """Aggregate flow into each computer under a class profile."""
        f = self._validated(class_fractions)
        lam: FloatArray = self.demands @ f
        return lam

    def class_times(self, class_fractions: FloatArray) -> FloatArray:
        """Expected response time of one member of each class."""
        f = self._validated(class_fractions)
        lam = self.demands @ f
        if np.any(self.service_rates - lam <= 0.0):
            raise ValueError("class profile violates per-computer stability")
        times: FloatArray = f @ expected_response_time(lam, self.service_rates)
        return times

    def proportional_fractions(self) -> FloatArray:
        """Every class splits along capacity — the NASH_P seed."""
        row = self.service_rates / self.service_rates.sum()
        tiled: FloatArray = np.tile(row, (self.n_classes, 1))
        return tiled

    # ------------------------------------------------------------------
    # Expansion / contraction between user and class space
    # ------------------------------------------------------------------
    def expand(self, class_fractions: FloatArray) -> StrategyProfile:
        """Materialize the ``(m, n)`` per-user profile (every member adopts
        its class row).

        This is the only O(m·n) operation in the class path — at
        ``m = 10^6, n = 1024`` the matrix alone is ~8 GB, so callers at
        scale should stay in class space and expand only slices.
        """
        if self.class_of is None:
            raise ValueError("synthetic aggregation has no user mapping")
        f = self._validated(class_fractions)
        return StrategyProfile(f[self.class_of])

    def contract(self, profile: StrategyProfile | FloatArray) -> FloatArray:
        """Demand-weighted class rows from an ``(m, n)`` per-user profile.

        The adjoint of :meth:`expand`: for a class-uniform profile it
        recovers the common row exactly; otherwise it returns each
        class's traffic-weighted mean row — the seed
        :class:`ClassNashSolver` warm starts from (continuation across
        sweep points in class space).
        """
        if self.class_of is None or self.member_rates is None:
            raise ValueError("synthetic aggregation has no user mapping")
        fractions = (
            profile.fractions
            if isinstance(profile, StrategyProfile)
            else np.asarray(profile, dtype=float)
        )
        if fractions.shape != (self.n_users, self.n_computers):
            raise ValueError(
                f"profile must have shape ({self.n_users}, "
                f"{self.n_computers}), got {fractions.shape}"
            )
        weighted = np.zeros((self.n_classes, self.n_computers))
        np.add.at(
            weighted, self.class_of, fractions * self.member_rates[:, None]
        )
        totals = np.zeros(self.n_classes)
        np.add.at(totals, self.class_of, self.member_rates)
        contracted: FloatArray = weighted / totals[:, None]
        return contracted

    def _validated(self, class_fractions: FloatArray) -> FloatArray:
        f = np.asarray(class_fractions, dtype=float)
        if f.shape != (self.n_classes, self.n_computers):
            raise ValueError(
                f"class profile must have shape ({self.n_classes}, "
                f"{self.n_computers}), got {f.shape}"
            )
        return f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClassAggregation(n_classes={self.n_classes}, "
            f"n_users={self.n_users}, n_computers={self.n_computers}, "
            f"compression={self.compression:.1f}x)"
        )


def aggregate_users(
    system: DistributedSystem, *, tol: float = 0.0
) -> ClassAggregation:
    """Group ``system``'s users into weighted classes by job rate.

    ``tol`` is the *relative* grouping tolerance: users whose rates lie
    within ``tol`` (relatively) of a class's anchor rate join that class.
    ``tol=0`` groups exactly equal rates only, for which the class-space
    equilibrium certificate equals the per-user one exactly; ``tol > 0``
    trades an O(tol)-sized certificate slack for fewer classes.

    >>> from repro.workloads import paper_table1_system
    >>> agg = aggregate_users(paper_table1_system(n_users=10))
    >>> agg.n_classes, agg.n_users          # 10 identical users
    (1, 10)
    """
    if tol < 0.0:
        raise ValueError("grouping tolerance must be nonnegative")
    phi = system.arrival_rates
    m = phi.size
    if tol == 0.0:  # reprolint: allow=R002 exact-sentinel: 0 selects exact grouping
        values, inverse, counts = np.unique(
            phi, return_inverse=True, return_counts=True
        )
        class_of = inverse.astype(np.intp)
        # True member-rate sums (values * counts re-rounds and can drift
        # from the system's total demand at the feasibility boundary).
        raw_demands = np.bincount(class_of, weights=phi, minlength=values.size)
        class_rates = values
    else:
        order = np.argsort(phi, kind="stable")
        sorted_phi = phi[order]
        edges = []
        start = 0
        while start < m:
            anchor = float(sorted_phi[start])
            stop = int(
                np.searchsorted(sorted_phi, anchor * (1.0 + tol), side="right")
            )
            stop = max(stop, start + 1)
            edges.append((start, stop))
            start = stop
        class_of = np.empty(m, dtype=np.intp)
        counts = np.empty(len(edges), dtype=np.intp)
        raw_demands = np.empty(len(edges))
        for k, (lo, hi) in enumerate(edges):
            class_of[order[lo:hi]] = k
            counts[k] = hi - lo
            raw_demands[k] = float(sorted_phi[lo:hi].sum())
        class_rates = raw_demands / counts
    return ClassAggregation(
        service_rates=system.service_rates,
        class_rates=class_rates,
        counts=counts,
        # The true member-rate sums: re-deriving ``class_rates * counts``
        # here drifts from ``phi.sum()`` by rounding, which can push a
        # boundary-feasible system over the capacity check (see the
        # regression tests in tests/core/test_classes.py).
        demands=raw_demands,
        class_of=class_of,
        member_rates=phi,
        grouping_tol=float(tol),
    )


# ----------------------------------------------------------------------
# Equilibrium certificate in class space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClassEquilibriumCertificate:
    """Per-class (hence per-user, by symmetry) regret certificate.

    Every member of a class has the same current cost and the same
    unilateral best-response cost, so the per-class regrets *are* the
    per-user regrets of the expanded profile and ``epsilon`` is the same
    epsilon :func:`repro.core.equilibrium.best_response_regrets` would
    report on the ``(m, n)`` expansion (exactly for exact grouping).
    """

    regrets: FloatArray
    class_times: FloatArray
    best_response_times: FloatArray
    counts: IntArray
    epsilon: float

    def is_equilibrium(self, tol: float) -> bool:
        return self.epsilon <= tol


def class_best_response_regrets(
    aggregation: ClassAggregation, class_fractions: FloatArray
) -> ClassEquilibriumCertificate:
    """Certify a class profile with ``c`` batched best responses."""
    f = aggregation._validated(class_fractions)
    current, best = _member_times(
        aggregation.service_rates, aggregation.demands, aggregation.class_rates, f
    )
    regrets = current - best
    return ClassEquilibriumCertificate(
        regrets=regrets,
        class_times=current,
        best_response_times=best,
        counts=aggregation.counts,
        epsilon=float(regrets.max()),
    )


def _member_times(
    mu: FloatArray, demands: FloatArray, rates: FloatArray, f: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Each row's current and best-reply member times: the one certificate.

    Row ``k``'s available rates are ``mu - lam + rate_k f_k``, everyone
    else's flow removed *including the classmates'*; per-user callers pass
    one class per user (``demands = rates = phi``).
    """
    lam = demands @ f
    if np.any(mu - lam <= 0.0):
        raise ValueError("class profile violates per-computer stability")
    current: FloatArray = f @ expected_response_time(lam, mu)
    available = (mu - lam)[None, :] + rates[:, None] * f
    best = optimal_fractions_batch(available, rates).expected_response_times
    return current, best


# ----------------------------------------------------------------------
# The class-space best-reply solver
# ----------------------------------------------------------------------
_FILL_MAX_ITERS = 80
_FILL_RTOL = 1e-14


class _Fill(NamedTuple):
    """One symmetric class fill, as the sweep driver consumes it."""

    flows: FloatArray
    time: float
    multiplier: float
    iterations: int


def _symmetric_class_fill(
    m: FloatArray,
    demand: float,
    count: float,
    u0: float = 0.0,
    offset: FloatArray | None = None,
) -> _Fill:
    """Symmetric intra-class equilibrium fill of ``demand`` over rates ``m``.

    ``m`` holds the class's foreign-free rates (``mu - foreign load``);
    the class's ``count`` members, each with job rate ``demand / count``,
    play a symmetric Nash equilibrium among themselves while the rest of
    the world is frozen.  On the support the per-member KKT condition
    gives, for the residual gap ``g_i = m_i - y_i`` (``y`` the class
    *total* on computer ``i``) and multiplier ``t``::

        c g_i^2 - t^2 (c - 1) g_i - t^2 m_i = 0

    whose positive root is monotone in ``t``, with the same support rule
    as the plain water-fill (``i`` carries flow iff ``m_i > t^2``); for
    ``c = 1`` it degenerates to ``g_i = t sqrt(m_i)`` — the paper's
    closed form.  We solve the scalar conservation equation
    ``sum_i y_i(u) = demand`` in ``u = t^2`` by Newton safeguarded by
    the bracket ``[0, max m]``.

    The iteration stops at ``|residual| <= _FILL_RTOL * demand`` or at
    the float floor, whichever comes first: the bracket is a few ulps
    wide, or the Newton step no longer moves ``u`` by an ulp.  Past that
    point no representable ``u`` lowers the residual — what is left is
    the rounding noise of the ``n``-term sum — so further iterations
    cannot change the answer.  ``_FILL_MAX_ITERS`` is only a safety net.

    ``u0`` warm-starts Newton, typically with the multiplier this class's
    previous fill returned; a start outside the bracket (or NaN) falls
    back to the cold guess.  The bracket keeps Newton safe from any
    start, so the start changes the iteration count, not the answer.

    ``offset`` adds a cost ``o_i >= 0`` per job sent to computer ``i`` (the
    delays of :mod:`repro.core.comm_delay`).  Newton still runs in ``u``;
    computer ``i`` sees ``u_i = u / (1 - u o_i)``, is open while
    ``u_i < m_i``, and the bracket tops out at ``max 1/(1/m_i + o_i)``.

    Returns the class-total allocation ``y`` (full length, zeros off the
    support), the member cost (expected response time, plus the offset
    cost ``sum_i y_i o_i / demand``), the final multiplier ``u`` and the
    iterations spent.  Raises :class:`InfeasibleDemand` when ``demand``
    is at or above the total positive capacity.

    This is the key fix over the naive ``count * best_reply`` update:
    jumping *all* members of a class to the member best reply at once is
    intra-class Jacobi and oscillates for large counts, while this fill
    lands each class exactly on its internal equilibrium, so the outer
    Gauss-Seidel inherits the per-user iteration's contraction.
    """
    pos = m > 0.0
    mp = m[pos]
    cap = float(mp.sum())
    if demand >= cap:
        raise InfeasibleDemand(demand, cap)
    c = count
    c1 = c - 1.0
    off = None if offset is None else offset[pos]
    # Bracket in u = t^2: u -> 0 gives y -> m (sum = cap > demand),
    # u >= max(m) empties the support (sum = 0 < demand).
    lo = 0.0
    hi = float(mp.max() if off is None else (mp / (1.0 + mp * off)).max())
    if lo < u0 < hi:
        u = u0
    else:
        u = hi * (1.0 - demand / cap)
        if u <= lo or u >= hi:
            u = 0.5 * hi
    y = mp
    step = step_before = hi  # Newton step lengths, for the offset's guard
    iterations = 0
    for iterations in range(1, _FILL_MAX_ITERS + 1):
        if off is not None:  # a closed computer takes u_i = m_i (finite)
            den = 1.0 - u * off
            is_open = mp * den > u
        uu = u if off is None else np.divide(u, den, out=mp.copy(), where=is_open)
        root = np.sqrt((uu * c1) ** 2 + 4.0 * c * uu * mp)
        g = (uu * c1 + root) / (2.0 * c)
        active = mp > g
        if off is not None:
            active &= is_open
        y = np.where(active, mp - g, 0.0)
        h = float(y.sum()) - demand
        if h > 0.0:
            lo = u
        else:
            hi = u
        done = abs(h) <= _FILL_RTOL * demand or hi - lo <= 4.0 * ulp(hi)
        if done and off is None:
            break
        # dh/du = -sum over the support of dg/du (root > 0 for u > 0).
        dg = (c1 + (2.0 * uu * c1 * c1 + 4.0 * c * mp) / (2.0 * root)) / (
            2.0 * c
        )
        if off is not None:
            dg *= (uu / u) ** 2
        slope = float(dg[active].sum())
        if done:
            break
        if slope > 0.0:
            u_next = u + h / slope
            if abs(u_next - u) <= ulp(u):
                # Newton no longer moves u; bisecting from here would
                # only walk back to the same ulp.
                break
        else:
            u_next = 0.5 * (lo + hi)
        # The conservation sum is convex in u without an offset; with one
        # Newton can bounce across the root, so a step longer than half
        # the one before last bisects.
        if u_next <= lo or u_next >= hi or (
            off is not None and 2.0 * abs(u_next - u) > step_before
        ):
            u_next = 0.5 * (lo + hi)
        step_before, step = step, abs(u_next - u)
        u = u_next
    if off is not None and slope > 0.0:
        # Near a pole (u o_i -> 1) one ulp of u moves up to ~1e-12 of the
        # demand: shift that residual along dy/du, where it moves the
        # marginal costs least, before the rescale.
        y = np.maximum(y - (h / slope) * np.where(active, dg, 0.0), 0.0)
    # Exact conservation: rescale the residual Newton error away.  The
    # relative correction is at most the float floor: the rounding noise
    # of the support sum plus the residual change over one ulp of ``u``
    # (around 1e-14, at most ~1e-13, for n = 1024).
    total = float(y.sum())
    y *= demand / total
    gap = mp - y
    d = float((y / gap)[y > 0.0].sum()) / demand  # reprolint: allow=R003 gap > 0 on the support by construction
    if off is not None:
        d += float(y @ off) / demand
    out = np.zeros(m.shape[0])
    out[pos] = y
    return _Fill(out, d, u, iterations)


def _fused_class_reply_inplace(
    mu: FloatArray,
    count: float,
    demand: float,
    own: FloatArray,
    lam: FloatArray,
    avail: FloatArray,
    thr: FloatArray,
    u0: float,
    offset: FloatArray | None = None,
) -> tuple[float, float, int]:
    """One class's equilibrium reply with in-place aggregate bookkeeping.

    ``own`` is the class's *total* flow row inside the ``(c, n)`` flow
    matrix and ``lam`` the running aggregate ``sum_k flows_k``; both are
    updated in place (``lam += new_own - old_own``, the rank-1 delta that
    makes a sweep ``O(c n log n)``), so ``mu - lam + own`` are the
    class's foreign-free rates.  ``avail``/``thr`` are preallocated
    ``(n,)`` scratch buffers.  ``demand`` is the class's true member-rate
    sum (``ClassAggregation.demands[k]``, *not* re-derived as
    ``rate * count`` — see :func:`aggregate_users`).  Returns the
    member's new expected response time, the fill's final multiplier and
    the fill's iteration count.

    A singleton class is one user, and its reply is the paper's OPTIMAL
    water-fill: the arithmetic mirrors
    :func:`repro.core.waterfill.sqrt_waterfill` with the per-call
    overhead (validation, dataclasses, defensive branches) stripped.
    Whenever some computer has no headroom left — possible only from an
    infeasible initialization such as a uniform split on a strongly
    heterogeneous system — it falls back to the defensive scalar solver,
    which handles unavailable computers.  Either way no fill runs, so the
    multiplier and iteration count come back as 0.

    A multi-member class, or any class with an ``offset``, lands on its
    symmetric intra-class equilibrium via :func:`_symmetric_class_fill`,
    its Newton started at ``u0`` (the class's multiplier from its previous
    fill, which the driver keeps) and stopped at ``_FILL_RTOL`` or at the
    float floor.
    """
    np.subtract(mu, lam, out=avail)
    avail += own
    if count <= 1.0 and offset is None:
        if np.any(avail <= 0.0):
            # Defensive path: unavailable computers present.
            reply = optimal_fractions(avail, demand)
            lam -= own
            np.multiply(reply.fractions, demand, out=own)
            lam += own
            return float(reply.expected_response_time), 0.0, 0

        order = np.argsort(-avail, kind="stable")
        a_sorted = avail[order]
        roots = np.sqrt(a_sorted)
        cum_a = np.cumsum(a_sorted)
        cum_r = np.cumsum(roots)
        if demand >= cum_a[-1]:
            raise InfeasibleDemand(demand, float(cum_a[-1]))

        # Threshold for every candidate support prefix, largest valid prefix.
        np.subtract(cum_a, demand, out=thr)
        thr /= cum_r
        valid = roots > thr
        cut = a_sorted.size - int(valid[::-1].argmax())

        t = thr[cut - 1]
        x = a_sorted[:cut] - t * roots[:cut]
        np.maximum(x, 0.0, out=x)
        x *= demand / x.sum()
        # D = sum_i s_i / (a_i - x_i) = (1/phi) sum_i x_i / (a_i - x_i);
        # stability a_i - x_i > 0 holds by construction of the support.
        gap = a_sorted[:cut] - x
        d = float((x / gap).sum()) / demand  # reprolint: allow=R003 hot path; gap > 0 by the water-fill support

        lam -= own
        own[:] = 0.0
        own[order[:cut]] = x
        lam += own
        return d, 0.0, 0

    fill = _symmetric_class_fill(avail, demand, count, u0, offset)
    lam -= own
    own[:] = fill.flows
    lam += own
    return fill.time, fill.multiplier, fill.iterations


def _sampled_class_reply(
    avail: FloatArray,
    own: FloatArray,
    demand: float,
    count: float,
    u0: float,
    *,
    seed: int,
    sweep: int,
    index: int,
    k: int,
) -> tuple[_Fill, int]:
    """One class's reply restricted to ``support ∪ k-sample``.

    A singleton class is one user and takes
    :func:`repro.core.sampled.sampled_best_reply` (multiplier and
    iterations reported as 0); a multi-member class lands on its
    symmetric intra-class equilibrium over the same reply set
    (:func:`repro.core.sampled.sampled_reply_set`), warm-started at
    ``u0``.  Returns the fill with the new full-length class-total flow
    row, and the polls spent.
    """
    if count <= 1.0:
        rep = sampled_best_reply(
            avail, own, demand, seed=seed, sweep=sweep, index=index, k=k
        )
        return _Fill(rep.flows, rep.expected_response_time, 0.0, 0), rep.polls
    chosen, polls = sampled_reply_set(
        avail, own, demand, seed=seed, sweep=sweep, index=index, k=k
    )
    fill = _symmetric_class_fill(avail[chosen], demand, count, u0)
    flows = np.zeros(avail.shape[0])
    flows[chosen] = fill.flows
    return fill._replace(flows=flows), polls


def initial_profile(
    system: DistributedSystem | ClassAggregation,
    init: Initialization | StrategyProfile | FloatArray,
) -> StrategyProfile:
    """Materialize an initialization choice into a concrete profile.

    The rows are the system's users, or the aggregation's classes.  A
    given profile or raw array is validated as a
    :class:`~repro.core.strategy.StrategyProfile` (finite entries) and
    must match that shape; a given profile is returned as is.
    """
    mu = system.service_rates
    rows = (
        system.n_classes
        if isinstance(system, ClassAggregation)
        else system.n_users
    )
    if isinstance(init, np.ndarray):
        init = StrategyProfile(init)
    if isinstance(init, StrategyProfile):
        if init.fractions.shape != (rows, mu.size):
            raise ValueError(
                f"initial profile must have shape ({rows}, {mu.size}), "
                f"got {init.fractions.shape}"
            )
        return init
    if init == "zero":
        return StrategyProfile.zeros(rows, mu.size)
    if init == "proportional":
        return StrategyProfile(np.tile(mu / mu.sum(), (rows, 1)))
    if init == "uniform":
        return StrategyProfile.uniform(rows, mu.size)
    raise ValueError(f"unknown initialization {init!r}")


def _singleton_classes(system: DistributedSystem) -> ClassAggregation:
    """One class per user, in user order: equal-rate users keep their own
    Gauss-Seidel turns (user 1 of NASH_0 sees an idle system)."""
    phi = system.arrival_rates
    m = system.n_users
    return ClassAggregation(
        service_rates=system.service_rates,
        class_rates=phi,
        counts=np.ones(m, dtype=np.intp),
        demands=phi,
        class_of=np.arange(m),
    )


class _Events(NamedTuple):
    """Trace events and counters of one public solver entry point.

    The event emitters keep a literal event name at every ``emit`` site,
    which is what R010 and the vocabulary tests check.
    """

    start: Callable[..., None]
    sweep: Callable[..., None]
    done: Callable[..., None]
    sweeps: str
    replies: str
    sweep_seconds: str


#: The one driver emits the vocabulary its public entry point passes in:
#: ``solver.*`` for :class:`~repro.core.nash.NashSolver`, ``solver.class_*``
#: for :class:`ClassNashSolver`.
_EVENTS = {
    "user": _Events(
        lambda tracer, **fields: tracer.emit("solver.start", **fields),
        lambda tracer, **fields: tracer.emit("solver.sweep", **fields),
        lambda tracer, **fields: tracer.emit("solver.done", **fields),
        "solver.sweeps",
        "solver.best_replies",
        "solver.sweep_seconds",
    ),
    "class": _Events(
        lambda tracer, **fields: tracer.emit("solver.class_start", **fields),
        lambda tracer, **fields: tracer.emit("solver.class_sweep", **fields),
        lambda tracer, **fields: tracer.emit("solver.class_done", **fields),
        "solver.class_sweeps",
        "solver.class_replies",
        "solver.class_sweep_seconds",
    ),
}


@dataclass(frozen=True)
class ClassNashResult:
    """Outcome of the class-space best-reply iteration.

    ``class_fractions`` is the ``(c, n)`` equilibrium profile; every
    member of class ``k`` plays row ``k`` (call :meth:`expand` to
    materialize the per-user matrix — O(m·n) memory).  ``norm_history``
    is user-weighted, comparable with the per-user solver's.
    """

    class_fractions: FloatArray
    converged: bool
    iterations: int
    norm_history: FloatArray
    class_times: FloatArray
    aggregation: ClassAggregation
    history: tuple[FloatArray, ...] = field(default=())
    sample: SampleCertificate | None = None

    @property
    def final_norm(self) -> float:
        return float(self.norm_history[-1]) if self.norm_history.size else 0.0

    def expand(self) -> StrategyProfile:
        """The per-user ``(m, n)`` profile (see the memory note above)."""
        return self.aggregation.expand(self.class_fractions)


@dataclass(frozen=True)
class ClassNashSolver:
    """Best-reply solver over user classes — ``(c, n)`` state, ``c << m``.

    The configuration mirrors :class:`~repro.core.nash.NashSolver`
    (tolerance on the user-weighted sweep norm, sweep budget, update
    order, seed for the ``"random"`` order), which runs through this
    solver's sweep driver with one class per user.

    ``sample_k`` switches to power-of-k sampled class replies
    (:mod:`repro.core.sampled`): each class best-responds over its
    current support plus ``k`` seeded probes per sweep.  ``k >= n`` runs
    the exact code path unchanged — bit-for-bit identical profiles —
    and only attaches the full-information
    :class:`~repro.core.sampled.SampleCertificate`.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    order: UpdateOrder = "roundrobin"
    seed: int = 0
    record_history: bool = False
    sample_k: int | None = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.order not in ("roundrobin", "random", "simultaneous"):
            raise ValueError(f"unknown update order {self.order!r}")
        if self.sample_k is not None and self.sample_k < 1:
            raise ValueError("sample_k must be at least 1 (or None)")

    def solve(
        self,
        aggregation: ClassAggregation,
        init: Initialization | FloatArray | StrategyProfile = "proportional",
        *,
        tracer: Tracer | None = None,
    ) -> ClassNashResult:
        """Run class-space best-reply sweeps from the given initialization.

        Emits ``solver.class_start`` / ``solver.class_sweep`` /
        ``solver.class_done`` events on the (ambient or explicit) tracer;
        the per-sweep ``norm`` fields reconstruct the run's
        ``norm_history`` exactly, like the per-user solver's.
        """
        return self._run(aggregation, init, tracer, _EVENTS["class"])

    def _run(
        self,
        aggregation: ClassAggregation,
        init: Initialization | FloatArray | StrategyProfile,
        tracer: Tracer | None,
        events: _Events,
        offset: FloatArray | None = None,
    ) -> ClassNashResult:
        """The sweep driver behind both public solvers.

        A sweep replies every class once.  Gauss-Seidel orders reply in
        turn through the fused in-place kernel, keeping the aggregate
        ``lam`` current with a rank-1 delta per reply; the
        ``"simultaneous"`` (Jacobi) order replies every class to the
        previous sweep's profile, batched into one vectorized kernel call
        when every class is a singleton.  ``events`` names the trace
        events and counters.

        The driver keeps each class's last fill multiplier and starts the
        class's next fill from it: between sweeps a class's foreign load
        moves little, so Newton starts next to its root.  When tracing,
        every sweep event carries the sweep's fill iterations and cap
        hits (both 0 when every class is a singleton).

        With an ``offset`` (``(c, n)``, the delays of ``comm_delay``) every
        exact reply is a fill with its class's row (sampled replies ignore
        it), and the member times include the offset cost.
        """
        fractions = initial_profile(aggregation, init).fractions
        mu = aggregation.service_rates
        rates = aggregation.class_rates
        demands = aggregation.demands
        counts_f = aggregation.counts.astype(float)
        # Per-reply scalars as Python floats, converted once per solve.
        counts: list[float] = counts_f.tolist()
        demand_of: list[float] = demands.tolist()
        # Singletons without an offset reply by the closed-form water-fill.
        singleton = offset is None and bool(np.all(aggregation.counts == 1))
        c, n = aggregation.n_classes, aggregation.n_computers
        offset_of: list[FloatArray | None] = (
            [None] * c if offset is None else list(offset)
        )
        rng = np.random.default_rng(self.seed) if self.order == "random" else None
        # Power-of-k mode: k < n restricts every class reply to
        # support ∪ sample; k >= n runs the exact path unchanged (bit-for-
        # bit parity) and only the certificate accounting differs.
        sampling = self.sample_k is not None and self.sample_k < n
        sample_k = 0 if self.sample_k is None else self.sample_k
        total_polls = 0
        tracer = tracer if tracer is not None else current_tracer()
        trace = tracer.enabled
        if trace:
            events.start(
                tracer,
                order=self.order,
                classes=c,
                users=aggregation.n_users,
                computers=n,
                compression=aggregation.compression,
                grouping_tol=aggregation.grouping_tol,
                tolerance=self.tolerance,
                max_sweeps=self.max_sweeps,
            )

        # D_k^{(0)}: zero for classes with no allocation yet (NASH_0), the
        # actual member times otherwise.  An initial profile that
        # conserves flow but overloads some computer (e.g. a uniform split
        # on a heterogeneous system) has no finite expected times; treat it
        # like NASH_0 for norm purposes — the first sweep repairs it.
        def member_costs(f: FloatArray) -> FloatArray:
            costs = aggregation.class_times(f)
            if offset is not None:
                costs = costs + (f * offset).sum(axis=1)
            return costs

        last_times = np.zeros(c)
        if np.allclose(fractions.sum(axis=1), 1.0):
            try:
                last_times = member_costs(fractions)
            except ValueError:
                pass

        # Hot loop state: (c, n) class *total* flows and the running
        # aggregate ``lam = sum_k flows_k``.
        flows = fractions * demands[:, None]
        avail = np.empty(n)
        thr = np.empty(n)
        # Each class's last fill multiplier u = t^2, the Newton start of
        # its next fill (0.0 = none yet: the fill takes its cold guess).
        multipliers = [0.0] * c

        norms: list[float] = []
        history: list[FloatArray] = []
        converged = False
        for sweep in range(self.max_sweeps):
            # Refreshing the aggregate once per sweep (O(c n), dwarfed by
            # the c replies) keeps the incremental round-off from drifting
            # across sweeps, preserving parity with the ring protocol and
            # the reference driver.
            lam = flows.sum(axis=0)
            sweep_started = perf_counter() if trace else 0.0
            fill_iterations = fill_cap_hits = 0
            regrets: FloatArray | None
            if self.order == "simultaneous":
                foreign_free = (mu - lam)[None, :] + flows
                if singleton and sampling:
                    batch = sampled_best_reply_batch(
                        foreign_free, flows, rates,
                        seed=self.seed, sweep=sweep, k=sample_k,
                    )
                    flows[:] = batch.flows
                    times = batch.expected_response_times
                    total_polls += batch.polls
                elif singleton:
                    replies = optimal_fractions_batch(foreign_free, rates)
                    np.multiply(replies.fractions, demands[:, None], out=flows)
                    times = replies.expected_response_times
                else:
                    # Each class lands on its internal symmetric
                    # equilibrium against the frozen aggregate.
                    times = np.empty(c)
                    for k in range(c):
                        if sampling:
                            fill, polls = _sampled_class_reply(
                                foreign_free[k], flows[k], demand_of[k],
                                counts[k], multipliers[k],
                                seed=self.seed, sweep=sweep, index=k, k=sample_k,
                            )
                            total_polls += polls
                        else:
                            fill = _symmetric_class_fill(
                                foreign_free[k], demand_of[k], counts[k],
                                multipliers[k], offset_of[k],
                            )
                        flows[k], times[k], multipliers[k], iterations = fill
                        fill_iterations += iterations
                        fill_cap_hits += iterations == _FILL_MAX_ITERS
                regrets = np.abs(times - last_times)
                norm = float((counts_f * regrets).sum())
                last_times = times
            else:
                schedule = (
                    rng.permutation(c).tolist() if rng is not None else range(c)
                )
                regrets = np.zeros(c) if trace else None
                norm = 0.0
                for k in schedule:
                    if sampling:
                        np.subtract(mu, lam, out=avail)
                        avail += flows[k]
                        fill, polls = _sampled_class_reply(
                            avail, flows[k], demand_of[k], counts[k],
                            multipliers[k],
                            seed=self.seed, sweep=sweep, index=k, k=sample_k,
                        )
                        total_polls += polls
                        y, d_k, multipliers[k], iterations = fill
                        lam += y - flows[k]
                        flows[k] = y
                    else:
                        d_k, multipliers[k], iterations = (
                            _fused_class_reply_inplace(
                                mu, counts[k], demand_of[k], flows[k], lam,
                                avail, thr, multipliers[k], offset_of[k],
                            )
                        )
                    fill_iterations += iterations
                    fill_cap_hits += iterations == _FILL_MAX_ITERS
                    delta = abs(d_k - last_times[k])
                    norm += counts[k] * delta
                    if regrets is not None:
                        regrets[k] = delta
                    last_times[k] = d_k
            norms.append(norm)
            if trace:
                elapsed = perf_counter() - sweep_started
                events.sweep(
                    tracer,
                    index=len(norms) - 1,
                    sweep=len(norms),
                    norm=norm,
                    elapsed_s=elapsed,
                    classes=c,
                    regrets=regrets,
                    fill_iterations=fill_iterations,
                    fill_cap_hits=fill_cap_hits,
                )
                tracer.count(events.sweeps)
                tracer.count(events.replies, c)
                tracer.observe(events.sweep_seconds, elapsed)
            if self.record_history:
                history.append(flows / demands[:, None])
            if norm <= self.tolerance:
                converged = True
                break

        final = flows / demands[:, None]
        try:
            class_times = member_costs(final)
        except ValueError:
            # Only reachable with the simultaneous (Jacobi) order, which
            # can overshoot into an unstable joint profile mid-oscillation.
            class_times = np.full(c, np.inf)
            converged = False
        sample: SampleCertificate | None = None
        if self.sample_k is not None:
            if not sampling:
                # Full-information bypass: every class reply observed all
                # n computers — the poll baseline EXT11 measures against.
                total_polls = len(norms) * c * n
            try:
                epsilon = float(
                    class_best_response_regrets(aggregation, final).epsilon
                )
            except ValueError:
                epsilon = float("inf")
            sample = SampleCertificate(
                k=min(self.sample_k, n),
                n_computers=n,
                sweeps=len(norms),
                polls=total_polls,
                sampled_norm=norms[-1] if norms else 0.0,
                epsilon=epsilon,
            )
            if trace:
                tracer.emit(
                    "solver.sample",
                    k=sample.k,
                    computers=n,
                    sweeps=sample.sweeps,
                    polls=sample.polls,
                    sampled_norm=sample.sampled_norm,
                    epsilon=sample.epsilon,
                )
        if trace:
            events.done(
                tracer,
                converged=converged,
                iterations=len(norms),
                final_norm=norms[-1] if norms else 0.0,
            )
        return ClassNashResult(
            class_fractions=final,
            converged=converged,
            iterations=len(norms),
            norm_history=np.asarray(norms, dtype=float),
            class_times=class_times,
            aggregation=aggregation,
            history=tuple(history),
            sample=sample,
        )
