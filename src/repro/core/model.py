"""The distributed system model of the paper (Sec. 2).

A :class:`DistributedSystem` is a collection of ``n`` heterogeneous
computers, each an M/M/1 queue with service rate ``mu_i``, shared by ``m``
users generating jobs at Poisson rates ``phi_j``.  The object is an
immutable value type: solvers never mutate it, and derived quantities
(loads, response times, per-user costs) are computed from a strategy
profile on demand with vectorized numpy expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.queueing.mm1 import expected_response_time, total_delay
from repro.queueing.stability import assert_system_stable

__all__ = ["DistributedSystem"]


def _as_positive_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DistributedSystem:
    """A heterogeneous distributed system shared by selfish users.

    Parameters
    ----------
    service_rates:
        ``mu`` — processing rate of each computer (jobs/second), length ``n``.
    arrival_rates:
        ``phi`` — job generation rate of each user (jobs/second), length
        ``m``.  The total must be strictly below ``sum(mu)``.

    Examples
    --------
    >>> system = DistributedSystem(service_rates=[10.0, 5.0],
    ...                            arrival_rates=[4.0, 2.0])
    >>> system.n_computers, system.n_users
    (2, 2)
    >>> round(system.system_utilization, 3)
    0.4
    """

    service_rates: np.ndarray
    arrival_rates: np.ndarray
    computer_names: tuple[str, ...] = field(default=())
    user_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        mu = _as_positive_vector(self.service_rates, "service_rates")
        phi = _as_positive_vector(self.arrival_rates, "arrival_rates")
        assert_system_stable(mu, phi)
        object.__setattr__(self, "service_rates", mu)
        object.__setattr__(self, "arrival_rates", phi)
        if not self.computer_names:
            object.__setattr__(
                self,
                "computer_names",
                tuple(f"computer-{i}" for i in range(mu.size)),
            )
        if not self.user_names:
            object.__setattr__(
                self, "user_names", tuple(f"user-{j}" for j in range(phi.size))
            )
        if len(self.computer_names) != mu.size:
            raise ValueError("computer_names length must match service_rates")
        if len(self.user_names) != phi.size:
            raise ValueError("user_names length must match arrival_rates")

    # ------------------------------------------------------------------
    # Shape and aggregate properties
    # ------------------------------------------------------------------
    @property
    def n_computers(self) -> int:
        """Number of computers ``n``."""
        return int(self.service_rates.size)

    @property
    def n_users(self) -> int:
        """Number of users ``m``."""
        return int(self.arrival_rates.size)

    @property
    def total_processing_rate(self) -> float:
        """Aggregate processing rate ``sum_i mu_i``."""
        return float(self.service_rates.sum())

    @property
    def total_arrival_rate(self) -> float:
        """Total job arrival rate ``Phi = sum_j phi_j``."""
        return float(self.arrival_rates.sum())

    @property
    def system_utilization(self) -> float:
        """``rho = Phi / sum_i mu_i`` — the x-axis of the paper's Figure 4."""
        return self.total_arrival_rate / self.total_processing_rate

    @property
    def speed_skewness(self) -> float:
        """``max_i mu_i / min_i mu_i`` (Tang & Chanson 2000) — Figure 6's x-axis."""
        mu = self.service_rates
        return float(mu.max() / mu.min())

    # ------------------------------------------------------------------
    # Profile-dependent quantities
    # ------------------------------------------------------------------
    def loads(self, fractions: np.ndarray) -> np.ndarray:
        """Aggregate flow into each computer: ``lambda_i = sum_j s_ji phi_j``.

        ``fractions`` is the ``(m, n)`` strategy matrix (rows are users).
        """
        s = np.asarray(fractions, dtype=float)
        if s.shape != (self.n_users, self.n_computers):
            raise ValueError(
                f"strategy matrix must have shape "
                f"({self.n_users}, {self.n_computers}), got {s.shape}"
            )
        return self.arrival_rates @ s

    def response_times(self, fractions: np.ndarray) -> np.ndarray:
        """Per-computer expected response time ``F_i = 1/(mu_i - lambda_i)``."""
        lam = self.loads(fractions)
        if np.any(self.service_rates - lam <= 0.0):
            raise ValueError("strategy profile violates per-computer stability")
        return expected_response_time(lam, self.service_rates)

    def user_response_times(self, fractions: np.ndarray) -> np.ndarray:
        """Per-user expected response time ``D_j = sum_i s_ji F_i`` (eq. 2)."""
        s = np.asarray(fractions, dtype=float)
        return s @ self.response_times(fractions)

    def overall_response_time(self, fractions: np.ndarray) -> float:
        """Traffic-weighted mean response time ``(1/Phi) sum_i lambda_i F_i``."""
        lam = self.loads(fractions)
        if np.any(self.service_rates - lam <= 0.0):
            raise ValueError("strategy profile violates per-computer stability")
        return float(total_delay(lam, self.service_rates).sum()
                     / self.total_arrival_rate)

    def available_rates(self, fractions: np.ndarray, user: int) -> np.ndarray:
        """Processing rate left for ``user`` once everyone else is placed.

        ``a_i = mu_i - sum_{k != user} s_ki phi_k`` — the quantity the
        OPTIMAL algorithm takes as input (paper Sec. 2).
        """
        s = np.asarray(fractions, dtype=float)
        if not 0 <= user < self.n_users:
            raise IndexError(f"user index {user} out of range")
        lam = self.loads(s)
        own = s[user] * self.arrival_rates[user]
        return self.service_rates - (lam - own)

    # ------------------------------------------------------------------
    # Derived systems
    # ------------------------------------------------------------------
    def with_utilization(self, rho: float) -> "DistributedSystem":
        """Rescale all user arrival rates so system utilization equals ``rho``.

        Relative traffic shares between users are preserved.  Used by the
        utilization sweeps of Figures 4 and 5.
        """
        if not 0.0 < rho < 1.0:
            raise ValueError("utilization must lie strictly inside (0, 1)")
        factor = rho * self.total_processing_rate / self.total_arrival_rate
        return DistributedSystem(
            service_rates=self.service_rates,
            arrival_rates=self.arrival_rates * factor,
            computer_names=self.computer_names,
            user_names=self.user_names,
        )

    def with_users(self, arrival_rates) -> "DistributedSystem":
        """Same computers, different user population."""
        return DistributedSystem(
            service_rates=self.service_rates,
            arrival_rates=np.asarray(arrival_rates, dtype=float),
            computer_names=self.computer_names,
        )

    def subsystem_seen_by(self, fractions: np.ndarray, user: int):
        """(available_rates, phi_user) — the single-user system of problem OPT_j.

        Computing user ``j``'s best response against fixed opponents reduces
        to solving a one-user allocation over computers with these available
        rates (paper Sec. 2, the reduction preceding Theorem 2.1).
        """
        return self.available_rates(fractions, user), float(self.arrival_rates[user])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedSystem(n_computers={self.n_computers}, "
            f"n_users={self.n_users}, "
            f"utilization={self.system_utilization:.3f})"
        )
