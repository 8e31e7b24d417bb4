"""repro — noncooperative game-theoretic load balancing.

A complete, production-quality reproduction of

    Daniel Grosu and Anthony T. Chronopoulos,
    "A Game-Theoretic Model and Algorithm for Load Balancing in
    Distributed Systems", Proc. IPDPS 2002 (APDCM workshop).

The package models a heterogeneous distributed system of M/M/1 computers
shared by selfish users, computes each user's exact best response (the
paper's OPTIMAL algorithm), iterates best replies to the Nash equilibrium
(the NASH distributed algorithm, with both the NASH_0 and NASH_P
initializations), and evaluates the equilibrium against the classical
baselines — proportional (PS), globally optimal (GOS) and individually
optimal / Wardrop (IOS) — on expected response time and Jain's fairness
index, exactly as in the paper's Section 4.

Quickstart
----------
>>> from repro import paper_table1_system, compute_nash_equilibrium
>>> system = paper_table1_system(utilization=0.6)
>>> result = compute_nash_equilibrium(system)
>>> result.converged
True

Subpackages
-----------
``repro.core``
    System model, strategy profiles, the OPTIMAL best-response solver,
    NASH best-reply dynamics, equilibrium verification.
``repro.schemes``
    The NASH scheme and the PS/GOS/IOS baselines plus a Stackelberg
    extension, behind one interface.
``repro.queueing``
    M/M/1 analytics, fairness and performance metrics, stability.
``repro.simengine``
    Discrete-event simulation engine (the reproduction's substitute for
    the paper's Sim++) validating the analytic model.
``repro.distributed``
    In-process message-passing runtime executing the NASH algorithm as
    the ring protocol of the paper's Section 3.
``repro.workloads``
    Table-1 and heterogeneity-sweep system generators, churn traces.
``repro.engine``
    Online equilibrium engine: churn-resilient service mode with
    incremental re-equilibration and SLA accounting.
``repro.experiments``
    One module per paper table/figure, regenerating its rows/series.
"""

from repro.core import (
    BestResponse,
    CapacityExhausted,
    DistributedSystem,
    EquilibriumCertificate,
    NashResult,
    NashSolver,
    StrategyProfile,
    best_response,
    best_response_regrets,
    compute_nash_equilibrium,
    degraded_equilibrium,
    is_nash_equilibrium,
    optimal_fractions,
    verify_equilibrium,
)
from repro.queueing import (
    fairness_index,
    overall_response_time,
    price_of_anarchy,
)
from repro.schemes import (
    GlobalOptimalScheme,
    IndividualOptimalScheme,
    LoadBalancingScheme,
    NashScheme,
    ProportionalScheme,
    SchemeResult,
    StackelbergScheme,
    standard_schemes,
)
from repro.engine import (
    CapacityChange,
    ComputerFailure,
    ComputerReopen,
    EngineConfig,
    EngineRun,
    EpochReport,
    FleetState,
    OnlineEquilibriumEngine,
    PhiDrift,
    SLAPolicy,
    SLAReport,
    SetDemand,
    SetUtilization,
    UserArrival,
    UserDeparture,
    run_dynamic_balancing,
)
from repro.game import LoadBalancingGame
from repro.workloads import (
    day_in_production_trace,
    paper_table1_system,
    skewed_system,
    table1_service_rates,
)

__version__ = "1.0.0"

__all__ = [
    "BestResponse",
    "CapacityExhausted",
    "DistributedSystem",
    "EquilibriumCertificate",
    "NashResult",
    "NashSolver",
    "StrategyProfile",
    "best_response",
    "best_response_regrets",
    "compute_nash_equilibrium",
    "degraded_equilibrium",
    "is_nash_equilibrium",
    "optimal_fractions",
    "run_dynamic_balancing",
    "verify_equilibrium",
    "fairness_index",
    "overall_response_time",
    "price_of_anarchy",
    "GlobalOptimalScheme",
    "IndividualOptimalScheme",
    "LoadBalancingScheme",
    "NashScheme",
    "ProportionalScheme",
    "SchemeResult",
    "StackelbergScheme",
    "standard_schemes",
    "LoadBalancingGame",
    "CapacityChange",
    "ComputerFailure",
    "ComputerReopen",
    "EngineConfig",
    "EngineRun",
    "EpochReport",
    "FleetState",
    "OnlineEquilibriumEngine",
    "PhiDrift",
    "SLAPolicy",
    "SLAReport",
    "SetDemand",
    "SetUtilization",
    "UserArrival",
    "UserDeparture",
    "day_in_production_trace",
    "paper_table1_system",
    "skewed_system",
    "table1_service_rates",
    "__version__",
]
