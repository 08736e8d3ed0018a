"""Multi-operator ridepooling market simulator.

Deterministic agent-based simulation of on-demand ridepooling fleets
competing or cooperating under different operator-interaction modes,
with batch re-optimization, rebalancing, profit accounting, service
calibration and a turn-based best-response design game on top.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .network import (
    Network,
    NetworkLoadError,
    NoPathError,
    PathResult,
    TravelTimeProfile,
)
from .demand import (
    DemandError,
    Forecast,
    RawTrip,
    Request,
    build_forecast,
    generate_trips,
    ingest_requests,
    read_trip_rows,
    write_trip_rows,
)
from .operators import (
    Constraints,
    ConsistencyError,
    ObjectiveParams,
    Offer,
    Operator,
    StopSpec,
    Vehicle,
    default_assignment_reward,
    plan_stop_sequence,
    schedule_cost,
)
from .assign import (
    AssignmentProblem,
    AssignmentSolution,
    InfeasibleAssignmentError,
    V2RB,
    build_problem,
    enumerate_v2rbs,
    reoptimize,
    solve_ilp,
)
from .broker import SCENARIOS, DispatchError, decide, dispatch_request
from .economics import (
    EconParams,
    ProfitBreakdown,
    compute_effective_profit,
    compute_profit,
)
from .simcore import (
    OperatorConfig,
    SimulationConfig,
    SimulationError,
    SimulationResult,
    run,
)
from .game import (
    CalibrationError,
    GameConfig,
    GameError,
    GameState,
    OperatorParams,
    calibrate,
    play_turn,
    run_game,
)
from .report import (
    KPIReport,
    compute_kpis,
    compute_rsd,
    emit,
    replay_kpis,
)
from .seeds import derive_seed

__all__ = [
    "__version__",
    "Network", "NetworkLoadError", "NoPathError", "PathResult",
    "TravelTimeProfile",
    "DemandError", "Forecast", "RawTrip", "Request", "build_forecast",
    "generate_trips", "ingest_requests", "read_trip_rows", "write_trip_rows",
    "Constraints", "ConsistencyError", "ObjectiveParams", "Offer", "Operator",
    "StopSpec", "Vehicle", "default_assignment_reward",
    "plan_stop_sequence", "schedule_cost",
    "AssignmentProblem", "AssignmentSolution", "InfeasibleAssignmentError",
    "V2RB", "build_problem", "enumerate_v2rbs", "reoptimize", "solve_ilp",
    "SCENARIOS", "DispatchError", "decide", "dispatch_request",
    "EconParams", "ProfitBreakdown", "compute_effective_profit",
    "compute_profit",
    "OperatorConfig", "SimulationConfig", "SimulationError",
    "SimulationResult", "run",
    "CalibrationError", "GameConfig", "GameError", "GameState",
    "OperatorParams", "calibrate", "play_turn", "run_game",
    "KPIReport", "compute_kpis", "compute_rsd", "emit", "replay_kpis",
    "derive_seed",
]
