"""Three-tier freight-on-transit delivery planning toolkit.

Packages travel CDC -> drop-in stop (truck) -> drop-out stop (scheduled
transit trip) -> customer (freighter). The package builds the monolithic
MILP and three decomposition pipelines over it, generates synthetic
benchmark instances, validates plans independently, and compares against a
direct-truck baseline.
"""

from .backends import ScipyHighsBackend, SubprocessBackend, get_backend, solve
from .bruteforce import BruteForceOutcome, OracleSizeError, brute_force_optimum, brute_force_vrptw
from .compat import Compatibility, derive_compatibility
from .generate import GenParams, generate_instance
from .instance import (
    CostParams,
    Customer,
    Freighter,
    Instance,
    InstanceError,
    Line,
    Point,
    Stop,
    Trip,
    Truck,
    euclidean_distance,
    parse_instance,
    serialize_instance,
    travel_time,
)
from .milp import (
    LinConstraint,
    MilpModel,
    ModelBuilder,
    ModelError,
    SolveLimits,
    SolveResult,
    VarRef,
    big_M,
    write_lp,
)
from .model_full import FullOptions, build_full, decode_full
from .pipeline import PipelineError, RunConfig, RunMetrics, compare_methods, run_method
from .plan import (
    CostBreakdown,
    CustomerItinerary,
    FreighterRoute,
    Plan,
    TierHandoff,
    TruckRoute,
    VrptwPlan,
    parse_plan,
    serialize_plan,
)
from .report import ReportRow, emit_report
from .tiers import T2Objective
from .validate import (
    Violation,
    recompute_costs,
    validate_plan,
    validate_vrptw_plan,
)
from .vrptw import build_vrptw, decode_vrptw

__version__ = "0.1.0"
