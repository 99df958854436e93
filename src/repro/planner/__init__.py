"""Cost-based access-path selection (the paper's future-work optimizer)."""

from .executor import (
    DegradationEvent,
    ExecutablePlan,
    PhysicalDesign,
    PlanExhaustedError,
    QueryResult,
    execute_sorted_query,
    plan_sorted_query,
)
from .optimizer import CandidatePlan, RelationStats, choose_plan, enumerate_plans
from .parallel import (
    ExecutorFallbackEvent,
    ParallelScanResult,
    SweepSlab,
    parallel_tetris_scan,
    plan_slabs,
    select_executor,
)

__all__ = [
    "CandidatePlan",
    "DegradationEvent",
    "ExecutablePlan",
    "ExecutorFallbackEvent",
    "ParallelScanResult",
    "PhysicalDesign",
    "PlanExhaustedError",
    "QueryResult",
    "RelationStats",
    "SweepSlab",
    "choose_plan",
    "enumerate_plans",
    "execute_sorted_query",
    "parallel_tetris_scan",
    "plan_slabs",
    "plan_sorted_query",
    "select_executor",
]
