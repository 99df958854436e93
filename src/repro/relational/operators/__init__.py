"""Volcano-style relational operators over the simulated storage."""

from .base import (
    FirstTupleTimer,
    InMemorySort,
    Limit,
    Operator,
    Project,
    Select,
)
from .group import (
    Aggregate,
    Avg,
    Count,
    Max,
    Min,
    ScalarAggregate,
    SortedGroupBy,
    Sum,
)
from .join import HashJoin, MergeJoin, MergeSemiJoin
from .scan import FullTableScan, IOTScan, TetrisOperator, UBRangeScan
from .sort import ExternalMergeSort, SortStats

__all__ = [
    "Aggregate",
    "Avg",
    "Count",
    "ExternalMergeSort",
    "FirstTupleTimer",
    "FullTableScan",
    "HashJoin",
    "IOTScan",
    "InMemorySort",
    "Limit",
    "Max",
    "MergeJoin",
    "MergeSemiJoin",
    "Min",
    "Operator",
    "Project",
    "ScalarAggregate",
    "Select",
    "SortStats",
    "SortedGroupBy",
    "Sum",
    "TetrisOperator",
    "UBRangeScan",
]
