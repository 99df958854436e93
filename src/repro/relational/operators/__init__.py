"""Volcano-style relational operators over the simulated storage."""

from .base import FirstTupleTimer, InMemorySort, Limit, Operator
from .group import (
    Aggregate,
    ColumnProduct,
    Count,
    ScalarAggregate,
    SortedGroupBy,
    Sum,
)
from .join import HashJoin, MergeJoin, MergeSemiJoin
from .scan import FullTableScan, IOTScan, TetrisOperator, UBRangeScan
from .sort import ExternalMergeSort, SortStats

__all__ = [
    "Aggregate",
    "ColumnProduct",
    "Count",
    "ExternalMergeSort",
    "FirstTupleTimer",
    "FullTableScan",
    "HashJoin",
    "IOTScan",
    "InMemorySort",
    "Limit",
    "MergeJoin",
    "MergeSemiJoin",
    "Operator",
    "ScalarAggregate",
    "SortStats",
    "SortedGroupBy",
    "Sum",
    "TetrisOperator",
    "UBRangeScan",
]
