"""Relational layer: schemas, encoders, tables and operators."""

from .schema import (
    Attribute,
    DateEncoder,
    Encoder,
    IntEncoder,
    Schema,
    StringEncoder,
)
from .table import BaseTable, Database, HeapTable, IOTTable, UBTable

__all__ = [
    "Attribute",
    "BaseTable",
    "Database",
    "DateEncoder",
    "Encoder",
    "HeapTable",
    "IOTTable",
    "IntEncoder",
    "Schema",
    "StringEncoder",
    "UBTable",
]
