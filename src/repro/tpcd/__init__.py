"""TPC-D substrate: generator, logical queries Q3/Q4/Q6, physical plans."""

from .datagen import (
    DEFAULT_CUSTOMERS_PER_SF,
    TPCDConfig,
    TPCDData,
    generate,
    shuffled,
    stream_lineitems,
)
from .queries import (
    Q3Params,
    Q4Params,
    Q6Params,
    reference_q3,
    reference_q4,
    reference_q6,
)

__all__ = [
    "DEFAULT_CUSTOMERS_PER_SF",
    "Q3Params",
    "Q4Params",
    "Q6Params",
    "TPCDConfig",
    "TPCDData",
    "generate",
    "reference_q3",
    "reference_q4",
    "reference_q6",
    "shuffled",
    "stream_lineitems",
]
