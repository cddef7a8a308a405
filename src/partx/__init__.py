"""Exact toolkit for unordered integer-partition statistics.

Layers:

* :mod:`partx.partitions` — enumeration and the coin-change oracle
* :mod:`partx.counting`   — arbitrary-precision closed forms and residues
* :mod:`partx.series`     — truncated exact generating series
* :mod:`partx.identities` — identity and congruence verification sweeps
* :mod:`partx.cli`        — the ``partx`` command
"""

from .counting import (
    CountTable,
    TableFormatError,
    count_containing,
    distinct_members,
    load_table,
    occurrence_count,
    partition_count,
    partition_count_mod,
    save_table,
)
from .identities import IdentityReport, SweepResult, sweep
from .partitions import (
    DEFAULT_ENUMERATION_LIMIT,
    PartitionStats,
    elder_count,
    enumerate_partitions,
    oracle_stats,
)
from .series import (
    PowerSeries,
    double_sum_expansion,
    euler_inverse_product,
    euler_product,
    euler_product_pow,
    freshman_dream_check,
    qk_generating_function,
)

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "DEFAULT_ENUMERATION_LIMIT",
    "IdentityReport",
    "PartitionStats",
    "PowerSeries",
    "SweepResult",
    "TableFormatError",
    "count_containing",
    "distinct_members",
    "double_sum_expansion",
    "elder_count",
    "enumerate_partitions",
    "euler_inverse_product",
    "euler_product",
    "euler_product_pow",
    "freshman_dream_check",
    "load_table",
    "occurrence_count",
    "oracle_stats",
    "partition_count",
    "partition_count_mod",
    "qk_generating_function",
    "save_table",
    "sweep",
    "__version__",
]
