"""Exact toolkit for unordered integer-partition statistics.

Layers:

* :mod:`partx.partitions` — enumeration and the coin-change oracle
* :mod:`partx.counting`   — arbitrary-precision closed forms and residues
* :mod:`partx.series`     — truncated exact generating series
* :mod:`partx.identities` — identity and congruence verification sweeps
* :mod:`partx.cli`        — the ``partx`` command
"""

from importlib import import_module

# Every public name and the submodule that defines it.  Submodules are
# imported on first use (PEP 562), so ``import partx`` compiles none of them
# and each command pays only for the layers it runs.
_OWNERS = {
    "counting": (
        "CountTable",
        "TableFormatError",
        "count_containing",
        "distinct_members",
        "load_table",
        "occurrence_count",
        "partition_count",
        "partition_count_mod",
        "save_table",
    ),
    "identities": ("IdentityReport", "SweepResult", "sweep", "verify"),
    "partitions": (
        "DEFAULT_ENUMERATION_LIMIT",
        "PartitionStats",
        "elder_count",
        "enumerate_partitions",
        "oracle_stats",
    ),
    "series": (
        "PowerSeries",
        "double_sum_expansion",
        "euler_inverse_product",
        "euler_product",
        "euler_product_pow",
        "freshman_dream_check",
        "qk_generating_function",
    ),
}
_OWNER = {name: module for module, names in _OWNERS.items() for name in names}
_SUBMODULES = (*_OWNERS, "cli")

__version__ = "0.1.0"

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
