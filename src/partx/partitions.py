"""Integer partitions, their enumeration, and the definitional statistics oracle.

A partition of n is a nonincreasing tuple of positive integers summing to
n, such as ``(2, 2, 1)``.  One generator, :func:`enumerate_partitions`, lists
them; it backs the listings and is the ground truth the oracle is tested against.

The statistics, for a positive integer n:

* P(n)    number of partitions of n
* S(n)    total count of distinct part values, summed over all partitions
* Q_k(n)  total number of occurrences of the part k over all partitions
* R_k(n)  number of partitions containing at least one part equal to k

:func:`oracle_stats` and :func:`elder_count` count them straight from
these definitions by coin change: the knapsack over all part sizes gives
P, and the same knapsack with one part size v left out gives A_v, the
partitions with no part v.  No pentagonal theorem is involved, which
makes the oracle an independent route for the closed forms in
:mod:`partx.counting` and the series in :mod:`partx.series`; this module
imports neither.

The coin-change tables, built to the largest n asked for, are the oracle's
only state: each statistic is read off them when asked for.
Listings and the oracle are capped at n <= :data:`DEFAULT_ENUMERATION_LIMIT`
(80); the closed forms have no such cap.
"""

from __future__ import annotations

from itertools import count
from operator import mul
from typing import Iterator, NamedTuple

DEFAULT_ENUMERATION_LIMIT = 80


class PartitionStats(NamedTuple):
    """The oracle statistics of one n, read off the coin-change tables.

    P(n) and S(n) are held; Q_k(n) and R_k(n) are summed from A_k when
    asked for.  The accessors return 0 for k > n and reject k < 1.
    """

    n: int
    partition_count: int
    distinct_member_total: int

    def occurrences(self, k: int) -> int:
        """Q_k(n) = sum over j >= 1 of j * A_k(n - j*k): total occurrences of the part k."""
        if k < 1:
            raise ValueError(f"k must be a positive integer, got k={k}")
        n = self.n
        return sum(map(mul, count(1), _avoid[k][n - k :: -k])) if k <= n else 0

    def containing(self, k: int) -> int:
        """R_k(n) = P(n) - A_k(n): partitions with at least one part equal to k."""
        if k < 1:
            raise ValueError(f"k must be a positive integer, got k={k}")
        return self.partition_count - _avoid[k][self.n] if k <= self.n else 0


def _check_enumerable(n: int) -> None:
    if n < 1:
        raise ValueError(f"partitions are enumerated for n >= 1, got n={n}")
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(
            f"n={n} is beyond the limit of {DEFAULT_ENUMERATION_LIMIT} for the oracle and "
            "listings; use the closed forms in partx.counting instead"
        )


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n exactly once, as a tuple, in descending lex order.

    The number of partitions yielded is P(n).  Raises ValueError for
    n < 1 or n beyond :data:`DEFAULT_ENUMERATION_LIMIT`.
    """
    _check_enumerable(n)
    # Successor rule: decrement the rightmost part that exceeds 1, then
    # repack the freed amount greedily.
    parts = (n,)
    while True:
        yield parts
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        free = len(parts) - i  # the decremented unit plus all trailing 1's
        parts = parts[:i] + (parts[i] - 1,)
        while free:
            chunk = min(parts[-1], free)
            parts += (chunk,)
            free -= chunk


# Coin-change tables up to the table size: _p[m] is P(m), by the knapsack over
# every part size, and _avoid[v][m] is A_v(m), by the same knapsack with coin
# v left out (index 0 unused).  A_v(n - j*v) counts the partitions of n in
# which v occurs exactly j times, and every statistic is a sum of those.
# _s[m] is S(m), the one statistic that needs every v.
_p = [1]
_avoid: list[list[int]] = [[]]
_s = [0]


def _grow_tables(size: int) -> None:
    """Rebuild _p, _avoid and _s to exactly ``size``, unless they already cover it.

    A sweep builds them once, to its largest n; a read past them rebuilds to
    its own n.  A_v(m) does not depend on the size, so what was read off a
    smaller table stays right.
    """
    _check_enumerable(size)
    if size < len(_p):
        return
    ways = [1] + [0] * size
    avoid: list[list[int]] = [[]]
    for v in range(1, size + 1):
        # ways covers coins 1..v-1 here; A_v adds the coins above v.
        without = ways[:]
        for c in range(v + 1, size + 1):
            for m in range(c, size + 1):
                without[m] += without[m - c]
        avoid.append(without)
        for m in range(v, size + 1):
            ways[m] += ways[m - v]
    _p[:] = ways
    _avoid[:] = avoid
    # S(m) = sum over v of R_v(m) = P(m) - A_v(m); each v > m adds P(m) - P(m) = 0.
    _s[:] = [size * p - a for p, a in zip(ways, map(sum, zip(*avoid[1:])))]


def oracle_stats(n: int) -> PartitionStats:
    """P(n), S(n) and every Q_k(n), R_k(n), counted from the definitions.

    With A_k(m) the number of partitions of m with no part k:

    * Q_k(n) = sum over j >= 1 of j * A_k(n - j*k)
    * R_k(n) = P(n) - A_k(n)
    * S(n)   = sum over k of R_k(n)

    n = 0 gives P(0) = 1 (the empty partition), S(0) = 0 and Q_k(0) = R_k(0) = 0.
    Each call returns a new view on the tables, rebuilt to n if they are
    shorter; nothing is kept per n.
    """
    if not 0 <= n < len(_p):
        _grow_tables(n)
    return PartitionStats(n, _p[n], _s[n])


def elder_count(n: int, k: int) -> int:
    """Occasions on which a part occurs k or more times, over all partitions of n.

    A partition with r part values each occurring at least k times
    contributes r.  Counted as the sum over part values v and
    multiplicities m >= k of A_v(n - m*v).
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    _grow_tables(n)
    return sum(
        _avoid[v][n - m * v] for v in range(1, n // k + 1) for m in range(k, n // v + 1)
    )
