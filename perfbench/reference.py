"""Reference values the benchmark checks partx output against.

Nothing here imports partx: the checker must not trust the code it checks.
P(n) comes from this file's own pentagonal recurrence, which is itself
cross-checked against a coin-change count (a route that uses no
pentagonal theorem) over a prefix.  S and Q_k follow from P through their
generating functions:

    sum_n S(n)   x^n = x/(1-x)         * sum_n P(n) x^n
    sum_n Q_k(n) x^n = x^k/(1-x^k)     * sum_n P(n) x^n

and [prod (1 - x^n)]^4 is built by multiplying the sparse pentagonal
series by itself four times.
"""

from __future__ import annotations

from bisect import bisect_right

COIN_CHANGE_CHECK_MAX = 200


def _pentagonal_offsets(n_max: int) -> tuple[list[int], list[int]]:
    """Generalized pentagonal numbers <= n_max, split by the sign they carry."""
    plus, minus = [], []
    j = 1
    while j * (3 * j - 1) // 2 <= n_max:
        side = plus if j % 2 else minus
        side.append(j * (3 * j - 1) // 2)
        side.append(j * (3 * j + 1) // 2)
        j += 1
    return plus, minus


def coin_change_counts(n_max: int) -> list[int]:
    """P(0..n_max) by counting multisets of parts (O(n_max^2))."""
    ways = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            ways[total] += ways[total - part]
    return ways


def partition_numbers(n_max: int) -> list[int]:
    """Exact P(0..n_max); the first entries are checked by coin change."""
    plus, minus = _pentagonal_offsets(n_max)
    p = [1]
    for n in range(1, n_max + 1):
        a = bisect_right(plus, n)
        b = bisect_right(minus, n)
        p.append(sum(p[n - g] for g in plus[:a]) - sum(p[n - g] for g in minus[:b]))
    head = min(n_max, COIN_CHANGE_CHECK_MAX)
    if p[: head + 1] != coin_change_counts(head):
        raise AssertionError("reference recurrence disagrees with coin change")
    return p


def class_sums(p: list[int], k: int, modulus: int | None = None) -> list[int]:
    """Q_k(0..len(p)-1): Q_k(n) = P(n-k) + Q_k(n-k), optionally reduced."""
    q = [0] * len(p)
    for n in range(k, len(p)):
        v = p[n - k] + q[n - k]
        q[n] = v % modulus if modulus else v
    return q


def prefix_sums(p: list[int]) -> list[int]:
    """S(0..len(p)-1): S(n) = P(0) + ... + P(n-1)."""
    s = [0]
    for v in p[:-1]:
        s.append(s[-1] + v)
    return s


def euler_power(power: int, trunc: int) -> list[int]:
    """Coefficients of [prod (1 - x^n)]^power through x^trunc."""
    plus, minus = _pentagonal_offsets(trunc)
    # (1 - x^n) products carry sign (-1)^j on the j-th pentagonal pair,
    # the opposite of the sign the P recurrence gives those offsets.
    terms = sorted([(0, 1)] + [(g, -1) for g in plus] + [(g, 1) for g in minus])
    out = [1] + [0] * trunc
    for _ in range(power):
        nxt = [0] * (trunc + 1)
        for i, c in enumerate(out):
            if c:
                for g, s in terms:
                    if i + g > trunc:
                        break
                    nxt[i + g] += s * c
        out = nxt
    return out


def series_dump(coeffs: list[int], modulus: int | None = None) -> str:
    """The ``#series v1`` text partx prints for these coefficients."""
    ring = "Z" if modulus is None else f"Zmod:{modulus}"
    if modulus is not None:
        coeffs = [c % modulus for c in coeffs]
    lines = [f"#series v1 ring={ring} trunc={len(coeffs) - 1}"]
    lines.extend(f"{d},{c}" for d, c in enumerate(coeffs))
    return "\n".join(lines) + "\n"
