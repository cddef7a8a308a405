"""Verification harness for the partition-statistic identities.

Each identity is a relation between P, S, Q_k and R_k, written once in its
``verify_*`` function over a route: :data:`_ROUTES` maps each backend to a
:class:`Route` of statistics over Z and mod m, and ``prepare``.

* ``closed_form`` reads the recurrence table of :mod:`partx.counting`.  S
  and Q_k are slice sums of that table, so stanley, lemma2, result1 and
  result2 compare a table slice, or entry, with itself here and cannot fail.
* ``oracle`` counts from the definitions with the coin-change oracle of
  :mod:`partx.partitions`, one call per term of a sum, and reaches up to its
  ``DEFAULT_ENUMERATION_LIMIT``.  It is the independent check.

The routes look ``counting`` and ``partitions`` up in this module's globals
on every call, so swapping those references (as ``perfbench/spans.py``
does) reaches every statistic.

:func:`sweep` runs a verifier over a rectangle of (n, k) values and collects
every failing report.  :data:`SPECS` gives each identity's arguments,
default backend and oracle span.  ``both`` runs the closed form, then the
oracle wherever the instance is within its reach; ``verify_elder`` refuses
every route but the oracle.  The congruence checks
(``ramanujan_p``, ``qk_congruence``) read residues off their route: the
all-residue recurrence, or the oracle's exact counts reduced mod m.  Their
reports carry the residue as both lhs and rhs and pass exactly when it is 0.
A sweep checks its arguments, then calls its route's ``prepare`` once.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import counting, partitions

ORACLE = "oracle"
CLOSED_FORM = "closed_form"
BOTH = "both"

# The supported patterns, P mod m for a family m and Q_k mod m for a pair (k, m).
RAMANUJAN_FAMILIES = (5, 7, 11)
QK_CONGRUENCES = ((5, 5), (7, 7), (11, 11), (5, 25), (5, 125))


class IdentityReport(NamedTuple):
    identity: str
    params: dict[str, int]
    lhs: int
    rhs: int
    passed: bool
    backend: str

    def as_dict(self) -> dict:
        return self._asdict()


class SweepResult(NamedTuple):
    identity: str
    range_description: str
    total_checked: int
    failures: list[IdentityReport]
    backend: str

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "range": self.range_description,
            "total": self.total_checked,
            "failures": [f.as_dict() for f in self.failures],
        }


def _require_positive(value: int, name: str) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {name}={value}")


def _require_nonnegative(value: int, name: str) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {name}={value}")


class Route(NamedTuple):
    """One way to compute the statistics, over Z and (``p_mod``, ``q_mod``) mod m.

    ``prepare(top, modulus)`` readies it for a sweep up to n = top, mod
    ``modulus`` (None: over Z).
    """

    p: Callable[[int], int]
    p_sum: Callable[[range], int]
    s: Callable[[int], int]
    q: Callable[[int, int], int]
    r: Callable[[int, int], int]
    p_mod: Callable[[int, int], int]
    q_mod: Callable[[int, int, int], int]
    prepare: Callable[[int, int | None], object]


class _Routes(dict):
    def __missing__(self, backend):
        raise ValueError(f"unknown backend {backend!r}")


def _oracle_p(n: int) -> int:
    # P(0) = 1 (the empty partition) enters the result1 and result2 sums.
    return partitions.oracle_stats(n).partition_count if n else 1


# Every verifier validates its arguments first, so the oracle sees n >= 1.
_ROUTES = _Routes({
    CLOSED_FORM: Route(
        p=lambda n: counting.partition_count(n),
        p_sum=lambda indices: counting.partition_sum(indices),
        s=lambda n: counting.distinct_members(n),
        q=lambda k, n: counting.occurrence_count(k, n),
        r=lambda k, n: counting.count_containing(k, n),
        p_mod=lambda n, m: counting.partition_count_mod(n, m),
        q_mod=lambda k, n, m: counting.occurrence_count_mod(k, n, m),
        # One residue extension serves a whole congruence sweep; P over Z grows per instance.
        prepare=lambda top, m: m is None or counting.partition_count_mod(top, m),
    ),
    ORACLE: Route(
        p=_oracle_p,
        p_sum=lambda indices: sum(map(_oracle_p, indices)),
        s=lambda n: partitions.oracle_stats(n).distinct_member_total,
        q=lambda k, n: partitions.oracle_stats(n).occurrences(k),
        r=lambda k, n: partitions.oracle_stats(n).containing(k),
        p_mod=lambda n, m: _oracle_p(n) % m,
        q_mod=lambda k, n, m: partitions.oracle_stats(n).occurrences(k) % m,
        prepare=lambda top, m: None,
    ),
})


def verify_stanley(n: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """S(n) == Q_1(n)."""
    _require_positive(n, "n")
    at = _ROUTES[backend]
    lhs = at.s(n)
    rhs = at.q(1, n)
    return IdentityReport("stanley", {"n": n}, lhs, rhs, lhs == rhs, backend)


def verify_extended_stanley(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """S(n) == Q_k(n) + Q_k(n+1) + ... + Q_k(n+k-1)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    at = _ROUTES[backend]
    lhs = at.s(n)
    rhs = sum(at.q(k, n + i) for i in range(k))
    return IdentityReport("extended_stanley", {"n": n, "k": k}, lhs, rhs, lhs == rhs, backend)


def verify_lemma1(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """Q_k(n+k) == Q_k(n) + R_k(n+k)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    at = _ROUTES[backend]
    lhs = at.q(k, n + k)
    rhs = at.q(k, n) + at.r(k, n + k)
    return IdentityReport("lemma1", {"n": n, "k": k}, lhs, rhs, lhs == rhs, backend)


def verify_lemma2(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """P(n) == R_k(n+k)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    at = _ROUTES[backend]
    lhs = at.p(n)
    rhs = at.r(k, n + k)
    return IdentityReport("lemma2", {"n": n, "k": k}, lhs, rhs, lhs == rhs, backend)


def verify_result1(n: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """Q_1(n) == P(0) + P(1) + ... + P(n-1)."""
    _require_positive(n, "n")
    at = _ROUTES[backend]
    lhs = at.q(1, n)
    rhs = at.p_sum(range(n))
    return IdentityReport("result1", {"n": n}, lhs, rhs, lhs == rhs, backend)


def verify_result2(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """Q_k(n) == sum of P(i) over 0 <= i <= n-1 with i == n (mod k)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    at = _ROUTES[backend]
    lhs = at.q(k, n)
    rhs = at.p_sum(range(n % k, n, k))
    return IdentityReport("result2", {"n": n, "k": k}, lhs, rhs, lhs == rhs, backend)


def verify_elder(n: int, k: int, backend: str = ORACLE) -> IdentityReport:
    """Occasions a part occurs k or more times == Q_k(n).  Oracle only."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    at = _ROUTES[backend]
    if backend != ORACLE:
        raise ValueError("elder has no closed form; use the oracle backend")
    lhs = partitions.elder_count(n, k)
    rhs = at.q(k, n)
    return IdentityReport("elder", {"n": n, "k": k}, lhs, rhs, lhs == rhs, backend)


def _argument(modulus: int, n: int) -> int:
    """The argument modulus*n + d, where 24d == 1 (mod modulus), once n is checked."""
    _require_nonnegative(n, "n")
    return modulus * n + pow(24, -1, modulus)


def _ramanujan_argument(family: int, n: int) -> int:
    """The argument of P, once family and n are checked."""
    if family not in RAMANUJAN_FAMILIES:
        raise ValueError(f"family must be one of {sorted(RAMANUJAN_FAMILIES)}, got {family}")
    return _argument(family, n)


def verify_ramanujan_p(family: int, n: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """P(family*n + d) == 0 mod family, for the 5, 7, 11 patterns."""
    argument = _ramanujan_argument(family, n)
    residue = _ROUTES[backend].p_mod(argument, family)
    params = {"family": family, "n": n, "argument": argument, "modulus": family}
    return IdentityReport("ramanujan_p", params, residue, residue, residue == 0, backend)


def _qk_argument(k: int, modulus: int, n: int) -> int:
    """The argument of Q_k, once the pattern and n are checked."""
    if (k, modulus) not in QK_CONGRUENCES:
        supported = ", ".join(f"(k={a}, mod={b})" for a, b in sorted(QK_CONGRUENCES))
        raise ValueError(f"unsupported congruence (k={k}, mod={modulus}); supported: {supported}")
    return _argument(modulus, n)


def verify_qk_congruence(
    k: int, modulus: int, n: int, backend: str = CLOSED_FORM
) -> IdentityReport:
    """Q_k(modulus*n + d) == 0 mod modulus, for the supported (k, modulus) pairs."""
    argument = _qk_argument(k, modulus, n)
    residue = _ROUTES[backend].q_mod(k, argument, modulus)
    params = {"k": k, "modulus": modulus, "n": n, "argument": argument}
    return IdentityReport("qk_congruence", params, residue, residue, residue == 0, backend)


def verify_difference_identity(n: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """P(5n+4) == Q_5(5n+9) - Q_5(5n+4)."""
    _require_nonnegative(n, "n")
    at = _ROUTES[backend]
    lhs = at.p(5 * n + 4)
    rhs = at.q(5, 5 * n + 9) - at.q(5, 5 * n + 4)
    return IdentityReport("difference_identity", {"n": n}, lhs, rhs, lhs == rhs, backend)


# sweep plumbing -------------------------------------------------------------


class Spec(NamedTuple):
    """How :func:`sweep` runs one identity.

    ``params`` names the verifier's positional arguments in order: ``n`` and
    ``k`` are swept, ``family`` and ``mod`` stay fixed for the whole sweep.
    ``backend`` is the route a sweep takes when it names none: the closed
    form, or the oracle for an identity without one.  ``span`` maps the
    verifier's arguments to the largest n it reads, which the oracle must
    cover; a congruence's span checks the arguments as its verifier does.
    """

    verifier: Callable[..., IdentityReport]
    params: tuple[str, ...]
    span: Callable[..., int]
    family_hint: str = ""
    backend: str = CLOSED_FORM


SPECS = {
    "stanley": Spec(verify_stanley, ("n",), lambda n: n),
    "extended_stanley": Spec(verify_extended_stanley, ("n", "k"), lambda n, k: n + k - 1),
    "lemma1": Spec(verify_lemma1, ("n", "k"), lambda n, k: n + k),
    "lemma2": Spec(verify_lemma2, ("n", "k"), lambda n, k: n + k),
    "result1": Spec(verify_result1, ("n",), lambda n: n),
    "result2": Spec(verify_result2, ("n", "k"), lambda n, k: n),
    "difference_identity": Spec(verify_difference_identity, ("n",), lambda n: 5 * n + 9),
    "elder": Spec(verify_elder, ("n", "k"), lambda n, k: n, backend=ORACLE),
    "ramanujan_p": Spec(verify_ramanujan_p, ("family", "n"), _ramanujan_argument, "(5, 7 or 11)"),
    "qk_congruence": Spec(verify_qk_congruence, ("family", "mod", "n"), _qk_argument,
                          "(the part k)"),
}


def _check_range(rng, name) -> tuple[int, int]:
    try:
        lo, hi = rng
    except (TypeError, ValueError):
        raise ValueError(f"{name} range must be an (lo, hi) pair, got {rng!r}") from None
    if lo > hi:
        raise ValueError(f"{name} range is empty: {lo}..{hi}")
    return int(lo), int(hi)


def sweep(
    identity: str,
    n_range: tuple[int, int],
    k_range: tuple[int, int] | None = None,
    backend: str | None = None,
    family: int | None = None,
    modulus: int | None = None,
) -> SweepResult:
    """Run one verifier over the whole range, collecting every failure.

    Reports are generated in (n, k) order and the sweep never stops early,
    so the failure list is complete and deterministic.  ``backend`` defaults
    to the identity's own (``SPECS[identity].backend``), and the result
    records the one that ran.  Each instance runs on every route of the
    backend in turn (``both``: the closed form, then the oracle), and on
    the oracle only where its span is within the oracle's reach.
    """
    n_lo, n_hi = _check_range(n_range, "n")
    k_bounds = None if k_range is None else _check_range(k_range, "k")
    spec = SPECS.get(identity)
    if spec is None:
        raise ValueError(f"unknown identity {identity!r}; known: {', '.join(SPECS)}")
    if backend is None:
        backend = spec.backend
    routes = [CLOSED_FORM, ORACLE] if backend == BOTH else [backend]
    prepare = _ROUTES[routes[0]].prepare  # raises on an unknown backend

    fixed = {}  # the verifier's leading arguments, the same for every instance
    if "family" not in spec.params:
        if family is not None or modulus is not None:
            raise ValueError(f"{identity} does not take a family or modulus")
    elif family is None:
        raise ValueError(f"{identity} needs a family {spec.family_hint}")
    elif "mod" in spec.params:
        fixed = {"family": family, "mod": family if modulus is None else modulus}
    elif modulus in (None, family):
        fixed = {"family": family}
    else:
        raise ValueError(f"{identity} checks mod the family itself")
    desc_parts = [f"{name}={value}" for name, value in fixed.items()] + [f"n={n_lo}..{n_hi}"]
    k_tails = [()]
    if "k" in spec.params:
        if k_bounds is None:
            raise ValueError(f"{identity} needs a k range")
        k_lo, k_hi = k_bounds
        desc_parts.append(f"k={k_lo}..{k_hi}")
        k_tails = [(k,) for k in range(k_lo, k_hi + 1)]
    elif k_bounds is not None:
        raise ValueError(f"{identity} does not take a k range")

    lead = tuple(fixed.values())
    modulus = fixed.get("mod", family)  # a congruence's modulus; None over Z
    span = spec.span
    # Only a congruence's span checks arguments: it raises its verifier's errors
    # here, before any table grows.  Other identities raise from their verifier.
    span(*lead, n_lo, *k_tails[0])
    top = span(*lead, n_hi, *k_tails[-1])
    reach = partitions.DEFAULT_ENUMERATION_LIMIT  # the largest n the oracle counts
    if backend == ORACLE and top > reach:
        hint = "; use the closed form (--backend closed)" if spec.backend == CLOSED_FORM else ""
        raise ValueError(
            f"{identity} needs the oracle up to n={top}, beyond its limit of {reach}{hint}"
        )
    prepare(top, modulus)

    verifier = spec.verifier
    failures: list[IdentityReport] = []
    total = 0
    for n in range(n_lo, n_hi + 1):
        head = (*lead, n)
        for tail in k_tails:
            args = head + tail
            total += 1
            for route in routes:
                if route == ORACLE and span(*args) > reach:
                    continue
                report = verifier(*args, backend=route)
                if not report.passed:
                    failures.append(report)
    return SweepResult(identity, ", ".join(desc_parts), total, failures, backend)
