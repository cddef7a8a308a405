"""Verification harness for the partition-statistic identities.

Each identity is a relation between P, S, Q_k and R_k.  Its two sides are
written once, as the ``sides(route, *args)`` of its :class:`Spec` in
:data:`SPECS`, over a :class:`Route` of the five statistics.
:data:`_ROUTES` maps each backend to a builder ``(top, modulus) -> Route``
that readies the statistics up to n = top, over Z or mod ``modulus``.
:func:`verify` (one instance) and :func:`sweep` (a range of them) take
their spec and builders from :func:`_plan` and run in one :func:`_run`, so
a new identity is one ``SPECS`` row and a new route one builder.

* ``closed_form`` reads the recurrence table of :mod:`partx.counting`, of
  integers or of residues, grown once to ``top``.  S, Q_k and R_k are sums
  of that table, so stanley, extended_stanley, lemma1, lemma2, result1,
  result2 and difference_identity are rearrangements here: both sides are
  the same sum of table entries, and a wrong entry cannot make them differ.
* ``oracle`` counts from the definitions with the coin-change oracle of
  :mod:`partx.partitions`, one call per term of a sum, exactly in every
  ring, up to its ``DEFAULT_ENUMERATION_LIMIT``.  It is the independent
  check.

The routes look ``counting`` and ``partitions`` up in this module's globals
on every call, so swapping those references (as ``perfbench/spans.py``
does) reaches every statistic.

``both`` runs the closed form, then the oracle wherever the instance is
within its reach.  An identity whose default backend is the oracle (elder)
refuses every other route.  A congruence (``ramanujan_p``, ``qk_congruence``)
runs over the ring its spec names; its reports carry its count's residue as
both lhs and rhs, and pass exactly when it is 0.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import index
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


class SweepResult(NamedTuple):
    identity: str
    range_description: str
    total_checked: int
    failures: list[IdentityReport]
    backend: str
    checked: dict[str, int]  # the instances each route ran, such as {"oracle": 19}

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "range": self.range_description,
            "total": self.total_checked,
            "failures": [f._asdict() for f in self.failures],
        }


class Route(NamedTuple):
    """The five statistics along one route: exact over Z, congruent to them mod m."""

    p: Callable[[int], int]
    p_sum: Callable[[range], int]
    s: Callable[[int], int]
    q: Callable[[int, int], int]
    r: Callable[[int, int], int]


def _closed(top: int, modulus: int | None) -> Route:
    """The recurrence table over Z, or of residues mod ``modulus``, grown once to ``top``."""
    table = None if modulus is None else counting.mod_table(modulus)
    counting.partition_count(top, table)
    return Route(
        p=lambda n: counting.partition_count(n, table),
        p_sum=lambda indices: counting.partition_sum(indices, table),
        s=lambda n: counting.distinct_members(n, table),
        q=lambda k, n: counting.occurrence_count(k, n, table),
        r=lambda k, n: counting.count_containing(k, n, table),
    )


def _oracle(top: int, modulus: int | None) -> Route:
    """The oracle's exact counts, right in every ring, from tables built once to ``top``."""
    partitions._grow_tables(min(top, partitions.DEFAULT_ENUMERATION_LIMIT))

    def p(n: int) -> int:
        return partitions.oracle_stats(n).partition_count

    return Route(
        p=p,
        p_sum=lambda indices: sum(map(p, indices)),
        s=lambda n: partitions.oracle_stats(n).distinct_member_total,
        q=lambda k, n: partitions.oracle_stats(n).occurrences(k),
        r=lambda k, n: partitions.oracle_stats(n).containing(k),
    )


_ROUTES: dict[str, Callable[[int, int | None], Route]] = {CLOSED_FORM: _closed, ORACLE: _oracle}


def _positive(n: int, k: int = 1) -> int:
    """n, once n and k are checked as positive integers."""
    for name, value in (("n", n), ("k", k)):
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {name}={value}")
    return n


def _nonnegative(n: int) -> int:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    return n


def _argument(modulus: int, n: int) -> int:
    """The argument modulus*n + d of a congruence, where 24d == 1 (mod modulus)."""
    return modulus * n + pow(24, -1, modulus)


def _ramanujan_argument(family: int, n: int) -> int:
    """The argument of P, once family and n are checked."""
    if family not in RAMANUJAN_FAMILIES:
        raise ValueError(f"family must be one of {sorted(RAMANUJAN_FAMILIES)}, got {family}")
    return _argument(family, _nonnegative(n))


def _qk_argument(k: int, modulus: int, n: int) -> int:
    """The argument of Q_k, once the pattern and n are checked."""
    if (k, modulus) not in QK_CONGRUENCES:
        supported = ", ".join(f"(k={a}, mod={b})" for a, b in sorted(QK_CONGRUENCES))
        raise ValueError(f"unsupported congruence (k={k}, mod={modulus}); supported: {supported}")
    return _argument(modulus, _nonnegative(n))


class Spec(NamedTuple):
    """One identity: its two sides over a route, and how it is run.

    ``sides(route, *args)`` computes the identity's lhs and rhs on a
    :class:`Route` from the arguments named by ``params``, in order.  That
    order is the one ``sides``, ``span``, ``ring`` and ``labels`` take, and
    the order of a sweep's instances and of its range text: ``n`` and ``k``
    are swept, ``family`` and ``mod`` are one value for the whole sweep.
    An equality (``ring`` None) passes when lhs == rhs.  A
    congruence's ``ring`` gives its modulus m from the same arguments, and
    its ``sides`` one count, which passes when it is 0 mod m.  ``span``
    checks the arguments, raising the errors that :func:`verify` and
    :func:`sweep` report, and returns the largest n they read: every route
    is built up to it, and the oracle must cover it.  ``labels`` gives a
    report's params (by default ``params`` with their values).  ``backend``
    is the route taken when none is named: the closed form, or the oracle
    for an identity without one, which refuses every other route.
    """

    sides: Callable[..., tuple[int, int] | int]
    params: tuple[str, ...]
    span: Callable[..., int]
    family_hint: str = ""
    backend: str = CLOSED_FORM
    labels: Callable[..., dict[str, int]] | None = None
    ring: Callable[..., int] | None = None


SPECS = {
    "stanley": Spec(lambda at, n: (at.s(n), at.q(1, n)), ("n",), _positive),
    "extended_stanley": Spec(lambda at, n, k: (at.s(n), sum(at.q(k, n + i) for i in range(k))),
                             ("n", "k"), lambda n, k: _positive(n, k) + k - 1),
    "lemma1": Spec(lambda at, n, k: (at.q(k, n + k), at.q(k, n) + at.r(k, n + k)),
                   ("n", "k"), lambda n, k: _positive(n, k) + k),
    "lemma2": Spec(lambda at, n, k: (at.p(n), at.r(k, n + k)),
                   ("n", "k"), lambda n, k: _positive(n, k) + k),
    "result1": Spec(lambda at, n: (at.q(1, n), at.p_sum(range(n))), ("n",), _positive),
    "result2": Spec(lambda at, n, k: (at.q(k, n), at.p_sum(range(n % k, n, k))),
                    ("n", "k"), _positive),
    "difference_identity": Spec(
        lambda at, n: (at.p(5 * n + 4), at.q(5, 5 * n + 9) - at.q(5, 5 * n + 4)),
        ("n",), lambda n: 5 * _nonnegative(n) + 9),
    "elder": Spec(lambda at, n, k: (partitions.elder_count(n, k), at.q(k, n)),
                  ("n", "k"), _positive, backend=ORACLE),
    "ramanujan_p": Spec(
        lambda at, family, n: at.p(_argument(family, n)),
        ("family", "n"), _ramanujan_argument, "(5, 7 or 11)",
        labels=lambda family, n: {"family": family, "n": n,
                                  "argument": _argument(family, n), "modulus": family},
        ring=lambda family, n: family),
    "qk_congruence": Spec(
        lambda at, k, modulus, n: at.q(k, _argument(modulus, n)),
        ("family", "mod", "n"), _qk_argument, "(the part k)",
        labels=lambda k, modulus, n: {"k": k, "modulus": modulus, "n": n,
                                      "argument": _argument(modulus, n)},
        ring=lambda k, modulus, n: modulus),
}


def _plan(identity: str, backend: str | None) -> tuple[Spec, str, list[tuple[str, Callable]]]:
    """The spec, the backend (by default the identity's own) and its (route, builder) pairs.

    The one place that refuses an unknown identity or backend, and every
    route but the oracle for an identity with no closed form.
    """
    spec = SPECS.get(identity)
    if spec is None:
        raise ValueError(f"unknown identity {identity!r}; known: {', '.join(SPECS)}")
    if backend is None:
        backend = spec.backend
    if backend != BOTH and backend not in _ROUTES:
        raise ValueError(f"unknown backend {backend!r}")
    if spec.backend == ORACLE != backend:
        raise ValueError(f"{identity} has no closed form; use the oracle backend")
    names = [CLOSED_FORM, ORACLE] if backend == BOTH else [backend]
    return spec, backend, [(name, _ROUTES[name]) for name in names]


def _run(identity: str, spec: Spec, backend: str, builders: list[tuple[str, Callable]],
         ranges: list, every: bool = False) -> tuple[list[IdentityReport], dict[str, int]]:
    """The reports (failing ones only, unless ``every``) and the instances each route ran.

    The instances are ``product(*ranges)``, one range per name of
    ``spec.params``.  Each route is built once, up to the largest n they
    read and over the congruence's ring; the oracle skips an instance past
    its reach, and refuses the run when it is the only route.
    """
    span, first = spec.span, [values[0] for values in ranges]
    # Every check is a lower bound, so the lowest corner raises the error its
    # first failing instance would, before any table grows.
    span(*first)
    top = span(*(values[-1] for values in ranges))
    reach = partitions.DEFAULT_ENUMERATION_LIMIT  # the largest n the oracle counts
    if backend == ORACLE and top > reach:
        hint = "; use the closed form" if spec.backend == CLOSED_FORM else ""
        raise ValueError(f"{identity} needs the oracle up to n={top}, beyond its limit of {reach}"
                         + hint)
    modulus = spec.ring and spec.ring(*first)  # None over Z
    legs = [(route, build(top, modulus)) for route, build in builders]

    sides, labels = spec.sides, spec.labels
    reports: list[IdentityReport] = []
    beyond = 0  # instances past the oracle's reach, which only both meets
    for args in product(*ranges):
        for route, at in legs:
            if route == ORACLE and span(*args) > reach:
                beyond += 1
                continue
            if modulus is None:
                lhs, rhs = sides(at, *args)
                passed = lhs == rhs
            else:  # a congruence reports its count's residue as both sides
                lhs = rhs = sides(at, *args) % modulus
                passed = lhs == 0
            if every or not passed:
                params = labels(*args) if labels else dict(zip(spec.params, args))
                reports.append(IdentityReport(identity, params, lhs, rhs, passed, route))
    total = prod(map(len, ranges))
    return reports, {route: total - beyond if route == ORACLE else total for route, _ in legs}


def verify(identity: str, *args: int, backend: str | None = None) -> IdentityReport:
    """One instance of ``identity``, at integer values of its spec's ``params`` in order.

    It runs as a one-instance :func:`sweep`: a congruence reads the residue
    table of its modulus, and past the oracle's reach ``oracle`` raises the
    sweep's error while ``both`` runs the closed form alone.  ``both``
    returns the first report that fails, else the last route's.
    """
    spec, backend, builders = _plan(identity, backend)
    if len(args) != len(spec.params):
        raise TypeError(f"{identity} takes {len(spec.params)} arguments "
                        f"({', '.join(spec.params)}), got {len(args)}")
    ranges = [(_integer(value, f"{identity}: {name}"),) for name, value in zip(spec.params, args)]
    reports, _ = _run(identity, spec, backend, builders, ranges, every=True)
    return next((r for r in reports if not r.passed), reports[-1])


# sweep ----------------------------------------------------------------------


def _integer(value, name: str) -> int:
    """``value`` as an int, if it is one; a float or a string is refused, not truncated."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_range(rng, name) -> range:
    try:
        lo, hi = rng
    except (TypeError, ValueError):
        raise ValueError(f"{name} range must be an (lo, hi) pair, got {rng!r}") from None
    try:
        lo, hi = index(lo), index(hi)
    except TypeError:
        raise TypeError(f"{name} range bounds must be integers, got {rng!r}") from None
    if lo > hi:
        raise ValueError(f"{name} range is empty: {lo}..{hi}")
    return range(lo, hi + 1)


def sweep(
    identity: str,
    n_range: tuple[int, int],
    k_range: tuple[int, int] | None = None,
    backend: str | None = None,
    family: int | None = None,
    modulus: int | None = None,
) -> SweepResult:
    """Run one identity over the whole range, collecting every failure.

    Reports come in ``params`` order and the sweep never stops early, so
    the failure list is complete and deterministic.  ``backend`` defaults to
    the identity's own (``SPECS[identity].backend``), and the result
    records the one that ran and the instances each of its routes checked.
    """
    spec, backend, builders = _plan(identity, backend)
    given = {"n": _check_range(n_range, "n"),  # each name's values, ordered by spec.params below
             "k": None if k_range is None else _check_range(k_range, "k")}
    if "family" in spec.params:  # family and mod are one value for the whole sweep
        if family is None:
            raise ValueError(f"{identity} needs a family {spec.family_hint}")
        family = _integer(family, "family")
        modulus = family if modulus is None else _integer(modulus, "modulus")
        if modulus != family and "mod" not in spec.params:
            raise ValueError(f"{identity} checks mod the family itself")
        given["family"], given["mod"] = (family,), (modulus,)
    elif family is not None or modulus is not None:
        raise ValueError(f"{identity} does not take a family or modulus")
    if ("k" in spec.params) != (k_range is not None):
        raise ValueError(f"{identity} {'needs' if k_range is None else 'does not take'} a k range")
    ranges = [given[name] for name in spec.params]
    description = ", ".join(f"{name}={r[0]}..{r[-1]}" if isinstance(r, range) else f"{name}={r[0]}"
                            for name, r in zip(spec.params, ranges))

    failures, checked = _run(identity, spec, backend, builders, ranges)
    total = checked[builders[0][0]]  # the first route runs every instance
    return SweepResult(identity, description, total, failures, backend, checked)
