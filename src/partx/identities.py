"""Verification harness for the partition-statistic identities.

Each ``verify_*`` function evaluates both sides of one identity instance
with the requested backend and returns an :class:`IdentityReport`;
:func:`sweep` runs a verifier over a rectangle of (n, k) values and
collects every failing report without short-circuiting.  One table,
:data:`SPECS`, tells the sweep each identity's arguments, backends and
oracle span.

Backends: ``oracle`` computes every quantity by the coin-change oracle in
:mod:`partx.partitions` (capped at its ``DEFAULT_ENUMERATION_LIMIT``),
``closed_form`` uses the recurrence table.  The right-hand sums of result1
and result2 are one slice sum over the table on the closed form
(:func:`partx.counting.partition_sum`) and a sum of one oracle call per
term on the oracle.  ``both`` is accepted by
:func:`sweep` and runs the closed form plus an oracle cross-check whenever
the instance fits under that cap.  ``elder`` has no closed form and runs
on the oracle only.

The congruence checks (``ramanujan_p``, ``qk_congruence``) always go
through the all-residue fast path, so :func:`sweep` accepts only the
``closed_form`` backend for them; their reports carry the residue as
both lhs and rhs, and pass exactly when it is 0.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import counting, partitions

ORACLE = "oracle"
CLOSED_FORM = "closed_form"
BOTH = "both"

RAMANUJAN_OFFSETS = {5: 4, 7: 5, 11: 6}

# (k, modulus) -> (argument step, argument offset): Q_k(step*n + offset) mod modulus
QK_CONGRUENCES = {
    (5, 5): (5, 4),
    (7, 7): (7, 5),
    (11, 11): (11, 6),
    (5, 25): (25, 24),
    (5, 125): (125, 99),
}


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


def _check_backend(backend: str) -> None:
    if backend not in (ORACLE, CLOSED_FORM):
        raise ValueError(f"unknown backend {backend!r}")


def _require_positive(value: int, name: str) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {name}={value}")


def _require_nonnegative(value: int, name: str) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {name}={value}")


# Backend-dispatched statistics.  Every verifier validates its arguments
# first, so the oracle side sees n >= 1, except P(0) = 1 (the empty
# partition) in the result1 and result2 sums.

def _p(n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.partition_count(n)
    if n == 0:
        return 1
    return partitions.oracle_stats(n).partition_count


def _p_sum(indices: range, backend: str) -> int:
    # The closed form sums one slice of the table; the oracle, term by term.
    if backend == CLOSED_FORM:
        return counting.partition_sum(indices)
    return sum(_p(i, backend) for i in indices)


def _s(n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.distinct_members(n)
    return partitions.oracle_stats(n).distinct_member_total


def _q(k: int, n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.occurrence_count(k, n)
    return partitions.oracle_stats(n).occurrences(k)


def _r(k: int, n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.count_containing(k, n)
    return partitions.oracle_stats(n).containing(k)


def _equality_report(identity, params, lhs, rhs, backend) -> IdentityReport:
    return IdentityReport(identity, params, lhs, rhs, lhs == rhs, backend)


def _congruence_report(identity, params, residue) -> IdentityReport:
    # lhs is the value under test already reduced mod params["modulus"];
    # rhs records the same residue, and passing means residue 0.
    return IdentityReport(identity, params, residue, residue, residue == 0, CLOSED_FORM)


def verify_stanley(n: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """S(n) == Q_1(n)."""
    _require_positive(n, "n")
    _check_backend(backend)
    return _equality_report(
        "stanley", {"n": n}, _s(n, backend), _q(1, n, backend), backend
    )


def verify_extended_stanley(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """S(n) == Q_k(n) + Q_k(n+1) + ... + Q_k(n+k-1)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    _check_backend(backend)
    lhs = _s(n, backend)
    rhs = sum(_q(k, n + i, backend) for i in range(k))
    return _equality_report("extended_stanley", {"n": n, "k": k}, lhs, rhs, backend)


def verify_lemma1(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """Q_k(n+k) == Q_k(n) + R_k(n+k)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    _check_backend(backend)
    lhs = _q(k, n + k, backend)
    rhs = _q(k, n, backend) + _r(k, n + k, backend)
    return _equality_report("lemma1", {"n": n, "k": k}, lhs, rhs, backend)


def verify_lemma2(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """P(n) == R_k(n+k)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    _check_backend(backend)
    lhs = _p(n, backend)
    rhs = _r(k, n + k, backend)
    return _equality_report("lemma2", {"n": n, "k": k}, lhs, rhs, backend)


def verify_result1(n: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """Q_1(n) == P(0) + P(1) + ... + P(n-1)."""
    _require_positive(n, "n")
    _check_backend(backend)
    lhs = _q(1, n, backend)
    rhs = _p_sum(range(n), backend)
    return _equality_report("result1", {"n": n}, lhs, rhs, backend)


def verify_result2(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """Q_k(n) == sum of P(i) over 0 <= i <= n-1 with i == n (mod k)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    _check_backend(backend)
    lhs = _q(k, n, backend)
    rhs = _p_sum(range(n % k, n, k), backend)
    return _equality_report("result2", {"n": n, "k": k}, lhs, rhs, backend)


def verify_elder(n: int, k: int) -> IdentityReport:
    """Occasions a part occurs k or more times == Q_k(n).  Oracle only."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    lhs = partitions.elder_count(n, k)
    rhs = partitions.oracle_stats(n).occurrences(k)
    return _equality_report("elder", {"n": n, "k": k}, lhs, rhs, ORACLE)


def verify_ramanujan_p(family: int, n: int) -> IdentityReport:
    """P(family*n + offset) == 0 mod family, for the 5, 7, 11 patterns."""
    if family not in RAMANUJAN_OFFSETS:
        raise ValueError(f"family must be one of {sorted(RAMANUJAN_OFFSETS)}, got {family}")
    _require_nonnegative(n, "n")
    offset = RAMANUJAN_OFFSETS[family]
    argument = family * n + offset
    residue = counting.partition_count_mod(argument, family)
    params = {"family": family, "n": n, "argument": argument, "modulus": family}
    return _congruence_report("ramanujan_p", params, residue)


def verify_qk_congruence(k: int, modulus: int, n: int) -> IdentityReport:
    """Q_k(step*n + offset) == 0 mod modulus, for the supported (k, modulus) pairs."""
    pattern = QK_CONGRUENCES.get((k, modulus))
    if pattern is None:
        supported = ", ".join(f"(k={a}, mod={b})" for a, b in sorted(QK_CONGRUENCES))
        raise ValueError(f"unsupported congruence (k={k}, mod={modulus}); supported: {supported}")
    _require_nonnegative(n, "n")
    step, offset = pattern
    argument = step * n + offset
    residue = counting.occurrence_count_mod(k, argument, modulus)
    params = {"k": k, "modulus": modulus, "n": n, "argument": argument}
    return _congruence_report("qk_congruence", params, residue)


def verify_difference_identity(n: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """P(5n+4) == Q_5(5n+9) - Q_5(5n+4)."""
    _require_nonnegative(n, "n")
    _check_backend(backend)
    lhs = _p(5 * n + 4, backend)
    rhs = _q(5, 5 * n + 9, backend) - _q(5, 5 * n + 4, backend)
    return _equality_report("difference_identity", {"n": n}, lhs, rhs, backend)


# sweep plumbing -------------------------------------------------------------


class Spec(NamedTuple):
    """How :func:`sweep` runs one identity.

    ``params`` names the verifier's positional arguments in order: ``n`` and
    ``k`` are swept, ``family`` and ``mod`` stay fixed for the whole sweep.
    ``backends`` lists what the sweep accepts, the default first; a verifier
    with a single route takes no backend argument.  ``oracle_span`` maps the
    verifier's arguments to the largest n the oracle must cover.
    """

    verifier: Callable[..., IdentityReport]
    params: tuple[str, ...]
    backends: tuple[str, ...]
    oracle_span: Callable[..., int] | None = None
    family_hint: str = ""

    @property
    def default_backend(self) -> str:
        return self.backends[0]


_ANY = (CLOSED_FORM, ORACLE, BOTH)

SPECS = {
    "stanley": Spec(verify_stanley, ("n",), _ANY, lambda n: n),
    "extended_stanley": Spec(verify_extended_stanley, ("n", "k"), _ANY, lambda n, k: n + k - 1),
    "lemma1": Spec(verify_lemma1, ("n", "k"), _ANY, lambda n, k: n + k),
    "lemma2": Spec(verify_lemma2, ("n", "k"), _ANY, lambda n, k: n + k),
    "result1": Spec(verify_result1, ("n",), _ANY, lambda n: n),
    "result2": Spec(verify_result2, ("n", "k"), _ANY, lambda n, k: n),
    "difference_identity": Spec(verify_difference_identity, ("n",), _ANY, lambda n: 5 * n + 9),
    "elder": Spec(verify_elder, ("n", "k"), (ORACLE,), lambda n, k: n),
    "ramanujan_p": Spec(verify_ramanujan_p, ("family", "n"), (CLOSED_FORM,),
                        family_hint="(5, 7 or 11)"),
    "qk_congruence": Spec(verify_qk_congruence, ("family", "mod", "n"), (CLOSED_FORM,),
                          family_hint="(the part k)"),
}

# Why an identity with a single route rejects every other backend.
_SOLE_BACKEND = {
    CLOSED_FORM: "is computed by the residue recurrence only; use the closed_form backend",
    ORACLE: "has no closed form; use the oracle backend",
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
    to the identity's own (``SPECS[identity].default_backend``), and the
    result records the one that ran.  With the ``both`` backend each
    instance runs the closed form, plus the oracle whenever the instance
    fits under ``partitions.DEFAULT_ENUMERATION_LIMIT``.
    """
    n_lo, n_hi = _check_range(n_range, "n")
    k_bounds = None if k_range is None else _check_range(k_range, "k")
    spec = SPECS.get(identity)
    if spec is None:
        raise ValueError(f"unknown identity {identity!r}; known: {', '.join(SPECS)}")
    if backend is None:
        backend = spec.default_backend
    if backend not in spec.backends:
        if len(spec.backends) == 1:
            raise ValueError(f"{identity} {_SOLE_BACKEND[spec.default_backend]}")
        raise ValueError(f"unknown backend {backend!r}")

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
    span = spec.oracle_span
    limit = partitions.DEFAULT_ENUMERATION_LIMIT
    if backend == ORACLE and (top := span(*lead, n_hi, *k_tails[-1])) > limit:
        hint = "; use the closed_form backend" if CLOSED_FORM in spec.backends else ""
        raise ValueError(
            f"{identity} needs the oracle up to n={top}, beyond its limit of {limit}{hint}"
        )
    # Keyword arguments of the verifier calls for one instance.
    if len(spec.backends) == 1:
        single = ({},)  # the verifier's one route is built in
    else:
        single = ({"backend": CLOSED_FORM if backend == BOTH else backend},)
    crossed = single + ({"backend": ORACLE},) if backend == BOTH else None

    verifier = spec.verifier
    failures: list[IdentityReport] = []
    total = 0
    for n in range(n_lo, n_hi + 1):
        head = (*lead, n)
        for tail in k_tails:
            args = head + tail
            total += 1
            for kwargs in crossed if crossed and span(*args) <= limit else single:
                report = verifier(*args, **kwargs)
                if not report.passed:
                    failures.append(report)
    return SweepResult(identity, ", ".join(desc_parts), total, failures, backend)
