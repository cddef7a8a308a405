"""Verification harness for the partition-statistic identities.

Each ``verify_*`` function evaluates both sides of one identity instance
with the requested backend and returns an :class:`IdentityReport`;
:func:`sweep` runs a verifier over a rectangle of (n, k) values and
collects every failing report without short-circuiting.

Backends: ``oracle`` computes every quantity by the coin-change oracle in
:mod:`partx.partitions` (bounded by its limit), ``closed_form`` uses the
recurrence table.  ``both`` is accepted by :func:`sweep` and runs the
closed form plus an oracle cross-check whenever the instance fits under
the limit.

The congruence checks (``ramanujan_p``, ``qk_congruence``) always go
through the all-residue fast path, so :func:`sweep` accepts only the
``closed_form`` backend for them; their reports carry the residue as
both lhs and rhs, and pass exactly when it is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class IdentityReport:
    identity: str
    params: dict[str, int]
    lhs: int
    rhs: int
    passed: bool
    backend: str

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "backend": self.backend,
        }


@dataclass
class SweepResult:
    identity: str
    range_description: str
    total_checked: int
    failures: list[IdentityReport] = field(default_factory=list)

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


# Backend-dispatched statistics.  The oracle side adopts the same boundary
# conventions as the closed forms: P(0) = 1 (the empty partition), and every
# statistic is 0 below its support.

def _p(n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.partition_count(n)
    if n < 0:
        return 0
    if n == 0:
        return 1
    return partitions.oracle_stats(n).partition_count


def _s(n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.distinct_members(n)
    if n < 1:
        return 0
    return partitions.oracle_stats(n).distinct_member_total


def _q(k: int, n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.occurrence_count(k, n)
    if n < 1:
        return 0
    return partitions.oracle_stats(n).occurrences(k)


def _r(k: int, n: int, backend: str) -> int:
    if backend == CLOSED_FORM:
        return counting.count_containing(k, n)
    if n < 1:
        return 0
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
    rhs = sum(_p(i, backend) for i in range(n))
    return _equality_report("result1", {"n": n}, lhs, rhs, backend)


def verify_result2(n: int, k: int, backend: str = CLOSED_FORM) -> IdentityReport:
    """Q_k(n) == sum of P(i) over 0 <= i <= n-1 with i == n (mod k)."""
    _require_positive(n, "n")
    _require_positive(k, "k")
    _check_backend(backend)
    lhs = _q(k, n, backend)
    rhs = sum(_p(i, backend) for i in range(n) if i % k == n % k)
    return _equality_report("result2", {"n": n, "k": k}, lhs, rhs, backend)


def verify_elder(n: int, k: int) -> IdentityReport:
    """Occasions a part occurs k or more times == Q_k(n).  Enumeration only."""
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

# identity -> (verifier, takes k, largest argument the oracle must cover)
_EQUALITY_IDENTITIES = {
    "stanley": (verify_stanley, False, lambda n, k: n),
    "extended_stanley": (verify_extended_stanley, True, lambda n, k: n + k - 1),
    "lemma1": (verify_lemma1, True, lambda n, k: n + k),
    "lemma2": (verify_lemma2, True, lambda n, k: n + k),
    "result1": (verify_result1, False, lambda n, k: n),
    "result2": (verify_result2, True, lambda n, k: n),
    "difference_identity": (verify_difference_identity, False, lambda n, k: 5 * n + 9),
}

IDENTITY_IDS = tuple(_EQUALITY_IDENTITIES) + ("elder", "ramanujan_p", "qk_congruence")


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
    backend: str = CLOSED_FORM,
    family: int | None = None,
    modulus: int | None = None,
    limit: int = partitions.DEFAULT_ENUMERATION_LIMIT,
) -> SweepResult:
    """Run one verifier over the whole range, collecting every failure.

    Reports are generated in (n, k) order and the sweep never stops early,
    so the failure list is complete and deterministic.
    """
    n_lo, n_hi = _check_range(n_range, "n")
    desc_parts = []
    failures: list[IdentityReport] = []
    total = 0

    if identity in ("elder",) + tuple(_EQUALITY_IDENTITIES) and (
        family is not None or modulus is not None
    ):
        raise ValueError(f"{identity} does not take a family or modulus")
    if identity in ("ramanujan_p", "qk_congruence") and backend != CLOSED_FORM:
        raise ValueError(
            f"{identity} is computed by the residue recurrence only; "
            "use the closed_form backend"
        )

    if identity == "elder":
        if backend not in (ORACLE, BOTH):
            raise ValueError("elder has no closed form; use the oracle backend")
        if k_range is None:
            raise ValueError("elder needs a k range")
        k_lo, k_hi = _check_range(k_range, "k")
        if n_lo < 1:
            raise ValueError(f"n must be positive for elder, got {n_lo}")
        if n_hi > limit:
            raise ValueError(
                f"elder needs enumeration up to n={n_hi}, beyond the limit of {limit}"
            )
        desc_parts = [f"n={n_lo}..{n_hi}", f"k={k_lo}..{k_hi}"]
        for n in range(n_lo, n_hi + 1):
            for k in range(k_lo, k_hi + 1):
                total += 1
                report = verify_elder(n, k)
                if not report.passed:
                    failures.append(report)

    elif identity == "ramanujan_p":
        if family is None:
            raise ValueError("ramanujan_p needs a family (5, 7 or 11)")
        if k_range is not None:
            raise ValueError("ramanujan_p does not take a k range")
        if modulus is not None and modulus != family:
            raise ValueError("ramanujan_p checks mod the family itself")
        desc_parts = [f"family={family}", f"n={n_lo}..{n_hi}"]
        for n in range(n_lo, n_hi + 1):
            total += 1
            report = verify_ramanujan_p(family, n)
            if not report.passed:
                failures.append(report)

    elif identity == "qk_congruence":
        if family is None:
            raise ValueError("qk_congruence needs a family (the part k)")
        if k_range is not None:
            raise ValueError("qk_congruence does not take a k range")
        mod = modulus if modulus is not None else family
        desc_parts = [f"family={family}", f"mod={mod}", f"n={n_lo}..{n_hi}"]
        for n in range(n_lo, n_hi + 1):
            total += 1
            report = verify_qk_congruence(family, mod, n)
            if not report.passed:
                failures.append(report)

    elif identity in _EQUALITY_IDENTITIES:
        verifier, takes_k, oracle_span = _EQUALITY_IDENTITIES[identity]
        if takes_k:
            if k_range is None:
                raise ValueError(f"{identity} needs a k range")
            k_lo, k_hi = _check_range(k_range, "k")
            desc_parts = [f"n={n_lo}..{n_hi}", f"k={k_lo}..{k_hi}"]
        else:
            if k_range is not None:
                raise ValueError(f"{identity} does not take a k range")
            k_lo = k_hi = 1
            desc_parts = [f"n={n_lo}..{n_hi}"]
        if backend == ORACLE and oracle_span(n_hi, k_hi) > limit:
            raise ValueError(
                f"{identity} with the oracle backend needs enumeration up to "
                f"n={oracle_span(n_hi, k_hi)}, beyond the limit of {limit}; "
                "use the closed_form backend"
            )
        if backend != BOTH:
            _check_backend(backend)
        for n in range(n_lo, n_hi + 1):
            for k in range(k_lo, k_hi + 1):
                total += 1
                args = (n, k) if takes_k else (n,)
                if backend == BOTH:
                    instance_backends = [CLOSED_FORM]
                    if oracle_span(n, k) <= limit:
                        instance_backends.append(ORACLE)
                else:
                    instance_backends = [backend]
                for b in instance_backends:
                    report = verifier(*args, backend=b)
                    if not report.passed:
                        failures.append(report)

    else:
        raise ValueError(f"unknown identity {identity!r}; known: {', '.join(IDENTITY_IDS)}")

    return SweepResult(identity, ", ".join(desc_parts), total, failures)
