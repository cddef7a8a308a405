"""Seeded op lists for the three benchmark workloads, with their expected outputs.

An op is one ``partx`` command line plus a check of what the finished
process printed.  Every expected value comes from :mod:`reference`, never
from partx.  A workload builds one *pass* (its whole op list) from a
``random.Random`` seeded by (workload, seed, pass index), so the same seed
always gives the same argv lists.

The seed picks identities, ranges, offsets, families, moduli and the op
order; it never picks an op's size class.  Offsets move each op by a few
percent at most, so any seed gives comparable work.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import reference

# --------------------------------------------------------------------------
# ops and checks


@dataclass
class Result:
    """What one finished op process left behind."""

    returncode: int
    stdout: str
    stderr: str = ""
    workdir: str = ""


@dataclass
class Op:
    argv: list[str]
    kind: str  # "verify", "series", "query", "grow", "build" or "check"
    check: Callable[[Result], str | None]
    expect_rc: int = 0
    checks: int = 0  # identity instances or cache entries this op checks
    slot: int = 0  # position in the unshuffled pass; the same size class in every pass


def check_op(op: Op, result: Result) -> str | None:
    """None when the op did exactly what was expected, else the reason."""
    if result.returncode != op.expect_rc:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {result.returncode}, expected {op.expect_rc} {tail[0]}"
    try:
        return op.check(result)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {exc!r}"


def _json(result: Result):
    return json.loads(result.stdout)


def expect_verify(identity: str, total: int, failures: list[dict] | None = None):
    """A ``verify --json`` report with this total and exactly these failures.

    Failures are compared on identity, params, lhs, rhs and passed; other
    keys (such as the backend label) are not part of the expectation.
    """
    failures = failures or []

    def check(result: Result) -> str | None:
        report = _json(result)
        if report["identity"] != identity:
            return f"identity {report['identity']!r}, expected {identity!r}"
        if report["total"] != total:
            return f"{identity}: total {report['total']}, expected {total}"
        got = [{key: f[key] for key in ("identity", "params", "lhs", "rhs", "passed")}
               for f in report["failures"]]
        if got != failures:
            return f"{identity}: {len(got)} failures, expected {len(failures)} (or different ones)"
        return None

    return check


def expect_count(value: int, as_json: bool):
    def check(result: Result) -> str | None:
        got = _json(result)["partition_count"] if as_json else int(result.stdout.strip())
        return None if got == value else f"count printed {got}, expected {value}"

    return check


def expect_stats(p: int, s: int, occurrences: dict[str, int]):
    def check(result: Result) -> str | None:
        doc = _json(result)
        got = (doc["partition_count"], doc["distinct_member_total"], doc["occurrence_counts"])
        return None if got == (p, s, occurrences) else "stats values differ from the reference"

    return check


def expect_table(s: int, columns: list[dict]):
    def check(result: Result) -> str | None:
        doc = _json(result)
        if doc["distinct_member_total"] != s:
            return "table S(n) differs from the reference"
        got = [{key: c[key] for key in ("k", "values", "sum")} for c in doc["columns"]]
        return None if got == columns else "table columns differ from the reference"

    return check


def expect_text(text: str):
    def check(result: Result) -> str | None:
        if result.stdout == text:
            return None
        return f"output differs from the reference ({len(result.stdout)} vs {len(text)} chars)"

    return check


_ENTRY = re.compile(r"^(\d+),(\d+)$")


def expect_cache_file(name: str, p: list[int]):
    """The table file in the op's working dir holds exactly P(0..len(p)-1).

    Lines that are not ``n,value`` entries (header, any trailer) are
    ignored, so a later file-format version still passes.
    """

    def check(result: Result) -> str | None:
        with open(f"{result.workdir}/{name}", encoding="ascii") as fh:
            entries = [m.groups() for m in map(_ENTRY.match, fh.read().splitlines()) if m]
        if len(entries) != len(p):
            return f"cache file has {len(entries)} entries, expected {len(p)}"
        for n, (n_str, v_str) in enumerate(entries):
            if int(n_str) != n or int(v_str) != p[n]:
                return f"cache file entry {n} is wrong"
        return None

    return check


def expect_rc_only(result: Result) -> str | None:
    return None


# --------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    build: Callable  # (rng, size, refs) -> list[Op]
    sizes: dict  # "full" / "tiny" -> size parameters
    refs: Callable  # size -> reference tables for this workload
    _ref_cache: dict = field(default_factory=dict)

    def ops(self, seed: int, pass_index: int, tiny: bool = False) -> list[Op]:
        key = "tiny" if tiny else "full"
        size = self.sizes[key]
        if key not in self._ref_cache:
            self._ref_cache[key] = self.refs(size)
        rng = random.Random(f"{self.name}:{seed}:{pass_index}")
        return self.build(rng, size, self._ref_cache[key])


def _range(lo: int, hi: int) -> str:
    return f"{lo}..{hi}"


def _numbered(ops: list[Op]) -> list[Op]:
    for slot, op in enumerate(ops):
        op.slot = slot
    return ops


# oracle-sweep -------------------------------------------------------------
#
# Each slot is (S, K): the op enumerates every n up to S (its size class)
# and checks (S-K-4)*K instances.  The seed picks the identity; the n range
# is placed so that S is the largest argument the oracle needs.

ORACLE_IDENTITIES = {
    # cli name -> (report name, largest oracle argument minus n_hi, given k_hi)
    "extended-stanley": ("extended_stanley", lambda k: k - 1),
    "lemma1": ("lemma1", lambda k: k),
    "lemma2": ("lemma2", lambda k: k),
    "result2": ("result2", lambda k: 0),
    "elder": ("elder", lambda k: 0),
}


def _oracle_ops(rng: random.Random, size: dict, refs) -> list[Op]:
    ops = []
    for span, k in size["slots"]:
        name = rng.choice(sorted(ORACLE_IDENTITIES))
        report, reach = ORACLE_IDENTITIES[name]
        n_hi = span - reach(k)
        n_lo = n_hi - (span - k - 4) + 1
        argv = ["verify", name, "--n", _range(n_lo, n_hi), "--k", _range(1, k), "--json"]
        if name != "elder":
            argv[-1:-1] = ["--backend", "both"]
        total = (n_hi - n_lo + 1) * k
        ops.append(Op(argv, "verify", expect_verify(report, total), checks=total))
    rng.shuffle(_numbered(ops))
    return ops


ORACLE_SWEEP = Workload(
    name="oracle-sweep",
    build=_oracle_ops,
    sizes={
        # Sizes come in groups, so that the p50 and p75 of any number of
        # passes fall inside a group (30 and 34) rather than between two sizes.
        "full": {"slots": [(20, 4), (20, 5), (22, 4), (22, 6), (24, 5), (24, 4), (26, 6),
                           (26, 5), (30, 4), (30, 5), (30, 6), (30, 5), (30, 4),
                           (34, 4), (34, 5), (34, 6), (34, 5), (38, 5), (40, 5), (42, 6)]},
        "tiny": {"slots": [(14, 3), (12, 2), (10, 2)]},
    },
    refs=lambda size: None,
)


# exact-table --------------------------------------------------------------
#
# One sequence of commands against one table file: build it, query inside it, grow it
# in fixed steps (so every seed loads and saves files of the same sizes),
# then recompute it twice.  The seed picks each query's n, the output format
# of count, and the order of the last two ops.

TABLE_FILE = "p.txt"


def _exact_refs(size: dict):
    top = size["grow"][-1] + 16
    p = reference.partition_numbers(top)
    return {
        "p": p,
        "s": reference.prefix_sums(p),
        "q": {k: reference.class_sums(p, k) for k in range(1, size["kmax"] + 1)},
    }


def _query(rng: random.Random, refs, command: str, n: int, kmax: int) -> Op:
    """One --cache query of n (``table n`` needs P only up to n - 1)."""
    p, s, q = refs["p"], refs["s"], refs["q"]
    cache = ["--cache", TABLE_FILE]
    if command == "count":
        as_json = rng.random() < 0.5
        argv = ["count", str(n)] + (["--json"] if as_json else []) + cache
        return Op(argv, "query", expect_count(p[n], as_json))
    if command == "stats":
        argv = ["stats", str(n), "--kmax", str(kmax), "--json"] + cache
        occ = {str(k): q[k][n] for k in range(1, kmax + 1)}
        return Op(argv, "query", expect_stats(p[n], s[n], occ))
    argv = ["table", str(n), "--kmax", str(kmax), "--json"] + cache
    columns = []
    for k in range(1, kmax + 1):
        values = [q[k][n + i] for i in range(k)]
        columns.append({"k": k, "values": values, "sum": sum(values)})
    return Op(argv, "query", expect_table(s[n], columns))


def _exact_ops(rng: random.Random, size: dict, refs) -> list[Op]:
    commands = ("count", "stats", "table")
    high = size["build"]
    ops = [Op(["cache", "build", "--max", str(high), "--cache", TABLE_FILE], "build",
              expect_rc_only)]
    for phase, target in enumerate(size["grow"] + [None]):
        # One query of each command per phase, in a fixed order and in the top
        # tenth of the table, keeps each slot's command and cost the same for
        # every seed.
        for command in commands:
            n = rng.randint(high - high // 10, high - 1)
            ops.append(_query(rng, refs, command, n, size["kmax"]))
        if target is None:
            break
        # Growing to the target: Q_k(m) reads P only up to m - k, so the
        # widest column of ``table n`` needs P(n-1).
        command = commands[phase % len(commands)]
        op = _query(rng, refs, command, target + (command == "table"), size["kmax"])
        op.kind = "grow"
        ops.append(op)
        high = target
    entries = high + 1
    n = rng.randint(high // 2, high)
    recheck = Op(["count", str(n), "--cache", TABLE_FILE, "--verify-cache"], "check",
                 expect_count(refs["p"][n], False), checks=entries)
    full_check = Op(["cache", "check", "--cache", TABLE_FILE], "check",
                    expect_cache_file(TABLE_FILE, refs["p"][:entries]), checks=entries)
    ops = _numbered(ops + [recheck, full_check])
    if rng.random() < 0.5:
        ops[-2], ops[-1] = ops[-1], ops[-2]
    return ops


EXACT_TABLE = Workload(
    name="exact-table",
    build=_exact_ops,
    sizes={
        "full": {"build": 12000, "grow": [13500, 15000, 16500, 18000], "kmax": 6},
        "tiny": {"build": 300, "grow": [350, 400], "kmax": 4},
    },
    refs=_exact_refs,
)


# closed-sweep -------------------------------------------------------------
#
# Every pass runs each closed-form identity once, the three Ramanujan
# families, the three Q_k analogues high up, the known-red mod-25 sweep
# from n=0, and six series dumps.  The seed jitters each window by at most
# 2.5% of its position and picks moduli, the gk part and the order.

EQUALITY_WINDOWS = {
    # cli name -> (report name, base n_lo, window length, k_hi or None)
    "extended-stanley": ("extended_stanley", 1950, 15, 10),
    "lemma1": ("lemma1", 2900, 40, 10),
    "lemma2": ("lemma2", 1, 4000, 10),
    "result1": ("result1", 2950, 80, None),
    "result2": ("result2", 1950, 40, 8),
    "difference-identity": ("difference_identity", 0, 800, None),
    "stanley": ("stanley", 2950, 100, None),
}
RAMANUJAN = {5: 4, 7: 5, 11: 6}  # family -> offset: P(f*n + offset) = 0 mod f
QK_STEP = {5: (5, 4), 7: (7, 5), 11: (11, 6)}  # family -> (step, offset), mod family
SERIES_MODULI = (5, 7, 11)


def _closed_refs(size: dict):
    red_top = 25 * (size["red_n"] + size["red_n"] // 40) + 24
    series_top = size["trunc"] + size["trunc"] // 100
    p = reference.partition_numbers(max(red_top, series_top))
    return {
        "p": p[: series_top + 1],
        "q5_mod25": reference.class_sums(p[: red_top + 1], 5, 25),
        "q": {k: reference.class_sums(p[: series_top + 1], k) for k in SERIES_MODULI},
        "e4": reference.euler_power(4, series_top),
    }


def _jitter(rng: random.Random, base: int, share: int = 40) -> int:
    """base plus up to base/share: a few percent of work at most."""
    return base + rng.randrange(base // share + 1)


def _closed_ops(rng: random.Random, size: dict, refs) -> list[Op]:
    scale = size["scale"]
    ops = []
    for name, (report, base, width, k_hi) in EQUALITY_WINDOWS.items():
        n_lo = max(_jitter(rng, int(base * scale)), 0 if name == "difference-identity" else 1)
        n_hi = n_lo + max(1, int(width * scale ** 0.5)) - 1
        argv = ["verify", name, "--n", _range(n_lo, n_hi)]
        total = n_hi - n_lo + 1
        if k_hi:
            argv += ["--k", _range(1, k_hi)]
            total *= k_hi
        ops.append(Op(argv + ["--json"], "verify", expect_verify(report, total), checks=total))

    for family, offset in RAMANUJAN.items():
        top = _jitter(rng, size["ramanujan_arg"])
        n_hi = (top - offset) // family
        n_lo = rng.randrange(n_hi // 50 + 1)
        argv = ["verify", "ramanujan-p", "--family", str(family), "--n", _range(n_lo, n_hi),
                "--json"]
        total = n_hi - n_lo + 1
        ops.append(Op(argv, "verify", expect_verify("ramanujan_p", total), checks=total))

    for family, (step, offset) in QK_STEP.items():
        top = _jitter(rng, size["qk_arg"])
        n_hi = (top - offset) // step
        n_lo = n_hi - size["qk_width"] + 1
        argv = ["verify", "qk-congruence", "--family", str(family), "--n", _range(n_lo, n_hi),
                "--json"]
        total = n_hi - n_lo + 1
        ops.append(Op(argv, "verify", expect_verify("qk_congruence", total), checks=total))

    # Q_5(25n+24) = 0 (mod 25) is false; the sweep must fail with exactly
    # the residues the reference gives, and exit 1.
    red_hi = _jitter(rng, size["red_n"])
    residues = refs["q5_mod25"]
    failures = [
        {"identity": "qk_congruence",
         "params": {"k": 5, "modulus": 25, "n": n, "argument": 25 * n + 24},
         "lhs": residues[25 * n + 24], "rhs": residues[25 * n + 24], "passed": False}
        for n in range(red_hi + 1) if residues[25 * n + 24]
    ]
    argv = ["verify", "qk-congruence", "--family", "5", "--mod", "25", "--n", _range(0, red_hi),
            "--json"]
    ops.append(Op(argv, "verify", expect_verify("qk_congruence", red_hi + 1, failures),
                  expect_rc=1, checks=red_hi + 1))

    p, e4 = refs["p"], refs["e4"]
    for kind in ("f", "f-mod", "gk", "euler4", "euler4-mod", "double-sum"):
        trunc = _jitter(rng, size["trunc"], share=100)
        modulus = rng.choice(SERIES_MODULI) if kind.endswith("-mod") else None
        argv = ["series", kind.removesuffix("-mod"), "--trunc", str(trunc)]
        if kind.startswith("f"):
            coeffs = p[: trunc + 1]
        elif kind == "gk":
            k = rng.choice(SERIES_MODULI)
            argv += ["--k", str(k)]
            coeffs = refs["q"][k][: trunc + 1]
        elif kind.startswith("euler4"):
            coeffs = e4[: trunc + 1]
        else:
            coeffs = [0] + e4[:trunc]
        if modulus:
            argv += ["--mod", str(modulus)]
        ops.append(Op(argv, "series", expect_text(reference.series_dump(coeffs, modulus))))
    rng.shuffle(_numbered(ops))
    return ops


CLOSED_SWEEP = Workload(
    name="closed-sweep",
    build=_closed_ops,
    sizes={
        "full": {"scale": 1.0, "ramanujan_arg": 20000, "qk_arg": 12000, "qk_width": 150,
                 "red_n": 290, "trunc": 2475},
        "tiny": {"scale": 0.02, "ramanujan_arg": 400, "qk_arg": 300, "qk_width": 10,
                 "red_n": 6, "trunc": 40},
    },
    refs=_closed_refs,
)


WORKLOADS = {w.name: w for w in (ORACLE_SWEEP, EXACT_TABLE, CLOSED_SWEEP)}
