"""Command-line front end for the partition statistics toolkit.

Commands: count, stats, table, verify, series, cache.  Output is text by
default; --json and --csv switch to machine formats with the same numbers,
and ``_report`` alone prints all three.  ``_cached`` loads, checks and saves
the --cache table for count, stats and table.  ``main`` is the one entry
point and maps every outcome to an exit code: 0 success, 1 when a
verification or consistency check failed (a cache that --verify-cache
finds wrong included), 2 on usage or input errors (an argument too large
to index included), 141 when stdout was closed early.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from importlib import import_module

from . import counting
from .counting import CountTable, TableFormatError

PARTITION_LIST_AUTO_MAX = 12


def _module(name: str):
    """The submodule ``name`` as this module's globals hold it, imported on first use.

    identities, partitions and series serve only some commands, and
    importing them would cost every other command start-up time.  A
    replacement put in the globals beforehand (a tracing proxy, say) is the
    one returned.
    """
    module = globals().get(name)
    if module is None:
        module = globals()[name] = import_module(f".{name}", __package__)
    return module


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            bounds = (int(lo), int(hi))
        else:
            bounds = (int(text), int(text))
    except ValueError:
        raise ValueError(f"{flag} expects 'A' or 'A..B', got {text!r}") from None
    return bounds


# json and csv are imported on use: most runs print neither, and imports slow start-up.
def _report(args, payload: dict, rows: list[list], lines: Iterable) -> None:
    """Print ``payload`` under --json, ``rows`` under --csv, and ``lines`` otherwise.

    ``lines`` may be a generator: it is read only for text output, and whole
    before anything is printed.
    """
    if args.json:
        import json
        print(json.dumps(payload, indent=2))
    elif args.csv:
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        print(*lines, sep="\n")


def _check_cache_dir(path: str) -> None:
    # Before any work: a table that cannot be saved must not print an answer first.
    if not path:
        raise ValueError("--cache needs a file path, got an empty one")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"cache {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ValueError(f"cache {path}: is a directory")


def _cached(command):
    """Run ``command(args, table)`` on the table behind --cache (None without it).

    The n >= 1 and --kmax >= 1 rules of stats and table are checked before
    the file is read; a table that --verify-cache finds wrong ends the
    command with exit 1; the file is written only when it is new or grew.
    """

    def run(args) -> int:
        if args.command != "count":
            if args.n < 1:
                raise ValueError(f"{args.command} needs n >= 1, got n={args.n}")
            if args.kmax is not None and args.kmax < 1:  # stats' default kmax is n
                raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
        if args.verify_cache and args.cache is None:
            raise ValueError("--verify-cache requires --cache")
        if args.cache is None:
            return command(args, None)
        _check_cache_dir(args.cache)
        exists = os.path.exists(args.cache)
        table = counting.load_table(args.cache) if exists else CountTable()
        stored = len(table) if exists else 0
        bad = counting.consistency_check(table) if args.verify_cache else []
        if bad:
            print(f"partx: cache {args.cache}: {len(bad)} of {len(table)} entries disagree "
                  f"with the recurrence (first at n={bad[0]})", file=sys.stderr)
            raise SystemExit(1)
        code = command(args, table)
        if len(table) > stored:
            counting.save_table(table, args.cache)
        return code

    return run


@_cached
def _cmd_count(args, table: CountTable | None) -> int:
    value = counting.partition_count(args.n, table)
    _report(args, {"command": "count", "n": args.n, "partition_count": value},
            [["n", "partition_count"], [args.n, value]], [value])
    return 0


def _stats_lines(args, p: int, rows: list[list]) -> Iterator[str]:
    # A generator, so that only text output builds the partition listing.
    n = args.n
    yield f"n = {n}"
    yield from (f"{label} = {value}" for label, value in rows)
    if n <= PARTITION_LIST_AUTO_MAX if args.partitions is None else args.partitions:
        yield f"partitions of {n} ({p} total):"
        for parts in _module("partitions").enumerate_partitions(n):
            yield "  " + "+".join(map(str, parts))


@_cached
def _cmd_stats(args, table: CountTable | None) -> int:
    n = args.n
    kmax = args.kmax if args.kmax is not None else n
    p = counting.partition_count(n, table)
    s = counting.distinct_members(n, table)
    occurrences = {k: counting.occurrence_count(k, n, table) for k in range(1, kmax + 1)}
    rows = [[f"P({n})", p], [f"S({n})", s]] + [[f"Q_{k}({n})", v] for k, v in occurrences.items()]
    payload = {"command": "stats", "n": n, "partition_count": p, "distinct_member_total": s,
               "occurrence_counts": {str(k): v for k, v in occurrences.items()}}
    _report(args, payload, [["stat", "value"]] + rows, _stats_lines(args, p, rows))
    return 0


@_cached
def _cmd_table(args, table: CountTable | None) -> int:
    n, kmax = args.n, args.kmax
    s = counting.distinct_members(n, table)
    columns = []
    for k in range(1, kmax + 1):
        values = [counting.occurrence_count(k, n + i, table) for i in range(k)]
        columns.append({"k": k, "values": values, "sum": sum(values)})
    # Row i holds Q_k(n + i); a column k ends after k rows, blank in CSV and "." in text.
    grid = [[n + i] + [c["values"][i] if i < c["k"] else "" for c in columns] for i in range(kmax)]
    grid.append(["total"] + [c["sum"] for c in columns])
    cells = [["n\\k"] + [str(c["k"]) for c in columns]]
    cells += [[str(v) or "." for v in r] for r in grid]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = [f"occurrence table for n={n}, k=1..{kmax} (every column sums to S({n})={s})"]
    lines += ["  ".join(val.rjust(w) for val, w in zip(row, widths)) for row in cells]
    payload = {"command": "table", "n": n, "kmax": kmax, "distinct_member_total": s,
               "columns": columns}
    _report(args, payload, [["n"] + [f"k={c['k']}" for c in columns]] + grid, lines)
    return 0


def _format_params(params: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in params.items())


def _cmd_verify(args) -> int:
    identities = _module("identities")
    names = [name.replace("_", "-") for name in identities.SPECS]
    if args.identity not in names:
        raise ValueError(f"unknown identity {args.identity!r} (choose from {', '.join(names)})")
    n_range = _parse_range(args.n, "--n")
    k_range = None if args.k is None else _parse_range(args.k, "--k")

    backend = identities.CLOSED_FORM if args.backend == "closed" else args.backend
    try:
        result = identities.sweep(args.identity.replace("-", "_"), n_range, k_range, backend,
                                  family=args.family, modulus=args.mod)
    except ValueError as exc:  # the oracle-reach error: name the flag that takes the closed form
        if str(exc).endswith("; use the closed form"):
            raise ValueError(f"{exc} (--backend closed)") from None
        raise

    failures = result.failures
    rows = [
        ["identity", "range", "total", "failures"],
        [result.identity, result.range_description, result.total_checked, len(failures)],
    ]
    if failures:
        rows.append(["identity", "params", "lhs", "rhs", "backend"])
        rows += [[f.identity, _format_params(f.params), f.lhs, f.rhs, f.backend] for f in failures]
    lines = [f"identity: {result.identity}", f"range: {result.range_description}",
             f"backend: {result.backend}", f"checked: {result.total_checked}",
             f"failures: {len(failures)}"]
    lines += [f"  FAIL {_format_params(f.params)} lhs={f.lhs} rhs={f.rhs} backend={f.backend}"
              for f in failures]
    lines.append("PASS" if result.ok else "FAIL")
    _report(args, result.as_dict(), rows, lines)
    return 0 if result.ok else 1


def _cmd_series(args) -> int:
    kind = args.kind
    if kind == "gk" and args.k is None:
        raise ValueError("series gk needs --k")
    if kind != "gk" and args.k is not None:
        raise ValueError(f"series {kind} does not take --k")
    if kind == "double-sum" and args.mod is not None:
        raise ValueError("series double-sum is integer-only; --mod is not supported")
    series = _module("series")
    if kind == "f":
        result = series.euler_inverse_product(args.trunc, args.mod)
    elif kind == "gk":
        result = series.qk_generating_function(args.k, args.trunc, args.mod)
    elif kind == "euler4":
        result = series.euler_product_pow(4, args.trunc, args.mod)
    else:  # double-sum
        result = series.double_sum_expansion(args.trunc)
    sys.stdout.write(series.format_series(result))
    return 0


def _cmd_cache(args) -> int:
    if args.action == "build":
        if args.max is None:
            raise ValueError("cache build needs --max")
        if args.max < 0:
            raise ValueError(f"--max must be nonnegative, got {args.max}")
        _check_cache_dir(args.cache)
        table = CountTable().extend(args.max)
        counting.save_table(table, args.cache)
        print(f"saved P(0..{table.max_n}) to {args.cache}")
        return 0
    # check
    if args.max is not None:
        raise ValueError("cache check does not take --max")
    _check_cache_dir(args.cache)
    if not os.path.exists(args.cache):
        raise ValueError(f"cache {args.cache}: no such file")
    table = counting.load_table(args.cache)
    bad = counting.consistency_check(table)
    if bad:
        for n in bad:  # the check grew the module table, so this reads its entries
            print(f"mismatch at n={n}: stored {table[n]}, recomputed "
                  f"{counting.partition_count(n)}")
        print(f"FAIL: {len(bad)} of {table.max_n + 1} entries are wrong")
        return 1
    print(f"ok: {table.max_n + 1} entries match the recurrence")
    return 0


def _add_format_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    group.add_argument("--csv", action="store_true", help="emit CSV")


def _add_cache_flags(sub) -> None:
    sub.add_argument("--cache", metavar="PATH", help="partition-table file to load and update")
    sub.add_argument(
        "--verify-cache",
        action="store_true",
        help="recompute the loaded cache entries and fail on any mismatch",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partx",
        description="Exact partition statistics: counts, identity sweeps, series dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print P(n)")
    p_count.add_argument("n", type=int)
    _add_format_flags(p_count)
    _add_cache_flags(p_count)
    p_count.set_defaults(handler=_cmd_count)

    p_stats = sub.add_parser("stats", help="print P, S and Q_k for one n")
    p_stats.add_argument("n", type=int)
    p_stats.add_argument("--kmax", type=int, help="largest k to report (default: n)")
    p_stats.add_argument(
        "--partitions",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="list the partitions in the text output "
        f"(default: only for n <= {PARTITION_LIST_AUTO_MAX}; ignored by --json and --csv)",
    )
    _add_format_flags(p_stats)
    _add_cache_flags(p_stats)
    p_stats.set_defaults(handler=_cmd_stats)

    p_table = sub.add_parser("table", help="Q_k(n..n+k-1) columns with their sums")
    p_table.add_argument("n", type=int)
    p_table.add_argument("--kmax", type=int, required=True)
    _add_format_flags(p_table)
    _add_cache_flags(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="sweep one identity over a range")
    # Checked by _cmd_verify against identities.SPECS, which only verify imports.
    p_verify.add_argument("identity", help="the identity to sweep, such as stanley")
    p_verify.add_argument(
        "--n", metavar="A..B", required=True, help="inclusive n range (or a single value)"
    )
    p_verify.add_argument("--k", metavar="A..B", help="inclusive k range (or a single value)")
    p_verify.add_argument("--family", type=int, help="congruence family (5, 7 or 11)")
    p_verify.add_argument("--mod", type=int, help="modulus for qk-congruence (default: family)")
    p_verify.add_argument("--backend", choices=["both", "closed", "oracle"])
    _add_format_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_series = sub.add_parser("series", help="dump a generating series")
    p_series.add_argument("kind", choices=["f", "gk", "euler4", "double-sum"])
    p_series.add_argument("--trunc", type=int, required=True)
    p_series.add_argument("--k", type=int, help="part value for gk")
    p_series.add_argument("--mod", type=int, help="compute in the integers mod M")
    p_series.set_defaults(handler=_cmd_series)

    p_cache = sub.add_parser("cache", help="build or check a partition-table file")
    p_cache.add_argument("action", choices=["build", "check"])
    p_cache.add_argument("--cache", metavar="PATH", required=True)
    p_cache.add_argument("--max", type=int, help="largest n to compute (build only)")
    p_cache.set_defaults(handler=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse argv (default: sys.argv[1:]), dispatch, and return the exit code.

    Never raises SystemExit: every exit, argparse's included, becomes its code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a range such as "-1..2" for a flag, but "--n=-1..2" for a value.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--n", "--k") and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        try:
            args = _build_parser().parse_args(argv)
            code = args.handler(args)
        except SystemExit as exc:  # usage errors, --help, and a cache --verify-cache refused
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()  # so that a closed stdout fails here
        return code
    except BrokenPipeError:  # the reader went away: exit as a shell reports SIGPIPE, quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the interpreter's last flush lands here
        os.close(devnull)
        return 141
    except TableFormatError as exc:
        print(f"partx: cache error: {exc}", file=sys.stderr)
        return 2
    except (OSError, OverflowError, ValueError) as exc:
        print(f"partx: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
