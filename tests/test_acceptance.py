"""Acceptance suite: one check per criterion, exact equality throughout.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
in failure output).  The higher-power congruence sweep in criterion 8 is
split out because the mod-25 and mod-125 patterns are refuted by the data
(Q_5(24) = 660 = 26*25 + 10); that check asserts the refutation exactly.
"""

import csv
import io
import json
import time

import pytest

from partx import cli, counting, identities, partitions, series


def _report(label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _run_cli(capsys, *argv):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    return code, out, elapsed


def test_criterion_01_table1_reproduction(capsys):
    code, out, elapsed = _run_cli(capsys, "stats", "4")
    lines = out.splitlines()
    listing_at = lines.index("partitions of 4 (5 total):")
    listing = [l.strip() for l in lines[listing_at + 1 :]]
    ok = (
        code == 0
        and "P(4) = 5" in lines
        and "S(4) = 7" in lines
        and "Q_1(4) = 7" in lines
        and listing == ["4", "3+1", "2+2", "2+1+1", "1+1+1+1"]
        and elapsed < 1.0
    )
    _report("criterion 1: stats 4 reproduces the n=4 partition table", ok,
            f"{elapsed:.3f}s")


def test_criterion_02_table2_reproduction(capsys):
    code, out, elapsed = _run_cli(capsys, "table", "4", "--kmax", "4", "--csv")
    rows = list(csv.reader(io.StringIO(out)))
    cell = {}
    for row in rows[1:-1]:
        n = int(row[0])
        for k, value in enumerate(row[1:], start=1):
            if value:
                cell[(k, n)] = int(value)
    sums = [int(v) for v in rows[-1][1:]]
    ok = (
        code == 0
        and cell[(2, 4)] == 3 and cell[(2, 5)] == 4
        and cell[(3, 4)] == 1 and cell[(3, 5)] == 2 and cell[(3, 6)] == 4
        and [cell[(4, n)] for n in (4, 5, 6, 7)] == [1, 1, 2, 3]
        and sums == [7, 7, 7, 7]
        and elapsed < 1.0
    )
    _report("criterion 2: table 4 --kmax 4 reproduces the k=1..4 columns", ok,
            f"{elapsed:.3f}s")


def test_criterion_03_extended_stanley_sweeps():
    start = time.perf_counter()
    closed = identities.sweep("extended_stanley", (1, 60), (1, 20))
    oracle = identities.sweep("extended_stanley", (1, 30), (1, 10),
                              backend=identities.ORACLE)
    elapsed = time.perf_counter() - start
    ok = (
        closed.total_checked == 1200 and closed.ok
        and oracle.total_checked == 300 and oracle.ok
        and elapsed < 60.0
    )
    _report("criterion 3: extended-stanley sweeps (closed 60x20, oracle 30x10)",
            ok, f"{elapsed:.1f}s, failures={len(closed.failures) + len(oracle.failures)}")


def test_criterion_04_lemma_sweeps():
    lemma1 = identities.sweep("lemma1", (1, 40), (1, 15), backend=identities.BOTH)
    lemma2 = identities.sweep("lemma2", (1, 40), (1, 15), backend=identities.BOTH)
    ok = (
        lemma1.total_checked == 600 and lemma1.ok
        and lemma2.total_checked == 600 and lemma2.ok
    )
    _report("criterion 4: lemma1/lemma2 sweeps 40x15 with oracle cross-checks",
            ok, f"failures={len(lemma1.failures) + len(lemma2.failures)}")


def test_criterion_05_results_sweeps():
    result1 = identities.sweep("result1", (1, 200))
    result2 = identities.sweep("result2", (1, 200), (1, 20))
    ok = (
        result1.total_checked == 200 and result1.ok
        and result2.total_checked == 4000 and result2.ok
    )
    _report("criterion 5: result1 (n<=200) and result2 (n<=200, k<=20)", ok,
            f"failures={len(result1.failures) + len(result2.failures)}")


def test_criterion_06_elder():
    checked = 0
    failures = 0
    for n in range(1, 36):
        for k in range(1, n + 1):
            checked += 1
            if not identities.verify("elder", n, k).passed:
                failures += 1
    ok = checked == 630 and failures == 0
    _report("criterion 6: elder_count(n,k) == Q_k(n) for n<=35, k<=n", ok,
            f"checked={checked}, failures={failures}")


def test_criterion_07_ramanujan_congruences():
    start = time.perf_counter()
    sweeps = [
        identities.sweep("ramanujan_p", (0, 999), family=5),    # arguments <= 4999
        identities.sweep("ramanujan_p", (0, 713), family=7),    # <= 4996
        identities.sweep("ramanujan_p", (0, 454), family=11),   # <= 5000
    ]
    elapsed = time.perf_counter() - start
    failures = sum(len(s.failures) for s in sweeps)
    totals = [s.total_checked for s in sweeps]
    ok = failures == 0 and totals == [1000, 714, 455] and elapsed < 30.0
    _report("criterion 7: P congruences mod 5/7/11, arguments <= 5000", ok,
            f"{elapsed:.1f}s, failures={failures}")


def test_criterion_08_qk_congruences():
    sweeps = [
        identities.sweep("qk_congruence", (0, 599), family=5),   # arguments <= 2999
        identities.sweep("qk_congruence", (0, 427), family=7),   # <= 2994
        identities.sweep("qk_congruence", (0, 272), family=11),  # <= 2998
    ]
    failures = sum(len(s.failures) for s in sweeps)
    totals = [s.total_checked for s in sweeps]
    ok = failures == 0 and totals == [600, 428, 273]
    _report("criterion 8 (mod 5/7/11): Q_k congruences, arguments <= 3000", ok,
            f"failures={failures}")


def test_criterion_08_qk_congruences_higher_power():
    # Asserts the sweep's failures are exactly the nonzero residues of the series route.
    mod25 = identities.sweep("qk_congruence", (0, 119), family=5, modulus=25)
    mod125 = identities.sweep("qk_congruence", (0, 23), family=5, modulus=125)
    gk = series.qk_generating_function(5, 2999, modulus=125)
    expected25 = [(n, gk[25 * n + 24] % 25) for n in range(120) if gk[25 * n + 24] % 25]
    expected125 = [(n, gk[125 * n + 99]) for n in range(24) if gk[125 * n + 99]]
    reported25 = [(f.params["n"], f.lhs) for f in mod25.failures]
    reported125 = [(f.params["n"], f.lhs) for f in mod125.failures]
    q24 = sum(part.count(5) for part in partitions.enumerate_partitions(24))
    q49 = partitions.oracle_stats(49).occurrences(5)
    q99 = series.qk_generating_function(5, 99)[99]
    ok = (
        mod25.total_checked == 120 and mod125.total_checked == 24
        and reported25 == expected25 and reported125 == expected125
        and len(expected25) == 96 and len(expected125) == 24
        and q24 == 660 and q49 == 125470 and q99 == 196960400
        and gk[24] == q24 % 125 and gk[49] == q49 % 125 and gk[99] == q99 % 125
    )
    _report("criterion 8 (higher powers): Q_5 mod 25 and mod 125 refuted as documented, "
            "arguments <= 3000",
            ok, f"failures={len(reported25) + len(reported125)} of "
                f"{mod25.total_checked + mod125.total_checked}")


def test_criterion_09_series_agreement():
    trunc = 200
    f = series.euler_inverse_product(trunc)
    ok = all(f[m] == counting.partition_count(m) for m in range(trunc + 1))
    for k in (1, 2, 3, 4, 5, 7, 11):
        gk = series.qk_generating_function(k, trunc)
        ok = ok and all(gk[m] == counting.occurrence_count(k, m) for m in range(trunc + 1))
    ds = series.double_sum_expansion(300)
    ok = ok and ds.coeffs == (0,) + series.euler_product_pow(4, 300).coeffs[:-1]
    ok = ok and all(ds[m] % 5 == 0 for m in range(5, 301, 5))
    ok = ok and all(series.freshman_dream_check(m, 200) for m in (5, 7, 11))
    _report("criterion 9: series coefficients agree with the closed forms", ok)


def test_criterion_10_difference_identity():
    result = identities.sweep("difference_identity", (0, 100))
    ok = result.total_checked == 101 and result.ok
    _report("criterion 10: P(5n+4) == Q_5(5n+9) - Q_5(5n+4) for n<=100", ok,
            f"failures={len(result.failures)}")


def test_criterion_11_performance_and_cache(tmp_path):
    start = time.perf_counter()
    table = counting.CountTable().extend(10_000)
    elapsed = time.perf_counter() - start
    path = tmp_path / "p10k.txt"
    counting.save_table(table, path)
    first = path.read_text()
    loaded = counting.load_table(path)
    again = tmp_path / "p10k-2.txt"
    counting.save_table(loaded, again)
    ok = (
        elapsed < 10.0
        and loaded.values == table.values
        and again.read_text() == first
    )
    _report("criterion 11: P table to 10^4 and bit-exact cache round-trip", ok,
            f"build {elapsed:.2f}s")
