import os
import sys
import threading
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partx import counting, identities, partitions
from partx.counting import (
    CountTable,
    ModCountTable,
    TableFormatError,
    consistency_check,
    count_containing,
    distinct_members,
    load_table,
    occurrence_count,
    occurrence_count_mod,
    partition_count,
    partition_count_mod,
    partition_sum,
    save_table,
)

# frozen from the enumeration oracle (asserted below in test_oracle_equivalence)
P_PREFIX = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_count_basics():
    assert partition_count(4) == 5
    assert partition_count(-3) == 0
    assert partition_count(0) == 1
    assert partition_count(10) == 42
    assert [partition_count(n) for n in range(11)] == P_PREFIX


def test_partition_count_against_enumeration():
    for n in range(1, 31):
        assert partition_count(n) == sum(1 for _ in partitions.enumerate_partitions(n))


def test_partition_count_classical_anchor():
    assert partition_count(100) == 190569292
    assert partition_count(200) == 3972999029388
    assert partition_count(1000) == 24061467864032622473692149727991


def test_count_containing():
    assert count_containing(1, 5) == 5
    assert count_containing(7, 3) == 0
    # brute force: partitions of 6 with at least one part 2
    direct = sum(1 for p in partitions.enumerate_partitions(6) if 2 in p)
    assert count_containing(2, 6) == direct == 5
    with pytest.raises(ValueError):
        count_containing(0, 5)


@pytest.mark.parametrize("k", [0, -1])
def test_oracle_rejects_nonpositive_k_like_closed_form(k):
    message = f"^k must be a positive integer, got k={k}$"
    stats = partitions.oracle_stats(5)
    for call in (lambda: occurrence_count(k, 5), lambda: count_containing(k, 5),
                 lambda: stats.occurrences(k), lambda: stats.containing(k)):
        with pytest.raises(ValueError, match=message):
            call()


def test_occurrence_count():
    assert occurrence_count(3, 6) == 4
    assert occurrence_count(5, 4) == 0
    direct = sum(p.count(2) for p in partitions.enumerate_partitions(11))
    assert occurrence_count(2, 11) == direct
    with pytest.raises(ValueError):
        occurrence_count(-1, 4)


def test_distinct_members():
    assert distinct_members(4) == 7
    assert distinct_members(1) == 1
    assert distinct_members(5) == 12  # 1+1+2+3+5
    assert distinct_members(0) == 0
    assert distinct_members(-2) == 0


def test_oracle_equivalence():
    # The closed-form and oracle routes of ``verify``, each built by its
    # builder over Z, agree on every statistic up to the oracle cap; the sums
    # of P start at P(0) = 1.
    cap = partitions.DEFAULT_ENUMERATION_LIMIT
    closed = identities._ROUTES[identities.CLOSED_FORM](cap, None)
    oracle = identities._ROUTES[identities.ORACLE](cap, None)
    assert identities.Route._fields == ("p", "p_sum", "s", "q", "r")
    assert closed.p(0) == oracle.p(0) == 1
    for n in range(1, cap + 1):
        assert closed.p(n) == oracle.p(n), n
        assert closed.s(n) == oracle.s(n), n
        for k in range(1, n + 2):
            assert closed.q(k, n) == oracle.q(k, n), (n, k)
            assert closed.r(k, n) == oracle.r(k, n), (n, k)
            assert closed.p_sum(range(0, n, k)) == oracle.p_sum(range(0, n, k)), (n, k)


def test_occurrence_recurrence_property():
    # Q_k(n+k) = Q_k(n) + R_k(n+k) holds for the closed forms
    for n in range(1, 51):
        for k in range(1, 13):
            assert occurrence_count(k, n + k) == occurrence_count(k, n) + count_containing(k, n + k)


def test_distinct_members_telescopes():
    for n in range(1, 201):
        assert distinct_members(n + 1) - distinct_members(n) == partition_count(n)


@pytest.mark.parametrize("modulus", [5, 7, 11, 25, 125])
def test_modular_consistency(modulus, monkeypatch):
    for n in range(501):
        assert partition_count_mod(n, modulus) == partition_count(n) % modulus
    # Two fresh tables grown in uneven, interleaved steps to different
    # heights, starting from empty shared pentagonal offsets.
    monkeypatch.setattr(counting, "_PLUS", [])
    monkeypatch.setattr(counting, "_MINUS", [])
    tall, short = counting.ModCountTable(modulus), counting.ModCountTable(modulus)
    steps = [1, 2, 5, 13, 34, 89, 233]
    tall_top = short_top = 0
    for i in range(200):
        tall_top = min(5000, tall_top + steps[i % 7])
        short_top = min(3001, short_top + steps[(i + 3) % 7])
        tall.extend(tall_top)
        short.extend(short_top)
    assert (tall.max_n, short.max_n) == (5000, 3001)
    expected = [partition_count(n) % modulus for n in range(5001)]
    assert [tall[n] for n in range(5001)] == expected
    assert [short[n] for n in range(3002)] == expected[:3002]


# Arguments for the slice-sum checks: every n up to 60, then a spread to 400.
SLICE_NS = list(range(61)) + list(range(61, 400, 13)) + [400]


def per_term(p, n, k):
    """Q_k(n) as the sum of p[n - j*k] over j >= 1."""
    return sum(p[n - j * k] for j in range(1, n // k + 1))


@pytest.mark.parametrize("explicit", [False, True])
def test_statistics_equal_per_term_sums(explicit):
    table = CountTable() if explicit else None
    p = [partition_count(i) for i in range(401)]
    for n in SLICE_NS:
        assert distinct_members(n, table) == sum(p[:n]), n
        for k in range(1, n + 3):  # n < k and n == k included
            assert occurrence_count(k, n, table) == per_term(p, n, k), (n, k)
    if explicit:
        assert table.max_n == 399  # the largest argument needed, P(400 - 1)


@pytest.mark.parametrize("modulus", [5, 7, 11, 25, 125])
def test_occurrence_count_mod_equals_per_term_sums(modulus):
    p = [partition_count(i) for i in range(401)]
    for n in SLICE_NS:
        for k in range(1, n + 3):
            assert occurrence_count_mod(k, n, modulus) == per_term(p, n, k) % modulus, (n, k)


def test_partition_count_mod_examples():
    assert partition_count_mod(4, 5) == 0
    assert partition_count_mod(0, 7) == 1
    assert partition_count_mod(100, 11) == partition_count(100) % 11
    assert partition_count_mod(-5, 9) == 0


@pytest.mark.parametrize("modulus", [1, 0, -3])
def test_partition_count_mod_rejects_small_modulus(modulus):
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        partition_count_mod(10, modulus)
    # the modulus is checked before the n < 0 shortcut
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        partition_count_mod(-5, modulus)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        occurrence_count_mod(5, 10, modulus)
    assert modulus not in counting._MOD_TABLES


def test_partition_count_mod_rejects_float_modulus():
    # 5.0 hashes like 5, so it must not fetch the mod-5 table once it exists.
    assert partition_count_mod(10, 5) == 2
    for modulus in (2.5, 5.0):
        with pytest.raises(TypeError):
            partition_count_mod(10, modulus)
        with pytest.raises(TypeError):
            occurrence_count_mod(5, 10, modulus)
        with pytest.raises(TypeError):
            counting.ModCountTable(modulus)
    assert 2.5 not in counting._MOD_TABLES


def test_occurrence_count_mod():
    for n in (14, 24, 49):
        assert occurrence_count_mod(5, n, 25) == occurrence_count(5, n) % 25
    assert occurrence_count_mod(5, 4, 7) == 0  # n < k
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        occurrence_count_mod(5, 10, 1)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        occurrence_count_mod(0, 10, 7)


def test_extend_table():
    table = CountTable()
    assert table.max_n == 0
    table.extend(4)
    assert table.values == [1, 1, 2, 3, 5]
    snapshot = table.values
    table.extend(4)  # idempotent
    assert table.values == snapshot
    table.extend(2)  # never shrinks
    assert table.values == snapshot
    table.extend(10)
    assert table.values[:5] == snapshot  # old entries unchanged
    assert table[10] == 42
    assert len(table) == 11


def naive_partition_numbers(top):
    """P(0..top) by the pentagonal recurrence, one term at a time."""
    p = [1]
    for m in range(1, top + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= m:
                    total += sign * p[m - g]
            j += 1
        p.append(total)
    return p


# The first 30 generalized pentagonal numbers g, where the kernel's offsets
# change, and every m in {g - 1, g, g + 1}.
PENTAGONAL = sorted(j * (3 * j + s) // 2 for j in range(1, 16) for s in (-1, 1))
SEGMENT_EDGES = sorted({m for g in PENTAGONAL for m in (g - 1, g, g + 1)})


def test_kernel_segment_edges(monkeypatch):
    # Fresh offsets, grown by the tables below as they need them.
    monkeypatch.setattr(counting, "_PLUS", [])
    monkeypatch.setattr(counting, "_MINUS", [])
    p = naive_partition_numbers(SEGMENT_EDGES[-1])
    moduli = (None, 7, 125)

    def fresh(modulus):
        return CountTable() if modulus is None else ModCountTable(modulus)

    def expected(modulus, m):
        return p[: m + 1] if modulus is None else [v % modulus for v in p[: m + 1]]

    grown = {modulus: fresh(modulus) for modulus in moduli}
    for m in SEGMENT_EDGES:
        for modulus in moduli:  # interleaved: each extend starts where the last one stopped
            assert fresh(modulus).extend(m).values == expected(modulus, m), (modulus, m)
            assert grown[modulus].extend(m).values == expected(modulus, m), (modulus, m)


# P(0..1500) over Z, the reference for the residue tables below.
REFERENCE = CountTable().extend(1500).values


@settings(deadline=None, max_examples=60)
@given(
    block=st.integers(4, 40),
    modulus=st.integers(2, 2**26) | st.integers(2**32, 2**80),
    prefix=st.integers(0, 400),
    targets=st.lists(st.integers(0, 1500), min_size=1, max_size=8),
)
def test_block_step_equals_the_bigint_table(block, modulus, prefix, targets):
    # Small blocks cross many block edges cheaply.  A modulus of 2^32 or
    # more fails the width rule at every block size here and must take the
    # segment loop.
    runs = []
    real_blocks = counting._blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_BLOCK", block)
        mp.setattr(counting, "_blocks", lambda *args: runs.append(args) or real_blocks(*args))
        empty, partial = ModCountTable(modulus), ModCountTable(modulus).extend(prefix)
        for i, top in enumerate(targets):
            for table in (empty, partial) if i % 2 else (partial, empty):  # interleaved
                table.extend(top)
                assert table.values == [v % modulus for v in REFERENCE[:len(table)]], top
    assert not (runs and modulus >= 2**32)


@pytest.mark.parametrize("modulus, new_max, blocks", [
    (5, 1022, False),  # 511 entries past P(0..511): less than a block
    (5, 1023, True),
    (5, 20120, True),
    (2**27, 20120, True),  # 512 * (2^27 - 1)^2 < 2^64
    (2**28, 20120, False),  # the width rule fails: the segment loop
    (10**9 + 7, 20120, False),
])
def test_block_step_runs_where_its_rules_hold(monkeypatch, modulus, new_max, blocks):
    runs = []
    real_blocks = counting._blocks
    monkeypatch.setattr(counting, "_blocks", lambda *args: runs.append(args) or real_blocks(*args))
    table = ModCountTable(modulus).extend(new_max)
    assert bool(runs) == blocks
    sample = [*range(0, new_max, 997), new_max]
    assert [table[n] for n in sample] == [partition_count(n) % modulus for n in sample]


@pytest.mark.parametrize("indices", [
    range(0), range(1), range(10), range(3, 3), range(-5, 10, 2), range(-4, 10, 2),
    range(-5, -1), range(9, -7, -3), range(10, 0, -1), range(7, 300, 7), range(250, -1, -1),
])
def test_partition_sum_is_the_per_term_sum(indices):
    table = CountTable()
    assert partition_sum(indices, table) == sum(partition_count(i) for i in indices)
    assert partition_sum(indices) == sum(partition_count(i) for i in indices)
    assert table.max_n == max([0, *indices])  # grown only as far as the sum reads


def test_table_monotone():
    table = CountTable().extend(200)
    vals = table.values
    assert vals[0] == 1
    for i in range(2, 201):
        assert vals[i] >= vals[i - 1]


def test_explicit_table_is_independent():
    mine = CountTable()
    assert partition_count(12, mine) == 77
    assert mine.max_n == 12


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "table.txt"
    table = CountTable().extend(10)
    save_table(table, path)
    text = path.read_text()
    assert text.startswith("#partition-table v1\n0,1\n")
    assert len(text.splitlines()) == 12
    loaded = load_table(path)
    assert loaded.values == table.values
    # bit-exact: saving the loaded table reproduces the file
    again = tmp_path / "again.txt"
    save_table(loaded, again)
    assert again.read_text() == text


class _FailingValue:
    def __format__(self, spec):
        raise OSError("no space left on device")


def test_failed_save_keeps_old_file(tmp_path):
    path = tmp_path / "table.txt"
    save_table(CountTable().extend(10), path)
    before = path.read_text()
    broken = CountTable().extend(20)
    broken._values[15] = _FailingValue()  # the write fails after 15 entries
    with pytest.raises(OSError, match="no space"):
        save_table(broken, path)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.txt"]


def test_failed_save_names_the_table_not_its_temporary_file(tmp_path):
    path = tmp_path / "missing" / "table.txt"
    with pytest.raises(FileNotFoundError) as info:
        save_table(CountTable().extend(5), path)
    assert info.value.filename == str(path)
    assert ".tmp" not in str(info.value)


def _write(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    return path


def test_load_rejects_bad_header(tmp_path):
    with pytest.raises(TableFormatError, match="line 1"):
        load_table(_write(tmp_path, "#partition-table v2\n0,1\n"))


def test_load_rejects_missing_first_entry(tmp_path):
    with pytest.raises(TableFormatError, match="line 2"):
        load_table(_write(tmp_path, "#partition-table v1\n"))
    with pytest.raises(TableFormatError, match="0,1"):
        load_table(_write(tmp_path, "#partition-table v1\n0,2\n"))


def test_load_rejects_gap(tmp_path):
    body = "#partition-table v1\n0,1\n1,1\n3,3\n"
    with pytest.raises(TableFormatError, match="line 4"):
        load_table(_write(tmp_path, body))


def test_load_rejects_non_decimal(tmp_path):
    body = "#partition-table v1\n0,1\n1,one\n"
    with pytest.raises(TableFormatError, match="line 3"):
        load_table(_write(tmp_path, body))
    body = "#partition-table v1\n0,1\n1,-4\n"
    with pytest.raises(TableFormatError, match="line 3"):
        load_table(_write(tmp_path, body))


def test_load_rejects_an_entry_cut_short(tmp_path):
    full = tmp_path / "full.txt"
    save_table(CountTable().extend(20), full)
    cut = full.read_text().split("15,176")[0] + "15,1"  # P(15) = 176
    with pytest.raises(TableFormatError, match=r"^line 17: entry '15,1' does not end in a newline"):
        load_table(_write(tmp_path, cut))
    with pytest.raises(TableFormatError, match="line 2: entry '0,1' does not end"):
        load_table(_write(tmp_path, "#partition-table v1\n0,1"))


def test_load_rejects_decreasing_values(tmp_path):
    body = "#partition-table v1\n0,1\n1,1\n2,2\n3,0\n"
    with pytest.raises(TableFormatError, match=r"^line 5: P\(3\) is less than P\(2\)"):
        load_table(_write(tmp_path, body))


@pytest.mark.parametrize("body, line", [
    ("0,1\n1,1,2\n", 3),  # three fields on one line are not two entries
    ("0,1,\n1\n", 2),
    ("0,1\n,1\n", 3),
    ("0,1\n1,\n", 3),
    ("0,1\n\n", 3),
    ("0,1\n1,1\n2, 2\n", 4),
    ("0,1\n1,\u00b9\n", 3),  # a non-ASCII digit
])
def test_load_rejects_malformed_entry_lines(tmp_path, body, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(("#partition-table v1\n" + body).encode("utf-8"))
    with pytest.raises(TableFormatError, match=rf"^line {line}: expected 'n,value', got "):
        load_table(path)


def test_load_names_the_first_bad_line(tmp_path):
    body = "#partition-table v1\n0,1\n1,1\n3,3\n3,x\n4,2\n"
    with pytest.raises(TableFormatError, match="^line 4: expected n=2"):
        load_table(_write(tmp_path, body))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() parses numbers of any length before Python 3.10.7")
def test_load_names_the_line_of_a_number_too_long_to_parse(tmp_path):
    body = "#partition-table v1\n0,1\n1,1\n2,2\n3," + "9" * 5000 + "\n"
    with pytest.raises(TableFormatError, match="^line 5: a number too long to parse$"):
        load_table(_write(tmp_path, body))
    body = "#partition-table v1\n0,1\n" + "0" * 5000 + "1,1\n"
    with pytest.raises(TableFormatError, match="^line 3: a number too long to parse$"):
        load_table(_write(tmp_path, body))


# Values that a table file may hold: P(0) = 1 and never decreasing.
nondecreasing_tables = st.lists(st.integers(0, 10**30), max_size=40).map(
    lambda steps: list(accumulate(steps, initial=1))
)


def _table_of(values):
    return CountTable(list(values))


@settings(deadline=None, max_examples=50)
@given(nondecreasing_tables)
def test_save_load_round_trip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("round") / "table.txt"
    save_table(_table_of(values), path)
    assert load_table(path).values == values


@settings(deadline=None, max_examples=20)
@given(nondecreasing_tables)
def test_truncated_table_loads_a_prefix_or_fails(tmp_path_factory, values):
    folder = tmp_path_factory.mktemp("cut")
    save_table(_table_of(values), folder / "table.txt")
    data = (folder / "table.txt").read_bytes()
    cut = folder / "cut.txt"
    for offset in range(len(data) + 1):
        cut.write_bytes(data[:offset])
        try:
            loaded = load_table(cut).values
        except TableFormatError:
            continue
        # Accepted only where an entry line ends: exactly the entries before the cut.
        assert data[offset - 1:offset] == b"\n"
        assert loaded == values[:data.count(b"\n", 0, offset) - 1]


def test_load_accepts_tampered_value_but_check_catches_it(tmp_path):
    body = "#partition-table v1\n0,1\n1,1\n2,2\n3,3\n4,6\n"
    table = load_table(_write(tmp_path, body))
    assert table[4] == 6
    assert consistency_check(table) == [4]


# Ranges over -30..250 in either direction: a negative start, a negative
# step, a step beyond the range and an empty range all come up, and the
# small steps make reads of one residue class recur.
sum_ranges = st.builds(range, st.integers(-30, 250), st.integers(-30, 250),
                       st.one_of(st.integers(-4, 4), st.integers(-300, 300)).filter(bool))


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([None, 2, 5, 25]),
       st.lists(st.tuples(sum_ranges, st.integers(0, 260)), min_size=1, max_size=12))
def test_partition_sum_is_the_per_term_sum_as_the_table_grows(modulus, reads):
    table = CountTable() if modulus is None else ModCountTable(modulus)
    for indices, top in reads:
        table.extend(top)  # past, or short of, what the running sums hold
        terms = [partition_count(i) for i in indices]
        expected = sum(terms) if modulus is None else sum(v % modulus for v in terms)
        for _ in range(2):  # a class's first read, or a later one, then a later one
            assert partition_sum(indices, table) == expected, (indices, top)


@settings(deadline=None, max_examples=40)
@given(st.lists(sum_ranges, max_size=6), sum_ranges, st.integers(0, 250))
def test_partition_sum_never_reads_the_sums_of_another_table(others, indices, tampered):
    values = [partition_count(i) for i in range(251)]
    table = _table_of(values)
    for read in [*others, indices, indices]:  # the class of indices now keeps running sums
        assert partition_sum(read, table) == sum(values[i] for i in read if i >= 0)
    values[tampered] += 1
    table = _table_of(values)  # built as load_table builds one
    assert partition_sum(indices, table) == sum(values[i] for i in indices if i >= 0)


def test_count_table_runs_on_from_the_values_it_is_built_with():
    values = [1, 1, 2]
    table = CountTable(values)
    assert table.extend(6).values == values == [1, 1, 2, 3, 5, 7, 11]
    assert CountTable().values == [1]
    assert ModCountTable(5).extend(6).values == [1, 1, 2, 3, 0, 2, 1]


def test_consistency_check_clean():
    assert consistency_check(CountTable().extend(50)) == []


def test_consistency_check_refuses_a_residue_table(monkeypatch):
    # Its residues would be compared with the integer recurrence and read as wrong.
    monkeypatch.setattr(counting, "_TABLE", CountTable())
    with pytest.raises(TypeError, match="^consistency_check takes a CountTable of integers, "
                                        "not a ModCountTable$"):
        consistency_check(ModCountTable(5).extend(20))
    assert len(counting._TABLE) == 1  # refused before any work


def test_consistency_check_refuses_a_float_entry(monkeypatch):
    # 1.0 == P(0) and 2.0 == P(2): compared as numbers, the table would pass.
    monkeypatch.setattr(counting, "_TABLE", CountTable())
    with pytest.raises(TypeError, match=r"^consistency_check takes int entries, got float 1\.0 at n=0$"):
        consistency_check(CountTable([1.0, 1.0, 2.0]))
    with pytest.raises(TypeError, match=r"got float 2\.0 at n=2$"):
        consistency_check(CountTable([1, 1, 2.0]))
    assert len(counting._TABLE) == 1  # refused before any work


@pytest.fixture(scope="module")
def checked_values():
    return CountTable().extend(18_003).values


# The residual check packs four entries to an integer, in groups that end
# at N mod 4, N mod 4 + 4, ..., N, so each size starts the first group, and
# puts r(0), at another offset.  A change is tried in each entry from
# N - N mod 4 - 3 to N: the last group and up to 3 entries before it.  The
# large tables try one change per entry there, the three changes in turn,
# to keep the test short.
@pytest.mark.parametrize("size", [2_001, 2_002, 2_003, 2_004, 18_001, 18_002, 18_003, 18_004])
def test_check_reports_exactly_the_entry_changed(monkeypatch, checked_values, size):
    monkeypatch.setattr(counting, "_TABLE", CountTable())
    values = checked_values[:size]
    assert consistency_check(_table_of(values)) == []
    assert len(counting._TABLE) == 1  # a clean table is not recomputed
    changes = (1, -1, 10**6)
    top = size - 1
    near_top = range(top - top % 4 - 3, size)
    cases = [(n, d) for n in (0, 1, 2, 3, 4, 5, 7, 12, 15) for d in changes]
    if size < 10_000:
        cases += [(n, d) for n in near_top for d in changes]
    else:
        cases += [(n, changes[i % 3]) for i, n in enumerate(near_top)]
    for n, delta in cases:
        changed = list(values)
        changed[n] += delta
        assert consistency_check(_table_of(changed)) == [n], (n, delta)


def test_check_of_a_clean_table_recomputes_nothing(monkeypatch, checked_values):
    # E*T = 1 is checked by the packed groups alone, at every offset of the
    # first group.
    def forbidden(*args):
        raise AssertionError("the check ran the recurrence")

    partition_count(2_003)  # a tampered table is compared with the module table as it is
    monkeypatch.setattr(counting, "_segments", forbidden)
    monkeypatch.setattr(counting, "_extend", forbidden)
    for size in [*range(1, 10), 2_001, 2_002, 2_003, 2_004]:
        values = checked_values[:size]
        assert consistency_check(_table_of(values)) == [], size
        for n in range(min(size, 9)):
            for delta in (1, -1):
                changed = list(values)
                changed[n] += delta
                assert consistency_check(_table_of(changed)) == [n], (size, n, delta)
    assert consistency_check(CountTable([])) == []


def test_check_reports_every_entry_of_a_scaled_table():
    # c * P satisfies the recurrence too: only T(0) = 1 ties the residuals to P.
    values = [2 * partition_count(n) for n in range(301)]
    assert consistency_check(_table_of(values)) == list(range(301))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 400),
       st.lists(st.tuples(st.integers(0, 400),
                          st.one_of(st.integers(-10**6, 10**6), st.integers(-2**600, 2**600))),
                max_size=3))
def test_check_returns_exactly_the_entries_that_differ(top, changes):
    values = [partition_count(n) for n in range(top + 1)]
    for n, delta in changes:
        values[n % (top + 1)] += delta
    expected = [n for n, v in enumerate(values) if v != partition_count(n)]
    assert consistency_check(_table_of(values)) == expected


@pytest.fixture
def workers(request, monkeypatch):
    """The host reports request.param usable CPUs, and a fork fails the test."""
    def forbidden():
        raise AssertionError("consistency_check forked")

    monkeypatch.setattr(os, "cpu_count", lambda: request.param)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
    monkeypatch.setattr(os, "fork", forbidden, raising=False)
    monkeypatch.setattr(counting, "_TABLE", CountTable())
    return request.param


@pytest.mark.parametrize("workers", [1, 4], indirect=True)
def test_check_runs_in_one_process_below_two_workers_or_beside_a_thread(checked_values, workers):
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    if workers > 1:
        helper.start()
    try:
        assert consistency_check(_table_of(checked_values[:12_289])) == []
    finally:
        release.set()
        if workers > 1:
            helper.join(timeout=10)
    assert not helper.is_alive()
    assert len(counting._TABLE) == 1


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_check_of_a_table_already_recomputed_forks_no_child(checked_values, workers):
    values = list(checked_values[:12_289])
    partition_count(12_288)
    values[9000] += 1
    assert consistency_check(_table_of(checked_values[:12_289])) == []
    assert consistency_check(_table_of(values)) == [9000]
