import ast
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from partx import partitions
from partx.partitions import elder_count, enumerate_partitions, oracle_stats


def plist(n):
    return [list(p) for p in enumerate_partitions(n)]


def test_partitions_of_four():
    assert plist(4) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_partitions_of_one():
    assert plist(1) == [[1]]


def test_ten_has_42_partitions():
    assert len(plist(10)) == 42


@pytest.mark.parametrize("n", [0, -1, -17])
def test_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        list(enumerate_partitions(n))


def test_rejects_beyond_limit():
    # The cap is fixed: n = 80 is admitted, and every oracle entry refuses 81 alike.
    assert next(enumerate_partitions(80)) == (80,)
    for call in (lambda: next(enumerate_partitions(81)), lambda: oracle_stats(81),
                 lambda: elder_count(81, 1)):
        with pytest.raises(ValueError, match="n=81 is beyond the limit of 80"):
            call()


def test_yields_valid_and_strictly_decreasing():
    for n in range(1, 15):
        previous = None
        for part in enumerate_partitions(n):
            assert type(part) is tuple
            assert sum(part) == n
            assert all(p >= 1 for p in part)
            assert all(a >= b for a, b in zip(part, part[1:]))
            if previous is not None:
                assert part < previous
            previous = part


def test_oracle_stats_for_four():
    st = oracle_stats(4)
    assert st.partition_count == 5
    assert st.distinct_member_total == 7
    assert [st.occurrences(k) for k in (1, 2, 3, 4)] == [7, 3, 1, 1]
    assert st.occurrences(5) == 0
    assert st.containing(1) == 3  # [3,1], [2,1,1], [1,1,1,1]


@pytest.mark.parametrize("fresh", [False, True])
def test_oracle_stats_of_zero(monkeypatch, fresh):
    # P(0) = 1 (the empty partition), S(0) = 0, and no part occurs in it.
    if fresh:  # the tables as at import, before any growth
        for name, value in (("_p", [1]), ("_avoid", [[]]), ("_s", [0])):
            monkeypatch.setattr(partitions, name, value)
    else:
        oracle_stats(40)
    st = oracle_stats(0)
    assert st == (0, 1, 0)
    assert [st.occurrences(k) for k in range(1, 6)] == [0] * 5
    assert [st.containing(k) for k in range(1, 6)] == [0] * 5
    for call in (lambda: oracle_stats(-1), lambda: elder_count(0, 1),
                 lambda: next(enumerate_partitions(0))):
        with pytest.raises(ValueError, match="for n >= 1, got n="):
            call()


def test_oracle_stats_q5_of_nine():
    assert oracle_stats(9).occurrences(5) == 5


def test_occurrences_dominate_containing():
    for n in range(1, 25):
        st = oracle_stats(n)
        for k in range(1, n + 1):
            assert st.occurrences(k) >= st.containing(k) > 0
        assert st.occurrences(n + 1) == st.containing(n + 1) == 0


def test_mass_conservation():
    # every partition's parts sum to n, so sum_k k*Q_k(n) = n*P(n)
    for n in range(1, 41):
        st = oracle_stats(n)
        assert sum(k * st.occurrences(k) for k in range(1, n + 1)) == n * st.partition_count


def test_elder_examples():
    assert elder_count(4, 1) == 7
    assert elder_count(4, 4) == 1  # only [1,1,1,1] repeats a part 4 times
    assert elder_count(1, 2) == 0


def test_elder_matches_occurrences():
    for n in range(1, 21):
        st = oracle_stats(n)
        for k in range(1, n + 1):
            assert elder_count(n, k) == st.occurrences(k), (n, k)


def test_elder_rejects_bad_k():
    with pytest.raises(ValueError):
        elder_count(4, 0)


def test_elder_by_direct_recount():
    # independent tally straight from the definition
    for n in (6, 9, 12):
        for k in (1, 2, 3):
            occasions = 0
            for part in enumerate_partitions(n):
                occasions += sum(1 for mult in Counter(part).values() if mult >= k)
            assert elder_count(n, k) == occasions


def test_default_limit_value():
    assert partitions.DEFAULT_ENUMERATION_LIMIT == 80


def test_oracle_against_enumeration_ground_truth():
    # Tallies straight from the listed partitions, never through oracle_stats.
    for n in range(1, 31):
        count = distinct = 0
        occurrences, containing, at_least = Counter(), Counter(), Counter()
        for part in enumerate_partitions(n):
            runs = Counter(part)  # part value -> multiplicity
            count += 1
            distinct += len(runs)
            occurrences.update(runs)
            containing.update(runs.keys())
            for mult in runs.values():
                at_least.update(range(1, mult + 1))  # occasions of k or more copies
        st = oracle_stats(n)
        assert (st.partition_count, st.distinct_member_total) == (count, distinct), n
        for k in range(1, n + 2):
            assert st.occurrences(k) == occurrences[k], (n, k)
            assert st.containing(k) == containing[k], (n, k)
            assert elder_count(n, k) == at_least[k], (n, k)


def test_partitions_imports_no_other_route():
    # The oracle must stay independent of the recurrence and the series.
    tree = ast.parse(inspect.getsource(partitions))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    assert not {name.split(".")[-1] for name in names} & {"counting", "series"}, names


def _oracle_reads(order: list[int]) -> list[str]:
    """Table sizes, then every oracle read of n = 1..80, asked in ``order``.

    Runs in a fresh interpreter, where the oracle tables start empty.
    """
    src = str(Path(partitions.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "from partx.partitions import _p, elder_count, oracle_stats\n"
        "sizes, lines = [], {}\n"
        f"for n in {order!r}:\n"
        "    st = oracle_stats(n)\n"
        "    ks = range(1, n + 2)\n"
        "    lines[n] = (st, [st.occurrences(k) for k in ks], [st.containing(k) for k in ks],\n"
        "                [elder_count(n, k) for k in range(1, 5)])\n"
        "    if not sizes or sizes[-1] != len(_p) - 1:\n"
        "        sizes.append(len(_p) - 1)\n"
        "print(*sizes)\n"
        "for n in sorted(lines):\n"
        "    print(*lines[n])\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_oracle_reads_survive_table_growth():
    ascending = _oracle_reads(list(range(1, 81)))
    top_first = _oracle_reads([80] + list(range(1, 80)))
    # each new n builds the tables to itself; asked first, the top builds them once
    assert (ascending[0], top_first[0]) == (" ".join(map(str, range(1, 81))), "80")
    assert len(ascending) == 81
    assert ascending[1:] == top_first[1:]


def test_oracle_view_reads_right_after_the_tables_grow(monkeypatch):
    # A view holds no counts of its own: it reads the tables as they are when asked.
    for name, empty in (("_p", [1]), ("_avoid", [[]]), ("_s", [0])):
        monkeypatch.setattr(partitions, name, empty)
    occurrences, containing = Counter(), Counter()
    for part in enumerate_partitions(20):
        occurrences.update(part)
        containing.update(set(part))
    st = oracle_stats(20)
    for size in (32, 64, 80):
        partitions._grow_tables(size)
        assert len(partitions._p) - 1 == size
        for k in range(1, 22):
            assert st.occurrences(k) == occurrences[k], (size, k)
            assert st.containing(k) == containing[k], (size, k)
