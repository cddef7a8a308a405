"""Exact closed forms for the partition statistics.

P(n) is computed with the Euler pentagonal-number recurrence

    P(m) = sum_{j>=1} (-1)^(j-1) * [ P(m - j(3j-1)/2) + P(m - j(3j+1)/2) ]

over an append-only memo table of arbitrary-precision integers.  The other
statistics are finite sums of table entries:

    R_k(n) = P(n - k)
    Q_k(n) = sum_{j>=1} P(n - j*k)
    S(n)   = sum_{i=0}^{n-1} P(i)

All functions are total: P(0) = 1 and every statistic is 0 for arguments
below its support, so identity checks near the boundary need no special
cases.  One kernel runs the recurrence for every table, over pentagonal
offsets built once, shared, and stored negated so that each term is read
from the end of the growing table.  The offsets in use change only at the
next generalized pentagonal number, so the kernel builds one
``operator.itemgetter`` per sign for each such segment and computes every
entry of the segment as two sums of its tuples.  A table of residues passes
the kernel a modulus and carries the recurrence mod m for congruence sweeps
at large n.

A residue table grows a block of B = 512 entries at a time instead, on a
little-endian host, when the extension covers a whole block past
P(0..B-1) and every slot of the block fits in 8 bytes: B * (m-1)^2 and m
times the number of offsets are below 2^64, and the narrowest of 2, 4 or
8 bytes that holds both is used.
Each block [a, a+B) takes two C-level steps:

* far terms: each offset g gives slot i the term P(a + i - g) for i < g,
  all of them one ``int.from_bytes`` slice of a packed copy of the table;
  the slices are summed as big integers, with the minus terms entered as
  m - P so that no slot goes negative;
* in-block terms: the block Y(x) = sum_i P(a+i) x^i and the far sums
  F(x) satisfy E(x) * Y(x) = F(x) mod x^B, where E = 1 - x - x^2 + x^5 + ...
  is the pentagonal series, so Y = F * P(x) mod x^B: one Kronecker product
  of F reduced mod m with P(0..B-1) mod m, truncated to B slots.

A bigint table, a wider modulus and an extension shorter than a block run
the segment loop.

:func:`partition_sum` answers every sum of P over a range, and so S and
Q_k, as the difference of two running sums.  A table keeps one list of
running sums per (step, residue class) read more than once, and grows a
list on demand: ``itertools.accumulate`` runs over the new stride slice,
from the last stored sum.  So a sweep over consecutive n pays O(1) per
read, while a class read once, as by a one-shot ``stats`` or ``table``, is
one slice sum and keeps no sums.  Residue tables are served
by the same statistic functions: ``partition_count_mod`` and
``occurrence_count_mod`` run ``partition_count`` and ``occurrence_count`` on
one shared table per modulus (:func:`mod_table`), whose running sums add
residues.

:func:`consistency_check` checks a stored table T of P(0..N) as E*T = 1
mod x^(N+1), E the pentagonal series: the recurrence's residuals r(m) =
sum_g s_g T(m - g) - T(m) are 0 for 1 <= m <= N, and r(0) = -T(0) is -1.
Four consecutive entries are packed into one integer of W-bit slots, wide
enough that no residual carries into the next slot, so one sum of packed
integers per offset checks four residuals; a table that fails is recomputed.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_right
from itertools import accumulate, islice, repeat
from math import isqrt
from operator import index, itemgetter, le, neg

TABLE_HEADER = "#partition-table v1"
_HEADER_LINE = TABLE_HEADER.encode("ascii") + b"\n"
_DIGITS = b"0123456789"
_HEADER_SKELETON = _HEADER_LINE.translate(None, _DIGITS)


class TableFormatError(ValueError):
    """A partition-table file failed structural validation."""


# Generalized pentagonal numbers j(3j-1)/2 and j(3j+1)/2, ascending, split by
# the sign (-1)^(j-1) of their terms in the recurrence and stored negated:
# while P(m) is computed len(values) == m, so values[-g] is P(m - g).  Every
# table shares them; they grow on demand and are never rebuilt.
_PLUS: list[int] = []
_MINUS: list[int] = []

_BLOCK = 512  # residues computed together by the block step
_GROUP = 4  # residuals checked by one sum of packed integers


def _getter(offsets: list[int]):
    """A callable from a table to the tuple of its entries at ``offsets``."""
    if len(offsets) > 1:
        return itemgetter(*offsets)
    return lambda values: tuple(values[g] for g in offsets)  # itemgetter of one index is a scalar


def _grow_offsets(new_max: int) -> None:
    """Grow _PLUS and _MINUS to hold every generalized pentagonal number up to ``new_max``."""
    plus, minus = _PLUS, _MINUS
    j = (len(plus) + len(minus)) // 2
    while (j * (3 * j + 1)) >> 1 <= new_max:
        j += 1
        g = (j * (3 * j - 1)) >> 1
        (plus if j & 1 else minus).extend((-g, -g - j))


def _in_use(m: int):
    """The numbers of plus and minus offsets up to ``m``, and the next offset past it."""
    np = bisect_right(_PLUS, m, key=neg)
    nm = bisect_right(_MINUS, m, key=neg)
    j, second = divmod(np + nm, 2)
    return np, nm, ((j + 1) * (3 * j + 2 + 2 * second)) >> 1


def _extend(values: list[int], new_max: int, modulus: int | None = None) -> None:
    """Append P(m), reduced mod ``modulus`` if given, for m = len(values)..new_max."""
    _grow_offsets(new_max)
    if modulus is not None and new_max + 1 - max(len(values), _BLOCK) >= _BLOCK:
        # A slot holds an in-block product sum, at most _BLOCK * (m - 1)^2,
        # and a far sum, at most m per offset.
        bound = max(_BLOCK * (modulus - 1) ** 2, (len(_PLUS) + len(_MINUS)) * modulus)
        width = next((w for w in (2, 4, 8) if bound < 1 << 8 * w), None)
        if width and sys.byteorder == "little":  # slots are read as native words
            _segments(values, _BLOCK - 1, modulus)  # P(0..B-1) mod m enters every block
            _blocks(values, new_max, modulus, width)
    _segments(values, new_max, modulus)


def _segments(values: list[int], new_max: int, modulus: int | None) -> None:
    """Append entries up to ``new_max`` one at a time, a segment per itemgetter pair."""
    append = values.append
    m = len(values)
    while m <= new_max:
        # The offsets up to m stay in use until the next generalized pentagonal
        # number, so one pair of itemgetters serves the whole segment.
        np, nm, stop = _in_use(m)
        stop = min(stop, new_max + 1)
        gp, gm = _getter(_PLUS[:np]), _getter(_MINUS[:nm])
        for _ in range(m, stop):
            total = sum(gp(values)) - sum(gm(values))
            append(total if modulus is None else total % modulus)
        m = stop


def _blocks(values: list[int], new_max: int, modulus: int, width: int) -> None:
    """Append whole blocks of _BLOCK residues while they fit up to ``new_max``.

    The table is copied into ``width``-byte slots behind _BLOCK zero slots
    (P of a negative argument), so one slice of the copy read by
    ``int.from_bytes`` packs a run of residues, one to a slot.  A slice that
    runs past the table's end packs zeros there.
    """
    from array import array  # here, so that only residue tables import it

    code = {2: "H", 4: "I", 8: "Q"}[width]
    size = _BLOCK
    packed = array(code, bytes(width * size))
    packed.extend(values)  # packed[size + i] holds P(i) mod m
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * size, "little")
    mask = (1 << 8 * width * size) - 1
    low = int.from_bytes(packed[size:2 * size], "little")  # 1/E mod x^B

    def far(view, a, offsets):
        # Offset g puts P(a + i - g) in slot i; the slots i >= g are past the end.
        slices = map(slice, map((a + size).__add__, offsets), map((a + 2 * size).__add__, offsets))
        return sum(map(int.from_bytes, map(view.__getitem__, slices), repeat("little")))

    start = len(values)
    for a in range(start, start + (new_max + 1 - start) // size * size, size):
        np, nm, _ = _in_use(a + size - 1)
        with memoryview(packed) as view:  # released before the copy grows
            # The minus terms go in as m - P, so that no slot goes below zero.
            total = far(view, a, _PLUS[:np]) + nm * modulus * ones - far(view, a, _MINUS[:nm])
        reduced = [v % modulus for v in array(code, total.to_bytes(width * size, "little"))]
        total = int.from_bytes(array(code, reduced), "little") * low & mask
        block = [v % modulus for v in array(code, total.to_bytes(width * size, "little"))]
        values += block
        packed.extend(block)


class CountTable:
    """Append-only memo of P(0..max_n).

    ``values`` (default ``[1]``, P(0) alone) become the table's own list, not
    a copy.  Entries never change once computed; extension only appends.
    Concurrent readers of existing entries are safe, extension is not
    synchronized.
    """

    __slots__ = ("_values", "_sums")

    def __init__(self, values: list[int] | None = None):
        self._values = [1] if values is None else values
        # The running sums of :func:`partition_sum`, by (step, residue class).
        self._sums: dict[tuple[int, int], list[int]] = {}

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> list[int]:
        """A copy of the stored values, values[i] = P(i)."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> int:
        return self._values[n]

    def extend(self, new_max: int) -> "CountTable":
        """Grow the table to cover 0..new_max.  Never shrinks; idempotent."""
        _extend(self._values, new_max)
        return self


class ModCountTable(CountTable):
    """The same memo with every entry reduced mod ``modulus``."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        modulus = index(modulus)  # a float modulus raises TypeError
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        super().__init__([1 % modulus])

    def extend(self, new_max: int) -> "ModCountTable":
        _extend(self._values, new_max, self.modulus)
        return self


_TABLE = CountTable()
_MOD_TABLES: dict[int, ModCountTable] = {}


def partition_count(n: int, table: CountTable | None = None) -> int:
    """P(n), with P(0) = 1 and P(n) = 0 for n < 0."""
    if n < 0:
        return 0
    t = _TABLE if table is None else table
    values = t._values
    try:
        return values[n]
    except IndexError:
        t.extend(n)  # appends to ``values``
        return values[n]


def mod_table(modulus: int) -> ModCountTable:
    """The one shared table of P mod ``modulus``, for any statistic's ``table``.

    ModCountTable rejects a bad modulus before anything is stored.  The key
    goes through index() first: 5.0 hashes like 5 and would fetch mod 5's.
    """
    modulus = index(modulus)
    t = _MOD_TABLES.get(modulus)
    if t is None:
        t = _MOD_TABLES[modulus] = ModCountTable(modulus)
    return t


def partition_count_mod(n: int, modulus: int) -> int:
    """P(n) mod modulus via the all-residue recurrence."""
    return partition_count(n, mod_table(modulus))


def count_containing(k: int, n: int, table: CountTable | None = None) -> int:
    """R_k(n): partitions of n containing at least one part k.  Equals P(n-k)."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    return partition_count(n - k, table)


def partition_sum(indices: range, table: CountTable | None = None) -> int:
    """The sum of P(i) over i in ``indices``, as the difference of two running sums.

    P(i) = 0 for i < 0, so negative indices add nothing.  The first read of
    a residue class is one slice sum; from the second on, the table keeps
    the class's running sums, grown on demand up to the range's top, so
    consecutive reads of one class cost O(1) each.
    """
    step = indices.step
    if step < 0:
        indices, step = indices[::-1], -step
    if indices and indices[0] < 0:
        indices = indices[-(indices[0] // step):]  # the first i >= 0 on
    if not indices:
        return 0
    t = _TABLE if table is None else table
    first, last = indices[0], indices[-1]
    partition_count(last, t)  # one extension covers every term
    values, sums = t._values, t._sums
    residue = first % step
    # run[j] is the sum of P(residue + i*step) over i < j.
    run = sums.get((step, residue))
    if run is None:  # a class read once keeps no sums: one-shot queries stay one slice
        sums[step, residue] = [0]
        return sum(values[first:last + 1:step])
    top = last // step + 1
    if len(run) <= top:
        grown = values[residue + (len(run) - 1) * step:last + 1:step]
        run += islice(accumulate(grown, initial=run[-1]), 1, None)
    return run[top] - run[first // step]


def occurrence_count(k: int, n: int, table: CountTable | None = None) -> int:
    """Q_k(n): total occurrences of the part k over all partitions of n."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    return partition_sum(range(n % k, n - k + 1, k), table)


def occurrence_count_mod(k: int, n: int, modulus: int) -> int:
    """Q_k(n) mod modulus, summed entirely in residues."""
    return occurrence_count(k, n, mod_table(modulus)) % modulus


def distinct_members(n: int, table: CountTable | None = None) -> int:
    """S(n): distinct part values summed over all partitions of n."""
    return partition_sum(range(n), table)


def consistency_check(table: CountTable) -> list[int]:
    """Check the table's entries against the recurrence; return the n whose entries differ.

    A table T of P(0..N) that passes :func:`_residuals_vanish`, E*T = 1 mod
    x^(N+1), is right, and nothing is recomputed.  Any other table is wrong
    and is recomputed into the module's own table (only ever grown by the
    recurrence), so :func:`partition_count` serves the recomputed values of
    the entries reported without a second run.  A :class:`ModCountTable` is
    refused: its entries are residues, and the check compares them with the
    integer recurrence.  So is an entry that is not an ``int``, such as 1.0,
    which would compare equal to P(n).
    """
    if isinstance(table, ModCountTable):
        raise TypeError("consistency_check takes a CountTable of integers, not a ModCountTable")
    stored = table._values
    if not set(map(type, stored)) <= {int}:
        n, value = next((n, v) for n, v in enumerate(stored) if type(v) is not int)
        raise TypeError(f"consistency_check takes int entries, got {type(value).__name__} "
                        f"{value!r} at n={n}")
    if not stored or _residuals_vanish(stored):
        return []
    partition_count(table.max_n)
    return [n for n, (a, b) in enumerate(zip(stored, _TABLE._values)) if a != b]


def _residuals_vanish(stored: list[int]) -> bool:
    """Whether E*T = 1 mod x^(N+1), four coefficients at a time; False if unsure.

    T is ``stored``, N its top index and E = 1 - x - x^2 + x^5 + ... the
    pentagonal series, so the coefficient of x^m in E*T is -r(m), with the
    residual r(m) = sum_g s_g T(m - g) - T(m).  E*P = 1 (Euler), and the
    recurrence fixes each P(m) from the entries before it, so T = P on 0..N
    exactly when r(0) = -1 and r(m) = 0 for 1 <= m <= N.  The pack Z[j]
    holds T(j-3), T(j-2), T(j-1) and T(j) in W-bit slots, T(j) lowest and T
    of a negative index 0.  For the group ending at ``last`` (N mod 4, N mod
    4 + 4, ..., N), sum_g s_g Z[last - g] - Z[last] holds r(last-3..last),
    one to a slot: all 0, but for r(0) = -1 in slot ``last`` of the first.
    Every |r| is below (offsets + 1) times the largest entry, so below
    2^(W-1), and no slot carries into the next.  As :func:`_segments` reads
    the table, the offsets are read from the end of ``packs[:last]``.

    False, for the caller's recompute, on a negative entry, a group that
    differs, or a largest entry wider than 3.702 (isqrt(N) + 1) + 2 bits, an
    integer form of p(n) < e^(pi sqrt(2n/3)) (Apostol, Introduction to
    Analytic Number Theory, ch. 14).  No true table reaches it, and it keeps
    a forged huge entry from making huge packs.
    """
    top = len(stored) - 1
    bits = max(stored).bit_length()
    if min(stored) < 0 or bits > 3702 * (isqrt(top) + 1) // 1000 + 2:
        return False
    _grow_offsets(top)
    np, nm, _ = _in_use(top)
    width = bits + (np + nm + 1).bit_length() + 1
    mask = (1 << _GROUP * width) - 1
    packs = list(accumulate(stored, lambda z, v: (z << width) & mask | v))
    prefix, stop = [], 0  # packs[:last] while the group ending at last is summed
    for last in range(top % _GROUP, top + 1, _GROUP):
        prefix += packs[len(prefix):last]
        if last >= stop:  # an offset comes into use
            np, nm, stop = _in_use(last)
            gp, gm = _getter(_PLUS[:np]), _getter(_MINUS[:nm])
        residuals = sum(gp(prefix)) - sum(gm(prefix)) - packs[last]
        if residuals != (-1 << width * last if last < _GROUP else 0):  # r(0) = -T(0) = -1
            return False
    return True


def save_table(table: CountTable, path) -> None:
    """Write ``table`` in the partition-table v1 format (one ``n,P(n)`` per line).

    The table goes to a temporary file beside ``path`` that then replaces
    it, so a write that fails partway leaves any earlier file intact.  An
    error that names a file names ``path``, not the temporary file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(TABLE_HEADER + "\n")
            for n, value in enumerate(table._values):
                fh.write(f"{n},{value}\n")
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):  # only after a failure
            os.remove(tmp)


def load_table(path) -> CountTable:
    """Read a partition-table v1 file, validating structure only.

    The header, the leading ``0,1`` line, gap-free increasing n, decimal
    values that never decrease and a newline at the end of every entry are
    enforced; the values themselves are trusted (run
    :func:`consistency_check` to re-derive them).  The checks run on the
    whole buffer at once; only a file that fails one is walked line by line,
    to name its first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # newlines as a text-mode read sees them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # Deleting the digits leaves ",\n" per entry exactly when every line is
    # digits, one comma, digits and a newline; a last line cut short and
    # empty fields leave no trace there, so they are looked for apart.
    entries = data.count(b"\n") - 1
    if (not data.startswith(_HEADER_LINE) or entries < 1 or not data.endswith(b"\n")
            or data.translate(None, _DIGITS) != _HEADER_SKELETON + b",\n" * entries):
        raise _first_fault(data.split(b"\n"))
    # One buffer at a time: each step drops the one before.
    data = data.replace(b",", b"\n")
    fields = data.split(b"\n")  # header, n0, v0, n1, v1, ..., b""
    del data
    if fields.count(b"") > 1:  # the last field is the only empty one of a good file
        raise _first_fault(_rejoin(fields))
    try:  # int() refuses a number past its digit limit (Python 3.10.7+)
        numbers, values = list(map(int, fields[1:-1:2])), list(map(int, fields[2::2]))
    except ValueError:
        raise _first_fault(_rejoin(fields)) from None
    if (numbers != list(range(entries))
            or values[0] != 1 or not all(map(le, values, islice(values, 1, None)))):
        raise _first_fault(_rejoin(fields))
    return CountTable(values)


def _rejoin(fields: list[bytes]) -> list[bytes]:
    """The lines a table was split into ``fields`` from, one comma per entry line."""
    return [fields[0], *map(b",".join, zip(fields[1::2], fields[2::2])), b""]


def _first_fault(lines: list[bytes]) -> TableFormatError:
    """The error naming the first bad line of a table file split at its newlines."""
    if lines[0] != _HEADER_LINE[:-1]:
        return TableFormatError(f"line 1: expected header {TABLE_HEADER!r}")
    *entries, tail = lines[1:] or [b""]  # a header cut before its newline has no entries
    if not entries and not tail:
        return TableFormatError("line 2: missing mandatory entry '0,1'")
    previous = 0
    for lineno, line in enumerate(entries, start=2):
        n, sep, v = line.partition(b",")
        if not sep or not n.isdigit() or not v.isdigit():
            text = line.decode("ascii", "replace")
            return TableFormatError(f"line {lineno}: expected 'n,value', got {text!r}")
        try:
            number, value = int(n), int(v)
        except ValueError:  # past int()'s digit limit (Python 3.10.7+)
            return TableFormatError(f"line {lineno}: a number too long to parse")
        if number != lineno - 2:
            return TableFormatError(
                f"line {lineno}: expected n={lineno - 2} (gap-free ascending), got n={number}"
            )
        if lineno == 2 and value != 1:
            return TableFormatError("line 2: first entry must be '0,1'")
        if value < previous:
            return TableFormatError(
                f"line {lineno}: P({lineno - 2}) is less than P({lineno - 3}) on the line before"
            )
        previous = value
    text = tail.decode("ascii", "replace")
    return TableFormatError(
        f"line {len(entries) + 2}: entry {text!r} does not end in a newline (file cut short?)"
    )
