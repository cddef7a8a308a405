import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from partx import cli, counting, partitions


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "10")
    assert code == 0
    assert out == "42\n"


def test_count_json_and_csv_agree(capsys):
    _, out_json, _ = run_cli(capsys, "count", "10", "--json")
    _, out_csv, _ = run_cli(capsys, "count", "10", "--csv")
    payload = json.loads(out_json)
    assert payload == {"command": "count", "n": 10, "partition_count": 42}
    rows = parse_csv(out_csv)
    assert rows == [["n", "partition_count"], ["10", "42"]]


def test_stats_four_reproduces_table(capsys):
    code, out, _ = run_cli(capsys, "stats", "4")
    assert code == 0
    lines = out.splitlines()
    assert "P(4) = 5" in lines
    assert "S(4) = 7" in lines
    assert "Q_1(4) = 7" in lines
    assert "Q_2(4) = 3" in lines
    assert "Q_3(4) = 1" in lines
    assert "Q_4(4) = 1" in lines
    start = lines.index("partitions of 4 (5 total):")
    assert lines[start + 1 :] == ["  4", "  3+1", "  2+2", "  2+1+1", "  1+1+1+1"]


def test_stats_large_n_skips_listing(capsys):
    code, out, _ = run_cli(capsys, "stats", "40", "--kmax", "3")
    assert code == 0
    assert "partitions of" not in out
    assert "P(40) = 37338" in out


def test_stats_listing_flags(capsys):
    _, out, _ = run_cli(capsys, "stats", "14", "--kmax", "1", "--partitions")
    assert out.count("\n") > 100  # P(14) = 135 listing lines
    _, out, _ = run_cli(capsys, "stats", "4", "--no-partitions")
    assert "partitions of" not in out


# sha256 of the stdout of "stats n --partitions"; how partitions are held must not change it.
LISTING_DIGESTS = {
    1: "b2029603a9ca144c4dce60d4d74757dde8637093f5ec24f862e9086e643613d9",
    2: "2c438dccf950bb312c528f0df2491c9d645c0b611cfc5c0812404427536da0cb",
    3: "55706dd2a0fac757bbb6acd2d3e251ac3ee3e047530cee30e12e603798e533fc",
    4: "8bada6eaf3eb7f738f9985198658cc342810b12b1f082b413f9b9af27d719445",
    5: "923f30593aa3ffb5885c958f45e10606377c7173a1a30dfe8f15dd2615a4928d",
    6: "748951999a20f7a49bb47eab0ae0d0852619703b09abb9dde9d0a655f83297e7",
    7: "9c4a77a9628fac8bf5021de64016e16d55344de455c24ae9ad4203ef545ba370",
    8: "808f1531f95764a4d1db1c9116429ba28c544a4e272a919189fc1d016d3ea241",
    9: "5340415c674bd0a45340cd255a10b7cf6d2d0855aaca8bd42797ef7fbebfe246",
    10: "bf10ddea0418996d4ad369c4d7ca5d15f788b485230100afa26fef7858bd9295",
    11: "f66f187df3e0b790eed1a02eb93a2cd9765a867f780fc7d9d4bdc62393b4fd13",
    12: "f9870d1b2e3da028f9dc91f3793971f30eb844609306e77528c67fd2b8a6220d",
    13: "a77e8c2933e56075dd277d81c77fdbd284e48f274ca7f604eb25b25641cdab63",
    14: "4ab235c8ca1cc2ca5000b9aab3efbfec4c356b5d789cb866b0db0cf466a7e552",
    15: "5694c838caaf15d3d4c65496f5f56a7f515f142f12488d17bd6ba0526a3469ac",
    16: "53b8de2c182773d1ddbdf5156649c5196659ae8fdf8daff333a8339ad484ea47",
    17: "50d0602cc8baf9aa321c2c409e3b1b63ae381260b81557aa642cd777a60b1d60",
    18: "7dce73e9f64a899f9cf0bb8b502464e5e6334843a791527980224f3630472f41",
    19: "953c0512376e2cda062a9b914e33b7adb3aa06d4a3a77461691fab0a09ffc190",
    20: "897f68a5a04604024bd5cbf03742dcbb3ad957ae1f272bcf799c0453cbe5e618",
}


def test_stats_partitions_listing_pinned(capsys):
    for n, digest in LISTING_DIGESTS.items():
        code, out, _ = run_cli(capsys, "stats", str(n), "--partitions")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), n
        _, listing = out.split(f"partitions of {n} ({counting.partition_count(n)} total):\n")
        lines = [tuple(map(int, line.strip().split("+"))) for line in listing.splitlines()]
        assert len(lines) == counting.partition_count(n), n
        assert all(a > b for a, b in zip(lines, lines[1:])), n


def test_stats_partitions_guard_beyond_limit(capsys):
    code, _, err = run_cli(capsys, "stats", "120", "--kmax", "1", "--partitions")
    assert code == 2
    assert "closed forms" in err


def test_stats_partitions_flag_is_text_only(capsys, monkeypatch):
    def no_listing(n):
        raise AssertionError("a machine-format stats built the partition listing")

    monkeypatch.setattr(partitions, "enumerate_partitions", no_listing)
    for fmt in ("--json", "--csv"):
        expected = run_cli(capsys, "stats", "30", fmt, "--no-partitions")
        assert run_cli(capsys, "stats", "30", fmt, "--partitions") == expected
        assert expected[0] == 0


def test_stats_json_csv_same_numbers(capsys):
    _, out_json, _ = run_cli(capsys, "stats", "6", "--json")
    _, out_csv, _ = run_cli(capsys, "stats", "6", "--csv")
    payload = json.loads(out_json)
    assert payload["partition_count"] == 11
    assert payload["distinct_member_total"] == 19
    rows = dict((r[0], r[1]) for r in parse_csv(out_csv)[1:])
    assert rows["P(6)"] == "11"
    assert rows["S(6)"] == "19"
    for k, value in payload["occurrence_counts"].items():
        assert rows[f"Q_{k}(6)"] == str(value)


def test_table_reproduces_columns(capsys):
    code, out, _ = run_cli(capsys, "table", "4", "--kmax", "4", "--csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "k=1", "k=2", "k=3", "k=4"]
    assert rows[1] == ["4", "7", "3", "1", "1"]
    assert rows[2] == ["5", "", "4", "2", "1"]
    assert rows[3] == ["6", "", "", "4", "2"]
    assert rows[4] == ["7", "", "", "", "3"]
    assert rows[5] == ["total", "7", "7", "7", "7"]


def test_table_json_matches_csv(capsys):
    _, out_json, _ = run_cli(capsys, "table", "4", "--kmax", "4", "--json")
    payload = json.loads(out_json)
    assert payload["distinct_member_total"] == 7
    assert [c["sum"] for c in payload["columns"]] == [7, 7, 7, 7]
    assert payload["columns"][2]["values"] == [1, 2, 4]


def test_table_text_has_every_column_sum(capsys):
    _, out, _ = run_cli(capsys, "table", "6", "--kmax", "5")
    total_line = out.splitlines()[-1].split()
    assert total_line[0] == "total"
    assert set(total_line[1:]) == {"19"}  # S(6) = 19


def test_verify_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "extended-stanley", "--n", "1..30", "--k", "1..10", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "identity": "extended_stanley",
        "range": "n=1..30, k=1..10",
        "total": 300,
        "failures": [],
    }


def test_verify_text_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "stanley", "--n", "4")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    assert "checked: 1" in out


def test_verify_elder_defaults_to_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "elder", "--n", "1..10", "--k", "1..5")
    assert code == 0
    assert "backend: oracle" in out


def test_verify_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "qk-congruence", "--family", "5", "--mod", "25", "--n", "0"
    )
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"
    assert "lhs=10" in out


def test_verify_failure_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "qk-congruence", "--family", "5", "--mod", "25", "--n", "0", "--csv"
    )
    assert code == 1
    rows = parse_csv(out)
    assert rows[1][0] == "qk_congruence"
    assert rows[1][2:] == ["1", "1"]
    assert rows[3][2:] == ["10", "10", "closed_form"]


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "stanley")
    assert code == 2 and "--n" in err
    code, _, err = run_cli(capsys, "verify", "stanley", "--n", "9..2")
    assert code == 2 and "empty" in err
    code, _, err = run_cli(capsys, "verify", "stanley", "--n", "x..2")
    assert code == 2
    for name in ("no-such-identity", "extended_stanley"):
        code, out, err = run_cli(capsys, "verify", name, "--n", "1..5")
        assert (code, out) == (2, "")
        assert f"unknown identity {name!r}" in err and "extended-stanley, lemma1" in err
    code, _, err = run_cli(capsys, "verify", "stanley", "--n", "1..200", "--backend", "oracle")
    assert code == 2 and "use the closed form (--backend closed)" in err
    code, out, err = run_cli(capsys, "verify", "ramanujan-p", "--family", "5", "--n", "0..16",
                             "--backend", "oracle")
    assert (code, out) == (2, "")
    assert err == ("partx: error: ramanujan_p needs the oracle up to n=84, beyond its limit of "
                   "80; use the closed form (--backend closed)\n")
    code, _, _ = run_cli(capsys, "verify", "stanley", "--n", "1..5", "--json", "--csv")
    assert code == 2


@pytest.mark.parametrize("identity", ["stanley", "lemma2"])
def test_verify_empty_k_is_an_input_error(capsys, identity):
    # An empty --k is a malformed range, as an empty --n is, not an absent one.
    assert run_cli(capsys, "verify", identity, "--n", "1..5", "--k", "") == (
        2, "", "partx: error: --k expects 'A' or 'A..B', got ''\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lemma2", "--n", "-1..2", "--k", "1"], "n must be a positive integer, got n=-1"),
        (["lemma2", "--n", "5", "--k", "-1..2"], "k must be a positive integer, got k=-1"),
        (["ramanujan-p", "--family", "5", "--n", "-3..2"], "n must be nonnegative, got n=-3"),
    ],
)
def test_verify_negative_range_reaches_the_verifier(capsys, argv, message):
    # A range that starts with "-" is a value of --n/--k, not a flag.
    assert run_cli(capsys, "verify", *argv) == (2, "", f"partx: error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ramanujan-p", "--family", "5", "--n", "-3..2000"], "n must be nonnegative, got n=-3"),
        (["qk-congruence", "--family", "5", "--n", "-1..400"], "n must be nonnegative, got n=-1"),
        (["qk-congruence", "--family", "5", "--mod", "7", "--n", "0..2000"],
         "unsupported congruence (k=5, mod=7); supported: (k=5, mod=5), (k=5, mod=25), "
         "(k=5, mod=125), (k=7, mod=7), (k=11, mod=11)"),
        (["ramanujan-p", "--family", "13", "--n", "-4..2000"],
         "family must be one of [5, 7, 11], got 13"),
        (["ramanujan-p", "--family", "5", "--n", "0..2000", "--k", "1..2"],
         "ramanujan_p does not take a k range"),
        (["qk-congruence", "--family", "5", "--n", "0..400", "--k", "1"],
         "qk_congruence does not take a k range"),
    ],
)
def test_verify_congruence_argument_errors_come_before_any_table(capsys, monkeypatch, argv,
                                                                  message):
    monkeypatch.setattr(counting, "_MOD_TABLES", {})
    runs = []
    monkeypatch.setattr(counting, "_extend", lambda *args: runs.append(args))
    assert run_cli(capsys, "verify", *argv) == (2, "", f"partx: error: {message}\n")
    assert runs == [] and counting._MOD_TABLES == {}


def test_verify_flag_after_range_flag_is_not_a_value(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma2", "--n", "--k", "1")
    assert (code, out) == (2, "")
    assert "argument --n: expected one argument" in err


@given(st.integers(), st.none() | st.integers())
@example(-1, 2)
@example(-3, None)
def test_parse_range_round_trip(lo, hi):
    text = str(lo) if hi is None else f"{lo}..{hi}"
    assert cli._parse_range(text, "--n") == (lo, lo if hi is None else hi)


@given(
    st.text(alphabet=".-+x _", max_size=8)  # no digit at all
    | st.builds("{}..".format, st.integers())
    | st.builds("..{}".format, st.integers())
    | st.builds("{}..{}..{}".format, st.integers(), st.integers(), st.integers())
    | st.builds("{}.{}".format, st.integers(), st.integers(min_value=0))
    | st.builds("{}..{}x".format, st.integers(), st.integers())
)
def test_parse_range_rejects_malformed(text):
    with pytest.raises(ValueError, match=r"^--k expects 'A' or 'A\.\.B', got "):
        cli._parse_range(text, "--k")


@pytest.mark.parametrize(
    "argv",
    [
        ["ramanujan-p", "--family", "5", "--n", "0..3", "--backend", "oracle"],
        ["qk-congruence", "--family", "5", "--n", "0..3", "--backend", "both"],
        ["ramanujan-p", "--family", "7", "--n", "0..10", "--backend", "both"],
        ["ramanujan-p", "--family", "11", "--n", "0..6", "--backend", "oracle"],
    ],
)
def test_verify_congruence_runs_on_oracle_and_both(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert f"backend: {argv[-1]}" in out and out.endswith("failures: 0\nPASS\n")


@pytest.mark.parametrize("backend, routes", [("oracle", ["oracle"]),
                                             ("both", ["closed_form", "oracle"])])
def test_verify_refuted_congruence_fails_on_every_route(capsys, backend, routes):
    code, out, err = run_cli(capsys, "verify", "qk-congruence", "--family", "5", "--mod", "25",
                             "--n", "0..2", "--backend", backend)
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("  FAIL")] == [
        f"  FAIL k=5 modulus=25 n={n} argument={25 * n + 24} lhs={r} rhs={r} backend={route}"
        for n, r in ((0, 10), (1, 20), (2, 20)) for route in routes
    ]
    assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("backend", ["both", "closed"])
def test_verify_elder_rejects_closed_backends(capsys, backend):
    code, out, err = run_cli(
        capsys, "verify", "elder", "--n", "1..5", "--k", "1..3", "--backend", backend
    )
    assert code == 2 and out == ""
    assert "elder has no closed form; use the oracle backend" in err


def test_verify_both_backend(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lemma2", "--n", "1..10", "--k", "1..5", "--backend", "both"
    )
    assert code == 0
    assert "checked: 50" in out


def test_series_f(capsys):
    code, out, _ = run_cli(capsys, "series", "f", "--trunc", "4")
    assert code == 0
    assert out == "#series v1 ring=Z trunc=4\n0,1\n1,1\n2,2\n3,3\n4,5\n"


def test_series_f_mod_five(capsys):
    _, out, _ = run_cli(capsys, "series", "f", "--trunc", "60", "--mod", "5")
    lines = out.splitlines()
    assert lines[0] == "#series v1 ring=Zmod:5 trunc=60"
    coeffs = {int(l.split(",")[0]): int(l.split(",")[1]) for l in lines[1:]}
    assert all(coeffs[m] == 0 for m in range(4, 61, 5))


def test_series_gk(capsys):
    _, out, _ = run_cli(capsys, "series", "gk", "--k", "3", "--trunc", "6")
    assert out.splitlines()[-1] == "6,4"


def test_series_euler4(capsys):
    _, out, _ = run_cli(capsys, "series", "euler4", "--trunc", "4")
    assert out.splitlines()[-1] == "4,-5"


@pytest.mark.parametrize("modulus", [5, 25])
def test_series_gk_mod_m(capsys, modulus):
    # x^5/(1 - x^5) times the partition series, multiplied over Z/m.
    argv = ["series", "gk", "--k", "5", "--trunc", "120", "--mod", str(modulus)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [f"#series v1 ring=Zmod:{modulus} trunc=120"] + [
        f"{d},{counting.occurrence_count(5, d) % modulus}" for d in range(121)
    ]


def test_series_euler4_mod_seven(capsys):
    # Squaring twice over Z/7 gives the integer fourth power reduced mod 7.
    _, integer, _ = run_cli(capsys, "series", "euler4", "--trunc", "60")
    code, out, _ = run_cli(capsys, "series", "euler4", "--trunc", "60", "--mod", "7")
    assert code == 0
    rows = (line.split(",") for line in integer.splitlines()[1:])
    assert out.splitlines() == ["#series v1 ring=Zmod:7 trunc=60"] + [
        f"{d},{int(c) % 7}" for d, c in rows
    ]


def test_series_double_sum(capsys):
    _, out, _ = run_cli(capsys, "series", "double-sum", "--trunc", "3")
    # x * (1 - 4x + 2x^2 - ...) through degree 3
    assert out == "#series v1 ring=Z trunc=3\n0,0\n1,1\n2,-4\n3,2\n"


def test_series_usage_errors(capsys):
    code, _, err = run_cli(capsys, "series", "gk", "--trunc", "6")
    assert code == 2 and "--k" in err
    code, _, _ = run_cli(capsys, "series", "f", "--trunc", "6", "--k", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "series", "double-sum", "--trunc", "6", "--mod", "5")
    assert code == 2 and "integer-only" in err
    code, _, _ = run_cli(capsys, "series", "gk", "--k", "9", "--trunc", "6")
    assert code == 2  # trunc < k


@pytest.mark.parametrize("kind", [["f"], ["gk", "--k", "5"], ["euler4"]])
def test_series_trunc_too_large_to_index_is_an_input_error(capsys, kind):
    code, out, err = run_cli(capsys, "series", *kind, "--trunc", "100000000000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("partx: error: ") and "Traceback" not in err


def test_cache_build_and_check(capsys, tmp_path):
    path = tmp_path / "table.txt"
    code, out, _ = run_cli(capsys, "cache", "build", "--max", "25", "--cache", str(path))
    assert code == 0 and "P(0..25)" in out
    code, out, _ = run_cli(capsys, "cache", "check", "--cache", str(path))
    assert code == 0 and "26 entries" in out


def test_cache_check_detects_tampering(capsys, tmp_path):
    path = tmp_path / "table.txt"
    run_cli(capsys, "cache", "build", "--max", "10", "--cache", str(path))
    body = path.read_text().replace("4,5\n", "4,6\n")
    path.write_text(body)
    code, out, _ = run_cli(capsys, "cache", "check", "--cache", str(path))
    assert code == 1
    assert "mismatch at n=4" in out


@pytest.mark.parametrize("tamper", [False, True])
def test_cache_check_runs_the_recurrence_once(capsys, tmp_path, monkeypatch, tamper):
    path = tmp_path / "table.txt"
    run_cli(capsys, "cache", "build", "--max", "300", "--cache", str(path))
    value = counting.partition_count(290)
    if tamper:
        path.write_text(path.read_text().replace(f"\n290,{value}\n", f"\n290,{value + 1}\n"))
    monkeypatch.setattr(counting, "_TABLE", counting.CountTable())  # nothing computed yet
    runs = []
    real_extend = counting._extend
    monkeypatch.setattr(counting, "_extend", lambda *args: runs.append(args) or real_extend(*args))
    code, out, err = run_cli(capsys, "cache", "check", "--cache", str(path))
    if tamper:
        assert (code, err) == (1, "")
        assert out == (f"mismatch at n=290: stored {value + 1}, recomputed {value}\n"
                       "FAIL: 1 of 301 entries are wrong\n")
    else:
        assert (code, out, err) == (0, "ok: 301 entries match the recurrence\n", "")
    assert len(runs) == tamper  # only a table that fails the residual check is recomputed


def test_cache_check_rejects_corrupt_file(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("#wrong header\n0,1\n")
    code, _, err = run_cli(capsys, "cache", "check", "--cache", str(path))
    assert code == 2 and "line 1" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() parses numbers of any length before Python 3.10.7")
@pytest.mark.parametrize("argv", [("count", "2"), ("cache", "check")])
def test_cache_number_too_long_to_parse_names_its_line(capsys, tmp_path, argv):
    path = tmp_path / "table.txt"
    path.write_text("#partition-table v1\n0,1\n1,1\n2,2\n3," + "9" * 5000 + "\n")
    code, out, err = run_cli(capsys, *argv, "--cache", str(path))
    assert (code, out, err) == (2, "", "partx: cache error: line 5: a number too long to parse\n")


def test_count_with_cache_round_trip(capsys, tmp_path):
    path = tmp_path / "table.txt"
    code, out, _ = run_cli(capsys, "count", "15", "--cache", str(path))
    assert code == 0 and out == "176\n"
    saved = counting.load_table(path)
    assert saved.max_n == 15
    # reuse and extension
    code, out, _ = run_cli(capsys, "count", "20", "--cache", str(path))
    assert code == 0 and out == "627\n"
    assert counting.load_table(path).max_n == 20


def test_cache_cut_mid_entry_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "table.txt"
    run_cli(capsys, "cache", "build", "--max", "20", "--cache", str(path))
    cut = path.read_text().split("15,176")[0] + "15,1"  # P(15) = 176
    path.write_text(cut)
    for n in ("15", "20"):
        code, out, err = run_cli(capsys, "count", n, "--cache", str(path))
        assert (code, out) == (2, "") and "line 17" in err
    assert path.read_text() == cut


def test_cache_query_inside_table_leaves_file_untouched(capsys, tmp_path):
    path = tmp_path / "table.txt"
    run_cli(capsys, "cache", "build", "--max", "30", "--cache", str(path))
    before = path.stat()
    for argv in (["count", "20"], ["stats", "9"], ["table", "5", "--kmax", "4"]):
        code, _, _ = run_cli(capsys, *argv, "--cache", str(path))
        assert code == 0
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert counting.load_table(path).max_n == 30


@pytest.mark.parametrize("argv", [
    ["count", "5"], ["stats", "5"], ["table", "5", "--kmax", "2"], ["cache", "build", "--max", "5"],
    ["cache", "check"],
])
def test_cache_in_a_missing_directory_fails_before_any_output(capsys, tmp_path, argv):
    path = tmp_path / "nofile" / "x.txt"
    code, out, err = run_cli(capsys, *argv, "--cache", str(path))
    assert (code, out) == (2, "")
    assert err == f"partx: error: cache {path}: no directory {path.parent}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["count", "5"], ["stats", "5"], ["table", "5", "--kmax", "2"], ["cache", "build", "--max", "5"],
    ["cache", "check"],
])
def test_cache_path_that_is_a_directory_fails_before_any_output(capsys, tmp_path, argv):
    folder = tmp_path / "dd"
    folder.mkdir()
    (folder / "kept.txt").write_text("kept\n")
    before = folder.stat().st_mtime_ns
    for path in (str(folder), str(folder) + os.sep):
        code, out, err = run_cli(capsys, *argv, "--cache", path)
        assert (code, out) == (2, "")
        assert err == f"partx: error: cache {path}: is a directory\n"
    assert [p.name for p in folder.iterdir()] == ["kept.txt"]
    assert (folder / "kept.txt").read_text() == "kept\n"
    assert folder.stat().st_mtime_ns == before


@pytest.mark.parametrize("argv", [
    [*command, *flag]
    for command in (["count", "5"], ["stats", "5"], ["table", "5", "--kmax", "2"])
    for flag in ([], ["--verify-cache"])
] + [["cache", "build", "--max", "3"], ["cache", "check"]])
def test_empty_cache_path_is_an_input_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--cache", "")
    assert (code, out) == (2, "")
    assert err == "partx: error: --cache needs a file path, got an empty one\n"
    assert list(tmp_path.iterdir()) == []


def test_cache_check_of_a_missing_file_names_the_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "cache", "check", "--cache", "missing.txt")
    assert (code, out) == (2, "")
    assert err == "partx: error: cache missing.txt: no such file\n"
    assert list(tmp_path.iterdir()) == []


def test_cache_path_that_is_a_directory_is_an_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "count", "5", "--cache", str(tmp_path))
    assert (code, out) == (2, "") and str(tmp_path) in err


def test_verify_cache_flag(capsys, tmp_path):
    path = tmp_path / "table.txt"
    run_cli(capsys, "cache", "build", "--max", "12", "--cache", str(path))
    code, out, _ = run_cli(capsys, "count", "5", "--cache", str(path), "--verify-cache")
    assert code == 0 and out == "7\n"
    path.write_text(path.read_text().replace("4,5\n", "4,6\n"))
    code, _, err = run_cli(capsys, "count", "5", "--cache", str(path), "--verify-cache")
    assert code == 1 and "disagree" in err
    code, _, err = run_cli(capsys, "count", "5", "--verify-cache")
    assert code == 2 and "--cache" in err


@pytest.mark.parametrize("argv", [
    ["count", "5"], ["stats", "5", "--csv"], ["table", "5", "--kmax", "2"],
])
def test_verify_cache_mismatch_output_pinned(capsys, tmp_path, argv):
    path = tmp_path / "table.txt"
    run_cli(capsys, "cache", "build", "--max", "12", "--cache", str(path))
    path.write_text(path.read_text().replace("4,5\n", "4,6\n"))
    body = path.read_bytes()
    message = f"partx: cache {path}: 1 of 13 entries disagree with the recurrence (first at n=4)\n"
    assert run_cli(capsys, *argv, "--cache", str(path), "--verify-cache") == (1, "", message)
    assert path.read_bytes() == body


@pytest.fixture(scope="module")
def large_table(tmp_path_factory):
    """A table of 12,289 entries, 0 past its last group of four."""
    path = tmp_path_factory.mktemp("large") / "table.txt"
    counting.save_table(counting.CountTable().extend(12_288), path)
    return path


def test_split_cache_check_output_matches_one_process(capsys, monkeypatch, tmp_path, large_table):
    # The outputs the check gave when split across processes, now from one process.
    bad = tmp_path / "bad.txt"
    lines = large_table.read_text().split("\n")
    for n in (5, 8000, 11000):
        key, value = lines[n + 1].split(",")
        lines[n + 1] = f"{key},{int(value) + 1}"
    bad.write_text("\n".join(lines))
    runs = [["cache", "check", "--cache", str(large_table)], ["cache", "check", "--cache", str(bad)],
            ["count", "10", "--cache", str(bad), "--verify-cache"]]
    outputs = {}
    for argv in runs:
        monkeypatch.setattr(counting, "_TABLE", counting.CountTable())
        outputs[tuple(argv)] = run_cli(capsys, *argv)
    assert outputs == {
        tuple(runs[0]): (0, "ok: 12289 entries match the recurrence\n", ""),
        tuple(runs[1]): (1, "".join(
            f"mismatch at n={n}: stored {counting.partition_count(n) + 1}, "
            f"recomputed {counting.partition_count(n)}\n" for n in (5, 8000, 11000))
            + "FAIL: 3 of 12289 entries are wrong\n", ""),
        tuple(runs[2]): (1, "", f"partx: cache {bad}: 3 of 12289 entries disagree with the "
                                "recurrence (first at n=5)\n"),
    }


# Runs `partx` in a child and prints its peak resident set, in kB, to stderr last.
_PEAK_RSS = ("import sys\nfrom partx import cli\ncode = cli.main(sys.argv[1:])\n"
             "with open('/proc/self/status') as fh:\n"
             "    print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')), file=sys.stderr)\n"
             "sys.exit(code)\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_cache_check_of_a_huge_forged_entry_stays_small(tmp_path):
    # Without the width bound on the packed check, 4,300 digits (the int parse
    # limit) in the last entry would make slots of some 14,300 bits.
    path = tmp_path / "table.txt"
    counting.save_table(counting.CountTable().extend(18_000), path)
    forged = tmp_path / "forged.txt"
    text = path.read_text()
    forged.write_text(text[:text.rindex("\n18000,")] + "\n18000," + "9" * 4300 + "\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    peaks = {}
    for name in ("table.txt", "forged.txt"):
        done = subprocess.run([sys.executable, "-c", _PEAK_RSS, "cache", "check", "--cache", name],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        *message, peak = done.stderr.splitlines()
        assert message == []
        peaks[name] = int(peak)
        out = done.stdout.splitlines()
        if name == "table.txt":
            assert (done.returncode, out) == (0, ["ok: 18001 entries match the recurrence"])
        else:
            assert done.returncode == 1
            assert [line.split(":")[0] for line in out] == ["mismatch at n=18000", "FAIL"]
            assert out[-1] == "FAIL: 1 of 18001 entries are wrong"
    assert peaks["forged.txt"] <= peaks["table.txt"] + 5 * 1024


def test_stats_rejects_kmax_before_reading_the_cache(capsys, tmp_path):
    path = tmp_path / "table.txt"
    run_cli(capsys, "cache", "build", "--max", "12", "--cache", str(path))
    path.write_text(path.read_text().replace("4,5\n", "4,6\n"))  # entries disagree
    code, out, err = run_cli(capsys, "stats", "5", "--kmax", "0", "--cache", str(path),
                             "--verify-cache")
    assert (code, out) == (2, "") and "--kmax must be >= 1" in err
    path.write_text(path.read_text()[:-3])  # cut inside the last entry
    code, out, err = run_cli(capsys, "stats", "5", "--kmax", "0", "--cache", str(path))
    assert (code, out) == (2, "") and "--kmax must be >= 1" in err and "line" not in err


def test_run_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "9", "--kmax", "6")
    _, second, _ = run_cli(capsys, "table", "9", "--kmax", "6")
    assert first == second


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_negative_count_is_total(capsys):
    code, out, _ = run_cli(capsys, "count", "-3")
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["count", "10"], ["stats", "10"], ["series", "f", "--trunc", "30"],
    ["verify", "stanley", "--n", "1..30", "--json"],
])
def test_closed_stdout_exits_as_sigpipe_quietly(argv, unbuffered):
    assert _run_into_closed_stdout(argv, unbuffered) == (141, b"")


def test_help_into_a_closed_stdout_exits_as_sigpipe_quietly():
    # argparse writes the help and raises SystemExit(0); the flush after it still fails.
    assert _run_into_closed_stdout(["--help"], unbuffered=False) == (141, b"")


def _run_into_closed_stdout(argv, unbuffered):
    """The exit code and stderr of ``python -m partx argv`` whose stdout's reader is gone."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the reader is gone before partx writes
    try:
        done = subprocess.run([sys.executable, "-m", "partx", *argv], env=env, stdout=write,
                              stderr=subprocess.PIPE)
    finally:
        os.close(write)
    return done.returncode, done.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_in_process_leaves_no_descriptor_open(monkeypatch):
    read, write = os.pipe()
    os.close(read)
    stdout = open(write, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    before = sorted(os.listdir("/proc/self/fd"))
    try:
        assert cli.main(["count", "10"]) == 141
        assert sorted(os.listdir("/proc/self/fd")) == before
        stdout.write("quiet\n")
        stdout.flush()  # now /dev/null: the reader's loss is reported once
    finally:
        stdout.close()


def _loaded_after(setup: str) -> set[str]:
    """The partx submodules, dataclasses, json and csv loaded by ``setup``.

    ``setup`` runs in a fresh interpreter: pytest itself has loaded every
    module checked here.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    watched = ("dataclasses", "json", "csv", "partx.cli", "partx.counting", "partx.identities",
               "partx.partitions", "partx.series")
    probe = f"{setup}\nimport sys\nprint(*(m for m in {watched!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), setup
    return set(done.stdout.splitlines()[-1].split())


def test_cli_import_skips_unused_modules(tmp_path):
    assert _loaded_after("import partx") == set()
    assert _loaded_after("import partx.cli") == {"partx.cli", "partx.counting"}
    cache = str(tmp_path / "p.txt")
    unused = {"partx.identities", "partx.partitions", "partx.series"}
    for argv in (["cache", "build", "--max", "40"], ["cache", "check"], ["count", "50"],
                 ["stats", "30", "--json"], ["table", "20", "--kmax", "5"]):
        argv += ["--cache", cache]
        loaded = _loaded_after(f"import partx.cli\nassert partx.cli.main({argv!r}) == 0")
        assert not loaded & unused, argv
    argv = ["verify", "lemma2", "--n", "1..9", "--k", "1..3"]
    loaded = _loaded_after(f"import partx.cli\nassert partx.cli.main({argv!r}) == 0")
    assert "partx.series" not in loaded
    assert _loaded_after("import partx\n"
                         "for name in partx.__all__:\n"
                         "    assert getattr(partx, name) is not None, name\n"
                         "assert partx.sweep is partx.identities.sweep\n"
                         "assert partx.verify is partx.identities.verify") >= unused


# Every command under "Command line" in README, with the exit code and the
# sha256 of the stdout it gives; a refactor must leave each one unchanged.
README_COMMANDS = [
    ("count 10", 0, "084c799cd551dd1d8d5c5f9a5d593b2e931f5e36122ee5c793c1d08a19839cc0"),
    ("stats 4", 0, "8bada6eaf3eb7f738f9985198658cc342810b12b1f082b413f9b9af27d719445"),
    ("table 4 --kmax 4", 0, "0cd80f349dce6349575e563465f1934ae1341d5d26423154274773a3b89b5ca2"),
    ("verify extended-stanley --n 1..30 --k 1..10 --json", 0,
     "940d91c622416b9f69e63bcb7d44e4ccc06e244f8d33480ddda4b48f7ffcf0a2"),
    ("verify qk-congruence --family 5 --n 0..400", 0,
     "d37b7dc55bd62dfd9ae62e1b24647b219a789fd4b82a35d354d6a25bd421b108"),
    ("series f --trunc 60 --mod 5", 0,
     "325517b05636e503eb3f31c4163b9593cb7951e9e1a57da686711400c7f94510"),
    ("series gk --k 5 --trunc 50", 0,
     "7a3232bb24b3d4be4f2b983a8428b95e8c8bb094f7e28d17e13edef37dd550c0"),
    ("series euler4 --trunc 20", 0,
     "4cb35fca89a0e8938e01e4d56932b3e64ab377de2d4f52afa42ef7988bf71b8d"),
    ("series double-sum --trunc 200", 0,
     "3d85680708ef0dbf1a61b3dc5c53d8a267ad2ce56de1f2f499ff458559a6b222"),
    ("cache build --max 10000 --cache p.txt", 0,
     "a6180c9701340b9b76ec62a50c03171cf7acf844d2f036c9f6fddac9bd863ce6"),
    ("cache check --cache p.txt", 0,
     "437023e4528e6cd6eaaf1f2ee901a4faa7504bb6b9e0aedde8956d3cbcbb4fde"),
]


# Output shapes the README commands do not reach: JSON and CSV counts and
# stats, a stats run without its listing, a table with more columns than n in
# JSON and CSV, a text table whose cells are wider than its headings, and
# congruence sweeps: the refuted Q_5 mod 25 pattern on each route and format,
# its failing text report, and a passing Ramanujan family on both routes; and
# a passing sweep in CSV.
OUTPUT_SHAPES = [
    ("count 10 --csv", 0, "cc66c0ff7a1046510cbe1b39788efb3ef543c338201aee421ab20f394490bee2"),
    ("count 10 --json", 0, "cac8f8bb87db1da4dab3109ec6eb77223ef026eda761097edbc01af531afc36c"),
    ("stats 7 --json", 0, "a7ce8c408e7e58a55a932ccb83d93ed3e01af4b88bdf18c721f3b10de5a11703"),
    ("stats 7 --csv", 0, "658324fdb78ad2b4d54d1fe5da491485092da23b5d7f54caf8e3c43a3c1cacab"),
    ("stats 5 --kmax 2 --no-partitions", 0,
     "eab0c0eb154396202fa48f732b88d26144f12fde905004f2312143e5272b4fa2"),
    ("table 3 --kmax 5 --csv", 0,
     "8974f13beca09c1a38eee88a3a755114b184d1b1d5456b4567a1d1a901e0d9a6"),
    ("table 3 --kmax 5 --json", 0,
     "884c9912c559284cb3c20684735aa52a4ed2779ffc532e44a4cf8cacf03d590c"),
    ("table 9 --kmax 6", 0, "b754621bec33d34da54a87ce3d501e817d3a53ab4b6481dcccadb4bfd4c93e3c"),
    ("verify qk-congruence --family 5 --mod 25 --n 0..40 --json", 1,
     "3ee22797122d11a049bb2eeb96f55db39f1ec04df956ec2027c34f147f3083df"),
    ("verify qk-congruence --family 5 --mod 25 --n 0..40 --json --backend both", 1,
     "0892ecb77d34c9daeb100cb3aa7b0cf90e27101a7a8db35befdd547a33d11ec1"),
    ("verify qk-congruence --family 5 --mod 25 --n 0..2 --backend oracle --csv", 1,
     "da6aa5a1e5afd68d171e19eae718d1722207aba524b060cad2b5971ced70f70b"),
    ("verify qk-congruence --family 5 --mod 25 --n 0..2", 1,
     "2ba86036b80abcfedcf8785b1b7cc0f72ab1a77aee6505860481a0121ea8f351"),
    ("verify ramanujan-p --family 7 --n 0..12 --backend both", 0,
     "d7008084ad609a3906fcd8b4e3c2dc7b32c2bd642c0fbc34c23a7af983c86500"),
    ("verify lemma2 --n 1..3 --k 1..2 --csv", 0,
     "5fd30a8bb9e3807b7ffa32252a7b12982ae3f7a93b436d2a9108c01617edc868"),
]


@pytest.mark.parametrize("command, expected_code, digest", OUTPUT_SHAPES)
def test_output_shapes_pinned(capsys, command, expected_code, digest):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (expected_code, digest, "")


def test_readme_commands_output_pinned(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("#")[0].split(None, 1)[1].strip()
              for line in section.splitlines() if line.startswith("partx ")]
    assert listed == [command for command, _, _ in README_COMMANDS]
    monkeypatch.chdir(tmp_path)  # the cache pair writes p.txt
    for command, expected_code, digest in README_COMMANDS:
        code = cli.main(command.split())
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (expected_code, digest), command
