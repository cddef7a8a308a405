"""Self-tests of the benchmark harness (not part of the partx test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run
import spans
from workloads import WORKLOADS, Op, Result, check_op

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _argvs(name: str, seed: int, pass_index: int = 0, tiny: bool = False) -> list[list[str]]:
    return [op.argv for op in WORKLOADS[name].ops(seed, pass_index, tiny)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_are_deterministic_per_seed(name):
    assert _argvs(name, 7) == _argvs(name, 7)
    assert _argvs(name, 7, 1) == _argvs(name, 7, 1)
    assert _argvs(name, 7) != _argvs(name, 8)
    assert _argvs(name, 7) != _argvs(name, 7, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_any_seed_gives_comparable_work(name):
    passes = [WORKLOADS[name].ops(seed, 0) for seed in range(12)]
    kinds = {tuple(sorted(op.kind for op in ops)) for ops in passes}
    assert len(kinds) == 1
    checks = [sum(op.checks for op in ops) for ops in passes]
    assert max(checks) <= 1.05 * min(checks)


def test_reference_agrees_with_coin_change():
    assert reference.partition_numbers(300)[:301] == reference.coin_change_counts(300)
    p = reference.partition_numbers(60)
    assert reference.class_sums(p, 1)[4] == 7  # Q_1(4) = S(4)
    assert reference.prefix_sums(p)[4] == 7
    assert reference.class_sums(p, 5, 25)[24] == 10  # Q_5(24) = 660 = 10 (mod 25)
    assert reference.euler_power(1, 12) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def _red_sweep_op() -> Op:
    ops = WORKLOADS["closed-sweep"].ops(3, 0, tiny=True)
    return next(op for op in ops if "25" in op.argv)


def _good_red_output(op: Op) -> str:
    n_hi = int(op.argv[op.argv.index("--n") + 1].split("..")[1])
    residues = reference.class_sums(reference.partition_numbers(25 * n_hi + 24), 5, 25)
    failures = [{"identity": "qk_congruence",
                 "params": {"k": 5, "modulus": 25, "n": n, "argument": 25 * n + 24},
                 "lhs": residues[25 * n + 24], "rhs": residues[25 * n + 24],
                 "passed": False, "backend": "closed_form"}
                for n in range(n_hi + 1) if residues[25 * n + 24]]
    return json.dumps({"identity": "qk_congruence", "range": "", "total": n_hi + 1,
                       "failures": failures})


def test_checker_accepts_the_right_output_and_flags_a_tampered_one():
    op = _red_sweep_op()
    good = _good_red_output(op)
    assert op.expect_rc == 1
    assert check_op(op, Result(1, good)) is None
    assert check_op(op, Result(1, good.replace('"lhs": 10', '"lhs": 11', 1))) is not None
    assert check_op(op, Result(1, good.replace('"total": ', '"total": 1', 1))) is not None
    assert check_op(op, Result(1, "")) is not None


def test_checker_flags_a_wrong_exit_code():
    op = _red_sweep_op()
    good = _good_red_output(op)
    assert check_op(op, Result(0, good)) is not None
    assert check_op(op, Result(2, good)) is not None


def test_checker_flags_a_wrong_series_coefficient():
    ops = WORKLOADS["closed-sweep"].ops(3, 0, tiny=True)
    op = next(op for op in ops if op.argv[:2] == ["series", "euler4"])
    trunc = int(op.argv[op.argv.index("--trunc") + 1])
    modulus = int(op.argv[op.argv.index("--mod") + 1]) if "--mod" in op.argv else None
    expected = reference.series_dump(reference.euler_power(4, trunc), modulus)
    assert check_op(op, Result(0, expected)) is None
    lines = expected.splitlines(keepends=True)
    lines[5] = lines[5].rstrip("\n") + "1\n"
    assert check_op(op, Result(0, "".join(lines))) is not None


def test_self_time_of_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union [1, 6] is covered once
        ["c", 9.0, 12.0, 0],  # runs past its parent: only [9, 10] counts
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])
    summary = spans.summarize({"spans": tree + [["a", 20.0, 21.0, -1]],
                               "counters": {"a.untimed_calls": 5, "a.entries": 7}})
    assert summary["a.calls"] == 7
    assert summary["a.self_s"] == pytest.approx(3.0)
    assert summary["a.entries"] == 7
    assert summary["root.self_s"] == pytest.approx(4.0)


def test_recorder_nests_spans_and_wrappers_keep_results():
    rec = spans.Recorder()
    inner = spans.timed(rec, "inner", lambda x: x + 1)
    outer = spans.timed(rec, "outer", lambda x: inner(x) * 2)
    quiet = spans.counted(rec, "inner", lambda x: x)
    assert outer(1) == 4 and quiet(3) == 3
    assert [(s[0], s[3]) for s in rec.spans] == [("outer", -1), ("inner", 0)]
    assert spans.summarize({"spans": rec.spans, "counters": rec.counters})["inner.calls"] == 2


def test_benchmark_json_names_what_run_reports():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def _run_bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_passes(name, trace):
    done = _run_bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace,
                      "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in names]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_partx_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench("--workload", "exact-table", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
