"""partx benchmark: run one workload of ``partx`` commands and report metrics.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 40 --trace 0

Load model: a single client in a closed loop.  Each op is a fresh
``python -m partx ...`` process (interpreter start, ``import partx`` and
every memo table cold, as a user pays for it), started only after the
previous one exits.  A *pass* is the workload's whole op list, built from
the seed and the pass index; passes repeat until ``--seconds`` would be
exceeded, and at least until ``MIN_OPS`` ops have run.  Every op is checked after its pass, outside
the timed region, against values the benchmark computes itself.  Every
pass holds the same size class in each op slot, so ``wall_s`` (the time to
finish the op list) is the sum over slots of each slot's median latency.

Host speed on a shared machine drifts by tens of percent within seconds,
so before each op the benchmark times a fixed calibration loop of its own (the
reference P recurrence to ``CAL_N``; no partx code).  Op times are scaled
by ``CAL_NOMINAL_S`` over the median of the nearest calibration samples:
every reported time is in seconds on a host where that loop takes
``CAL_NOMINAL_S``.  The raw times are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
pass twice, once plain and once with the span recorder of ``spans.py``
inside every op process, and reports the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Everything the run writes goes to a temporary directory under
``.perfbench-run/`` at the checkout root, removed at exit: a run reads and
writes only inside its checkout, and never in the partx sources or tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import reference
import spans
from workloads import WORKLOADS, Op, Result, check_op

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench-run")

OP_TIMEOUT_S = 60.0
# No pass starts after this much measuring, so a slowed-down program still
# ends the run well inside the 180 s a run may take.
HARD_STOP_S = 120.0
# op_tail_s is the p75 latency: every workload has at least 20 ops a pass
# and a run makes at least MIN_OPS, so 10 samples always lie beyond it.
# (A percentile picked from each run's own sample count would jump between
# p50, p75 and p90 as host speed changes the number of passes.)
TAIL_PCT = 75.0
MIN_OPS = 40
CAL_N = 3500
CAL_NOMINAL_S = 0.025
CAL_WINDOW = 4  # an op is scaled by the median of the 2*CAL_WINDOW+1 nearest samples

END_TO_END = [
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("checks_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
# error_rate is 0 when all is well, so it is reported through "failed" /
# "attempted" in the JSON and printed by name, but not as a metric.

PER_LAYER = [
    ("partitions.oracle.calls", "count", "lower"),
    ("partitions.oracle.distinct_n", "count", "lower"),
    ("partitions.oracle.hit_ratio", "ratio", "higher"),
    ("partitions.oracle.self_s", "s", "lower"),
    ("counting.extend.calls", "count", "lower"),
    ("counting.extend.entries", "count", "lower"),
    ("counting.extend.high_water", "count", "lower"),
    ("counting.extend.self_s", "s", "lower"),
    ("counting.mod_extend.calls", "count", "lower"),
    ("counting.mod_extend.entries", "count", "lower"),
    ("counting.mod_extend.self_s", "s", "lower"),
    ("counting.stats_mod.calls", "count", "lower"),
    ("counting.stats_mod.self_s", "s", "lower"),
    ("counting.stats.calls", "count", "lower"),
    ("counting.stats.self_s", "s", "lower"),
    ("counting.cache_load.calls", "count", "lower"),
    ("counting.cache_load.bytes", "bytes", "lower"),
    ("counting.cache_load.self_s", "s", "lower"),
    ("counting.cache_save.calls", "count", "lower"),
    ("counting.cache_save.bytes", "bytes", "lower"),
    ("counting.cache_save.self_s", "s", "lower"),
    ("counting.cache_check.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.inverse.calls", "count", "lower"),
    ("series.inverse.self_s", "s", "lower"),
    ("series.build.self_s", "s", "lower"),
    ("series.format.self_s", "s", "lower"),
    ("series.coeff_ops", "count", "lower"),
    ("identities.sweep.calls", "count", "lower"),
    ("identities.sweep.self_s", "s", "lower"),
    ("identities.instances", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# The op process: note when ``import partx`` is done, then run the package
# exactly as ``python -m partx`` does.  With PERFBENCH_SPANS set, wrap the
# layers first and write the spans when the process ends.
BOOTSTRAP = """
import os, time
mark = os.environ.pop("PERFBENCH_MARK")
span_file = os.environ.pop("PERFBENCH_SPANS", None)
import partx
t_import = time.monotonic()
if span_file:
    import sys
    sys.path.insert(0, os.environ.pop("PERFBENCH_DIR"))
    import spans
    recorder = spans.Recorder()
    spans.instrument(recorder)
try:
    import runpy
    runpy.run_module("partx", run_name="__main__", alter_sys=True)
finally:
    import resource
    if span_file:
        recorder.dump(span_file)
    with open(mark, "w") as fh:
        fh.write(f"{t_import!r} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
"""


@dataclass
class OpRecord:
    op: Op
    latency_s: float
    setup_s: float | None
    maxrss_kb: int
    stdout_bytes: int
    error: str | None
    layers: dict | None = None
    cal_s: float | None = None  # the calibration sample taken just before the op
    factor: float = 1.0  # latency_s * factor is the latency at nominal host speed


def calibrate() -> float:
    t0 = time.monotonic()
    reference.partition_numbers(CAL_N)
    return time.monotonic() - t0


def run_op(op: Op, workdir: str, run_dir: str, traced: bool) -> tuple[OpRecord, Result]:
    mark = os.path.join(run_dir, "mark")
    span_file = os.path.join(run_dir, "spans.json")
    for stale in (mark, span_file):
        if os.path.exists(stale):
            os.remove(stale)
    env = dict(os.environ, PERFBENCH_MARK=mark)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if traced:
        env.update(PERFBENCH_SPANS=span_file, PERFBENCH_DIR=BENCH_DIR)
    timeout = False
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", BOOTSTRAP, *op.argv], cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timeout = True
    latency = time.monotonic() - t_spawn
    setup, maxrss, layers = None, 0, None
    if os.path.exists(mark):
        with open(mark, encoding="ascii") as fh:
            t_import, maxrss_text = fh.read().split()
        setup, maxrss = float(t_import) - t_spawn, int(maxrss_text)
    if traced and os.path.exists(span_file):
        with open(span_file, encoding="ascii") as fh:
            layers = spans.summarize(json.load(fh))
    result = Result(proc.returncode, out.decode("utf-8", "replace"),
                    err.decode("utf-8", "replace"), workdir)
    error = f"timed out after {OP_TIMEOUT_S:.0f} s" if timeout else None
    if error is None and setup is None:
        error = "op process ended without reporting its import time"
    if error is None and traced and layers is None:
        error = "traced op process wrote no spans"
    record = OpRecord(op, latency, setup, maxrss, len(out), error, layers)
    return record, result


def run_pass(ops: list[Op], run_dir: str, traced: bool, deadline: float) -> list[OpRecord]:
    """Run one op list in a fresh directory; check every op once it is done."""
    workdir = tempfile.mkdtemp(prefix="pass-", dir=run_dir)
    records, results = [], []
    for op in ops:
        if time.monotonic() > deadline:
            records.append(OpRecord(op, 0.0, None, 0, 0, "not started: run deadline passed"))
            results.append(None)
            continue
        cal = calibrate()
        record, result = run_op(op, workdir, run_dir, traced)
        record.cal_s = cal
        records.append(record)
        results.append(result)
    for record, result in zip(records, results):
        if record.error is None:
            record.error = check_op(record.op, result)
    shutil.rmtree(workdir)
    return records


# --------------------------------------------------------------------------
# metrics


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scale_to_nominal(records: list[OpRecord]) -> None:
    """Set each record's ``factor``: CAL_NOMINAL_S over its local calibration median.

    ``records`` must be in the order the ops ran; the window slides over the
    ops that have a calibration sample.
    """
    timed = [r for r in records if r.cal_s is not None]
    cals = [r.cal_s for r in timed]
    for i, record in enumerate(timed):
        window = cals[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
        record.factor = CAL_NOMINAL_S / statistics.median(window)


def _scaled(record: OpRecord) -> float:
    return record.latency_s * record.factor


def slot_medians(done: list[OpRecord], value) -> dict[int, float]:
    """Median of ``value(record)`` per op slot, over the passes of a run."""
    by_slot: dict[int, list[float]] = {}
    for record in done:
        by_slot.setdefault(record.op.slot, []).append(value(record))
    return {slot: statistics.median(values) for slot, values in by_slot.items()}


def end_to_end(passes: list[list[OpRecord]]) -> dict[str, tuple]:
    """name -> (value, unit, note) for the plain passes of a run.

    Every pass holds the same size classes in the same slots, so the time to
    finish a pass is estimated slot by slot: the sum over slots of each
    slot's median latency.  A host stall then costs one sample of one slot
    instead of a whole pass.
    """
    records = [r for records in passes for r in records]
    done = [r for r in records if r.setup_s is not None]
    scaled = [_scaled(r) for r in done]
    raw = [r.latency_s for r in done]
    slot_time = slot_medians(done, _scaled)
    raw_wall = sum(slot_medians(done, lambda r: r.latency_s).values())
    tail = TAIL_PCT
    checking = [r for r in done if r.op.checks]
    check_time = sum(slot_time[slot] for slot in {r.op.slot for r in checking})
    checks = sum(slot_medians(checking, lambda r: r.op.checks).values())
    failed = sum(r.error is not None for r in records)
    beyond = int(len(scaled) * (100 - tail) / 100)
    cal = statistics.median(r.cal_s for r in done)
    return {
        "wall_s": (sum(slot_time.values()), "s",
                   f"sum of {len(slot_time)} slot medians over {len(passes)} passes "
                   f"(raw {raw_wall:.4g} s)"),
        "op_p50_s": (percentile(scaled, 50), "s",
                     f"p50 of {len(scaled)} ops (raw {percentile(raw, 50):.4g} s)"),
        "op_tail_s": (percentile(scaled, tail), "s",
                      f"p{tail:g} of {len(scaled)} ops, {beyond} beyond "
                      f"(raw {percentile(raw, tail):.4g} s)"),
        "setup_s": (statistics.median(r.setup_s * r.factor for r in done), "s",
                    f"median of {len(done)} ops, spawn to import partx "
                    f"(raw {statistics.median(r.setup_s for r in done):.4g} s)"),
        "checks_per_s": (checks / check_time if check_time else 0.0, "1/s",
                         f"{checks:g} checks in {check_time:.3g} s per pass, "
                         f"slot medians of {len(checking)} ops"),
        "peak_rss_mb": (max(r.maxrss_kb for r in done) / 1024.0, "MB",
                        f"max of {len(done)} ops"),
        "error_rate": (failed / len(records), "ratio", f"{failed} of {len(records)} ops"),
        "calibration_s": (cal, "s", f"median of {len(done)} samples, "
                                    f"nominal {CAL_NOMINAL_S} s (not a metric)"),
    }


def layer_totals(records: list[OpRecord]) -> dict[str, float]:
    """Per-layer numbers of one traced pass: sums over its ops (maxima for high water)."""
    totals: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for record in records:
        totals["cli.output_bytes"] += record.stdout_bytes
        for key, value in (record.layers or {}).items():
            if key.endswith(".high_water"):
                totals[key] = max(totals.get(key, 0.0), value)
            elif key.endswith(".self_s"):
                totals[key] = totals.get(key, 0.0) + value * record.factor
            else:
                totals[key] = totals.get(key, 0.0) + value
    calls = totals["partitions.oracle.calls"]
    totals["partitions.oracle.hit_ratio"] = (
        1.0 - totals["partitions.oracle.distinct_n"] / calls if calls else 0.0)
    return totals


def per_layer(pairs: list[tuple]) -> dict[str, tuple]:
    """name -> (value, unit, note): medians over the traced passes of a run."""
    traced = [layer_totals(trecs) for _, trecs in pairs]
    overheads = [sum(map(_scaled, trecs)) - sum(map(_scaled, precs)) for precs, trecs in pairs]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        else:
            value = statistics.median(t[name] for t in traced)
        note = f"median of {len(pairs)} traced passes"
        if name == "series.coeff_ops":
            note += "; computed from truncations, not counted (" + spans.COEFF_OPS_RULE + ")"
        out[name] = (value, unit, note)
    return out


def print_shares(pairs: list[tuple]) -> None:
    """Self time of each layer as a share of the traced op time."""
    totals = [layer_totals(trecs) for _, trecs in pairs]
    op_time = sum(_scaled(r) for _, trecs in pairs for r in trecs)
    self_keys = sorted({k for t in totals for k in t if k.endswith(".self_s")})
    print(f"  self-time shares of {op_time:.2f} s traced op time:")
    for key in self_keys:
        share = sum(t[key] for t in totals) / op_time if op_time else 0.0
        print(f"    {key:32s} {100 * share:6.2f} %")
    attributed = sum(t[k] for t in totals for k in self_keys)
    print(f"    {'(start-up, exit, unwrapped)':32s} {100 * (1 - attributed / op_time):6.2f} %")


# --------------------------------------------------------------------------
# running passes


def measure(workload, seed: int, seconds: float, trace: bool, tiny: bool, run_dir: str):
    """Run passes until the time budget is spent.

    Returns (plain passes, traced pairs, every record in run order); a
    traced pair is (plain records, traced records) of the same op list.
    """
    plain, pairs, everything = [], [], []
    start = time.monotonic()
    deadline = start + HARD_STOP_S
    index = longest = 0
    while True:
        t0 = time.monotonic()
        ops = workload.ops(seed, index, tiny)
        if trace:
            order = (False, True) if index % 2 == 0 else (True, False)
            runs = {}
            for traced in order:
                runs[traced] = run_pass(ops, run_dir, traced, deadline)
                everything += runs[traced]
            pairs.append((runs[False], runs[True]))
        else:
            plain.append(run_pass(ops, run_dir, False, deadline))
            everything += plain[-1]
        index += 1
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        enough = len(everything) >= MIN_OPS
        if (enough and elapsed + longest > seconds) or elapsed > HARD_STOP_S:
            scale_to_nominal(everything)
            return plain, pairs, everything


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every op to a smoke-test size (self-tests only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "partx", "__main__.py")):
        print(f"perfbench: no partx sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(RUN_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        t0 = time.monotonic()
        workload.ops(args.seed, 0, args.tiny)  # builds the reference tables
        warm = subprocess.run([sys.executable, "-c", "import partx.cli"], cwd=run_dir,
                              env=dict(os.environ, PYTHONPATH=SRC), capture_output=True)
        if warm.returncode != 0:
            print(f"perfbench: cannot import partx:\n{warm.stderr.decode()}", file=sys.stderr)
            return 2
        prep = time.monotonic() - t0
        plain, pairs, everything = measure(workload, args.seed, args.seconds,
                                           bool(args.trace), args.tiny, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:  # another run is still using it
            pass

    failed = [r for r in everything if r.error is not None]
    mode = "trace on" if args.trace else "trace off"
    print(f"workload {args.workload}, seed {args.seed}: {len(everything)} ops, "
          f"{len(failed)} failed ({mode}; reference and warm-up took {prep:.2f} s)")
    for record in failed[:10]:
        print(f"  FAILED {' '.join(record.op.argv)}: {record.error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(pairs)
        print_shares(pairs)
    else:
        metrics = end_to_end(plain)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    names = [name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
