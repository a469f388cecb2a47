"""EIIBench-wall: wall-clock benchmark of the federated engine.

    python3 wallbench/run.py --workload adhoc --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py`` for what each one exercises and
why) against ``FederatedEngine`` in this process, with one closed-loop
client. Every read is checked against an independent sqlite3 copy of the
data. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Its wall times are scaled to reference host speed by a probe timed
between operations (see ``speed.py``); unscaled figures are printed too.
``--trace 1`` makes the traced run instead: timing wrappers around each
layer's public calls give the per-layer metrics, while an untraced engine
takes the same operations in turn to give the tracing overhead; a fixed
prefix of the stream is then run again from a fresh set-up to check the
exact counts. Spans are written to ``.wallbench_out/`` at the checkout
root.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: `setup_s` is the median of set-ups timed back to back for this many
#: seconds before the engine under test is built, and as long again after
#: it is dropped. Like every wall time of the end-to-end run, each is
#: scaled to reference host speed (see ``speed.py``)
SETUP_SECONDS = 3.0
#: p99 needs ten samples beyond it, so a run makes at least this many
#: reads; `sim_ms_per_read`, `wire_kb_per_read` and `peak_rss_mb` cover
#: set-up and the first this-many reads only, so they follow the seed and
#: not how many reads a faster or slower machine fits in the run. Besides
#: the engine, the process then holds only the answer check's sqlite copy
#: of the data (under 1 MB)
WINDOW_READS = 1000
#: p95 of writes needs ten samples beyond it
MIN_WRITES = 200
#: the fixed prefix the traced run executes twice for the exact counts
EXACT_OPS = 300
#: stop a run that cannot reach its minimum sample counts in time
WALL_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_ms_p50": "ms",
    "read_ms_p99": "ms",
    "reads_per_s": "reads/s",
    "sim_ms_per_read": "ms",
    "wire_kb_per_read": "KB",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sim_window(log) -> tuple:
    sims = log.sim_s[:WINDOW_READS]
    wires = log.wire_bytes[:WINDOW_READS]
    reads = max(len(sims), 1)
    return sum(sims) * 1000.0 / reads, sum(wires) / 1024.0 / reads


def _working_set(workload: str, log, cache) -> None:
    """Print how the read stream compares with the cache capacities."""
    texts = len(log.read_ms)
    distinct = len(log.canonical)
    repeated = 1.0 - distinct / max(texts, 1)
    print(
        f"working set [{workload}]: {texts} reads, {distinct} distinct canonical "
        f"texts ({repeated:.1%} repeated) vs plan/result cache 256 entries; "
        f"{len(log.fetch_keys)} distinct component fetch keys vs fetch cache "
        f"1024 entries"
    )
    for level, stats in cache.stats().items():
        print(
            f"  {level} cache: {stats['insertions']} insertions, "
            f"{stats['evictions_lru']} LRU evictions, hit rate {stats['hit_rate']}"
        )


def _setup_phase(harness, workload: str, probe) -> list:
    """(start, seconds) of each set-up timed back to back for `SETUP_SECONDS`."""
    times = []
    phase_end = time.perf_counter() + SETUP_SECONDS
    while not times or time.perf_counter() < phase_end:
        probe.tick()
        times.append(harness.timed_setup(workload))
    probe.sample()
    return times


def end_to_end(args, workloads, harness, oracle_mod, speed) -> tuple:
    probe = speed.SpeedProbe()
    setup_times = _setup_phase(harness, args.workload, probe)
    setup = harness.build(args.workload)
    oracle = oracle_mod.SqliteOracle(setup.fixture)
    writes_needed = MIN_WRITES if args.workload == "dashboard_rw" else 0
    started = time.perf_counter()
    window_rss = []

    def until(log) -> bool:
        if not window_rss and len(log.read_ms) >= WINDOW_READS:
            window_rss.append(_peak_rss_mb())
        return time.perf_counter() - started > WALL_LIMIT_S or (
            log.engine_s >= args.seconds
            and len(log.read_ms) >= WINDOW_READS
            and len(log.write_ms) >= writes_needed
        )

    log = harness.run(
        setup,
        workloads.operations(args.workload, args.seed),
        oracle,
        until,
        profile=True,
        probe=probe,
    )
    oracle.close()
    _working_set(args.workload, log, setup.engine.cache)
    del setup
    setup_times += _setup_phase(harness, args.workload, probe)
    setup_s = probe.scale(*zip(*setup_times))
    read_ms = probe.scale(log.read_at, log.read_ms)
    write_ms = probe.scale(log.write_at, log.write_ms)
    engine_s = (sum(read_ms) + sum(write_ms)) / 1000.0
    sim_ms, wire_kb = _sim_window(log)
    metrics = {
        "setup_s": harness.percentile(setup_s, 50),
        "read_ms_p50": harness.percentile(read_ms, 50),
        "read_ms_p99": harness.percentile(read_ms, 99),
        "reads_per_s": len(read_ms) / engine_s,
        "sim_ms_per_read": sim_ms,
        "wire_kb_per_read": wire_kb,
        "peak_rss_mb": window_rss[0] if window_rss else _peak_rss_mb(),
    }
    print(
        f"{args.workload}: {len(log.read_ms)} reads, {len(log.write_ms)} writes "
        f"in {log.engine_s:.3f} s on the clock (closed loop, 1 client)"
    )
    print(
        f"host speed probe: {len(probe.probe_ms)} samples, quartiles "
        f"{', '.join(f'{q:.3f}' for q in statistics.quantiles(probe.probe_ms, n=4))} "
        f"ms against {speed.REFERENCE_MS} ms reference; setup_s over "
        f"{len(setup_times)} set-ups. Unscaled wall times: read_ms_p50 "
        f"{harness.percentile(log.read_ms, 50):.4f}, read_ms_p99 "
        f"{harness.percentile(log.read_ms, 99):.4f}, reads_per_s "
        f"{len(log.read_ms) / log.engine_s:.2f}, setup_s "
        f"{harness.percentile([t for _, t in setup_times], 50):.5f}"
    )
    for name, value in metrics.items():
        print(f"  {name:<18} {value:12.4f} {END_TO_END_UNITS[name]}")
    if write_ms:
        print(f"  {'write_ms_p50':<18} {harness.percentile(write_ms, 50):12.4f} ms")
        print(f"  {'write_ms_p95':<18} {harness.percentile(write_ms, 95):12.4f} ms")
    print(f"  {'error_rate':<18} {log.failed / max(log.ops, 1):12.4f} ratio")
    out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
           for name, value in metrics.items()}
    return log.failed == 0, log.ops, log.failed, out


def _lockstep(args, ops, harness, oracle, setup, plain_setup, recorder) -> tuple:
    """Run the traced and the untraced engine on the same operations.

    The two take each operation in turn, so both see the same drift in
    machine speed and the ratio of their clock time is the cost of tracing.
    Which goes first alternates, so neither always runs on processor caches
    the other has just warmed. Stops once the traced engine has spent half
    the run's seconds and has passed the exact-count prefix.
    """
    log, plain = harness.RunLog(), harness.RunLog()
    started = time.perf_counter()
    for op in ops:
        if log.ops >= EXACT_OPS and (
            log.engine_s >= args.seconds / 2
            or time.perf_counter() - started > WALL_LIMIT_S / 2
        ):
            break
        turns = [(setup, log, recorder), (plain_setup, plain, None)]
        if op.index % 2:
            turns.reverse()
        for turn_setup, turn_log, turn_recorder in turns:
            if turn_recorder is not None:
                recorder.enable()
            try:
                result = harness.step(turn_setup, op, turn_log, turn_recorder)
            finally:
                recorder.disable()
            if result is not None:
                harness.check(oracle, op, result, turn_log)
        if not op.is_read:
            oracle.insert(op.table, [op.row])
    return log, plain


def _traced_setup(harness, workload: str, recorder):
    recorder.enable()
    try:
        return harness.build(workload, wrap=recorder.wrap_source)
    finally:
        recorder.disable()


def traced(args, workloads, harness, oracle_mod, tracing, layers) -> tuple:
    ops = workloads.operations
    recorder = tracing.Recorder()
    setup = _traced_setup(harness, args.workload, recorder)
    plain_setup = harness.build(args.workload)
    oracle = oracle_mod.SqliteOracle(setup.fixture)
    log, plain = _lockstep(
        args, ops(args.workload, args.seed), harness, oracle, setup, plain_setup, recorder
    )
    oracle.close()

    count_recorder = tracing.Recorder()
    count_setup = _traced_setup(harness, args.workload, count_recorder)
    oracle = oracle_mod.SqliteOracle(count_setup.fixture)
    count_recorder.enable()
    try:
        count_log = harness.run(
            count_setup, ops(args.workload, args.seed), oracle,
            lambda counted: counted.ops >= EXACT_OPS, recorder=count_recorder,
        )
    finally:
        count_recorder.disable()
    oracle.close()
    first = layers.exact_counts(recorder, log, EXACT_OPS)
    second = layers.exact_counts(count_recorder, count_log, EXACT_OPS)
    exact_ok = first == second

    prefix = layers.prefix_counts(count_log, count_recorder, count_setup)
    metrics = layers.per_layer(recorder, log, first, prefix)
    metrics["tracing.overhead_ratio"] = log.engine_s / plain.engine_s
    metrics["write_ms_p50"] = harness.percentile(plain.write_ms, 50)
    metrics["write_ms_p95"] = harness.percentile(plain.write_ms, 95)

    out_dir = ROOT / ".wallbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    recorder.dump(spans_path)

    print(
        f"{args.workload} traced: {log.ops} operations, {len(recorder.spans)} spans "
        f"written to {spans_path.relative_to(ROOT)}"
    )
    layers.print_self_times(recorder, log)
    print(
        f"tracing overhead: {metrics['tracing.overhead_ratio']:.4f}x "
        f"(traced {len(log.read_ms) / log.engine_s:.2f} vs untraced "
        f"{len(plain.read_ms) / plain.engine_s:.2f} reads/s over the same "
        f"{log.ops} operations)"
    )
    layers.print_exact(first, second, EXACT_OPS)
    print("per-layer metrics (-> the end-to-end metric each should move, on which workload):")
    for name, value in metrics.items():
        target = workloads.LAYER_MAP.get(name)
        moves = f"  -> {target[0]} on {target[1]}" if target else ""
        print(f"  {name:<40} {value:14.6f} {layers.UNITS[name]:<6}{moves}")
    failed = log.failed + count_log.failed + plain.failed
    attempted = log.ops + count_log.ops + plain.ops
    out = {name: {"value": value, "unit": layers.UNITS[name]}
           for name, value in metrics.items()}
    return failed == 0 and exact_ok, attempted, failed, out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from wallbench import harness, layers, oracle, speed, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    if args.trace:
        result = traced(args, workloads, harness, oracle, tracing, layers)
    else:
        result = end_to_end(args, workloads, harness, oracle, speed)
    correct, attempted, failed, metrics = result
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
