"""Per-layer metrics from a traced run (see ``workloads.LAYER_MAP``).

``*_ms_per_read`` is the inclusive wall time of the named calls made while
reads were in flight, divided by the reads; ``*_per_write`` likewise over
writes. ``federation.assembly_self_ms_per_read`` is the self time of
``execute_plan``: its duration minus the union of every measured call
inside it (source calls, size accounting, cache lookups, hooks).
``<layer>.self_ms_per_op`` is a layer's self time over all operations.
The exact counts, and the cache, view, advisor and statistics counts of
``prefix_counts``, cover the first ``EXACT_OPS`` operations of the stream.
"""

from __future__ import annotations

from wallbench.tracing import layer_of

NS_PER_MS = 1e6

LAYERS = ("client", "sql", "federation", "sources", "common", "netsim", "cache",
          "views", "advisor", "eai", "storage", "trace", "telemetry", "adaptive")

UNITS = {
    "sql.parse_ms_per_read": "ms",
    "federation.plan_ms_per_read": "ms",
    "federation.plans_per_read": "count",
    "federation.execute_ms_per_read": "ms",
    "federation.assembly_self_ms_per_read": "ms",
    "sources.execute_ms_per_read": "ms",
    "sources.calls_per_read": "count",
    "sources.rows_per_result_row": "ratio",
    "common.size_bytes_ms_per_read": "ms",
    "common.size_bytes_calls_per_read": "count",
    "netsim.record_transfer_calls_per_read": "count",
    "cache.plan_hit_ratio": "ratio",
    "cache.fetch_hit_ratio": "ratio",
    "cache.result_hit_ratio": "ratio",
    "cache.evictions_lru": "count",
    "cache.evictions_invalidated": "count",
    "cache.lookup_ms_per_read": "ms",
    "views.try_answer_ms_per_read": "ms",
    "views.hit_ratio": "ratio",
    "views.fallbacks": "count",
    "views.refreshes_per_write": "count",
    "views.refresh_ms_per_write": "ms",
    "advisor.maintain_ms_per_read": "ms",
    "advisor.owned_views": "count",
    "eai.publish_ms_per_write": "ms",
    "eai.handlers_per_event": "count",
    "storage.insert_ms_per_write": "ms",
    "storage.stats_collects": "count",
    "storage.stats_ms_per_read": "ms",
    "trace.finish_ms_per_read": "ms",
    "trace.spans_per_read": "count",
    "telemetry.hook_ms_per_read": "ms",
    "telemetry.hook_calls_per_read": "count",
    "adaptive.observe_ms_per_read": "ms",
    "adaptive.replans_per_read": "count",
    **{f"{layer}.self_ms_per_op": "ms" for layer in LAYERS},
    "tracing.overhead_ratio": "ratio",
    "write_ms_p50": "ms",
    "write_ms_p95": "ms",
}

#: Counts that repeat exactly from run to run with one client. The traced
#: run executes the first ``EXACT_OPS`` operations twice, from two fresh
#: set-ups, and fails unless every one of these agrees exactly; a later
#: claim may rest on them as counts.
EXACT_COUNTS = (
    "common.size_bytes_calls_per_read",
    "sources.calls_per_read",
    "federation.plans_per_read",
    "eai.handlers_per_event",
    "adaptive.replans_per_read",
    "sim_ms_per_read",
    "wire_kb_per_read",
)

TELEMETRY_HOOKS = ("telemetry.on_fetch", "telemetry.on_query",
                   "telemetry.on_view", "telemetry.tick")
ADAPTIVE_HOOKS = ("adaptive.observe_fetch", "adaptive.observe_bind_chunk",
                  "adaptive.lpt_order")
CACHE_LOOKUPS = ("cache.get_plan", "cache.get_fetch", "cache.get_result")


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def exact_counts(recorder, log, prefix: int) -> dict:
    """The counts that must repeat exactly, over operations 0..prefix-1."""
    reads = {op for op in recorder.reads if op < prefix}
    ops = set(range(prefix))
    calls, _, _ = recorder.totals(reads)
    all_calls, _, _ = recorder.totals(ops)
    n = len(reads)
    return {
        "common.size_bytes_calls_per_read": _ratio(calls["common.size_bytes"], n),
        "sources.calls_per_read": _ratio(calls["sources.execute"], n),
        "federation.plans_per_read": _ratio(calls["federation.plan"], n),
        "eai.handlers_per_event": _ratio(all_calls["eai.handler"], all_calls["eai.publish"]),
        "adaptive.replans_per_read": _ratio(sum(log.replans[:n]), n),
        "sim_ms_per_read": _ratio(sum(log.sim_s[:n]) * 1000.0, n),
        "wire_kb_per_read": _ratio(sum(log.wire_bytes[:n]) / 1024.0, n),
    }


def prefix_counts(log, recorder, setup) -> dict:
    """Cache, view, advisor and statistics counts over the fixed prefix run.

    Totals over the whole traced run would grow with how many operations a
    faster machine or engine fits in it; over the first ``EXACT_OPS``
    operations they follow the seed.
    """
    cache = setup.engine.cache.stats()
    selector = setup.engine.view_selector
    calls, _, _ = recorder.totals()
    return {
        "cache.plan_hit_ratio": cache["plan"]["hit_rate"],
        "cache.fetch_hit_ratio": cache["fetch"]["hit_rate"],
        "cache.result_hit_ratio": cache["result"]["hit_rate"],
        "cache.evictions_lru": sum(level["evictions_lru"] for level in cache.values()),
        "cache.evictions_invalidated": sum(
            level["evictions_invalidated"] for level in cache.values()
        ),
        "views.hit_ratio": _ratio(log.view_hits, len(log.read_ms)),
        "views.fallbacks": log.view_fallbacks,
        "advisor.owned_views": len(selector.owned_views()) if selector else 0,
        "storage.stats_collects": calls["storage.stats_collect"],
    }


def per_layer(recorder, log, exact: dict, prefix: dict) -> dict:
    reads = recorder.reads
    writes = set(range(log.ops)) - reads
    n_reads = len(log.read_ms)
    n_writes = len(log.write_ms)
    calls, inclusive, own = recorder.totals(reads)
    all_calls, all_inclusive, all_own = recorder.totals()
    _, w_inclusive, _ = recorder.totals(writes)

    def per_read_ms(*names) -> float:
        return _ratio(sum(inclusive[name] for name in names) / NS_PER_MS, n_reads)

    metrics = {
        "sql.parse_ms_per_read": per_read_ms("sql.parse"),
        "federation.plan_ms_per_read": per_read_ms("federation.plan"),
        "federation.plans_per_read": exact["federation.plans_per_read"],
        "federation.execute_ms_per_read": per_read_ms("federation.execute"),
        "federation.assembly_self_ms_per_read": _ratio(
            own["federation.execute"] / NS_PER_MS, n_reads
        ),
        "sources.execute_ms_per_read": per_read_ms("sources.execute"),
        "sources.calls_per_read": exact["sources.calls_per_read"],
        "sources.rows_per_result_row": _ratio(
            recorder.note_total("sources.execute", reads), log.result_rows
        ),
        "common.size_bytes_ms_per_read": per_read_ms("common.size_bytes"),
        "common.size_bytes_calls_per_read": exact["common.size_bytes_calls_per_read"],
        "netsim.record_transfer_calls_per_read": _ratio(
            calls["netsim.record_transfer"], n_reads
        ),
        "cache.plan_hit_ratio": prefix["cache.plan_hit_ratio"],
        "cache.fetch_hit_ratio": prefix["cache.fetch_hit_ratio"],
        "cache.result_hit_ratio": prefix["cache.result_hit_ratio"],
        "cache.evictions_lru": prefix["cache.evictions_lru"],
        "cache.evictions_invalidated": prefix["cache.evictions_invalidated"],
        "cache.lookup_ms_per_read": per_read_ms(*CACHE_LOOKUPS),
        "views.try_answer_ms_per_read": per_read_ms("views.try_answer"),
        "views.hit_ratio": prefix["views.hit_ratio"],
        "views.fallbacks": prefix["views.fallbacks"],
        "views.refreshes_per_write": _ratio(all_calls["views.refresh"], n_writes),
        "views.refresh_ms_per_write": _ratio(
            all_inclusive["views.refresh"] / NS_PER_MS, n_writes
        ),
        "advisor.maintain_ms_per_read": per_read_ms("advisor.maintain"),
        "advisor.owned_views": prefix["advisor.owned_views"],
        "eai.publish_ms_per_write": _ratio(
            w_inclusive["eai.publish"] / NS_PER_MS, n_writes
        ),
        "eai.handlers_per_event": exact["eai.handlers_per_event"],
        "storage.insert_ms_per_write": _ratio(
            w_inclusive["storage.insert"] / NS_PER_MS, n_writes
        ),
        "storage.stats_collects": prefix["storage.stats_collects"],
        "storage.stats_ms_per_read": per_read_ms("storage.stats_for"),
        "trace.finish_ms_per_read": per_read_ms("trace.finish"),
        "trace.spans_per_read": _ratio(
            recorder.note_total("trace.finish", reads), n_reads
        ),
        "telemetry.hook_ms_per_read": per_read_ms(*TELEMETRY_HOOKS),
        "telemetry.hook_calls_per_read": _ratio(
            sum(calls[name] for name in TELEMETRY_HOOKS), n_reads
        ),
        "adaptive.observe_ms_per_read": per_read_ms(*ADAPTIVE_HOOKS),
        "adaptive.replans_per_read": exact["adaptive.replans_per_read"],
    }
    by_layer = _self_by_layer(all_own)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = _ratio(
            by_layer.get(layer, 0) / NS_PER_MS, log.ops
        )
    return metrics


def _self_by_layer(own) -> dict:
    out: dict = {}
    for name, ns in own.items():
        out[layer_of(name)] = out.get(layer_of(name), 0) + ns
    return out


def print_self_times(recorder, log) -> None:
    """Self time per layer over the traced operations."""
    calls, _, own = recorder.totals()
    by_layer = _self_by_layer(own)
    total = sum(by_layer.values()) or 1
    print(f"self time per layer ({log.ops} operations):")
    for layer in sorted(by_layer, key=by_layer.get, reverse=True):
        layer_calls = sum(n for name, n in calls.items() if layer_of(name) == layer)
        print(
            f"  {layer:<12} {by_layer[layer] / NS_PER_MS:12.3f} ms "
            f"{by_layer[layer] / total:7.1%} {layer_calls:9d} calls"
        )


def print_exact(first: dict, second: dict, prefix: int) -> None:
    verdict = "identical" if first == second else "DIFFERENT"
    print(f"exact counts over the first {prefix} operations, two runs: {verdict}")
    for name in EXACT_COUNTS:
        unit = {"sim_ms_per_read": "ms", "wire_kb_per_read": "KB"}.get(name, "count")
        mark = "" if second[name] == first[name] else f"  (second run: {second[name]!r})"
        print(f"  {name:<40} {first[name]!r} {unit}{mark}")
