"""Set-up and the closed client loop shared by every EIIBench-wall run."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import repro
from repro.bench import BenchConfig, build_enterprise
from repro.cache import CacheHierarchy, canonical_statement, fetch_key
from repro.common.errors import EIIError
from repro.eai import MessageBroker
from repro.federation import EngineConfig
from repro.netsim import SimClock
from repro.trace import Tracer
from repro.views.invalidation import ChangeNotifier

#: source database of each table a write may touch
WRITE_SOURCES = {"orders": "sales", "tickets": "support", "invoices": "finance"}


@dataclass
class Setup:
    """One ready engine over a freshly generated enterprise."""

    fixture: object
    engine: object
    notifier: ChangeNotifier


def build(workload: str, wrap: Optional[Callable] = None) -> Setup:
    """Data, catalog, engine, views and broker wiring for `workload`."""
    fixture = build_enterprise(BenchConfig(scale=1, seed=42))
    config = EngineConfig(
        clock=SimClock(),
        cache=CacheHierarchy(),
        views=True,
        auto_materialize=True,
    )
    if workload == "adhoc_observed":
        config = config.with_overrides(tracer=Tracer(), telemetry=True, adaptive=True)
    engine = repro.connect(fixture.catalog(wrap=wrap), config)
    broker = MessageBroker()
    engine.attach_invalidation(broker)
    notifier = ChangeNotifier(broker)
    for table, source in WRITE_SOURCES.items():
        notifier.watch(table, getattr(fixture, source).table(table))
    return Setup(fixture, engine, notifier)


def timed_setup(workload: str) -> tuple:
    """Start and seconds of one set-up from a collected heap; it is dropped."""
    gc.collect()
    start = time.perf_counter()
    build(workload)
    return start, time.perf_counter() - start


def write(setup: Setup, op) -> None:
    """Insert the op's row at its source, then publish the change."""
    db = getattr(setup.fixture, WRITE_SOURCES[op.table])
    db.table(op.table).insert(op.row)
    setup.notifier.poll()


@dataclass
class RunLog:
    """What the client saw, operation by operation."""

    read_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    read_at: list = field(default_factory=list)
    write_at: list = field(default_factory=list)
    sim_s: list = field(default_factory=list)
    wire_bytes: list = field(default_factory=list)
    result_rows: int = 0
    view_hits: int = 0
    view_fallbacks: int = 0
    replans: list = field(default_factory=list)
    errors: int = 0
    mismatches: int = 0
    ops: int = 0
    engine_s: float = 0.0
    canonical: set = field(default_factory=set)
    fetch_keys: set = field(default_factory=set)

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches


def step(setup: Setup, op, log: RunLog, recorder=None):
    """Execute one operation on the clock; returns the read's result.

    Returns None for a write, and for an operation that raised `EIIError`
    (counted in ``log.errors``).
    """
    log.ops += 1
    if recorder is not None:
        recorder.begin_op(op)
    try:
        start = time.perf_counter()
        if op.is_read:
            result = setup.engine.query(op.sql)
        else:
            result = None
            write(setup, op)
        elapsed = time.perf_counter() - start
    except EIIError as exc:
        log.errors += 1
        print(f"error on op {op.index}: {exc}")
        return None
    finally:
        if recorder is not None:
            recorder.end_op()
    log.engine_s += elapsed
    if result is None:
        log.write_ms.append(elapsed * 1000.0)
        log.write_at.append(start)
        return None
    log.read_ms.append(elapsed * 1000.0)
    log.read_at.append(start)
    setup.engine.clock.advance(result.elapsed_seconds)
    log.sim_s.append(result.elapsed_seconds)
    log.wire_bytes.append(result.metrics.summary()["wire_bytes"])
    log.result_rows += len(result.relation)
    fresh = not result.from_cache
    log.view_hits += fresh and result.metrics.view_hits
    log.view_fallbacks += fresh and result.metrics.view_fallbacks
    log.replans.append(fresh and result.metrics.replans)
    return result


def check(oracle, op, result, log: RunLog, profile: bool = False) -> None:
    """Check a read's answer against the oracle, off the clock.

    With `profile`, the read's canonical text and component fetch keys are
    collected to describe the working set.
    """
    if not oracle.agrees(op.sql, result.relation.rows):
        log.mismatches += 1
        print(f"wrong answer on op {op.index}: {op.sql}")
    if profile:
        log.canonical.add(canonical_statement(op.sql)[1])
        for node in result.plan.fetches:
            log.fetch_keys.add(fetch_key(node.source.name, node.stmt))


def run(
    setup: Setup,
    ops: Iterable,
    oracle,
    until: Callable[[RunLog], bool],
    recorder=None,
    profile: bool = False,
    probe=None,
) -> RunLog:
    """Drive the closed loop until `until(log)` holds.

    Only the engine call (or the write plus its poll) is on the clock; the
    answer check, `until`, the speed `probe` and any bookkeeping run
    between operations.
    """
    log = RunLog()
    for op in ops:
        if until(log):
            break
        if probe is not None:
            probe.tick()
        result = step(setup, op, log, recorder)
        if result is not None:
            check(oracle, op, result, log, profile)
        elif not op.is_read:
            oracle.insert(op.table, [op.row])
    if probe is not None:
        probe.sample()
    return log


def percentile(values: list, q: float) -> float:
    """The `q`-th percentile (0-100), interpolated between order statistics."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
