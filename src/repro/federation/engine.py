"""Federated execution: parallel component fetches + assembly-site evaluation.

The engine runs behind a three-level `repro.cache.CacheHierarchy`:
whole-result lookups first, then plan reuse, then per-component fetch
reuse during execution. `FederatedEngine.attach_invalidation(broker)`
subscribes once to `table.<name>.changed` events; each one runs
`FederatedEngine.invalidate_table`, which expires dependent cache entries,
adaptive calibrations and materialized views.

Fault tolerance: pass a `ResiliencePolicy` to get bounded retries with
exponential backoff (on the simulated clock), per-fetch timeouts, a
per-source circuit breaker, and failover to catalog-registered replicas.
With `partial_results=True`, a failed *non-essential* branch (a union arm
or an outer-join enrichment) degrades to an annotated partial result —
see `FederatedResult.completeness` — instead of failing the query.

Observation has one path per grain: each event of a component fetch is
one `_FetchObserver` call, feeding the metrics collector, trace span,
telemetry plane and completeness report in a fixed order; every query
leaves through `_finish_query`, which finishes its trace and reports it.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Optional, Union

from repro.cache import CacheConfig, CacheHierarchy, canonical_statement, fetch_key
from repro.common.errors import (
    AdmissionError,
    EIIError,
    PlanError,
    SourceError,
    SourceTimeoutError,
)
from repro.common.relation import Relation
from repro.engine.cost import CostModel
from repro.engine.executor import LocalEngine
from repro.engine.logical import LogicalJoin, LogicalPlan, LogicalUnion
from repro.federation.catalog import FederationCatalog
from repro.federation.config import EngineConfig
from repro.federation.nodes import LogicalBindJoin, LogicalFetch, with_in_filter
from repro.federation.planner import FederatedPlan, FederatedPlanner
from repro.federation.report import Report, counter_line
from repro.federation.resilience import (
    CompletenessReport,
    ResilienceManager,
    ResiliencePolicy,
    rename_statement_tables,
)
from repro.netsim.metrics import MetricsCollector
from repro.netsim.network import NetworkModel
from repro.sql.ast import Select, UnionSelect
from repro.sql.printer import to_sql
from repro.storage.catalog import Database
from repro.telemetry.plane import resolve_telemetry
from repro.trace import NULL_TRACER, Tracer, explain_analyze, instrument_physical
from repro.trace.span import makespan

#: Simulated seconds per local cost unit at the assembly site.
HUB_TIME_PER_COST_UNIT_S = 2e-6


@dataclass
class FederatedResult:
    """A federated query's answer plus its full execution accounting."""

    relation: Relation
    plan: FederatedPlan
    metrics: MetricsCollector
    fetch_seconds: list = field(default_factory=list)
    elapsed_seconds: float = 0.0  # simulated wall clock (parallelism-aware)
    from_cache: bool = False
    #: which sources answered / were skipped / were served stale; present
    #: whenever the engine ran with resilience or partial-results enabled
    completeness: Optional[CompletenessReport] = None
    #: breaker state per source at the end of execution (resilience only)
    breaker_states: dict = field(default_factory=dict)
    #: span tree for this execution (None unless a tracer was attached or
    #: the query ran with analyze=True)
    trace: Optional[object] = None
    #: the executed physical operator tree, retained (with per-operator
    #: actual row counts) only when tracing, for EXPLAIN ANALYZE
    physical: Optional[object] = None
    #: mid-query re-optimization report (`repro.adaptive.ReplanReport`);
    #: None when the plan survived its own actuals
    replan: Optional[object] = None
    #: view provenance (`repro.views.ViewProvenance`) when this result was
    #: answered from a materialized view instead of federating
    view: Optional[object] = None
    #: payload bytes of `relation` as shipped to the client
    result_bytes: int = 0

    @property
    def is_partial(self) -> bool:
        return self.completeness is not None and not self.completeness.complete

    def report(self, analyze: bool = False) -> Report:
        """This result's execution account as a sectioned `Report`.

        The one rendering surface behind `explain()`/`explain_analyze()`:
        consumers needing a single facet (the replan verdict, view
        provenance, completeness) read the section by its stable name
        instead of string-scraping. Section names and order are documented
        in `repro.federation.report`.
        """
        report = Report()
        report.add("plan", self.plan.pretty())
        if self.replan is not None:
            report.add("replan", self.replan.describe(), self.replan.pretty())
        report.add("metrics", counter_line("metrics", self.metrics.base_summary()))
        for name, counters in (
            ("cache", self.metrics.cache_summary()),
            ("resilience", self.metrics.resilience_summary()),
            ("adaptive", self.metrics.adaptive_summary()),
            ("views", self.metrics.views_summary()),
        ):
            if any(counters.values()):
                report.add(name, counter_line(name, counters))
        if self.view is not None:
            report.add("views", self.view.describe())
        report.add("elapsed", f"simulated elapsed: {self.elapsed_seconds:.4f}s")
        if self.breaker_states:
            report.add(
                "breakers",
                "breakers: "
                + ", ".join(
                    f"{name}={state}"
                    for name, state in sorted(self.breaker_states.items())
                ),
            )
        if self.completeness is not None:
            prefix = "completeness: PARTIAL — " if self.is_partial else "completeness: "
            report.add("completeness", prefix + self.completeness.describe())
        if analyze:
            report.add("analyze", explain_analyze(self))
        return report

    def explain(self) -> str:
        return self.report().render()

    def explain_analyze(self) -> str:
        """EXPLAIN ANALYZE text (requires the query to have been traced)."""
        return self.report(analyze=True).section("analyze").text()


#: a collector's running totals that a fetch or bind-chunk span reports
_TOTALS = attrgetter("simulated_seconds", "rows_shipped", "payload_bytes", "wire_bytes")


class _FetchObserver:
    """The one fan-out for a component fetch's events.

    Each event method feeds the fetch's collector first (so a span event's
    offset includes the seconds the event charged), then the span (None
    when untraced), the telemetry plane (whose null default is a no-op) and
    the completeness report. `close()` stamps the span with what the
    collector gained meanwhile.
    """

    __slots__ = ("collector", "span", "engine", "report", "cache", "_base")

    def __init__(self, runtime, collector: MetricsCollector, span=None):
        self.collector = collector
        self.span = span
        self.engine = runtime.engine
        self.report = runtime.report
        #: "miss" once the fetch cache missed; reported with the outcome
        self.cache = ""
        if span is not None:
            self._base = _TOTALS(collector)

    def _span(self, marks: dict, event: str = "", **attrs) -> None:
        """Set `marks` on the span and add `event` to it, timed "now"."""
        span = self.span
        if span is not None:
            span.set(**marks)
            if event:
                offset = self.collector.simulated_seconds - self._base[0]
                span.event(event, offset, **attrs)

    def cache_hit(self, source: str, entry) -> None:
        collector = self.collector
        collector.fetch_cache_hits += 1
        collector.cache_seconds_saved += entry.cost_seconds
        collector.cache_bytes_saved += entry.size_bytes
        self.engine.telemetry.on_fetch(source, cache="hit")
        saved = {"seconds_saved": entry.cost_seconds, "bytes_saved": entry.size_bytes}
        self._span({"cache": "hit"}, "cache.hit", **saved)

    def cache_miss(self) -> None:
        self.collector.fetch_cache_misses += 1
        self.cache = "miss"
        self._span({"cache": "miss"})

    def stale_hit(self, tables) -> None:
        self.collector.stale_cache_hits += 1
        self._span({}, "cache.stale_hit")
        if self.report is not None:
            self.report.note_stale(tables)

    def remote_success(self, source: str, served_by: str, seconds, size) -> None:
        self.engine.telemetry.on_fetch(
            source, seconds, size, cache=self.cache, served_by=served_by
        )

    def remote_failure(self, source: str) -> None:
        # a resilience manager already reported each failed attempt
        ok = False if self.engine.resilience is None else None
        if ok is not None or self.cache:
            self.engine.telemetry.on_fetch(source, cache=self.cache, ok=ok)

    def failover(self, source: str) -> None:
        self.collector.failovers += 1
        self._span({"failover_to": source}, "failover", source=source)

    def degraded(self, node, error, kind: str) -> None:
        self.collector.degraded_fetches += 1
        self._span({"degraded": True}, "degraded", kind=kind, error=str(error))
        if self.report is not None:
            self.report.note_skipped(
                node.source.name, node.tables, error, node.est_rows, kind
            )

    def breaker_rejected(self, source: str) -> None:
        self.collector.breaker_short_circuits += 1
        self.engine.telemetry.on_breaker_short_circuit(source)
        self._span({}, "breaker.open", source=source)

    def source_failure(self, source: str, attempt: int, error) -> None:
        self.collector.source_failures += 1
        self.engine.telemetry.on_source_failure(source)
        self._span(
            {}, "source_failure", source=source, attempt=attempt, error=str(error)
        )

    def retry(self, source: str, attempt: int, backoff_s: float) -> None:
        collector = self.collector
        collector.retries += 1
        collector.backoff_seconds += backoff_s
        collector.charge_seconds(backoff_s)
        self.engine.telemetry.on_retry(source, backoff_s=backoff_s)
        self._span({}, "retry", source=source, attempt=attempt, backoff_s=backoff_s)

    def close(self) -> None:
        span = self.span
        if span is not None:
            seconds, rows, payload, wire = (
                now - base for now, base in zip(_TOTALS(self.collector), self._base)
            )
            span.self_seconds = seconds
            span.set(rows=rows, payload_bytes=payload, wire_bytes=wire)


class _FetchRuntime:
    """Shared state the fetch/bind-join nodes use during one execution.

    `local` memoizes per-plan-node results within one execution (a node
    referenced twice runs once); the engine's cache hierarchy provides the
    *cross-query* fetch store keyed by `(source, canonical SQL)`. Remote
    calls funnel through `_remote_fetch`, which layers retries, breakers
    and replica failover around the raw source call when the engine has a
    resilience policy.
    """

    def __init__(self, engine: "FederatedEngine", metrics: MetricsCollector, site: str):
        self.engine = engine
        self.metrics = metrics
        self.site = site
        self.local: dict[int, Relation] = {}
        self.report: Optional[CompletenessReport] = None
        #: span for the assembly phase; bind-join chunk spans attach here
        #: (None when tracing is off)
        self.span = None

    # -- the guarded remote call -------------------------------------------------

    def _attempt(self, source, stmt, collector, description):
        """One attempt against one source: execute, ship, check the timeout.

        Runs on a private collector so a failed or timed-out attempt can be
        accounted without polluting `collector` with a half-recorded
        transfer; on success the private collector is merged in whole.
        Returns ``(relation, attempt_simulated_seconds, payload_bytes)``.
        """
        local = MetricsCollector(network=collector.network)
        try:
            raw = source.execute_select(stmt, local)
        except EIIError:
            collector.merge(local)  # the failed round trip still took time
            raise
        size = raw.size_bytes()
        local.record_transfer(
            source.name,
            self.site,
            rows=len(raw),
            payload_bytes=size,
            wire_format=source.capabilities.wire_format,
            description=description,
        )
        manager = self.engine.resilience
        timeout = manager.policy.fetch_timeout_s if manager is not None else None
        if timeout is not None and local.simulated_seconds > timeout:
            # we "waited" until the deadline, then abandoned the attempt
            collector.charge_seconds(timeout)
            raise SourceTimeoutError(
                f"fetch from {source.name!r} exceeded the {timeout:.3f}s "
                f"timeout (attempt took {local.simulated_seconds:.3f}s simulated)",
                source=source.name,
                timeout_s=timeout,
            )
        collector.merge(local)
        return raw, local.simulated_seconds, size

    def _candidates(self, node, stmt):
        """The primary, then every replica source able to answer `stmt`."""
        yield node.source, stmt
        manager = self.engine.resilience
        if manager is None or not manager.policy.failover or not node.tables:
            return
        catalog = self.engine.catalog
        for source, mapping in catalog.failover_candidates(
            node.source.name, node.tables
        ):
            rename = {}
            for global_name in node.tables:
                primary_local = catalog.entry(global_name).local_name.lower()
                rename[primary_local] = mapping[global_name]
            yield source, rename_statement_tables(stmt, rename)

    def _remote_fetch(self, node, stmt, observer, description):
        """Execute `stmt` with retries/breaker/failover per the policy.

        Returns ``(relation, cost_seconds, source_used, payload_bytes)``;
        raises the last candidate's error when every access path is exhausted.
        """
        # The per-source limiter (when attached) bounds how many pool
        # workers may sit inside one source's round trips at a time, so a
        # slow source queues its own callers instead of monopolizing the
        # whole prefetch pool. Simulated time is unaffected — the limiter
        # shapes wall-clock thread concurrency only.
        limiter = self.engine.source_limiter
        guard = (
            limiter.slot(node.source.name) if limiter is not None else nullcontext()
        )
        collector = observer.collector
        manager = self.engine.resilience
        with guard:
            last_error: Optional[Exception] = None
            for index, (source, candidate) in enumerate(self._candidates(node, stmt)):
                attempt = partial(
                    self._attempt, source, candidate, collector, description
                )
                try:
                    if manager is None:  # fail fast: the primary is the only candidate
                        raw, cost, size = attempt()
                    else:
                        raw, cost, size = manager.run_guarded(
                            source.name, attempt, observer
                        )
                except SourceError as exc:
                    last_error = exc
                    continue
                if index > 0:
                    observer.failover(source.name)
                return raw, cost, source, size
            assert last_error is not None
            raise last_error

    # -- fetch / bind-fetch ------------------------------------------------------

    def _fetch_component(self, node, stmt, observer, kind, description, keys=0):
        """One component query: the fetch cache, else the guarded remote call.

        The single path behind `fetch` and every `bind_fetch` chunk: cache
        lookup, `_remote_fetch`, degradation of a failed non-essential
        branch, the primary-only cache write, and the adaptive store's (and
        for a whole fetch, the completeness report's) record of the answer.
        Returns the fetched rows; a degraded branch has none.
        """
        cache = self.engine.cache
        key = fetch_key(node.source.name, stmt) if cache.fetches is not None else None
        entry = cache.get_fetch(key) if key is not None else None
        hit = entry is not None
        if hit:
            observer.cache_hit(node.source.name, entry)
            # A hit never touches a breaker; but when every access path is
            # down, the answer cannot be re-validated now: it may be stale.
            manager = self.engine.resilience
            if manager is not None and all(
                manager.source_down(source.name)
                for source, _ in self._candidates(node, stmt)
            ):
                observer.stale_hit(node.tables or node.depends_on)
            rows, size, seconds = entry.value.rows, entry.size_bytes, entry.cost_seconds
            source_used = node.source
        else:
            if key is not None:
                observer.cache_miss()
            try:
                raw, seconds, source_used, size = self._remote_fetch(
                    node, stmt, observer, description
                )
            except EIIError as exc:
                observer.remote_failure(node.source.name)
                degradable = getattr(node, "degradable", False)
                if not (self.engine.partial_results and degradable):
                    raise
                observer.degraded(node, exc, kind)
                return []  # a skipped non-essential branch
            observer.remote_success(node.source.name, source_used.name, seconds, size)
            # Only a primary-served fetch is cached: the entry's key and tags
            # describe the primary, and a replica answer must not mask it.
            if key is not None and source_used is node.source:
                cache.put_fetch(
                    key,
                    raw,
                    tags=node.depends_on,
                    cost_seconds=seconds,
                    size_bytes=size,
                )
            rows = raw.rows
        if kind == "fetch" and self.report is not None:
            self.report.note_answered(source_used.name, node.est_rows)
        adaptive = self.engine.adaptive
        if adaptive is not None:  # a cache hit's row count is a true observation
            facts = dict(
                rows=len(rows), payload_bytes=size, seconds=seconds, from_cache=hit
            )
            if kind == "fetch":
                adaptive.observe_fetch(node, **facts)
            else:
                adaptive.observe_bind_chunk(node, keys=keys, **facts)
        return rows

    def fetch(self, node: LogicalFetch, observer=None) -> Relation:
        cached = self.local.get(id(node))
        if cached is not None:
            return cached
        observer = observer or _FetchObserver(self, self.metrics)
        description = f"fetch from {node.source.name}"
        rows = self._fetch_component(node, node.stmt, observer, "fetch", description)
        # Relabel positionally: the residual plan resolves against the
        # schema of the subtree the fetch replaced.
        result = Relation(node.schema, rows)
        self.local[id(node)] = result
        return result

    def bind_fetch(self, node: LogicalBindJoin, keys: list) -> Relation:
        if not keys:
            return Relation(node.fetch_schema, [])
        rows: list[tuple] = []
        tag = getattr(node, "_trace_tag", None)
        for chunk_index, start in enumerate(range(0, len(keys), node.max_inlist)):
            chunk = keys[start : start + node.max_inlist]
            stmt = with_in_filter(node.template, node.right_key, chunk)
            span = None
            if self.span is not None:
                span = self.span.child(
                    f"bind_fetch:{node.source.name}",
                    category="bind_fetch",
                    source=node.source.name,
                    chunk=chunk_index,
                    keys=len(chunk),
                    sql=to_sql(node.template),
                )
                if tag is not None:
                    span.set(node=tag)
            observer = _FetchObserver(self, self.metrics, span)
            description = f"bind fetch from {node.source.name} ({len(chunk)} keys)"
            try:
                # a degraded chunk loses its enrichments, not the query
                rows.extend(
                    self._fetch_component(
                        node, stmt, observer, "bind_chunk", description, len(chunk)
                    )
                )
            finally:
                observer.close()
        # the chunks are one answer: the bind source is noted once
        if self.report is not None:
            self.report.note_answered(node.source.name, node.est_rows)
        return Relation(node.fetch_schema, rows)


class FederatedEngine:
    """The EII server: plans and executes queries over registered sources."""

    def __init__(
        self, catalog: FederationCatalog, config: Optional[EngineConfig] = None
    ):
        """Build an engine over `catalog`, configured by an `EngineConfig`.

        ``repro.connect(catalog, config, **overrides)`` is the documented
        facade over this constructor.
        """
        if config is not None and not isinstance(config, EngineConfig):
            raise TypeError(
                f"config must be an EngineConfig, not {type(config).__name__}"
            )
        self.config = config = config or EngineConfig()
        clock = config.clock if config.clock is not None else time.time
        self.catalog = catalog
        self.network = config.network or NetworkModel()
        self.parallel_workers = max(config.parallel_workers, 1)
        self.planner = config.planner or FederatedPlanner(
            catalog,
            network=self.network,
            semijoin=config.semijoin,
            choose_assembly_site=config.choose_assembly_site,
        )
        #: adaptive execution (cardinality feedback, mid-query replanning,
        #: LPT prefetch scheduling); None keeps the static engine — every
        #: adaptive code path is gated on this, so the default is
        #: byte-identical to the pre-adaptive behavior
        self.adaptive = self._resolve_adaptive(config.adaptive)
        if self.adaptive is not None and self.adaptive.policy.feedback:
            from repro.adaptive import FeedbackCostModel

            self.planner.cost_model = FeedbackCostModel(
                self.adaptive.store, catalog
            )
        #: reject queries predicted to run longer than this (None = admit all)
        self.admission_budget_s = config.admission_budget_s
        self.clock = clock
        # Default: plan caching on (pure win — plans depend only on the
        # schema); fetch and result caching off so repeated queries
        # observably re-hit sources unless the caller opts in.
        self.cache = config.cache or CacheHierarchy(
            CacheConfig(fetch_enabled=False, result_enabled=False), clock=clock
        )
        #: per-source retry/breaker/failover behavior; None = fail fast,
        #: exactly the pre-resilience all-or-nothing engine
        resilience = config.resilience
        if resilience is None or isinstance(resilience, ResilienceManager):
            self.resilience = resilience
        else:
            self.resilience = ResilienceManager(resilience, clock=clock)
        #: opt-in: degrade failed non-essential branches to annotated
        #: partial results instead of failing the whole query
        self.partial_results = config.partial_results
        #: opt-in strict mode: run static analysis before planning and plan
        #: invariant verification after it, raising `AnalysisError` with
        #: zero bytes shipped when a query is statically infeasible
        self.validate = config.validate
        #: optional per-source concurrency limiter (anything with a
        #: ``slot(source_name)`` context manager, e.g.
        #: `repro.sched.SourceLimiter`); bounds wall-clock threads per
        #: source inside the prefetch pool
        self.source_limiter = config.source_limiter
        self._analyzer = None
        self._scratch = Database("assembly")
        self._local = LocalEngine(self._scratch, optimize=False)
        self.set_tracer(config.tracer)
        #: observe-only telemetry plane; the no-op default keeps execution
        #: byte-identical to an engine without telemetry (same contract as
        #: `NULL_TRACER`)
        self.telemetry = resolve_telemetry(config.telemetry)
        if self.telemetry.enabled:
            if self.telemetry.clock is None:
                # windows roll on the engine's (usually simulated) clock
                self.telemetry.clock = clock
                self.telemetry.series.clock = clock
            if self.resilience is not None:
                self.resilience.attach_telemetry(self.telemetry)
        #: answering queries using views: a `ViewManager` (engine-owned by
        #: default) plus the matcher; both None when views are off, keeping
        #: the query path byte-identical to the view-less engine
        self.views = self._resolve_views(config.views, config.auto_materialize)
        self.view_selector = self._resolve_selector(config.auto_materialize)
        if self.views is not None:
            from repro.views.answering import ViewAnswering
            from repro.views.catalog import ServePolicy

            policy = config.view_policy or ServePolicy()
            self.view_policy = policy
            self._answering = ViewAnswering(self, policy)
        else:
            self.view_policy = config.view_policy
            self._answering = None

    def _resolve_views(self, views, auto_materialize):
        """Accept a `ViewManager`, True, or None (implied on by the advisor).

        Imported lazily like `repro.analysis`/`repro.adaptive` — the views
        package pulls in the local executor, which this module must not
        import at class-definition time.
        """
        if views is None or views is False:
            if not auto_materialize:
                return None
            views = True
        if views is True:
            from repro.views.manager import ViewManager

            return ViewManager(self)
        return views

    def _resolve_selector(self, auto_materialize):
        """Accept a `ViewSelector`, a byte budget, True, or None."""
        if auto_materialize is None or auto_materialize is False:
            return None
        from repro.advisor.selector import ViewSelector

        if auto_materialize is True:
            return ViewSelector(self)
        if isinstance(auto_materialize, (int, float)):
            return ViewSelector(self, byte_budget=int(auto_materialize))
        if isinstance(auto_materialize, ViewSelector):
            auto_materialize.attach(self)
            return auto_materialize
        raise PlanError(
            f"auto_materialize must be a ViewSelector, byte budget or bool, "
            f"got {type(auto_materialize).__name__}"
        )

    @staticmethod
    def _resolve_adaptive(adaptive):
        """Accept an `AdaptiveContext`, an `AdaptivePolicy`, True, or None.

        Imported lazily (like `repro.analysis`): the adaptive package
        imports federation planner/nodes at module level, so a top-level
        import here would be circular.
        """
        if adaptive is None or adaptive is False:
            return None
        from repro.adaptive import AdaptiveContext, AdaptivePolicy

        if isinstance(adaptive, AdaptiveContext):
            return adaptive
        if isinstance(adaptive, AdaptivePolicy):
            return AdaptiveContext(adaptive)
        if adaptive is True:
            return AdaptiveContext()
        raise PlanError(
            f"adaptive must be an AdaptiveContext, AdaptivePolicy or bool, "
            f"got {type(adaptive).__name__}"
        )

    def set_tracer(self, tracer) -> None:
        """Attach a `Tracer` (or None for the zero-cost no-op default)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cache.tracer = self.tracer if self.tracer.enabled else None

    # -- public -----------------------------------------------------------------

    def query(
        self,
        query: Union[str, Select, LogicalPlan],
        analyze: bool = False,
        use_views: bool = True,
    ) -> FederatedResult:
        """Plan and execute a federated query (cache- and admission-aware).

        With ``analyze=True`` the execution is traced even when the engine
        has no tracer attached, so `FederatedResult.explain_analyze()` can
        render the per-node actuals for this one query.

        When the engine has views enabled, a SELECT subsumed by a fresh
        materialized view is answered from the view's rows (zero network;
        see `repro.views.answering`); ``use_views=False`` forces base
        federation — view refresh itself runs this way, and the bench
        differential oracle uses it as the ground truth.
        """
        tracer = self.tracer
        if analyze and not tracer.enabled:
            tracer = Tracer(keep=1)
        statement, canonical = canonical_statement(query)
        if not isinstance(statement, (Select, UnionSelect, LogicalPlan)):
            raise PlanError("federated queries must be SELECT statements")
        trace = tracer.begin("query", sql=canonical)
        if self.validate and not isinstance(statement, LogicalPlan):
            self._analyze_or_raise(
                statement, query if isinstance(query, str) else None
            )
        # The result level keeps its historical contract: only *textual*
        # queries are served whole from cache (now under the canonical key,
        # so reformatted spellings of one query share an entry).
        result_key = canonical if isinstance(query, str) else None
        if result_key is not None:
            hit = self.cache.get_result(result_key)
            if hit is not None:
                result = FederatedResult(
                    hit.relation,
                    hit.plan,
                    hit.metrics,
                    hit.fetch_seconds,
                    elapsed_seconds=0.0,
                    from_cache=True,
                    completeness=hit.completeness,
                    result_bytes=hit.result_bytes,
                )
                if trace is not None:
                    trace.root.event("cache.result_hit")
                self._finish_query("cached", result, trace, tracer, result_cache="hit")
                return result
        view_fallbacks: list = []
        if use_views and self._answering is not None:
            answer, view_fallbacks = self._answering.try_answer(statement)
            if answer is not None:
                result = self._finish_view_answer(
                    answer, result_key, trace, tracer
                )
                if self.view_selector is not None:
                    self.view_selector.observe_hit(answer.view)
                return result
        if trace is not None:
            trace.root.child("parse", category="parse", sql=canonical)
        plan, plan_was_cached = self._plan_for(statement, canonical)
        if trace is not None:
            trace.root.child(
                "plan",
                category="plan",
                cached=plan_was_cached,
                assembly_site=plan.assembly_site,
                fetches=len(plan.fetches),
                bind_joins=len(plan.bind_joins),
            )
        if self.validate:
            self._verify_or_raise(plan)
        if self.admission_budget_s is not None:
            predicted = self.predict_elapsed(plan)
            if predicted > self.admission_budget_s:
                raise AdmissionError(
                    f"query predicted to take {predicted:.3f}s, over the "
                    f"{self.admission_budget_s:.3f}s admission budget",
                    predicted_seconds=predicted,
                )
        try:
            result = self.execute_plan(plan, trace=trace)
        except EIIError:
            # the trace stays unfinished, as the query stopped
            self._finish_query("error", None, None, tracer)
            raise
        if plan_was_cached:
            result.metrics.plan_cache_hits += 1
        # Partial answers must never be served later as if they were whole.
        if result_key is not None and not result.is_partial:
            self.cache.put_result(
                result_key,
                result,
                tags=plan.table_dependencies(),
                size_bytes=result.result_bytes,
                cost_seconds=result.elapsed_seconds,
            )
        # views that matched but were too dirty/stale to serve
        result.metrics.view_fallbacks += len(view_fallbacks)
        self._finish_query(
            "partial" if result.is_partial else "ok",
            result,
            trace,
            tracer,
            views=[(name, "fallback", 0.0) for name in view_fallbacks],
            elapsed_s=result.elapsed_seconds,
            partial=result.is_partial,
        )
        if (
            use_views
            and self.view_selector is not None
            and canonical is not None
        ):
            self.view_selector.observe(canonical, result)
            self.view_selector.maintain()
        return result

    def _finish_view_answer(
        self, answer, result_key: Optional[str], trace, tracer
    ) -> FederatedResult:
        """Package a view-answered relation as a full `FederatedResult`.

        Accounting: a local scan of the view's rows at the hub plus the
        hub→client transfer of the answer — no source queries, no
        federation bytes. Only *fresh* answers are admitted to the result
        cache, tagged with the view's base tables (and the view itself) so
        upstream writes evict them.
        """
        from repro.views.answering import ViewProvenance

        metrics = MetricsCollector(network=self.network)
        if answer.fresh:
            metrics.view_hits += 1
        else:
            metrics.view_stale_serves += 1
        scan_seconds = answer.rows_scanned * HUB_TIME_PER_COST_UNIT_S
        metrics.charge_seconds(scan_seconds)
        size = answer.relation.size_bytes()
        transfer_seconds = metrics.record_transfer(
            "hub",
            "client",
            rows=len(answer.relation),
            payload_bytes=size,
            description=f"view answer from {answer.view}",
        )
        plan = FederatedPlan(
            root=answer.plan,
            fetches=[],
            bind_joins=[],
            assembly_site="hub",
            est_result_rows=float(len(answer.relation)),
            est_result_bytes=size,
        )
        result = FederatedResult(
            answer.relation,
            plan,
            metrics,
            fetch_seconds=[],
            elapsed_seconds=scan_seconds + transfer_seconds,
            result_bytes=size,
        )
        result.view = ViewProvenance(
            answer.view, answer.kind, answer.staleness_s, answer.fresh
        )
        # a stale serve must never be re-served as if it were the live answer
        if result_key is not None and answer.fresh:
            self.cache.put_result(
                result_key,
                result,
                tags=answer.tables | {answer.view},
                size_bytes=size,
                cost_seconds=result.elapsed_seconds,
            )
        status = "hit" if answer.fresh else "stale"
        self._finish_query(
            "ok",
            result,
            trace,
            tracer,
            views=[(answer.view, status, answer.staleness_s)],
            elapsed_s=result.elapsed_seconds,
            view=answer.view,
            view_fresh=answer.fresh,
        )
        return result

    def _finish_query(self, status, result, trace, tracer, views=(), **root_attrs):
        """The one exit of a query: finish its trace, then report it.

        Stamps the row count and `root_attrs` on the trace root, then
        reports `views` (``(view, status, staleness_s)`` outcomes) and the
        query's `status` (None: not reported) to telemetry. A failed query
        has no `result`, and its trace stays unfinished.
        """
        if trace is not None and result is not None:
            trace.root.set(rows=len(result.relation), **root_attrs)
            tracer.finish(trace)
            result.trace = trace
        telemetry = self.telemetry
        if status is None or not telemetry.enabled:
            return
        for view, view_status, staleness_s in views:
            telemetry.on_view(view, view_status, staleness_s=staleness_s)
        if result is None:
            telemetry.on_query(status)
        else:
            telemetry.on_query(
                status, seconds=result.elapsed_seconds, rows=len(result.relation)
            )
        telemetry.tick(self.clock())

    def prepare(self, query: Union[str, Select, LogicalPlan]) -> FederatedPlan:
        """Plan a query — through the plan cache — without executing it.

        The workload scheduler uses this for admission control: combined
        with `predict_elapsed` it prices a queued query before any byte is
        shipped. The plan landing in the cache here is the very plan a
        later `query()` call reuses, so preparing is never wasted work.
        """
        statement, canonical = canonical_statement(query)
        if not isinstance(statement, (Select, UnionSelect, LogicalPlan)):
            raise PlanError("federated queries must be SELECT statements")
        plan, _ = self._plan_for(statement, canonical)
        return plan

    def _plan_for(self, statement, canonical) -> "tuple[FederatedPlan, bool]":
        """Cached-plan lookup + (re)planning; returns (plan, was_cached)."""
        plan = self.cache.get_plan(canonical)
        if (
            plan is not None
            and self.adaptive is not None
            and self.adaptive.policy.feedback
            and plan.feedback_generation != self.adaptive.generation
        ):
            # Calibrations moved since this plan was built: replan so the
            # cache never serves an ordering the feedback already disowned.
            plan = None
        was_cached = plan is not None
        if plan is None:
            plan = self.planner.plan(statement)
            if self.adaptive is not None and self.adaptive.policy.feedback:
                plan.feedback_generation = self.adaptive.generation
            self.cache.put_plan(canonical, plan)
        return plan, was_cached

    def attach_invalidation(self, broker) -> None:
        """Run `invalidate_table` on every `table.<name>.changed` event."""
        broker.subscribe(
            "table.*.changed",
            lambda message: self.invalidate_table(message.payload["table"]),
        )

    def invalidate_table(self, table: str) -> None:
        """Expire what was derived from `table`'s rows: dependent fetch and
        result cache entries (plans survive), the table's adaptive
        calibrations, and every materialized view reading it — including
        views created after attachment, e.g. advisor-created ones."""
        self.cache.invalidate_table(table)
        if self.adaptive is not None:
            self.adaptive.store.invalidate_table(table)
        if self.views is not None:
            self.views.on_table_changed(table)

    def predict_elapsed(self, plan: FederatedPlan) -> float:
        """Pre-execution prediction of simulated elapsed seconds.

        Sums per-fetch predictions (source overhead + estimated execution +
        estimated transfer to the assembly site), list-schedules them over
        the worker pool, and adds assembly compute plus the final transfer.
        """
        fetch_predictions = []
        for fetch in plan.fetches:
            source = fetch.source
            caps = source.capabilities
            exec_s = (
                caps.per_query_overhead_s
                + fetch.est_rows * caps.time_per_cost_unit_s
            )
            size = int(fetch.est_rows * fetch.schema.average_row_width())
            transfer_s = self.network.transfer_seconds(
                source.name, plan.assembly_site, size, caps.wire_format
            )
            fetch_predictions.append(exec_s + transfer_s)
        elapsed = makespan(fetch_predictions, self.parallel_workers)
        elapsed += self._assembly_cost(plan.root)
        elapsed += self.network.transfer_seconds(
            plan.assembly_site, "client", plan.est_result_bytes
        )
        for bind in plan.bind_joins:
            caps = bind.source.capabilities
            elapsed += caps.per_query_overhead_s + bind.est_rows * caps.time_per_cost_unit_s
        return elapsed

    def explain(self, query: Union[str, Select, LogicalPlan]) -> str:
        plan = self.planner.plan(query)
        report = Report()
        report.add("plan", plan.pretty())
        try:
            statement, _ = canonical_statement(query)
            analysis = self._get_analyzer().analyze(
                statement, query if isinstance(query, str) else None
            )
            analysis.extend(self._get_analyzer().verify(plan).diagnostics)
        except EIIError:
            analysis = None
        if analysis is not None and len(analysis):
            report.add("diagnostics", "diagnostics:")
            report.add(
                "diagnostics", *(f"  {d.render()}" for d in analysis)
            )
        return report.render()

    def _get_analyzer(self):
        # imported lazily: repro.analysis imports federation plan nodes, so
        # a module-level import here would be circular
        if self._analyzer is None:
            from repro.analysis import QueryAnalyzer

            self._analyzer = QueryAnalyzer(catalog=self.catalog)
        return self._analyzer

    def _analyze_or_raise(self, statement, text) -> None:
        """Strict-mode pre-flight: reject infeasible queries byte-free."""
        from repro.analysis import AnalysisError

        report = self._get_analyzer().analyze(statement, text)
        if not report.ok:
            raise AnalysisError(
                report, metrics=MetricsCollector(network=self.network)
            )

    def _verify_or_raise(self, plan: FederatedPlan) -> None:
        """Strict-mode post-planning invariant check."""
        from repro.analysis import AnalysisError

        report = self._get_analyzer().verify(plan)
        if not report.ok:
            raise AnalysisError(
                report, metrics=MetricsCollector(network=self.network)
            )

    def execute_plan(self, plan: FederatedPlan, trace=None) -> FederatedResult:
        owns_trace = trace is None and self.tracer.enabled
        if owns_trace:  # direct execute_plan() callers still get traced
            trace = self.tracer.begin("execute_plan")
        metrics = MetricsCollector(network=self.network)
        try:
            result = self._execute_plan(plan, metrics, trace)
        except EIIError as exc:
            # Attach the partial accounting so callers (benchmarks, tests)
            # can observe how many bytes a failed query shipped before dying.
            if getattr(exc, "metrics", None) is None:
                exc.metrics = metrics
            raise
        if owns_trace:
            self._finish_query(
                None, result, trace, self.tracer, elapsed_s=result.elapsed_seconds
            )
        return result

    def _execute_plan(
        self, plan: FederatedPlan, metrics: MetricsCollector, trace=None
    ) -> FederatedResult:
        runtime = _FetchRuntime(self, metrics, plan.assembly_site)
        if self.resilience is not None or self.partial_results:
            runtime.report = CompletenessReport()
        if self.partial_results:
            _mark_degradable(plan.root, False)
        for node in plan.root.walk():
            if isinstance(node, (LogicalFetch, LogicalBindJoin)):
                node.runtime = runtime

        execute_span = fetch_span = None
        if trace is not None:
            execute_span = trace.root.child("execute", category="execute")
            # Deterministic node tags tie spans to plan nodes (an id()-based
            # key would leak allocation order into the exported JSON).
            for i, fetch_node in enumerate(plan.fetches):
                fetch_node._trace_tag = f"fetch[{i}]"
            for j, bind_node in enumerate(plan.bind_joins):
                bind_node._trace_tag = f"bind[{j}]"
            fetch_span = execute_span.child(
                "prefetch",
                category="prefetch",
                parallel_slots=self.parallel_workers,
            )
        fetch_seconds = self._prefetch(plan.fetches, runtime, metrics, fetch_span)
        fetch_elapsed = makespan(fetch_seconds, self.parallel_workers)

        # Mid-query re-optimization: the prefetched relations carry actual
        # cardinalities; when they contradict the estimates badly enough,
        # rebuild the assembly tree above the (identity-preserved,
        # already-materialized) fetches before lowering it.
        root = plan.root
        replan_report = None
        if self.adaptive is not None and self.adaptive.policy.replan:
            from repro.adaptive import maybe_replan

            replan_report = maybe_replan(
                plan, runtime, self.planner, self.adaptive.policy.replan_threshold
            )
            if replan_report is not None:
                root = replan_report.root
                for node in root.walk():
                    if isinstance(node, (LogicalFetch, LogicalBindJoin)):
                        node.runtime = runtime
                metrics.replans += 1
                if execute_span is not None:
                    execute_span.event(
                        "plan.reoptimized",
                        metrics.simulated_seconds,
                        worst_ratio=round(replan_report.worst_ratio, 3),
                        threshold=replan_report.threshold,
                        converted_bind_joins=replan_report.converted_bind_joins,
                    )

        after_fetch_work = metrics.simulated_seconds
        physical = self._local.lower(root)
        if execute_span is not None:
            # bind-join chunk spans attach to the assembly span
            runtime.span = execute_span.child(
                "assembly", category="assembly", site=plan.assembly_site
            )
            instrument_physical(physical)
        relation = physical.relation()
        # Bind joins and any late fetches executed serially during assembly.
        serial_tail = metrics.simulated_seconds - after_fetch_work

        assembly_seconds = self._assembly_cost(root)
        metrics.charge_seconds(assembly_seconds)

        wire_before = metrics.wire_bytes
        size = relation.size_bytes()
        final_transfer = metrics.record_transfer(
            plan.assembly_site,
            "client",
            rows=len(relation),
            payload_bytes=size,
            description="final result to client",
        )
        elapsed = fetch_elapsed + serial_tail + assembly_seconds + final_transfer
        result = FederatedResult(relation, plan, metrics, fetch_seconds, elapsed)
        result.result_bytes = size
        result.replan = replan_report
        result.completeness = runtime.report
        if self.resilience is not None:
            result.breaker_states = self.resilience.breaker_states()
        if execute_span is not None:
            runtime.span.self_seconds = assembly_seconds
            execute_span.child(
                "final_transfer",
                category="transfer",
                rows=len(relation),
                payload_bytes=size,
                wire_bytes=metrics.wire_bytes - wire_before,
            ).self_seconds = final_transfer
            result.physical = physical
        return result

    # -- internals ----------------------------------------------------------------

    def _prefetch(
        self, fetches: list, runtime: _FetchRuntime, metrics, parent_span=None
    ) -> list:
        """Run component queries concurrently; returns per-fetch sim seconds.

        Failure discipline: when any fetch fails, not-yet-started tasks are
        cancelled, in-flight tasks are joined, every completed task's
        metrics are merged, and the *first failure in submission order* is
        raised — so a multi-fetch failure is deterministic and no work is
        left running behind the caller's back.
        """
        durations: list[float] = []
        if not fetches:
            return durations

        if (
            self.adaptive is not None
            and self.adaptive.policy.lpt
            and len(fetches) > 1
        ):
            # Longest-predicted-first submission: list scheduling charges
            # each slot in submission order, so fronting the predicted
            # stragglers lowers the makespan on skewed fetch sets. The
            # reorder happens before span creation — submission order (and
            # therefore the trace) stays a pure function of plan + store.
            reordered = self.adaptive.lpt_order(fetches, self.network, runtime.site)
            if reordered != fetches:
                metrics.lpt_reorders += 1
            fetches = reordered

        # Spans are created on this thread in submission order (so the trace
        # is deterministic regardless of completion order); each worker only
        # ever touches its own span.
        spans: list = [None] * len(fetches)
        if parent_span is not None:
            for i, node in enumerate(fetches):
                spans[i] = parent_span.child(
                    f"fetch:{node.source.name}",
                    category="fetch",
                    source=node.source.name,
                    sql=to_sql(node.stmt),
                )
                tag = getattr(node, "_trace_tag", None)
                if tag is not None:
                    spans[i].set(node=tag)

        def run_one(node: LogicalFetch, span=None):
            local = MetricsCollector(network=self.network)
            observer = _FetchObserver(runtime, local, span)
            error = None
            try:
                runtime.fetch(node, observer)
            except Exception as exc:  # noqa: BLE001 - re-raised in order below
                error = exc
            observer.close()
            return local, error

        outcomes: list = []
        if self.parallel_workers == 1 or len(fetches) == 1:
            for node, span in zip(fetches, spans):
                outcome = run_one(node, span)
                outcomes.append(outcome)
                if outcome[1] is not None:
                    break  # serial mode: fail fast, later fetches never start
        else:
            with ThreadPoolExecutor(max_workers=self.parallel_workers) as pool:
                futures = [
                    pool.submit(run_one, node, span)
                    for node, span in zip(fetches, spans)
                ]
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    if any(future.result()[1] is not None for future in done):
                        for future in pending:
                            future.cancel()
                        break
                # leaving the context manager joins every in-flight task
            outcomes = [
                future.result() for future in futures if not future.cancelled()
            ]

        first_error: Optional[Exception] = None
        for local, error in outcomes:
            metrics.merge(local)
            if error is not None:
                if first_error is None:
                    first_error = error
            else:
                durations.append(local.simulated_seconds)
        if first_error is not None:
            raise first_error
        return durations

    def _assembly_cost(self, root: LogicalPlan) -> float:
        estimate = self.planner.cost_model.estimate(root)
        return estimate.cost * HUB_TIME_PER_COST_UNIT_S


def _mark_degradable(node: LogicalPlan, degradable: bool) -> None:
    """Mark which remote branches may degrade under `partial_results`.

    A branch is non-essential when dropping it cannot fabricate wrong rows,
    only miss some: an arm of a UNION ALL, or anything on the nullable side
    of a LEFT join (including the probed side of a LEFT bind join). Inner
    joins, aggregates' only input, and the driver side stay essential —
    failing them fails the query.
    """
    if isinstance(node, LogicalFetch):
        node.degradable = degradable
        return
    if isinstance(node, LogicalBindJoin):
        node.degradable = degradable or node.kind == "LEFT"
        _mark_degradable(node.left, degradable)
        return
    if isinstance(node, LogicalUnion):
        for child in node.children:
            _mark_degradable(child, True)
        return
    if isinstance(node, LogicalJoin):
        _mark_degradable(node.left, degradable)
        _mark_degradable(node.right, degradable or node.kind == "LEFT")
        return
    for child in node.children:
        _mark_degradable(child, degradable)
