"""The traced run: timing wrappers around each layer's public calls.

Wrappers are installed from outside the program, on class attributes,
module attributes and (through ``fixture.catalog(wrap=...)``) on every
source's ``execute_select``. Each call made while an operation is in flight
becomes one span: name, start, end, thread, parent span and the operation
it belongs to. Source calls run on the engine's prefetch pool; a span that
starts on a pool thread takes the client thread's innermost open span as
its parent. Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the union of its children's
intervals, clipped to the span.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

from repro.adaptive.context import AdaptiveContext
from repro.advisor.selector import ViewSelector
from repro.cache.hierarchy import CacheHierarchy
from repro.common.relation import Relation
from repro.eai.broker import MessageBroker
from repro.federation.engine import FederatedEngine
from repro.federation.planner import FederatedPlanner
from repro.netsim.metrics import MetricsCollector
from repro.sql import parser
from repro.storage.catalog import Database
from repro.storage.stats import TableStats
from repro.storage.table import Table
from repro.telemetry.plane import TelemetryPlane
from repro.trace.tracer import Tracer
from repro.views.answering import ViewAnswering
from repro.views.manager import ViewManager

#: (span name, owner, attribute) for every wrapped method
METHODS = (
    ("federation.plan", FederatedPlanner, "plan"),
    ("federation.execute", FederatedEngine, "execute_plan"),
    ("common.size_bytes", Relation, "size_bytes"),
    ("netsim.record_transfer", MetricsCollector, "record_transfer"),
    ("cache.get_plan", CacheHierarchy, "get_plan"),
    ("cache.get_fetch", CacheHierarchy, "get_fetch"),
    ("cache.get_result", CacheHierarchy, "get_result"),
    ("views.try_answer", ViewAnswering, "try_answer"),
    ("views.refresh", ViewManager, "refresh"),
    ("advisor.maintain", ViewSelector, "maintain"),
    ("eai.publish", MessageBroker, "publish"),
    ("storage.insert", Table, "insert"),
    ("storage.stats_for", Database, "stats_for"),
    ("trace.finish", Tracer, "finish"),
    ("telemetry.on_fetch", TelemetryPlane, "on_fetch"),
    ("telemetry.on_query", TelemetryPlane, "on_query"),
    ("telemetry.on_view", TelemetryPlane, "on_view"),
    ("telemetry.tick", TelemetryPlane, "tick"),
    ("adaptive.observe_fetch", AdaptiveContext, "observe_fetch"),
    ("adaptive.observe_bind_chunk", AdaptiveContext, "observe_bind_chunk"),
    ("adaptive.lpt_order", AdaptiveContext, "lpt_order"),
)


class Recorder:
    """Collects spans and counts for one traced run."""

    def __init__(self):
        #: (id, parent, name, op index, thread, start ns, end ns)
        self.spans: list = []
        #: (name, op index) -> summed extra quantity (rows, spans)
        self.notes: Counter = Counter()
        self.op = None
        self.reads: set = set()
        self._ids = itertools.count()
        self._client = threading.get_ident()
        self._client_stack: list = []
        self._local = threading.local()
        self._installed = None
        self._root = None

    # -- operations -----------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op.index
        if op.is_read:
            self.reads.add(op.index)
        self._root = (next(self._ids), perf_counter_ns())
        self._client_stack.append(self._root[0])

    def end_op(self) -> None:
        span_id, start = self._root
        name = "client.read" if self.op in self.reads else "client.write"
        self._client_stack.pop()
        self.spans.append(
            (span_id, None, name, self.op, self._client, start, perf_counter_ns())
        )
        self.op = None

    # -- wrappers -------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, note=None):
        """`fn` wrapped to record a span per call made inside an operation.

        `note(args, result)` (optional) returns a number summed per
        operation under `name`, e.g. the rows a source call returned.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            op = recorder.op
            if op is None:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                client = recorder._client_stack
                parent = client[-1] if client else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, name, op, threading.get_ident(), start, end)
                )
            if note is not None:
                recorder.notes[(name, op)] += note(args, result)
            return result

        return wrapper

    def _patches(self) -> list:
        """(owner, attribute, original, wrapper) for every wrapped call."""
        patches = []
        for name, owner, attr in METHODS:
            note = _count_spans if name == "trace.finish" else None
            original = owner.__dict__[attr]
            patches.append((owner, attr, original, self.timed(name, original, note)))
        original_parse = parser.parse
        timed_parse = self.timed("sql.parse", original_parse)
        for module in list(sys.modules.values()):
            if getattr(module, "parse", None) is original_parse:
                patches.append((module, "parse", original_parse, timed_parse))
        collect = TableStats.__dict__["collect"]
        patches.append((
            TableStats, "collect", collect,
            classmethod(self.timed("storage.stats_collect", collect.__func__)),
        ))
        subscribe = MessageBroker.__dict__["subscribe"]
        patches.append((MessageBroker, "subscribe", subscribe, self._subscribe(subscribe)))
        return patches

    def enable(self) -> None:
        """Install the wrappers (class, module and broker-subscription level)."""
        if self._installed is None:
            self._installed = self._patches()
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        """Put every original back; wrapped sources and handlers stay."""
        for owner, attr, original, _ in self._installed or ():
            setattr(owner, attr, original)

    def _subscribe(self, subscribe):
        recorder = self

        def wrapper(broker, pattern, handler):
            return subscribe(broker, pattern, recorder.timed("eai.handler", handler))

        return wrapper

    def wrap_source(self, source):
        """The catalog `wrap` hook: time every component query of `source`."""
        source.execute_select = self.timed(
            "sources.execute", source.execute_select, note=_rows
        )
        return source

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> self nanoseconds (duration minus covered by children)."""
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[5], span[6]))
        out = {}
        for span_id, _, _, _, _, start, end in self.spans:
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            out[span_id] = (end - start) - covered
        return out

    def totals(self, ops=None) -> tuple:
        """Per span name over `ops` (None = all): (calls, inclusive ns, self ns)."""
        self_ns = self.self_times()
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for span_id, _, name, op, _, start, end in self.spans:
            if ops is not None and op not in ops:
                continue
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += self_ns[span_id]
        return calls, inclusive, own

    def note_total(self, name: str, ops=None) -> float:
        return sum(
            value
            for (key, op), value in self.notes.items()
            if key == name and (ops is None or op in ops)
        )

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, parent, name, op, thread, start, end in sorted(
                self.spans, key=lambda span: span[5]
            ):
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "op": op,
                            "kind": "read" if op in self.reads else "write",
                            "thread": thread,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def _rows(_args, relation) -> int:
    return len(relation)


def _count_spans(args, _result) -> int:
    trace = args[1] if len(args) > 1 else None
    return 0 if trace is None else sum(1 for _ in trace.spans())


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
