"""EIIBench-wall workloads: seeded operation streams and why each exists.

Every workload is a closed loop with one client: the caller sends the next
operation only after the engine has answered the previous one. An operation
is either a read (one SQL text handed to ``engine.query``) or a write (one
row inserted into a source table, followed by ``ChangeNotifier.poll``).
Streams are pure functions of the workload seed, so a run can be replayed
operation for operation; the engine receives only the generated SQL and
rows.

Why each workload exists
------------------------
``adhoc``
    Reads only, drawn from twelve templates (one per EIIBench shape Q1-Q12
    of ``repro.bench.workload``) with literals spread over wide ranges, so
    almost every canonical text is new. The working set overflows the plan
    and result caches (256 entries each) and the fetch cache (1,024
    entries). Parsing, planning, source execution, assembly and wire
    accounting do nearly all the work; the caches only add miss-and-evict
    overhead.
``dashboard_rw``
    Nine reads in ten come from ten fixed dashboard texts repeated verbatim
    (the five A11 rollups plus Q1, Q4, Q5, Q7 and Q9); one operation in ten
    inserts a row into ``orders``, ``tickets`` or ``invoices``. The working
    set fits in the caches and the advisor materializes views, so this is
    the cache, view and advisor hit path. Writes cause invalidation fan-out,
    view refreshes and statistics re-collection, so a gain for reads that
    costs writes, or the reverse, shows up here.
``adhoc_observed``
    The same stream as ``adhoc`` on an engine with a ``Tracer``, telemetry
    and adaptive execution on. The trace, telemetry and adaptive layers do
    work only here; its ``reads_per_s`` against ``adhoc`` is the cost of
    observing.

Both streams are stratified: each block of twelve ``adhoc`` reads uses
every template once, literals are dealt from stratified decks (see
``Dealer``), and each block of ten ``dashboard_rw`` operations holds exactly
one write, with the three write tables taking turns. Seeds then change
literals and order, not the mix, which keeps run-to-run spread low.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.bench.workload import QUERIES

WORKLOADS = ("adhoc", "dashboard_rw", "adhoc_observed")

WHY = {
    "adhoc": "reads of 12 EIIBench shapes with seeded literals, ~all texts "
    "distinct: caches overflow, so parse, plan, sources, assembly and wire "
    "accounting do the work",
    "dashboard_rw": "ten repeated dashboard texts plus 10% inserts: the cache, "
    "view and advisor hit path, with invalidation fan-out and view refresh "
    "after writes",
    "adhoc_observed": "the adhoc stream with tracer, telemetry and adaptive "
    "execution on: what observing costs, against adhoc",
}

#: Which end-to-end metric each per-layer metric should move, on which
#: workload. Later changes cite these names when they claim a saving.
LAYER_MAP = {
    "sql.parse_ms_per_read": ("read_ms_p50", "dashboard_rw, adhoc"),
    "federation.plan_ms_per_read": ("read_ms_p50", "adhoc"),
    "federation.plans_per_read": ("read_ms_p50", "adhoc; about 0 on dashboard_rw"),
    "federation.execute_ms_per_read": ("read_ms_p50, read_ms_p99", "adhoc"),
    "federation.assembly_self_ms_per_read": ("read_ms_p50, read_ms_p99", "adhoc"),
    "sources.execute_ms_per_read": ("read_ms_p50, sim_ms_per_read", "adhoc"),
    "sources.calls_per_read": ("read_ms_p50, sim_ms_per_read", "adhoc"),
    "sources.rows_per_result_row": ("wire_kb_per_read", "adhoc"),
    "common.size_bytes_ms_per_read": ("read_ms_p50; reads_per_s", "adhoc; dashboard_rw"),
    "common.size_bytes_calls_per_read": ("read_ms_p50; reads_per_s", "adhoc; dashboard_rw"),
    "netsim.record_transfer_calls_per_read": ("read_ms_p50", "adhoc"),
    "cache.plan_hit_ratio": ("read_ms_p50", "dashboard_rw; misses on adhoc"),
    "cache.fetch_hit_ratio": ("read_ms_p50", "dashboard_rw; misses on adhoc"),
    "cache.result_hit_ratio": ("read_ms_p50", "dashboard_rw; misses on adhoc"),
    "cache.evictions_lru": ("read_ms_p50", "adhoc"),
    "cache.evictions_invalidated": ("read_ms_p99", "dashboard_rw"),
    "cache.lookup_ms_per_read": ("read_ms_p50", "dashboard_rw"),
    "views.try_answer_ms_per_read": ("reads_per_s, read_ms_p99", "dashboard_rw"),
    "views.hit_ratio": ("reads_per_s", "dashboard_rw"),
    "views.fallbacks": ("read_ms_p99", "dashboard_rw"),
    "views.refreshes_per_write": ("read_ms_p99", "dashboard_rw"),
    "views.refresh_ms_per_write": ("read_ms_p99, reads_per_s", "dashboard_rw"),
    "advisor.maintain_ms_per_read": ("read_ms_p99; read_ms_p50", "dashboard_rw; adhoc"),
    "advisor.owned_views": ("read_ms_p99", "dashboard_rw"),
    "eai.publish_ms_per_write": ("write_ms_p50", "dashboard_rw"),
    "eai.handlers_per_event": ("write_ms_p50", "dashboard_rw"),
    "storage.insert_ms_per_write": ("write_ms_p50", "dashboard_rw"),
    "storage.stats_collects": ("read_ms_p99", "dashboard_rw"),
    "storage.stats_ms_per_read": ("read_ms_p99", "dashboard_rw"),
    "trace.finish_ms_per_read": ("reads_per_s", "adhoc_observed"),
    "trace.spans_per_read": ("reads_per_s", "adhoc_observed"),
    "telemetry.hook_ms_per_read": ("reads_per_s", "adhoc_observed"),
    "telemetry.hook_calls_per_read": ("reads_per_s", "adhoc_observed"),
    "adaptive.observe_ms_per_read": ("reads_per_s", "adhoc_observed"),
    "adaptive.replans_per_read": ("reads_per_s, sim_ms_per_read", "adhoc_observed"),
}

SEGMENTS = ("enterprise", "smb", "consumer")
STATUSES = ("open", "shipped", "closed", "returned")
TICKET_STATES = ("open", "pending", "resolved")
SUBJECTS = ("login failure", "billing dispute", "slow dashboard",
            "data export", "api timeout", "password reset")
CUSTOMER_COLUMNS = ("name", "email", "city", "segment", "id")

#: The A11 dashboard rollups plus five EIIBench queries, repeated verbatim.
DASHBOARD = (
    "SELECT status, COUNT(*) AS n FROM orders GROUP BY status",
    "SELECT status, SUM(total) AS revenue FROM orders GROUP BY status",
    "SELECT segment, COUNT(*) AS n FROM customers GROUP BY segment",
    "SELECT paid, SUM(amount) AS billed FROM invoices GROUP BY paid",
    "SELECT state, COUNT(*) AS n FROM tickets GROUP BY state",
    QUERIES["q1_point_lookup"],
    QUERIES["q4_crm_sales_join"],
    QUERIES["q5_city_revenue"],
    QUERIES["q7_support_risk"],
    QUERIES["q9_segment_analytics"],
)

WRITE_TABLES = ("orders", "tickets", "invoices")
#: Ids of written rows start above every generated id (scale 1).
FIRST_WRITE_ID = 1_000_000


def _q1(d):
    cols = ", ".join(d.columns())
    return f"SELECT {cols} FROM customers WHERE id = {d.num(1, 200)}"


def _q2(d):
    return (
        f"SELECT id, total FROM orders WHERE status = '{d.pick(STATUSES)}' "
        f"AND total > {d.num(0, 15000)}"
    )


def _q3(d):
    return (
        "SELECT status, COUNT(*) AS n, SUM(total) AS revenue FROM orders "
        f"WHERE quantity >= {d.num(1, 9)} AND total < {d.num(100, 18000)} "
        "GROUP BY status"
    )


def _q4(d):
    return (
        "SELECT c.name, o.total, o.status FROM customers c "
        f"JOIN orders o ON c.id = o.cust_id WHERE o.total > {d.num(0, 15000)}"
    )


def _q5(d):
    return (
        "SELECT c.city, SUM(o.total) AS revenue FROM customers c "
        "JOIN orders o ON c.id = o.cust_id "
        f"WHERE o.total > {d.num(0, 12000)} "
        "GROUP BY c.city ORDER BY revenue DESC"
    )


def _q6(d):
    return (
        "SELECT r.region, COUNT(*) AS orders FROM customers c "
        "JOIN orders o ON c.id = o.cust_id "
        "JOIN regions r ON c.city = r.city "
        f"WHERE o.quantity >= {d.num(1, 9)} AND o.total < {d.num(100, 18000)} "
        "GROUP BY r.region"
    )


def _q7(d):
    return (
        "SELECT c.name, t.severity, t.subject FROM customers c "
        "JOIN tickets t ON c.id = t.cust_id "
        f"WHERE t.severity >= {d.num(1, 4)} "
        f"AND t.state = '{d.pick(TICKET_STATES)}' AND c.id <= {d.num(1, 200)}"
    )


def _q8(d):
    paid = d.pick(("TRUE", "FALSE"))
    return (
        "SELECT c.name, i.amount FROM customers c "
        "JOIN invoices i ON c.id = i.cust_id "
        f"WHERE i.paid = {paid} AND i.amount > {d.num(50, 9000)}"
    )


def _q9(d):
    low = d.num(0, 9000)
    return (
        "SELECT c.segment, COUNT(*) AS n, AVG(o.total) AS avg_order "
        "FROM customers c JOIN orders o ON c.id = o.cust_id "
        f"WHERE o.total BETWEEN {low} AND {low + d.num(500, 9000)} "
        "GROUP BY c.segment"
    )


def _q10(d):
    return (
        "SELECT p.category, SUM(o.quantity) AS units FROM products p "
        "JOIN orders o ON p.id = o.product_id "
        f"WHERE o.quantity >= {d.num(1, 9)} AND p.price > {d.num(5, 1900)} "
        "GROUP BY p.category ORDER BY units DESC"
    )


def _q11(d):
    # The credit service costs one round trip per bound key, so this shape
    # dominates simulated time. The segment and the window start are dealt
    # jointly and the width from its own deck, so the keys bound per run
    # barely move with the seed; widths spread wide, so that two reads
    # rarely bind the same key set and hit the fetch cache by chance.
    segment, low = d.pick_with_num(SEGMENTS, 1, 141)
    return (
        "SELECT c.name, cr.score, cr.rating FROM customers c "
        "JOIN credit cr ON cr.cust_id = c.id "
        f"WHERE c.segment = '{segment}' "
        f"AND c.id BETWEEN {low} AND {low + d.num(20, 100)} "
        f"AND cr.score >= {d.num(450, 850)}"
    )


def _q12(d):
    segment, total = d.pick_with_num(SEGMENTS, 0, 9000)
    return (
        "SELECT c.name, c.city, SUM(o.total) AS revenue, "
        "COUNT(DISTINCT t.id) AS tickets, MAX(cr.score) AS score "
        "FROM customers c "
        "JOIN orders o ON c.id = o.cust_id "
        "LEFT JOIN tickets t ON t.cust_id = c.id "
        "JOIN credit cr ON cr.cust_id = c.id "
        f"WHERE c.segment = '{segment}' AND o.total > {total} "
        f"GROUP BY c.name, c.city ORDER BY revenue DESC, c.name LIMIT {d.num(1, 20)}"
    )


#: One template per EIIBench shape, in Q1-Q12 order.
TEMPLATES = (_q1, _q2, _q3, _q4, _q5, _q6, _q7, _q8, _q9, _q10, _q11, _q12)


@dataclass(frozen=True)
class Op:
    """One client operation: a read (``sql``) or a write (``table``, ``row``)."""

    index: int
    sql: Optional[str] = None
    table: Optional[str] = None
    row: Optional[tuple] = None

    @property
    def is_read(self) -> bool:
        return self.sql is not None


class Dealer:
    """Seeded, stratified literal draws for the ad-hoc templates.

    Each literal slot of each template deals from its own shuffled deck of
    ``STRATA`` equal sub-ranges (or of the slot's options), drawing
    uniformly inside the dealt sub-range. Every few reads a slot has then
    covered its whole range once, so the literals that drive a read's cost
    (row counts, bind keys) average out within a run whatever the seed.
    """

    STRATA = 8

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._decks: dict = {}
        self._slot = ("", 0)

    def begin(self, template: str) -> None:
        self._slot = (template, 0)

    def _deal(self, options: tuple):
        template, slot = self._slot
        self._slot = (template, slot + 1)
        deck = self._decks.get((template, slot))
        if not deck:
            deck = self._decks[(template, slot)] = list(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def _in_stratum(self, low: int, high: int, stratum: int) -> int:
        width = (high - low + 1) / self.STRATA
        start = low + int(stratum * width)
        end = max(start, low + int((stratum + 1) * width) - 1)
        return self.rng.randint(start, end)

    def num(self, low: int, high: int) -> int:
        return self._in_stratum(low, high, self._deal(tuple(range(self.STRATA))))

    def pick(self, options: tuple):
        return self._deal(options)

    def pick_with_num(self, options: tuple, low: int, high: int) -> tuple:
        """An option and a number dealt jointly: every option meets every
        stratum once per deck, for two literals whose effects on cost
        multiply (a segment and the id window inside it)."""
        option, stratum = self._deal(
            tuple((o, k) for o in options for k in range(self.STRATA))
        )
        return option, self._in_stratum(low, high, stratum)

    def columns(self) -> list:
        return self.rng.sample(CUSTOMER_COLUMNS, 3)


def _adhoc_reads(rng) -> Iterator[str]:
    dealer = Dealer(rng)
    while True:
        order = list(TEMPLATES)
        rng.shuffle(order)
        for template in order:
            dealer.begin(template.__name__)
            yield template(dealer)


def _dashboard_ops(rng) -> Iterator[tuple]:
    """Blocks of ten: nine reads of distinct dashboard texts, one write."""
    next_id = FIRST_WRITE_ID
    tables: list = []
    while True:
        if not tables:
            tables = list(WRITE_TABLES)
            rng.shuffle(tables)
        block = rng.sample(DASHBOARD, 9)
        block.insert(rng.randint(0, 9), None)
        for sql in block:
            if sql is not None:
                yield sql, None, None
                continue
            table = tables.pop()
            yield None, table, _row(rng, table, next_id)
            next_id += 1


def _row(rng, table: str, row_id: int) -> tuple:
    """A fresh row for `table`, in the source schema's column order."""
    day = datetime.date(2003, 1, 1) + datetime.timedelta(days=rng.randint(0, 900))
    cust_id = rng.randint(1, 200)
    if table == "orders":
        quantity = rng.randint(1, 9)
        total = round(rng.uniform(5, 2000) * quantity, 2)
        product_id = rng.randint(1, 30)
        return (row_id, cust_id, product_id, day, quantity, total, rng.choice(STATUSES))
    if table == "tickets":
        return (row_id, cust_id, day, rng.randint(1, 4),
                rng.choice(TICKET_STATES), rng.choice(SUBJECTS))
    return (row_id, cust_id, round(rng.uniform(50, 9000), 2),
            rng.random() < 0.8, day)


def operations(workload: str, seed: int) -> Iterator[Op]:
    """The endless, seeded operation stream of `workload`."""
    rng = random.Random(f"{workload.replace('_observed', '')}:{seed}")
    if workload in ("adhoc", "adhoc_observed"):
        for index, sql in enumerate(_adhoc_reads(rng)):
            yield Op(index, sql=sql)
    elif workload == "dashboard_rw":
        for index, (sql, table, row) in enumerate(_dashboard_ops(rng)):
            yield Op(index, sql=sql, table=table, row=row)
    else:
        raise ValueError(f"unknown workload {workload!r}")
