"""Tests for automatic change notification and view invalidation."""

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.eai import MessageBroker
from repro.sql.parser import parse
from repro.views import ChangeNotifier, RefreshPolicy, ViewManager, table_dependencies
from repro.views.invalidation import wire_invalidation

from tests.federation_fixtures import build_engine


class TestTableDependencies:
    def test_simple_select(self):
        assert table_dependencies("SELECT a FROM t") == {"t"}

    def test_joins_and_aliases(self):
        deps = table_dependencies(
            "SELECT * FROM customers c JOIN orders o ON c.id = o.cust_id"
        )
        assert deps == {"customers", "orders"}

    def test_union_branches(self):
        deps = table_dependencies("SELECT a FROM t UNION ALL SELECT a FROM u")
        assert deps == {"t", "u"}

    def test_case_insensitive(self):
        assert table_dependencies("SELECT a FROM Orders") == {"orders"}


class TestChangeNotifier:
    def test_publishes_on_version_change(self):
        engine = build_engine()
        orders = engine.catalog.sources["sales"].db.table("orders")
        notifier = ChangeNotifier()
        notifier.watch("orders", orders)
        assert notifier.poll() == []  # nothing changed yet
        orders.insert((999, 1, 5.0, "open"))
        assert notifier.poll() == ["orders"]
        topics = [m.topic for m in notifier.broker.log]
        assert topics == ["table.orders.changed"]

    def test_no_duplicate_events(self):
        engine = build_engine()
        orders = engine.catalog.sources["sales"].db.table("orders")
        notifier = ChangeNotifier()
        notifier.watch("orders", orders)
        orders.insert((999, 1, 5.0, "open"))
        notifier.poll()
        assert notifier.poll() == []  # second sweep: quiet

    def test_watch_database(self):
        engine = build_engine()
        db = engine.catalog.sources["crm"].db
        notifier = ChangeNotifier()
        notifier.watch_database(db)
        db.table("customers").insert((999, "x", "SF"))
        assert notifier.poll() == ["customers"]


class TestWiring:
    def make(self, eager=False):
        engine = build_engine()
        manager = ViewManager(engine)
        manager.define_materialized(
            "open_orders",
            "SELECT id, total FROM orders WHERE status = 'open'",
            RefreshPolicy.MANUAL,
        )
        manager.define_materialized(
            "cities", "SELECT DISTINCT city FROM customers", RefreshPolicy.MANUAL
        )
        broker = MessageBroker()
        dependencies = wire_invalidation(manager, broker, eager=eager)
        notifier = ChangeNotifier(broker)
        sales_db = engine.catalog.sources["sales"].db
        crm_db = engine.catalog.sources["crm"].db
        notifier.watch("orders", sales_db.table("orders"))
        notifier.watch("customers", crm_db.table("customers"))
        return engine, manager, notifier, dependencies

    def test_dependencies_derived_from_sql(self):
        _, _, _, dependencies = self.make()
        assert dependencies["open_orders"] == {"orders"}
        assert dependencies["cities"] == {"customers"}

    def test_lazy_invalidation_refreshes_on_next_read(self):
        engine, manager, notifier, _ = self.make()
        before = len(manager.read("open_orders"))
        engine.catalog.sources["sales"].db.table("orders").insert(
            (999, 1, 5.0, "open")
        )
        # without a poll, the manual view stays stale
        assert len(manager.read("open_orders")) == before
        notifier.poll()
        assert manager.view("open_orders").dirty
        assert len(manager.read("open_orders")) == before + 1
        assert not manager.view("open_orders").dirty

    def test_unrelated_view_untouched(self):
        engine, manager, notifier, _ = self.make()
        engine.catalog.sources["sales"].db.table("orders").insert(
            (999, 1, 5.0, "open")
        )
        notifier.poll()
        assert manager.view("open_orders").dirty
        assert not manager.view("cities").dirty

    def test_eager_invalidation_refreshes_immediately(self):
        engine, manager, notifier, _ = self.make(eager=True)
        refreshes_before = manager.view("open_orders").refresh_count
        engine.catalog.sources["sales"].db.table("orders").insert(
            (999, 1, 5.0, "open")
        )
        notifier.poll()
        assert manager.view("open_orders").refresh_count == refreshes_before + 1
        assert not manager.view("open_orders").dirty


class _CountingBroker(MessageBroker):
    """Counts handler invocations across every subscription."""

    def __init__(self):
        super().__init__()
        self.deliveries = 0

    def subscribe(self, pattern, handler):
        def counted(message):
            self.deliveries += 1
            handler(message)

        super().subscribe(pattern, counted)


class TestEngineInvalidation:
    def test_one_event_expires_caches_calibrations_and_late_views(self):
        engine = build_engine(
            cache=CacheHierarchy(CacheConfig()), adaptive=True, auto_materialize=True
        )
        broker = _CountingBroker()
        engine.attach_invalidation(broker)
        rollup = "SELECT status, SUM(total) AS s FROM orders GROUP BY status"
        for _ in range(3):
            # a parsed statement skips the result level, so each run feeds
            # the advisor, which materializes the rollup after attachment
            engine.query(parse(rollup))
        [view] = engine.view_selector.owned_views()
        join = (
            "SELECT c.name, o.total FROM customers c "
            "JOIN orders o ON c.id = o.cust_id"
        )
        point = "SELECT name FROM customers WHERE id = 1"
        engine.query(join)
        engine.query(point)
        store = engine.adaptive.store
        assert any("orders" in entry.tags for entry in store.entries())
        generation = store.generation
        assert not engine.views.view(view).dirty

        broker.publish("table.orders.changed", {"table": "orders", "version": 2})

        assert broker.deliveries == 1
        assert engine.views.view(view).dirty
        assert not any("orders" in entry.tags for entry in store.entries())
        assert any("customers" in entry.tags for entry in store.entries())
        assert store.generation > generation
        assert engine.query(point).from_cache  # unrelated entries survive
        rerun = engine.query(join)
        assert not rerun.from_cache
        assert rerun.metrics.fetch_cache_hits == 1  # customers still cached
        assert rerun.metrics.fetch_cache_misses == 1  # orders evicted
