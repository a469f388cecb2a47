"""Automatic change notification and view invalidation.

Rosenthal (§7): programmers hand-code Read/Notify/Update methods; "It
should be possible to generate Notify methods automatically." This module
does exactly that for the read side: a `ChangeNotifier` watches source
tables (by their monotonic version counters) and publishes
`table.<name>.changed` events on the EAI broker. An engine subscribes once
with `FederatedEngine.attach_invalidation`, whose handler expires dependent
caches, calibrations and views together. `wire_invalidation` serves a
`ViewManager` over any other adapter (e.g. a mediated schema): it derives
each materialized view's table dependencies *from its own SQL* and
subscribes them, so views go stale the moment an underlying table changes —
no hand-written plumbing per view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.eai.broker import MessageBroker
from repro.sql.ast import Select, UnionSelect
from repro.sql.parser import parse
from repro.views.manager import ViewManager


def table_dependencies(sql: str, mediated_schema=None) -> set[str]:
    """The lower-cased base-table names a SELECT (or union) references.

    When `mediated_schema` (a `repro.mediator.MediatedSchema`) is given,
    references to mediated views are expanded recursively, so a dashboard
    over `customer360` correctly depends on the *source* tables underneath.
    The mediated names themselves are also included (useful for logging).
    """
    statement = parse(sql)
    selects: list[Select] = []
    if isinstance(statement, UnionSelect):
        selects.extend(statement.selects)
    elif isinstance(statement, Select):
        selects.append(statement)
    out: set[str] = set()
    pending: list[Select] = selects
    seen_views: set[str] = set()
    while pending:
        select = pending.pop()
        for table in select.tables():
            name = table.name.lower()
            out.add(name)
            if (
                mediated_schema is not None
                and name not in seen_views
                and mediated_schema.has(name)
            ):
                seen_views.add(name)
                pending.append(mediated_schema.definition(name))
    return out


@dataclass
class _Watch:
    name: str
    table: object  # repro.storage.Table
    last_version: int


class ChangeNotifier:
    """Publishes change events for watched tables (the generated Notify).

    Real sources would push; our storage tables expose a monotone `version`
    counter, so the notifier polls it. One `poll()` sweep publishes one
    `table.<name>.changed` event per table that changed since the last
    sweep.
    """

    def __init__(self, broker: Optional[MessageBroker] = None):
        self.broker = broker or MessageBroker()
        self._watches: dict[str, _Watch] = {}

    def watch(self, name: str, table) -> None:
        self._watches[name.lower()] = _Watch(name.lower(), table, table.version)

    def watch_database(self, db) -> None:
        for table in db.tables():
            self.watch(table.name, table)

    def poll(self) -> list[str]:
        """Publish events for changed tables; returns the changed names."""
        changed = []
        for watch in self._watches.values():
            if watch.table.version != watch.last_version:
                watch.last_version = watch.table.version
                self.broker.publish(
                    f"table.{watch.name}.changed",
                    {"table": watch.name, "version": watch.table.version},
                )
                changed.append(watch.name)
        return changed


def wire_invalidation(
    manager: ViewManager,
    broker: MessageBroker,
    eager: bool = False,
    mediated_schema=None,
) -> dict:
    """Subscribe every materialized view to its tables' change events.

    Dependencies are computed from each view's SQL — nothing is declared by
    hand; pass `mediated_schema` so views over GAV virtual tables depend on
    the source tables underneath. `eager=True` refreshes immediately on
    notification; the default marks the view dirty so the next read
    refreshes (cheaper under bursts). Returns `{view: {tables}}`.

    Dependencies are snapshotted here, so views defined later are not
    covered; an engine's own views use `FederatedEngine.attach_invalidation`.
    """
    dependencies = {
        name: table_dependencies(manager.view(name).sql, mediated_schema)
        for name in manager.names()
        if name in manager._materialized
    }

    def on_change(message):
        table = message.payload["table"].lower()
        for view_name, tables in dependencies.items():
            if table in tables:
                if eager:
                    manager.refresh(view_name)
                else:
                    manager.mark_dirty(view_name)

    broker.subscribe("table.*.changed", on_change)
    return dependencies
