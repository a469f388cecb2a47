"""The federation catalog: global table names over registered sources."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import SchemaError
from repro.common.schema import RelSchema
from repro.sources.base import DataSource
from repro.storage.stats import TableStats


@dataclass
class SourceTable:
    """One globally-visible table: where it lives and what it looks like."""

    global_name: str
    local_name: str
    source: DataSource

    @property
    def schema(self) -> RelSchema:
        return self.source.schema_of(self.local_name)

    def stats(self) -> Optional[TableStats]:
        return self.source.stats_of(self.local_name)


class FederationCatalog:
    """Maps global table names to (source, local table).

    Also serves as the binder's TableResolver and the cost model's stats
    provider for federated planning, so the same optimizer machinery works
    unchanged over the virtual layout.
    """

    def __init__(self):
        self.sources: dict[str, DataSource] = {}
        self._tables: dict[str, SourceTable] = {}
        #: global table name (lower) -> replica SourceTables, in registration
        #: order — the order failover candidates are tried.
        self._replicas: dict[str, list[SourceTable]] = {}

    def register_source(self, source: DataSource, rename: Optional[dict] = None) -> None:
        """Register every exported table of `source`.

        `rename` maps local → global names; unrenamed tables keep their
        local name, which must be globally unique.
        """
        if source.name in self.sources:
            raise SchemaError(f"source {source.name!r} already registered")
        self.sources[source.name] = source
        rename = {k.lower(): v for k, v in (rename or {}).items()}
        for local_name in source.table_names():
            global_name = rename.get(local_name.lower(), local_name)
            key = global_name.lower()
            if key in self._tables:
                other = self._tables[key]
                raise SchemaError(
                    f"global table name {global_name!r} already taken by "
                    f"source {other.source.name!r}"
                )
            self._tables[key] = SourceTable(global_name, local_name, source)

    def register_replica(self, source: DataSource, rename: Optional[dict] = None) -> None:
        """Register `source` as a replica of already-registered tables.

        Every exported table (after `rename`, local → global) must match an
        existing global table; the replica becomes a failover candidate the
        engine can re-bind a fetch to when the primary's circuit breaker is
        open or the primary keeps failing. Replicas never answer queries by
        default — the planner always binds to the primary.
        """
        if source.name in self.sources:
            raise SchemaError(f"source {source.name!r} already registered")
        rename = {k.lower(): v for k, v in (rename or {}).items()}
        staged = []
        for local_name in source.table_names():
            global_name = rename.get(local_name.lower(), local_name)
            key = global_name.lower()
            primary = self._tables.get(key)
            if primary is None:
                raise SchemaError(
                    f"replica table {global_name!r} from {source.name!r} has "
                    f"no primary; have: {sorted(self._tables)}"
                )
            if len(source.schema_of(local_name)) != len(primary.schema):
                raise SchemaError(
                    f"replica table {global_name!r} from {source.name!r} does "
                    f"not match the primary's schema width"
                )
            staged.append((key, SourceTable(primary.global_name, local_name, source)))
        self.sources[source.name] = source
        for key, table in staged:
            self._replicas.setdefault(key, []).append(table)

    def failover_candidates(self, primary_name: str, tables) -> list:
        """Alternate sources able to answer a fetch reading `tables`.

        Returns ``[(source, {global_lower: replica_local_name})]`` for every
        non-primary source exporting a replica of *every* table the fetch
        reads, in replica-registration order.
        """
        wanted = {str(table).lower() for table in tables}
        if not wanted:
            return []
        coverage: dict[str, dict] = {}
        order: list[str] = []
        for table in sorted(wanted):
            for replica in self._replicas.get(table, ()):
                name = replica.source.name
                if name not in coverage:
                    coverage[name] = {}
                    order.append(name)
                coverage[name][table] = replica.local_name
        return [
            (self.sources[name], coverage[name])
            for name in order
            if name != primary_name and len(coverage[name]) == len(wanted)
        ]

    def entry(self, global_name: str) -> SourceTable:
        entry = self._tables.get(global_name.lower())
        if entry is None:
            raise SchemaError(
                f"no federated table {global_name!r}; have: {sorted(self._tables)}"
            )
        return entry

    def has_table(self, global_name: str) -> bool:
        return global_name.lower() in self._tables

    def source_of(self, global_name: str) -> DataSource:
        return self.entry(global_name).source

    def table_names(self) -> list[str]:
        return sorted(entry.global_name for entry in self._tables.values())

    # -- TableResolver protocol (for the binder) ---------------------------------

    def resolve_table(self, name: str) -> RelSchema:
        return self.entry(name).schema

    # -- stats provider protocol (for the cost model) ------------------------------

    def table_stats(self, table_name: str) -> Optional[TableStats]:
        return self.entry(table_name).stats()
