"""An answer check independent of the repo's own engines: stdlib sqlite3.

The reference database is loaded from the same generated rows the
federated sources serve, receives the same writes, and answers the same
SQL text. Rows are compared as bags: order is ignored, booleans become
0/1 and dates their ISO text. Rows are put in order with floats rounded to
4 decimal places; floats then match when they agree to a relative 1e-9,
so a sum taken in another order cannot flip a rounding at a .5 boundary.
"""

from __future__ import annotations

import datetime
import math
import sqlite3
from collections import Counter

from repro.sql.parser import parse_select

#: (source attribute of the fixture, table) for every table a workload reads
_DATABASE_TABLES = (
    ("crm", "customers"),
    ("sales", "products"),
    ("sales", "orders"),
    ("support", "tickets"),
    ("finance", "invoices"),
)
_SCANNED_TABLES = (
    ("marketing", "SELECT city, region FROM regions", "regions"),
    ("marketing", "SELECT segment, campaign, budget FROM campaigns", "campaigns"),
)


def _value(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


def _sort_key(row):
    return tuple(
        (value is not None, round(value, 4) if isinstance(value, float) else value)
        for value in row
    )


def normalize(rows) -> list:
    """Rows as a sorted list of normalized tuples (a bag, order ignored)."""
    return sorted((tuple(_value(v) for v in row) for row in rows), key=_sort_key)


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(v, (int, float)) for v in (a, b)):
            return False
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def same_rows(left: list, right: list) -> bool:
    """Two normalized row lists hold the same bag of rows."""
    return len(left) == len(right) and all(
        len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
        for x, y in zip(left, right)
    )


class SqliteOracle:
    """An in-memory sqlite3 copy of the enterprise fixture."""

    def __init__(self, fixture):
        self.db = sqlite3.connect(":memory:")
        for attr, name in _DATABASE_TABLES:
            table = getattr(fixture, attr).table(name)
            self._load(name, table.schema.names, list(table.rows()))
        for attr, sql, name in _SCANNED_TABLES:
            relation = getattr(fixture, attr).execute_select(parse_select(sql))
            self._load(name, relation.schema.names, relation.rows)
        credit = fixture.credit
        ids = ", ".join(str(i) for i in range(1, fixture.config.customers + 1))
        relation = credit.execute_select(
            parse_select(
                f"SELECT cust_id, score, rating FROM credit WHERE cust_id IN ({ids})"
            )
        )
        self._load("credit", relation.schema.names, relation.rows)

    def _load(self, name: str, columns, rows) -> None:
        self.db.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        self.insert(name, rows)

    def insert(self, table: str, rows) -> None:
        rows = [tuple(_value(v) for v in row) for row in rows]
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            self.db.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)

    def agrees(self, sql: str, rows) -> bool:
        """`rows` are the bag of rows sqlite gives for `sql`."""
        expected = self.db.execute(sql).fetchall()
        # exact equality first (True == 1 already); dates, and floats summed
        # in another order, take the normalized comparison
        if Counter(map(tuple, rows)) == Counter(expected):
            return True
        return same_rows(normalize(rows), normalize(expected))

    def close(self) -> None:
        self.db.close()
