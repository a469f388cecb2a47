"""Unit tests for the SQL lexer and parser."""

import datetime

import pytest

from repro.common.errors import EIIError, ParseError
from repro.sql import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Delete,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    Literal,
    Select,
    Star,
    UnaryOp,
    Update,
    parse,
    parse_expression,
    parse_select,
    tokenize,
)
from repro.sql.parser import MAX_NESTING_DEPTH
from tests.federation_fixtures import build_engine


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_ident_preserves_case(self):
        assert tokenize("MyTable")[0].value == "MyTable"

    def test_string_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 3.5 .5")
        assert [t.value for t in tokens[:-1]] == [42, 3.5, 0.5]

    def test_number_then_dot(self):
        # `1.` with no digit after: lexes as 1 then `.` (member access shape)
        tokens = tokenize("1.x")
        assert tokens[0].value == 1
        assert tokens[1].value == "."

    def test_two_char_operators(self):
        tokens = tokenize("<= >= <> != ||")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "<>", "<>", "||"]

    def test_line_comment_skipped(self):
        tokens = tokenize("a -- comment\n b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("a ? b")


class TestExpressionParsing:
    def test_precedence_and_over_or(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, BinaryOp) and expr.op == "OR"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "AND"

    def test_precedence_arith_over_comparison(self):
        expr = parse_expression("a + 1 > b * 2")
        assert expr.op == ">"
        assert expr.left.op == "+"
        assert expr.right.op == "*"

    def test_not_binds_tighter_than_and(self):
        expr = parse_expression("NOT a AND b")
        assert expr.op == "AND"
        assert isinstance(expr.left, UnaryOp)

    def test_unary_minus_folds_literal(self):
        assert parse_expression("-5") == Literal(-5)

    def test_unary_minus_on_column(self):
        expr = parse_expression("-x")
        assert isinstance(expr, UnaryOp) and expr.op == "-"

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.items) == 3

    def test_not_in(self):
        assert parse_expression("x NOT IN (1)").negated

    def test_like(self):
        expr = parse_expression("name LIKE 'a%'")
        assert isinstance(expr, Like)

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, Between)

    def test_is_null_and_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), IsNull)
        assert parse_expression("x IS NOT NULL").negated

    def test_case_when(self):
        expr = parse_expression("CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END")
        assert isinstance(expr, CaseWhen)
        assert expr.default == Literal("neg")

    def test_function_call(self):
        expr = parse_expression("UPPER(name)")
        assert isinstance(expr, FuncCall)
        assert expr.name == "UPPER"

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr.distinct

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr.args == (Star(),)

    def test_qualified_column(self):
        assert parse_expression("t.x") == ColumnRef("x", "t")

    def test_iso_date_string_becomes_date(self):
        expr = parse_expression("'2005-06-14'")
        assert expr == Literal(datetime.date(2005, 6, 14))

    def test_non_date_string_stays_string(self):
        assert parse_expression("'2005-13-99'") == Literal("2005-13-99")

    def test_booleans_and_null(self):
        assert parse_expression("TRUE") == Literal(True)
        assert parse_expression("NULL") == Literal(None)

    def test_concat_operator(self):
        assert parse_expression("a || b").op == "||"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + 1 1")


class TestSelectParsing:
    def test_simple(self):
        stmt = parse_select("SELECT x, y FROM t")
        assert [item.output_name for item in stmt.items] == ["x", "y"]
        assert stmt.from_tables[0].name == "t"

    def test_alias_with_and_without_as(self):
        stmt = parse_select("SELECT x AS a, y b FROM t u")
        assert stmt.items[0].alias == "a"
        assert stmt.items[1].alias == "b"
        assert stmt.from_tables[0].alias == "u"

    def test_star(self):
        stmt = parse_select("SELECT * FROM t")
        assert stmt.items[0].expr == Star()

    def test_qualified_star(self):
        stmt = parse_select("SELECT t.* FROM t")
        assert stmt.items[0].expr == Star("t")

    def test_joins(self):
        stmt = parse_select(
            "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id"
        )
        assert [j.kind for j in stmt.joins] == ["INNER", "LEFT"]

    def test_cross_join(self):
        stmt = parse_select("SELECT * FROM a CROSS JOIN b")
        assert stmt.joins[0].condition is None

    def test_comma_join(self):
        stmt = parse_select("SELECT * FROM a, b WHERE a.x = b.x")
        assert len(stmt.from_tables) == 2

    def test_group_by_having(self):
        stmt = parse_select(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 3"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_limit_distinct(self):
        stmt = parse_select("SELECT DISTINCT x FROM t ORDER BY x DESC, y LIMIT 10")
        assert stmt.distinct
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].ascending is True
        assert stmt.limit == 10

    def test_limit_must_be_integer(self):
        with pytest.raises(ParseError):
            parse_select("SELECT x FROM t LIMIT 2.5")

    def test_tables_helper(self):
        stmt = parse_select("SELECT * FROM a, b JOIN c ON b.x = c.x")
        assert [t.name for t in stmt.tables()] == ["a", "b", "c"]

    def test_parse_select_rejects_dml(self):
        with pytest.raises(ParseError):
            parse_select("DELETE FROM t")


class TestDmlParsing:
    def test_insert(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, Insert)
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_without_columns(self):
        stmt = parse("INSERT INTO t VALUES (1)")
        assert stmt.columns == ()

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert isinstance(stmt, Update)
        assert stmt.assignments[0][0] == "a"
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE x < 0")
        assert isinstance(stmt, Delete)

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse("CREATE TABLE t (x INT)")


class TestNestingLimit:
    """Deep nesting is refused with a typed error, not a RecursionError."""

    @staticmethod
    def nested_where(depth: int) -> str:
        return "SELECT id FROM customers WHERE " + "(" * depth + "id = 3" + ")" * depth

    def test_hundred_levels_parse_and_answer(self, engine):
        sql = self.nested_where(100)
        assert parse_select(sql).where == BinaryOp("=", ColumnRef("id"), Literal(3))
        assert engine.query(sql).rows == [(3,)]
        assert build_engine().query(sql).relation.rows == [(3,)]

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 500 + "a = 1" + ")" * 500,
            "ABS(" * 500 + "a" + ")" * 500 + " = 1",
            "a IN (" * 500 + "1" + ")" * 500,
            "CASE WHEN " * 500 + "a = 1" + " THEN 1 END" * 500,
        ],
        ids=["parentheses", "function_arguments", "in_lists", "case"],
    )
    def test_deeper_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested more than") as info:
            parse_select("SELECT a FROM t WHERE " + text)
        assert isinstance(info.value, EIIError)

    @pytest.mark.parametrize("prefix", ["NOT ", "- "], ids=["not", "unary_minus"])
    def test_long_prefix_operator_run_is_a_parse_error(self, prefix):
        with pytest.raises(ParseError, match="nested more than") as info:
            parse_select("SELECT a FROM t WHERE " + prefix * 1000 + "a = 1")
        assert isinstance(info.value, EIIError)

    @pytest.mark.parametrize("prefix", ["NOT ", "- "], ids=["not", "unary_minus"])
    def test_fifty_prefix_operators_parse_and_answer(self, engine, prefix):
        # an even run cancels out: the predicate is id = 3
        sql = "SELECT id FROM customers WHERE " + prefix * 50 + "id = 3"
        assert engine.query(sql).rows == [(3,)]
        assert build_engine().query(sql).relation.rows == [(3,)]

    def test_one_level_past_the_limit_is_refused(self):
        with pytest.raises(ParseError):
            parse_expression("(" * (MAX_NESTING_DEPTH + 1) + "1" + ")" * (MAX_NESTING_DEPTH + 1))
