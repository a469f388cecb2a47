"""Property test: compiled expression evaluation vs a direct Python oracle.

Hypothesis builds random arithmetic/comparison trees over integer columns;
the compiled evaluator must agree with a straightforward recursive
interpreter, including NULL propagation. IN lists, comparisons and wire
sizes over mixed value types are checked against the linear reference
implementations below.
"""

import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sql.eval as eval_module
from repro.common.errors import TypeMismatchError
from repro.common.schema import RelSchema
from repro.common.types import VALUE_OVERHEAD_BYTES, infer_type, value_size
from repro.common.types import DataType as T
from repro.sql.ast import BinaryOp, ColumnRef, InList, Literal, UnaryOp
from repro.sql.eval import compile_expr

SCHEMA = RelSchema.of(("a", T.INT), ("b", T.INT), ("c", T.INT))

_atoms = st.one_of(
    st.sampled_from([ColumnRef("a"), ColumnRef("b"), ColumnRef("c")]),
    st.integers(min_value=-20, max_value=20).map(Literal),
    st.just(Literal(None)),
)


def _trees(children):
    arith = st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
        lambda t: BinaryOp(t[0], t[1], t[2])
    )
    neg = children.map(lambda e: UnaryOp("-", e))
    return st.one_of(arith, neg)


arith_trees = st.recursive(_atoms, _trees, max_leaves=10)


def oracle(expr, row):
    """Direct interpretation with SQL NULL propagation."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[SCHEMA.index_of(expr.name)]
    if isinstance(expr, UnaryOp):
        value = oracle(expr.operand, row)
        return None if value is None else -value
    left = oracle(expr.left, row)
    right = oracle(expr.right, row)
    if left is None or right is None:
        return None
    return {"+": left + right, "-": left - right, "*": left * right}[expr.op]


rows = st.tuples(
    st.one_of(st.integers(-50, 50), st.none()),
    st.one_of(st.integers(-50, 50), st.none()),
    st.one_of(st.integers(-50, 50), st.none()),
)


@given(expr=arith_trees, row=rows)
@settings(max_examples=250, deadline=None)
def test_compiled_arithmetic_matches_oracle(expr, row):
    assert compile_expr(expr, SCHEMA)(row) == oracle(expr, row)


@given(expr=arith_trees, other=arith_trees, row=rows)
@settings(max_examples=150, deadline=None)
def test_compiled_comparison_matches_oracle(expr, other, row):
    for op in ("=", "<", ">="):
        comparison = BinaryOp(op, expr, other)
        left = oracle(expr, row)
        right = oracle(other, row)
        expected = (
            None
            if left is None or right is None
            else {"=": left == right, "<": left < right, ">=": left >= right}[op]
        )
        assert compile_expr(comparison, SCHEMA)(row) == expected


# -- IN lists, comparisons and wire sizes against the linear references ------
#
# The compiled IN-list hashes all-literal int/str lists, comparisons skip
# numeric alignment when both sides have one type, and `value_size`
# dispatches on the exact type. Each must agree with the straightforward
# version it replaced, kept here as the reference.

_BIG = 2**53

_PY_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def reference_align(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a, b
    if isinstance(a, int) and isinstance(b, float):
        return float(a), b
    if isinstance(a, float) and isinstance(b, int):
        return a, float(b)
    return a, b


def reference_equal(a, b) -> bool:
    a, b = reference_align(a, b)
    try:
        return a == b
    except TypeError:
        return False


def reference_in(value, items, negated):
    """The linear IN loop: SQL three-valued membership."""
    if value is None:
        return None
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
        elif reference_equal(value, item):
            return not negated
    return None if saw_null else negated


def reference_compare(op, lhs, rhs):
    """None for NULL, TypeMismatchError for incomparable, else the result."""
    if lhs is None or rhs is None:
        return None
    lhs, rhs = reference_align(lhs, rhs)
    try:
        return _PY_COMPARATORS[op](lhs, rhs)
    except TypeError:
        return TypeMismatchError


def reference_value_size(value) -> int:
    if value is None:
        return VALUE_OVERHEAD_BYTES
    inferred = infer_type(value)
    if inferred is T.STRING:
        return VALUE_OVERHEAD_BYTES + len(value.encode("utf-8"))
    return VALUE_OVERHEAD_BYTES + {T.INT: 8, T.FLOAT: 8, T.BOOL: 1, T.DATE: 8}[inferred]


#: ints on both sides of 2**53, and floats that equal some of them
_ints = st.one_of(
    st.integers(-5, 5),
    st.integers(_BIG - 3, _BIG + 3),
    st.integers(-(2**70), 2**70),
)
_floats = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.5, float(_BIG), float(_BIG + 2), math.inf]),
    st.floats(allow_nan=True),
)
_keys = st.one_of(_ints, st.sampled_from(["", "a", "b", "é", "1"]))
mixed_values = st.one_of(
    _keys,
    _floats,
    st.booleans(),
    st.text(max_size=4),
    st.dates(),
    st.datetimes(),
    st.none(),
)
VALUE_SCHEMA = RelSchema.of(("v", T.ANY), ("w", T.ANY))


@given(
    value=mixed_values,
    items=st.one_of(
        st.lists(st.one_of(_keys, st.none()), min_size=1, max_size=8),
        st.lists(mixed_values, min_size=1, max_size=8),
    ),
    negated=st.booleans(),
    column_item=st.booleans(),
    other=mixed_values,
)
@example(value=float(_BIG), items=[_BIG + 1], negated=False, column_item=False, other=None)
@example(value=_BIG + 1, items=[float(_BIG)], negated=False, column_item=False, other=None)
@example(value=True, items=[1, None], negated=True, column_item=False, other=None)
@example(value=math.nan, items=[1], negated=False, column_item=True, other=math.nan)
@example(value=2, items=[1, None], negated=False, column_item=False, other=None)
@settings(max_examples=600, deadline=None)
def test_in_list_matches_linear_reference(value, items, negated, column_item, other):
    exprs = [Literal(item) for item in items]
    if column_item:  # a non-literal item keeps the list off the hash path
        exprs.append(ColumnRef("w"))
        items = [*items, other]
    compiled = compile_expr(InList(ColumnRef("v"), tuple(exprs), negated), VALUE_SCHEMA)
    assert compiled((value, other)) is reference_in(value, items, negated)


@given(lhs=mixed_values, rhs=mixed_values, op=st.sampled_from(sorted(_PY_COMPARATORS)))
@settings(max_examples=600, deadline=None)
def test_comparison_matches_aligned_reference(lhs, rhs, op):
    compiled = compile_expr(BinaryOp(op, ColumnRef("v"), ColumnRef("w")), VALUE_SCHEMA)
    expected = reference_compare(op, lhs, rhs)
    if expected is TypeMismatchError:
        with pytest.raises(TypeMismatchError):
            compiled((lhs, rhs))
    else:
        assert compiled((lhs, rhs)) is expected


@given(value=mixed_values)
@settings(max_examples=400, deadline=None)
def test_value_size_matches_infer_type_reference(value):
    assert value_size(value) == reference_value_size(value)


def test_int_in_list_is_hashed_and_float_probe_is_not(monkeypatch):
    """A literal int IN-list is a set lookup; other value types loop."""
    calls = []
    linear = eval_module._values_equal

    def counting(a, b):
        calls.append((a, b))
        return linear(a, b)

    monkeypatch.setattr(eval_module, "_values_equal", counting)
    schema = RelSchema.of(("v", T.INT))
    in_list = InList(ColumnRef("v"), tuple(Literal(k) for k in range(0, 400, 2)))
    compiled = compile_expr(in_list, schema)
    hits = sum(bool(compiled((v,))) for v in range(1000))
    assert hits == 200
    assert calls == []
    assert compiled((4.0,)) is True
    assert compiled((3.0,)) is False
    assert len(calls) == 3 + 200  # 4.0 matches the third item; 3.0 none
