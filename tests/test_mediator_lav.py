"""Conjunctive-query and MiniCon tests, including hypothesis properties."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReformulationError
from repro.mediator.cq import (
    Atom,
    ConjunctiveQuery,
    CQSyntaxError,
    Var,
    canonical_database,
    evaluate,
    is_contained_in,
    is_equivalent,
    parse_cq,
)
from repro.mediator.lav import (
    LavMapping,
    LavMediator,
    cq_to_select,
    minicon_rewritings,
)


class TestParsing:
    def test_basic(self):
        cq = parse_cq("q(X, Y) :- r(X, Z), s(Z, Y)")
        assert cq.name == "q"
        assert cq.head == (Var("X"), Var("Y"))
        assert len(cq.body) == 2

    def test_constants(self):
        cq = parse_cq("q(X) :- r(X, 'SF'), s(X, 42), t(X, open)")
        assert cq.body[0].terms[1] == "SF"
        assert cq.body[1].terms[1] == 42
        assert cq.body[2].terms[1] == "open"

    def test_head_constant(self):
        cq = parse_cq("q(X, 1) :- r(X)")
        assert cq.head[1] == 1

    def test_missing_body_rejected(self):
        with pytest.raises(CQSyntaxError):
            parse_cq("q(X)")

    def test_bad_atom_rejected(self):
        with pytest.raises(CQSyntaxError):
            parse_cq("q(X) :- r(X,")

    def test_round_trip_repr(self):
        cq = parse_cq("q(X) :- r(X, Y), s(Y, 'a')")
        assert parse_cq(repr(cq)) == cq

    def test_safety(self):
        assert parse_cq("q(X) :- r(X)").is_safe()
        assert not parse_cq("q(X, Y) :- r(X)").is_safe()

    def test_existential_vars(self):
        cq = parse_cq("q(X) :- r(X, Y)")
        assert cq.existential_vars() == [Var("Y")]


class TestEvaluation:
    DB = {"r": [(1, 2), (2, 3)], "s": [(2, "a"), (3, "b")]}

    def test_join(self):
        cq = parse_cq("q(X, W) :- r(X, Y), s(Y, W)")
        assert evaluate(cq, self.DB) == {(1, "a"), (2, "b")}

    def test_constant_filter(self):
        cq = parse_cq("q(X) :- s(X, 'a')")
        assert evaluate(cq, self.DB) == {(2,)}

    def test_repeated_variable(self):
        db = {"r": [(1, 1), (1, 2)]}
        cq = parse_cq("q(X) :- r(X, X)")
        assert evaluate(cq, db) == {(1,)}

    def test_empty_result(self):
        cq = parse_cq("q(X) :- r(X, 99)")
        assert evaluate(cq, self.DB) == set()


class TestContainment:
    def test_reflexive(self):
        cq = parse_cq("q(X) :- r(X, Y), s(Y, Z)")
        assert is_contained_in(cq, cq)

    def test_more_constrained_contained(self):
        tight = parse_cq("q(X) :- r(X, Y), r(Y, X)")
        loose = parse_cq("q(X) :- r(X, Y)")
        assert is_contained_in(tight, loose)
        assert not is_contained_in(loose, tight)

    def test_containment_check_leaves_no_reference_cycles(self):
        # Evaluation over the canonical database must free its bindings by
        # reference counting alone, not leave them to the cycle collector.
        tight = parse_cq("q(X) :- r(X, Y), r(Y, X)")
        loose = parse_cq("q(X) :- r(X, Y)")
        is_contained_in(tight, loose)
        gc.collect()
        gc.disable()
        try:
            assert is_contained_in(tight, loose)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_constant_specialization(self):
        tight = parse_cq("q(X) :- r(X, 'a')")
        loose = parse_cq("q(X) :- r(X, Y)")
        assert is_contained_in(tight, loose)
        assert not is_contained_in(loose, tight)

    def test_different_arity_not_contained(self):
        q1 = parse_cq("q(X, Y) :- r(X, Y)")
        q2 = parse_cq("q(X) :- r(X, Y)")
        assert not is_contained_in(q1, q2)

    def test_equivalence_up_to_renaming(self):
        q1 = parse_cq("q(A) :- r(A, B)")
        q2 = parse_cq("q(X) :- r(X, Y)")
        assert is_equivalent(q1, q2)

    def test_redundant_atom_equivalence(self):
        q1 = parse_cq("q(X) :- r(X, Y), r(X, Z)")
        q2 = parse_cq("q(X) :- r(X, Y)")
        assert is_equivalent(q1, q2)

    def test_canonical_database_shape(self):
        cq = parse_cq("q(X) :- r(X, Y), s(Y)")
        db, head = canonical_database(cq)
        assert len(db["r"]) == 1
        assert len(db["s"]) == 1
        assert head[0] == db["r"][0][0]


# Random CQ generation for containment properties.
_preds = ["p", "r", "s"]
_vars = [Var(n) for n in "XYZW"]


@st.composite
def random_cq(draw):
    body = []
    for _ in range(draw(st.integers(1, 3))):
        pred = draw(st.sampled_from(_preds))
        arity = 2
        terms = tuple(
            draw(st.sampled_from(_vars + [0, 1]))  # type: ignore[list-item]
            for _ in range(arity)
        )
        body.append(Atom(pred, terms))
    body_vars = [v for atom in body for v in atom.variables()]
    if body_vars:
        head = (draw(st.sampled_from(body_vars)),)
    else:
        head = (0,)
    return ConjunctiveQuery("q", head, tuple(body))


@given(random_cq())
@settings(max_examples=80, deadline=None)
def test_containment_reflexive_property(cq):
    assert is_contained_in(cq, cq)


@given(random_cq())
@settings(max_examples=80, deadline=None)
def test_adding_atoms_only_tightens(cq):
    extra = Atom("p", (Var("X"), Var("X")))
    tighter = ConjunctiveQuery(cq.name, cq.head, cq.body + (extra,))
    assert is_contained_in(tighter, cq)


@given(random_cq(), random_cq())
@settings(max_examples=60, deadline=None)
def test_containment_sound_on_random_instances(q1, q2):
    """If q1 ⊑ q2 then on a concrete instance answers(q1) ⊆ answers(q2)."""
    if not is_contained_in(q1, q2):
        return
    db = {
        "p": [(0, 0), (0, 1), (1, 1)],
        "r": [(1, 0), (1, 1)],
        "s": [(0, 1), (1, 1), (0, 0)],
    }
    assert evaluate(q1, db) <= evaluate(q2, db)


class TestMiniCon:
    def test_identity_view(self):
        mappings = [LavMapping.parse("v(X, Y) :- r(X, Y)")]
        query = parse_cq("q(X, Y) :- r(X, Y)")
        rewritings = minicon_rewritings(query, mappings)
        assert len(rewritings) == 1
        assert rewritings[0].body[0].predicate == "v"

    def test_join_across_views(self):
        mappings = [
            LavMapping.parse("v1(X, Y) :- r(X, Y)"),
            LavMapping.parse("v2(Y, Z) :- s(Y, Z)"),
        ]
        query = parse_cq("q(X, Z) :- r(X, Y), s(Y, Z)")
        rewritings = minicon_rewritings(query, mappings)
        assert len(rewritings) == 1
        assert {atom.predicate for atom in rewritings[0].body} == {"v1", "v2"}

    def test_existential_join_must_stay_together(self):
        # v projects away the join variable: it cannot participate in the join.
        mappings = [
            LavMapping.parse("v(X) :- r(X, Y)"),
            LavMapping.parse("w(X, Z) :- r(X, Y), s(Y, Z)"),
        ]
        query = parse_cq("q(X, Z) :- r(X, Y), s(Y, Z)")
        rewritings = minicon_rewritings(query, mappings)
        assert len(rewritings) == 1
        assert rewritings[0].body[0].predicate == "w"

    def test_no_rewriting_when_views_insufficient(self):
        mappings = [LavMapping.parse("v(X) :- r(X, Y)")]
        query = parse_cq("q(X, Y) :- r(X, Y)")
        assert minicon_rewritings(query, mappings) == []

    def test_multiple_alternatives(self):
        mappings = [
            LavMapping.parse("direct(X, Z) :- parent(X, Y), parent(Y, Z)"),
            LavMapping.parse("p(X, Y) :- parent(X, Y)"),
        ]
        query = parse_cq("q(X, Z) :- parent(X, Y), parent(Y, Z)")
        rewritings = minicon_rewritings(query, mappings)
        bodies = {tuple(atom.predicate for atom in rw.body) for rw in rewritings}
        assert ("direct",) in bodies
        assert ("p", "p") in bodies

    def test_constants_in_query(self):
        mappings = [LavMapping.parse("v(X, Y) :- r(X, Y)")]
        query = parse_cq("q(X) :- r(X, 'a')")
        rewritings = minicon_rewritings(query, mappings)
        assert len(rewritings) == 1
        assert rewritings[0].body[0].terms[1] == "a"

    def test_constant_on_existential_view_var_fails(self):
        mappings = [LavMapping.parse("v(X) :- r(X, Y)")]
        query = parse_cq("q(X) :- r(X, 'a')")
        assert minicon_rewritings(query, mappings) == []

    def test_all_rewritings_contained_in_query(self):
        """Every produced rewriting, once expanded, is contained in the query."""
        mappings = [
            LavMapping.parse("v1(X, Y) :- cites(X, Y), sameTopic(X, Y)"),
            LavMapping.parse("v2(X) :- cites(X, X)"),
            LavMapping.parse("v3(X, Y) :- cites(X, Y)"),
        ]
        query = parse_cq("q(X, Y) :- cites(X, Y), sameTopic(X, Y)")
        rewritings = minicon_rewritings(query, mappings, verify=True)
        assert rewritings  # verification already enforced containment
        bodies = {tuple(sorted(a.predicate for a in rw.body)) for rw in rewritings}
        assert ("v1",) in bodies

    def test_mediator_answers_union_of_rewritings(self):
        mappings = [
            LavMapping.parse("par(X, Y) :- parent(X, Y)"),
            LavMapping.parse("gp(X, Z) :- parent(X, Y), parent(Y, Z)"),
        ]
        mediator = LavMediator(mappings)
        answers = mediator.answer(
            "q(X, Z) :- parent(X, Y), parent(Y, Z)",
            {"par": [("a", "b"), ("b", "c")], "gp": [("x", "z")]},
        )
        assert answers == {("a", "c"), ("x", "z")}

    def test_mediator_raises_without_rewriting(self):
        mediator = LavMediator([LavMapping.parse("v(X) :- r(X, Y)")])
        with pytest.raises(ReformulationError):
            mediator.answer("q(X, Y) :- r(X, Y)", {"v": []})

    def test_cq_to_select(self):
        rewriting = parse_cq("q(X, Z) :- par(X, Y), gp(Y, Z)")
        sql = cq_to_select(
            rewriting, {"par": ["child", "parent"], "gp": ["kid", "elder"]}
        )
        assert "par AS b0" in sql
        assert "gp AS b1" in sql
        assert "b0.parent = b1.kid" in sql
        assert sql.startswith("SELECT DISTINCT")
