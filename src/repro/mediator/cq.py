"""Conjunctive queries: representation, evaluation, containment.

This is the formal substrate for LAV reformulation. Queries are Datalog
rules `q(X, Y) :- r(X, Z), s(Z, Y, 'const')`: upper-case identifiers are
variables, everything else is a constant. Containment is decided with the
classical canonical-database (frozen query) construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.common.errors import EIIError


class CQSyntaxError(EIIError):
    """Raised on malformed Datalog rule text."""


@dataclass(frozen=True)
class Var:
    """A query variable (upper-case-initial identifier in rule text)."""

    name: str

    def __repr__(self):
        return self.name


Term = Union[Var, int, float, str, bool]


@dataclass(frozen=True)
class Atom:
    """One body atom: predicate applied to terms."""

    predicate: str
    terms: tuple

    def __repr__(self):
        inner = ", ".join(_render_term(t) for t in self.terms)
        return f"{self.predicate}({inner})"

    def variables(self) -> list[Var]:
        return [term for term in self.terms if isinstance(term, Var)]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """`head_name(head_terms) :- body`. Bag vs set semantics is set."""

    name: str
    head: tuple
    body: tuple

    def __repr__(self):
        head_inner = ", ".join(_render_term(t) for t in self.head)
        body_text = ", ".join(repr(atom) for atom in self.body)
        return f"{self.name}({head_inner}) :- {body_text}"

    def head_vars(self) -> list[Var]:
        return [term for term in self.head if isinstance(term, Var)]

    def variables(self) -> list[Var]:
        seen: dict[Var, None] = {}
        for term in self.head:
            if isinstance(term, Var):
                seen.setdefault(term)
        for atom in self.body:
            for var in atom.variables():
                seen.setdefault(var)
        return list(seen)

    def existential_vars(self) -> list[Var]:
        head = set(self.head_vars())
        return [var for var in self.variables() if var not in head]

    def is_safe(self) -> bool:
        """Every head variable appears in the body (range restriction)."""
        body_vars = {var for atom in self.body for var in atom.variables()}
        return all(var in body_vars for var in self.head_vars())

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Fresh-rename every variable by appending `suffix`."""
        mapping = {var: Var(f"{var.name}{suffix}") for var in self.variables()}
        return self.substitute(mapping)

    def substitute(self, mapping: dict) -> "ConjunctiveQuery":
        def sub(term):
            return mapping.get(term, term) if isinstance(term, Var) else term

        return ConjunctiveQuery(
            self.name,
            tuple(sub(term) for term in self.head),
            tuple(
                Atom(atom.predicate, tuple(sub(term) for term in atom.terms))
                for atom in self.body
            ),
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*")


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse `q(X, Y) :- r(X, Z), s(Z, Y)` into a ConjunctiveQuery."""
    if ":-" not in text:
        raise CQSyntaxError(f"rule needs ':-': {text!r}")
    head_text, body_text = text.split(":-", 1)
    head_match = _ATOM_RE.fullmatch(head_text)
    if head_match is None:
        raise CQSyntaxError(f"bad head: {head_text!r}")
    name = head_match.group(1)
    head = _parse_terms(head_match.group(2))
    body: list[Atom] = []
    for piece in _split_atoms(body_text):
        match = _ATOM_RE.fullmatch(piece)
        if match is None:
            raise CQSyntaxError(f"bad atom: {piece!r}")
        body.append(Atom(match.group(1), _parse_terms(match.group(2))))
    if not body:
        raise CQSyntaxError("empty body")
    return ConjunctiveQuery(name, head, tuple(body))


def _split_atoms(text: str) -> list[str]:
    """Split the body on commas that are not inside parentheses."""
    pieces: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        pieces.append(tail)
    return [piece.strip() for piece in pieces if piece.strip()]


def _parse_terms(text: str) -> tuple:
    terms: list = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        terms.append(_parse_term(raw))
    return tuple(terms)


def _parse_term(raw: str):
    if raw.startswith("'") and raw.endswith("'") and len(raw) >= 2:
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw[0].isupper():
        return Var(raw)
    return raw  # lower-case bare word: a string constant


def _render_term(term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, str):
        return f"'{term}'"
    return repr(term)


# ---------------------------------------------------------------------------
# Evaluation and containment
# ---------------------------------------------------------------------------


def evaluate(cq: ConjunctiveQuery, database: dict) -> set:
    """Evaluate `cq` over `database` (predicate -> iterable of tuples).

    Returns the set of head tuples. Backtracking join in body order —
    adequate for the canonical databases containment uses and the small
    instances tests build.
    """
    results: set = set()
    _evaluate_from(cq, database, 0, {}, results)
    return results


def _evaluate_from(cq, database, index: int, binding: dict, results: set) -> None:
    # A module-level function rather than a self-referencing closure: the
    # closure's cell would form a reference cycle per call, left for the
    # cyclic garbage collector.
    if index == len(cq.body):
        results.add(
            tuple(
                binding.get(term, term) if isinstance(term, Var) else term
                for term in cq.head
            )
        )
        return
    atom = cq.body[index]
    for row in database.get(atom.predicate, ()):
        if len(row) != len(atom.terms):
            continue
        extended = _unify_row(atom.terms, row, binding)
        if extended is not None:
            _evaluate_from(cq, database, index + 1, extended, results)


def _unify_row(terms: Sequence, row: Sequence, binding: dict) -> Optional[dict]:
    extended = binding
    for term, value in zip(terms, row):
        if isinstance(term, Var):
            bound = extended.get(term)
            if bound is None:
                if extended is binding:
                    extended = dict(binding)
                extended[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended if extended is not binding else dict(binding)


@dataclass(frozen=True)
class _Frozen:
    """A frozen variable: the canonical-database constant for `var`."""

    name: str

    def __repr__(self):
        return f"«{self.name}»"


def canonical_database(cq: ConjunctiveQuery) -> tuple[dict, tuple]:
    """Freeze `cq`: variables become unique constants.

    Returns (database, frozen_head): the canonical instance and the head
    tuple under the freezing substitution.
    """
    freeze = {var: _Frozen(var.name) for var in cq.variables()}
    frozen = cq.substitute(freeze)
    database: dict = {}
    for atom in frozen.body:
        database.setdefault(atom.predicate, []).append(tuple(atom.terms))
    return database, tuple(frozen.head)


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True iff q1 ⊑ q2 (every answer of q1 is an answer of q2, set semantics).

    Classical theorem: q1 ⊑ q2 iff the frozen head of q1 is among q2's
    answers over q1's canonical database.
    """
    if len(q1.head) != len(q2.head):
        return False
    database, frozen_head = canonical_database(q1)
    return frozen_head in evaluate(q2, database)


def is_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)
