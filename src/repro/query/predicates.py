"""Predicates for CQs with selections (Section 5 of the paper).

A predicate ``P(y)`` is a computable boolean function over a tuple of
variables.  The library models three families:

* :class:`InequalityPredicate` — ``x != y`` (or ``x != c``), the predicates
  needed for graph-pattern counting queries;
* :class:`ComparisonPredicate` — ``x < y``, ``x <= y``, ``x > y``, ``x >= y``
  (and against constants), the predicates of spatiotemporal queries, which
  require the augmented active-domain treatment of Section 5.2; and
* :class:`GenericPredicate` — an arbitrary Python callable, supported by the
  general (exponential-time in the worst case) algorithm of Section 5.1;
  the elimination engine applies it row by row inside a residual and
  rejects it across a residual's boundary.

Every predicate can evaluate itself on a (partial) variable assignment; the
evaluation engines only apply a predicate once all of its variables are
bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.exceptions import QueryError
from repro.query.atoms import Constant, Term, Variable

__all__ = [
    "Predicate",
    "InequalityPredicate",
    "ComparisonPredicate",
    "GenericPredicate",
]


class Predicate:
    """Abstract base class for query predicates.

    Every predicate sets :attr:`variables`, the variables it mentions, once
    at construction: the evaluation engines read it at every step.
    """

    variables: frozenset[Variable]

    def evaluate(self, assignment: Mapping[Variable, object]) -> bool:
        """Evaluate on a complete assignment of :attr:`variables`.

        Raises
        ------
        QueryError
            If some variable of the predicate is missing from ``assignment``.
        """
        raise NotImplementedError

    def is_bound(self, assignment: Mapping[Variable, object]) -> bool:
        """Whether every variable of the predicate is bound in ``assignment``."""
        return all(v in assignment for v in self.variables)

    @property
    def is_inequality(self) -> bool:
        """Whether this is a pure disequality (``!=``) predicate."""
        return False

    @property
    def is_comparison(self) -> bool:
        """Whether this is an order comparison (``<``, ``<=``, ``>``, ``>=``)."""
        return False


def _term_value(term: Term, assignment: Mapping[Variable, object]) -> object:
    if isinstance(term, Constant):
        return term.value
    try:
        return assignment[term]
    except KeyError:
        raise QueryError(f"variable {term!r} is not bound in the assignment") from None


def _variables_of(*terms: Term) -> frozenset[Variable]:
    return frozenset(t for t in terms if isinstance(t, Variable))


def _as_term(value: object) -> Term:
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str):
        return Variable(value)
    return Constant(value)


@dataclass(frozen=True)
class InequalityPredicate(Predicate):
    """The disequality predicate ``left != right``.

    These are exactly the predicates used by the graph-pattern counting
    queries in the paper's experiments (all pairwise ``x_i != x_j``).
    """

    left: Term
    right: Term

    def __init__(self, left, right):
        object.__setattr__(self, "left", _as_term(left))
        object.__setattr__(self, "right", _as_term(right))
        if self.left == self.right:
            raise QueryError(f"inequality predicate {self!r} is unsatisfiable")
        object.__setattr__(self, "variables", _variables_of(self.left, self.right))

    def evaluate(self, assignment: Mapping[Variable, object]) -> bool:
        return _term_value(self.left, assignment) != _term_value(self.right, assignment)

    @property
    def is_inequality(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{self.left!r} != {self.right!r}"


_COMPARISON_OPS: dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class ComparisonPredicate(Predicate):
    """An order comparison ``left OP right`` with ``OP`` in ``<, <=, >, >=``."""

    left: Term
    op: str
    right: Term

    def __init__(self, left, op: str, right):
        if op not in _COMPARISON_OPS:
            raise QueryError(f"unsupported comparison operator {op!r}")
        object.__setattr__(self, "left", _as_term(left))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "right", _as_term(right))
        object.__setattr__(self, "variables", _variables_of(self.left, self.right))

    def evaluate(self, assignment: Mapping[Variable, object]) -> bool:
        return _COMPARISON_OPS[self.op](
            _term_value(self.left, assignment), _term_value(self.right, assignment)
        )

    @property
    def is_comparison(self) -> bool:
        return True

    @property
    def constants(self) -> tuple[object, ...]:
        """Constant operands (needed for the augmented domain ``Z*(q)``)."""
        return tuple(t.value for t in (self.left, self.right) if isinstance(t, Constant))

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


@dataclass(frozen=True)
class GenericPredicate(Predicate):
    """An arbitrary computable predicate over a fixed tuple of variables.

    Parameters
    ----------
    func:
        A callable taking the variable values *in the order of* ``vars`` and
        returning a boolean.
    vars:
        The variables, in the order the callable expects them.
    name:
        An optional display name.
    """

    func: Callable[..., bool]
    vars: tuple[Variable, ...]
    name: str = "P"

    def __init__(self, func: Callable[..., bool], vars: Sequence[Variable | str], name: str = "P"):
        converted = tuple(Variable(v) if isinstance(v, str) else v for v in vars)
        if not converted:
            raise QueryError("a generic predicate must mention at least one variable")
        if len(set(converted)) != len(converted):
            raise QueryError("generic predicate variables must be distinct")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "vars", converted)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variables", frozenset(converted))

    def evaluate(self, assignment: Mapping[Variable, object]) -> bool:
        values = []
        for var in self.vars:
            if var not in assignment:
                raise QueryError(f"variable {var!r} is not bound in the assignment")
            values.append(assignment[var])
        return bool(self.func(*values))

    def __repr__(self) -> str:
        inner = ", ".join(v.name for v in self.vars)
        return f"{self.name}({inner})"
