"""Tests for query predicates."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.query.atoms import Constant, Variable
from repro.query.predicates import (
    ComparisonPredicate,
    GenericPredicate,
    InequalityPredicate,
)


class TestInequality:
    def test_variable_variable(self):
        pred = InequalityPredicate("x", "y")
        assert pred.is_inequality
        assert not pred.is_comparison
        assert pred.variables == {Variable("x"), Variable("y")}
        assert pred.evaluate({Variable("x"): 1, Variable("y"): 2})
        assert not pred.evaluate({Variable("x"): 1, Variable("y"): 1})

    def test_variable_constant(self):
        pred = InequalityPredicate("x", Constant(5))
        assert pred.variables == {Variable("x")}
        assert pred.evaluate({Variable("x"): 4})
        assert not pred.evaluate({Variable("x"): 5})

    def test_unsatisfiable_rejected(self):
        with pytest.raises(QueryError):
            InequalityPredicate("x", "x")

    def test_missing_binding_raises(self):
        pred = InequalityPredicate("x", "y")
        with pytest.raises(QueryError):
            pred.evaluate({Variable("x"): 1})

    def test_is_bound(self):
        pred = InequalityPredicate("x", "y")
        assert not pred.is_bound({Variable("x"): 1})
        assert pred.is_bound({Variable("x"): 1, Variable("y"): 2})


class TestComparison:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("<", 1, 2, True),
            ("<", 2, 2, False),
            ("<=", 2, 2, True),
            (">", 3, 2, True),
            (">=", 1, 2, False),
        ],
    )
    def test_operators(self, op, left, right, expected):
        pred = ComparisonPredicate("x", op, "y")
        assert pred.is_comparison
        assert pred.evaluate({Variable("x"): left, Variable("y"): right}) is expected

    def test_constant_operand(self):
        pred = ComparisonPredicate("x", ">=", Constant(10))
        assert pred.constants == (10,)
        assert pred.evaluate({Variable("x"): 11})
        assert not pred.evaluate({Variable("x"): 9})

    def test_invalid_operator(self):
        with pytest.raises(QueryError):
            ComparisonPredicate("x", "==", "y")


def test_variables_built_once():
    for pred in (
        InequalityPredicate("x", "y"),
        ComparisonPredicate("x", "<", 3),
        GenericPredicate(lambda a, b: a < b, ["a", "b"]),
    ):
        assert pred.variables is pred.variables
        assert "variables" not in repr(pred)
    assert InequalityPredicate("x", "y") == InequalityPredicate("x", "y")
    assert hash(ComparisonPredicate("x", "<", 3)) == hash(ComparisonPredicate("x", "<", 3))


class TestGeneric:
    def test_callable_evaluation(self):
        pred = GenericPredicate(lambda a, b: (a + b) % 2 == 0, ["x", "y"], name="EvenSum")
        assert pred.evaluate({Variable("x"): 1, Variable("y"): 3})
        assert not pred.evaluate({Variable("x"): 1, Variable("y"): 2})
        assert "EvenSum" in repr(pred)

    def test_requires_variables(self):
        with pytest.raises(QueryError):
            GenericPredicate(lambda: True, [])
        with pytest.raises(QueryError):
            GenericPredicate(lambda a, b: True, ["x", "x"])

    def test_missing_binding(self):
        pred = GenericPredicate(lambda a: a > 0, ["x"])
        with pytest.raises(QueryError):
            pred.evaluate({})
