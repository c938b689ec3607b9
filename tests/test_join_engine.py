"""Tests for the exact backtracking join engine, a test reference that no
production path reaches."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.join import count_assignments, group_counts, iterate_assignments
from repro.exceptions import EvaluationError
from repro.query.atoms import Variable
from repro.query.parser import parse_query
from repro.query.predicates import GenericPredicate


class TestIteration:
    def test_simple_join(self, join_query, small_join_db):
        results = list(iterate_assignments(join_query, small_join_db))
        # R has 3 tuples with y=10 joining 2 S tuples, and 1 tuple with y=20
        # joining 1 S tuple: 3*2 + 1*1 = 7 assignments.
        assert len(results) == 7
        for assignment in results:
            assert set(assignment) == {Variable("x"), Variable("y"), Variable("z")}

    def test_empty_atom_subset_yields_empty_assignment(self, join_query, small_join_db):
        assert list(iterate_assignments(join_query, small_join_db, atom_indices=[])) == [{}]

    def test_constants_filter(self, two_table_schema):
        db = Database.from_rows(two_table_schema, R=[(1, 10), (2, 20)], S=[(10, 1)])
        query = parse_query("R(x, 10)")
        results = list(iterate_assignments(query, db))
        assert len(results) == 1
        assert results[0][Variable("x")] == 1

    def test_repeated_variable_in_atom(self, two_table_schema):
        db = Database.from_rows(two_table_schema, R=[(1, 1), (1, 2), (3, 3)], S=[])
        query = parse_query("R(x, x)")
        values = sorted(a[Variable("x")] for a in iterate_assignments(query, db))
        assert values == [1, 3]

    def test_predicates_applied(self, small_join_db):
        query = parse_query("R(x, y), S(y, z), z != 100")
        with_pred = count_assignments(query, small_join_db)
        without_pred = count_assignments(query.without_predicates(), small_join_db)
        # z = 100 matches 4 of the 7 join results, so the predicate removes them.
        assert without_pred == 7
        assert with_pred == 3

    def test_generic_predicate(self, small_join_db):
        query = parse_query("R(x, y), S(y, z)").with_predicates(
            [GenericPredicate(lambda x, z: x + z > 100, ["x", "z"])]
        )
        for assignment in iterate_assignments(query, small_join_db):
            assert assignment[Variable("x")] + assignment[Variable("z")] > 100

    def test_max_intermediate_cap(self, join_query, small_join_db):
        with pytest.raises(EvaluationError):
            list(iterate_assignments(join_query, small_join_db, max_intermediate=2))

    def test_self_join(self):
        schema = DatabaseSchema.from_arities({"Edge": 2})
        db = Database.from_rows(schema, Edge=[(1, 2), (2, 3), (3, 4)])
        query = parse_query("Edge(a, b), Edge(b, c)")
        assert count_assignments(query, db) == 2  # 1-2-3 and 2-3-4


class TestCounting:
    def test_count_full(self, join_query, small_join_db):
        assert count_assignments(join_query, small_join_db) == 7

    def test_count_distinct_projection(self, join_query, small_join_db):
        # Distinct x values that join: {1, 2, 3, 4} -> 4.
        assert (
            count_assignments(join_query, small_join_db, distinct_on=[Variable("x")]) == 4
        )
        # Distinct (x, z) pairs: 3*2 + 1 = 7 (all distinct here).
        assert (
            count_assignments(
                join_query, small_join_db, distinct_on=[Variable("x"), Variable("z")]
            )
            == 7
        )

    def test_count_empty_result(self, two_table_schema):
        db = Database.from_rows(two_table_schema, R=[(1, 10)], S=[(99, 1)])
        assert count_assignments(parse_query("R(x, y), S(y, z)"), db) == 0


class TestGroupCounts:
    def test_group_by_join_variable(self, join_query, small_join_db):
        counts = group_counts(join_query, small_join_db, [Variable("y")])
        assert counts == {(10,): 6, (20,): 1}

    def test_group_by_with_distinct(self, join_query, small_join_db):
        counts = group_counts(
            join_query, small_join_db, [Variable("y")], distinct_on=[Variable("z")]
        )
        assert counts == {(10,): 2, (20,): 1}

    def test_group_over_atom_subset(self, join_query, small_join_db):
        counts = group_counts(
            join_query, small_join_db, [Variable("y")], atom_indices=[0]
        )
        assert counts == {(10,): 3, (20,): 1}

    def test_empty_group_variables(self, join_query, small_join_db):
        counts = group_counts(join_query, small_join_db, [])
        assert counts == {(): 7}


def test_no_production_path_reaches_the_enumerator():
    import repro
    from repro.engine.aggregates import boundary_group_counts, boundary_multiplicity
    from repro.engine.evaluation import count_query, evaluate_query
    from repro.engine.profile import evaluate_profile
    from repro.experiments.figure3 import Figure3Config
    from repro.experiments.optimality import run_optimality_study
    from repro.experiments.scaling import run_scaling_study
    from repro.experiments.table1 import Table1Config
    from repro.mechanisms.mechanism import PrivateCountingQuery
    from repro.sensitivity.local import local_sensitivity_upper_bound
    from repro.sensitivity.lower_bounds import lemma_4_5_lower_bound
    from repro.sensitivity.residual import ResidualSensitivity
    from repro.service.service import PrivateQueryService

    root = Path(repro.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if {"repro.engine.join", "repro.engine.indexes"} & set(names):
                importers.append(path.relative_to(root).as_posix())
    assert importers == ["engine/join.py"]

    entry_points = [
        PrivateQueryService,
        PrivateCountingQuery,
        ResidualSensitivity,
        evaluate_profile,
        boundary_multiplicity,
        boundary_group_counts,
        count_query,
        evaluate_query,
        lemma_4_5_lower_bound,
        local_sensitivity_upper_bound,
        Table1Config,
        Figure3Config,
        run_optimality_study,
        run_scaling_study,
    ]
    knobs = {"strategy", "max_enumeration", "max_intermediate"}
    for entry in entry_points:
        assert not knobs & set(inspect.signature(entry).parameters), entry.__name__
