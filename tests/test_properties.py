"""Property-based tests (hypothesis) for the core invariants.

These are the invariants the paper's privacy proof rests on, checked on
randomly generated small instances:

* **Lemma 3.1** — monotonicity of the boundary multiplicities under tuple
  insertion (binary and ternary atoms).
* **Lemma 3.2-style stability** — ``T_E`` changes by a bounded amount under a
  single tuple change.
* **Theorem 3.9 (smoothness)** — ``L̂S^(k)(I) <= L̂S^(k+1)(I')`` for neighbors,
  with and without self-joins, with and without generated predicates; this
  is exactly what makes the RS mechanism ε-DP.
* **RS ≥ LS** and monotonicity of ``L̂S^(k)`` in ``k``.
* Elastic sensitivity's analogous smoothness, and ES ≥ its own ``L̂S^(0)``.
* Distance symmetry / triangle-style sanity of the database edit distance.
* Agreement with the QA oracle for counting and boundary multiplicities
  under generated predicate combinations.
* The privacy ledger: under any sequence of checked charges, unchecked
  folds, reloads from a snapshot and resets, ``spent`` is bitwise the
  in-order left fold of the charges since the last reset.

Failures print the hypothesis reproduction blob (``print_blob=True``) —
rerun with ``@reproduce_failure`` exactly as hypothesis instructs.  The
deeper end of random-input coverage (random schemas, skew, oracle
comparison, noise calibration) lives in :mod:`repro.qa` and
``tests/test_qa_fuzz.py``; these properties stay cheap enough to run on
every tier-1 invocation.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.evaluation import count_query
from repro.mechanisms.accountant import PrivacyAccountant
from repro.qa.oracle import oracle_count
from repro.qa.runner import DifferentialRunner
from repro.query.parser import parse_query
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.local import local_sensitivity_upper_bound
from repro.sensitivity.residual import ResidualSensitivity

_COMMON = dict(
    deadline=None,
    print_blob=True,  # print the reproduction seed/blob on failure
    suppress_health_check=[HealthCheck.too_slow],
)

#: Cheap invariants (a handful of boundary multiplicities per example).
SETTINGS = settings(max_examples=75, **_COMMON)
#: Expensive invariants (full residual-sensitivity profiles per example).
HEAVY_SETTINGS = settings(max_examples=25, **_COMMON)

# Small value domains keep the instances tiny but collision-rich.
value = st.integers(min_value=0, max_value=4)
pair = st.tuples(value, value)
pairs = st.lists(pair, min_size=0, max_size=8, unique=True)
triple = st.tuples(value, value, value)
triples = st.lists(triple, min_size=0, max_size=6, unique=True)


def _join_db(r_rows, s_rows) -> Database:
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
    return Database.from_rows(schema, R=r_rows, S=s_rows)


def _edge_db(rows) -> Database:
    schema = DatabaseSchema.from_arities({"Edge": 2})
    return Database.from_rows(schema, Edge=rows)


def _ternary_db(u_rows, r_rows) -> Database:
    schema = DatabaseSchema.from_arities({"U": 3, "R": 2})
    return Database.from_rows(schema, U=u_rows, R=r_rows)


JOIN_QUERY = parse_query("R(x, y), S(y, z)")
SELF_JOIN_QUERY = parse_query("Edge(a, b), Edge(b, c)")
TRIANGLE_QUERY = parse_query(
    "Edge(a, b), Edge(b, c), Edge(a, c), a != b, b != c, a != c"
)
TERNARY_QUERY = parse_query("U(x, y, z), R(z, w)")

#: Generated predicate suffixes for the two-table join (variables x, y, z).
join_predicates = st.lists(
    st.sampled_from(
        ["x != z", "x != y", "y != z", "x <= z", "x < y", "y >= 1", "z <= 3", "x > 0"]
    ),
    min_size=0,
    max_size=2,
    unique=True,
)

#: Generated predicate suffixes for the ternary join (variables x, y, z, w).
ternary_predicates = st.lists(
    st.sampled_from(["x != w", "y <= z", "x < w", "y != z", "w >= 2"]),
    min_size=0,
    max_size=2,
    unique=True,
)

#: Generated predicate suffixes for the self-join path (variables a, b, c).
self_join_predicates = st.lists(
    st.sampled_from(["a != c", "a != b", "a <= c", "b >= 1"]),
    min_size=0,
    max_size=2,
    unique=True,
)


def _with_predicates(base: str, suffixes):
    return parse_query(", ".join([base, *suffixes]) if suffixes else base)


class TestMultiplicityProperties:
    @SETTINGS
    @given(r_rows=pairs, s_rows=pairs, extra=pair)
    def test_lemma_3_1_monotonicity(self, r_rows, s_rows, extra):
        """Inserting a tuple never decreases any boundary multiplicity."""
        db = _join_db(r_rows, s_rows)
        bigger = db.with_tuple_added("R", extra)
        for kept in ([0], [1], [0, 1]):
            before = boundary_multiplicity(JOIN_QUERY, db, kept).value
            after = boundary_multiplicity(JOIN_QUERY, bigger, kept).value
            assert after >= before

    @SETTINGS
    @given(u_rows=triples, r_rows=pairs, extra=triple)
    def test_lemma_3_1_monotonicity_ternary(self, u_rows, r_rows, extra):
        """Monotonicity also on a 3-ary atom joined to a binary one."""
        db = _ternary_db(u_rows, r_rows)
        bigger = db.with_tuple_added("U", extra)
        for kept in ([0], [1], [0, 1]):
            before = boundary_multiplicity(TERNARY_QUERY, db, kept).value
            after = boundary_multiplicity(TERNARY_QUERY, bigger, kept).value
            assert after >= before

    @SETTINGS
    @given(r_rows=pairs, s_rows=pairs, extra=pair)
    def test_single_change_stability(self, r_rows, s_rows, extra):
        """A single tuple change moves T_{single atom} by at most 1."""
        db = _join_db(r_rows, s_rows)
        changed = db.with_tuple_added("R", extra)
        before = boundary_multiplicity(JOIN_QUERY, db, [0]).value
        after = boundary_multiplicity(JOIN_QUERY, changed, [0]).value
        assert abs(after - before) <= 1

    @SETTINGS
    @given(r_rows=pairs, s_rows=pairs)
    def test_strategies_agree(self, r_rows, s_rows):
        db = _join_db(r_rows, s_rows)
        for kept in ([0], [1], [0, 1]):
            exact = DifferentialRunner._oracle_multiplicity(JOIN_QUERY, db, kept)
            assert boundary_multiplicity(JOIN_QUERY, db, kept).value == exact

    @SETTINGS
    @given(r_rows=pairs, s_rows=pairs, suffixes=join_predicates)
    def test_count_strategies_agree_with_generated_predicates(
        self, r_rows, s_rows, suffixes
    ):
        """The engine counts what the oracle counts, whatever predicates are
        attached."""
        query = _with_predicates("R(x, y), S(y, z)", suffixes)
        db = _join_db(r_rows, s_rows)
        assert count_query(query, db) == oracle_count(query, db)

    @SETTINGS
    @given(u_rows=triples, r_rows=pairs, suffixes=ternary_predicates)
    def test_ternary_counts_agree_with_enumeration(self, u_rows, r_rows, suffixes):
        query = _with_predicates("U(x, y, z), R(z, w)", suffixes)
        db = _ternary_db(u_rows, r_rows)
        assert count_query(query, db) == oracle_count(query, db)

    @SETTINGS
    @given(r_rows=pairs, s_rows=pairs, suffixes=join_predicates)
    def test_predicate_multiplicities_upper_bound_exact(self, r_rows, s_rows, suffixes):
        """Boundary multiplicities always dominate the oracle's, and equal
        it when exact."""
        query = _with_predicates("R(x, y), S(y, z)", suffixes)
        db = _join_db(r_rows, s_rows)
        for kept in ([0], [1], [0, 1]):
            exact = DifferentialRunner._oracle_multiplicity(query, db, kept)
            got = boundary_multiplicity(query, db, kept)
            if got.exact:
                assert got.value == exact
            else:
                assert got.value >= exact


class TestResidualSensitivityProperties:
    @HEAVY_SETTINGS
    @given(r_rows=pairs, s_rows=pairs, k=st.integers(min_value=0, max_value=3))
    def test_ls_hat_monotone_in_k(self, r_rows, s_rows, k):
        db = _join_db(r_rows, s_rows)
        rs = ResidualSensitivity(JOIN_QUERY, beta=0.2)
        assert rs.ls_hat(db, k + 1) >= rs.ls_hat(db, k)

    @HEAVY_SETTINGS
    @given(r_rows=pairs, s_rows=pairs, extra=pair, k=st.integers(min_value=0, max_value=2))
    def test_smoothness_without_self_joins(self, r_rows, s_rows, extra, k):
        """Theorem 3.9 on the two-relation join query."""
        db = _join_db(r_rows, s_rows)
        neighbor = db.with_tuple_added("S", extra)
        rs = ResidualSensitivity(JOIN_QUERY, beta=0.2)
        assert rs.ls_hat(neighbor, k + 1) >= rs.ls_hat(db, k) - 1e-9
        assert rs.ls_hat(db, k + 1) >= rs.ls_hat(neighbor, k) - 1e-9

    @HEAVY_SETTINGS
    @given(
        r_rows=pairs,
        s_rows=pairs,
        extra=pair,
        k=st.integers(min_value=0, max_value=2),
        suffixes=join_predicates,
    )
    def test_smoothness_with_generated_predicates(
        self, r_rows, s_rows, extra, k, suffixes
    ):
        """Theorem 3.9 must survive whatever predicates Section 5 allows."""
        query = _with_predicates("R(x, y), S(y, z)", suffixes)
        db = _join_db(r_rows, s_rows)
        neighbor = db.with_tuple_added("S", extra)
        rs = ResidualSensitivity(query, beta=0.2)
        assert rs.ls_hat(neighbor, k + 1) >= rs.ls_hat(db, k) - 1e-9
        assert rs.ls_hat(db, k + 1) >= rs.ls_hat(neighbor, k) - 1e-9

    @HEAVY_SETTINGS
    @given(rows=pairs, extra=pair, k=st.integers(min_value=0, max_value=2))
    def test_smoothness_with_self_joins(self, rows, extra, k):
        """Theorem 3.9 on the self-join path query (logical copies move together)."""
        db = _edge_db(rows)
        neighbor = db.with_tuple_added("Edge", extra)
        rs = ResidualSensitivity(SELF_JOIN_QUERY, beta=0.2)
        assert rs.ls_hat(neighbor, k + 1) >= rs.ls_hat(db, k) - 1e-9
        assert rs.ls_hat(db, k + 1) >= rs.ls_hat(neighbor, k) - 1e-9

    @HEAVY_SETTINGS
    @given(
        rows=pairs,
        extra=pair,
        k=st.integers(min_value=0, max_value=1),
        suffixes=self_join_predicates,
    )
    def test_smoothness_self_join_with_generated_predicates(
        self, rows, extra, k, suffixes
    ):
        query = _with_predicates("Edge(a, b), Edge(b, c)", suffixes)
        db = _edge_db(rows)
        neighbor = db.with_tuple_added("Edge", extra)
        rs = ResidualSensitivity(query, beta=0.2)
        assert rs.ls_hat(neighbor, k + 1) >= rs.ls_hat(db, k) - 1e-9
        assert rs.ls_hat(db, k + 1) >= rs.ls_hat(neighbor, k) - 1e-9

    @HEAVY_SETTINGS
    @given(rows=pairs, extra=pair, k=st.integers(min_value=0, max_value=2))
    def test_smoothness_triangle_with_predicates(self, rows, extra, k):
        db = _edge_db(rows)
        neighbor = db.with_tuple_added("Edge", extra)
        rs = ResidualSensitivity(TRIANGLE_QUERY, beta=0.2)
        assert rs.ls_hat(neighbor, k + 1) >= rs.ls_hat(db, k) - 1e-9

    @HEAVY_SETTINGS
    @given(u_rows=triples, r_rows=pairs, extra=triple, k=st.integers(min_value=0, max_value=1))
    def test_smoothness_ternary(self, u_rows, r_rows, extra, k):
        """Theorem 3.9 on the mixed-arity join."""
        db = _ternary_db(u_rows, r_rows)
        neighbor = db.with_tuple_added("U", extra)
        rs = ResidualSensitivity(TERNARY_QUERY, beta=0.2)
        assert rs.ls_hat(neighbor, k + 1) >= rs.ls_hat(db, k) - 1e-9
        assert rs.ls_hat(db, k + 1) >= rs.ls_hat(neighbor, k) - 1e-9

    @HEAVY_SETTINGS
    @given(r_rows=pairs, s_rows=pairs)
    def test_rs_upper_bounds_ls(self, r_rows, s_rows):
        """RS is a smooth *upper bound*: at least the exact local sensitivity."""
        db = _join_db(r_rows, s_rows)
        rs_value = ResidualSensitivity(JOIN_QUERY, beta=0.2).compute(db).value
        ls_value = local_sensitivity_upper_bound(JOIN_QUERY, db).value
        assert rs_value >= ls_value - 1e-9

    @HEAVY_SETTINGS
    @given(rows=pairs, suffixes=self_join_predicates)
    def test_rs_upper_bounds_ls_self_join_with_predicates(self, rows, suffixes):
        query = _with_predicates("Edge(a, b), Edge(b, c)", suffixes)
        db = _edge_db(rows)
        rs_value = ResidualSensitivity(query, beta=0.2).compute(db).value
        ls_value = local_sensitivity_upper_bound(query, db).value
        assert rs_value >= ls_value - 1e-9


class TestElasticSensitivityProperties:
    @HEAVY_SETTINGS
    @given(rows=pairs, extra=pair, k=st.integers(min_value=0, max_value=2))
    def test_elastic_smoothness(self, rows, extra, k):
        db = _edge_db(rows)
        neighbor = db.with_tuple_added("Edge", extra)
        es = ElasticSensitivity(SELF_JOIN_QUERY, beta=0.2)
        assert es.ls_hat(neighbor, k + 1) >= es.ls_hat(db, k) - 1e-9

    @HEAVY_SETTINGS
    @given(rows=pairs)
    def test_elastic_at_least_its_base(self, rows):
        db = _edge_db(rows)
        es = ElasticSensitivity(SELF_JOIN_QUERY, beta=0.2)
        assert es.compute(db).value >= es.ls_hat(db, 0) - 1e-9


class TestDistanceProperties:
    @SETTINGS
    @given(first=pairs, second=pairs)
    def test_distance_symmetry_and_identity(self, first, second):
        left = _edge_db(first)
        right = _edge_db(second)
        assert left.distance(right) == right.distance(left)
        assert left.distance(left.copy()) == 0

    @SETTINGS
    @given(rows=pairs, extra=pair)
    def test_single_edit_distance_is_one(self, rows, extra):
        db = _edge_db(rows)
        if tuple(extra) in db.relation("Edge"):
            neighbor = db.with_tuple_removed("Edge", extra)
        else:
            neighbor = db.with_tuple_added("Edge", extra)
        assert db.distance(neighbor) == 1


# A few fixed values and one free float, so the fold's rounding is exercised.
ledger_epsilon = st.one_of(
    st.sampled_from([0.1, 0.3, 0.7]),
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False),
)
ledger_ops = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), ledger_epsilon),
        st.tuples(st.just("fold"), ledger_epsilon),
        st.tuples(st.just("reload")),
        st.tuples(st.just("reset")),
    ),
    max_size=60,
)


class TestLedgerFoldProperties:
    @settings(max_examples=500, **_COMMON)
    @given(ops=ledger_ops)
    def test_spent_is_the_left_fold_of_surviving_charges(self, ops):
        """Over checked charges, unchecked folds (a journaled charge),
        reloads from a snapshot and resets, ``spent`` is bitwise the in-order
        left fold of every charge since the last reset."""
        accountant = PrivacyAccountant(total_budget=1e9)
        model: list[float] = []  # the surviving charges, oldest first
        for op in ops:
            kind = op[0]
            if kind == "charge":
                accountant.charge(op[1], label="q")
                model.append(op[1])
            elif kind == "fold":
                accountant.fold(op[1])
                model.append(op[1])
            elif kind == "reload":
                # What a snapshot persists continues the same fold.
                reloaded = PrivacyAccountant(total_budget=1e9)
                reloaded.restore_ledger(accountant.snapshot())
                accountant = reloaded
            else:
                accountant.reset()
                model.clear()

            assert accountant.spent.hex() == _left_fold(model).hex()
            assert accountant.charge_count == len(model)
            total, count = accountant.snapshot()
            assert (total.hex(), count) == (_left_fold(model).hex(), len(model))


def _left_fold(epsilons) -> float:
    total = 0.0
    for epsilon in epsilons:
        total += epsilon
    return total
