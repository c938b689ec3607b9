"""The columnar engine's dictionary code space, against the QA oracle.

Every :class:`~repro.data.database.Database` codes its values in one
:class:`~repro.data.database.ValueDictionary`, and the columnar engine joins,
groups and tests inequalities on those codes.  Codes must follow Python
equality exactly, whatever the column types: ``int64`` columns meeting
``object`` columns that hold ``1``/``1.0``/``True``, ints past ``2**63 - 1``,
``str``/``int`` mixes, constants no value equals, and comparison predicates,
which decode through the dictionary.  Each case is checked against the
independent nested-loop oracle (:mod:`repro.qa.oracle`) and the backtracking
enumerator, which never see a code.  A delta insert of a never-seen value
must leave the database indistinguishable from a rebuild.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.data.database import Database, ValueDictionary
from repro.data.schema import DatabaseSchema
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.evaluation import count_query
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.qa.oracle import oracle_count
from repro.qa.runner import DifferentialRunner
from repro.query.parser import parse_query
from repro.sensitivity.residual import ResidualSensitivity

#: Just past the ``int64`` range: such ints live in ``object`` columns.
BIG = 2**63

#: ``(relations, rows, query)`` per case; every relation has arity 2.
CASES = {
    # R is int64; S's key column is object and holds 1.0 and True, both
    # equal to R's 1, next to a "2" that equals nothing in R.
    "int64-object-equal-values": (
        {
            "R": [(1, 10), (2, 10), (3, 11)],
            "S": [(1.0, "a"), (True, "b"), (2, "c"), ("2", "d")],
            "T": [("a", 10), ("b", 11), ("d", 10)],
        },
        "R(x, y), S(x, z), T(z, y)",
    ),
    "ints-past-int64": (
        {
            "R": [(BIG + 1, BIG + 2), (BIG + 2, BIG + 3), (BIG + 1, BIG + 3), (5, BIG + 1)],
            "S": [(BIG + 2, 7), (BIG + 3, 7), (BIG + 3, 8), (BIG + 1, 5)],
        },
        "R(x, y), R(y, z), S(z, w)",
    ),
    "str-int-mix": (
        {
            "R": [("a", 2), (1, 3), ("b", 1), (2, "a")],
            "S": [("a", 5), (1, 6), (2, "a"), ("b", "b")],
        },
        "R(x, y), S(x, z)",
    ),
    "str-int-mix-chain": (
        {
            "R": [("a", 2), (1, 3), ("b", 1), (2, "a")],
            "S": [("a", 5), (1, 6), (2, "a"), (3, "b")],
        },
        "R(x, y), S(y, z), R(z, w)",
    ),
    "absent-constant": (
        {"R": [(1, 2), (2, 3), ("a", 3)], "S": [(2, 1), (3, "a")]},
        "R(x, 99), S(x, z)",
    ),
    "absent-str-constant": (
        {"R": [(1, 2), (2, 3), ("a", 3)], "S": [(2, 1), (3, "a")]},
        "R(x, 'zz'), S(y, x)",
    ),
    "present-constant-mixed": (
        {"R": [(1, 2), (2, 3), ("a", 3)], "S": [(2, 1), (3, "a"), (3, 1)]},
        "R(x, 3), S(3, z)",
    ),
    "inequalities-on-mixed-columns": (
        {
            "R": [("a", 1), (1, "a"), (1, 2), (2, 1), ("b", "a")],
            "S": [(1, "a"), ("a", 1), (2, 2), ("a", "b")],
        },
        "R(x, y), S(y, z), x != z, x != 'a'",
    ),
    "comparison-on-int64": (
        {"R": [(1, 2), (2, 3), (3, 1), (2, 4)], "S": [(2, 5), (3, 0), (4, 2), (1, 3)]},
        "R(x, y), S(y, z), x < z",
    ),
    # x < z crosses the boundary of the residual {R}: Section 5.2 ranges z
    # over the augmented active domain, on object columns of big ints.
    "section-5-2-past-int64": (
        {
            "R": [
                (BIG + 1, BIG + 2), (BIG + 2, BIG + 3), (BIG + 3, BIG + 1), (BIG + 2, BIG + 1),
            ],
            "S": [(BIG + 2, BIG + 5), (BIG + 3, BIG), (BIG + 1, BIG + 3)],
        },
        "R(x, y), S(y, z), x < z, x != y",
    ),
}


def _database(rows: dict) -> Database:
    schema = DatabaseSchema.from_arities({name: 2 for name in rows})
    return Database.from_rows(schema, **rows)


def _subsets(query) -> list[frozenset[int]]:
    atoms = range(query.num_atoms)
    return [
        frozenset(kept)
        for size in range(1, query.num_atoms + 1)
        for kept in itertools.combinations(atoms, size)
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_count_and_multiplicities_match_the_oracle(case):
    rows, text = CASES[case]
    db, query = _database(rows), parse_query(text)
    assert count_query(query, db) == oracle_count(query, db)
    assert count_query(query, db) == count_query(query, db, strategy="enumerate")
    for kept in _subsets(query):
        got = boundary_multiplicity(query, db, kept)
        enumerated = boundary_multiplicity(query, db, kept, strategy="enumerate")
        assert got.exact, kept
        assert got.value == enumerated.value, kept
        oracle = DifferentialRunner._oracle_multiplicity(query, db, kept)
        if oracle is not None:
            assert got.value == oracle, kept


@pytest.mark.parametrize("case", sorted(CASES))
def test_delta_insert_of_a_new_value_equals_a_rebuild(case):
    rows, text = CASES[case]
    db, query = _database(rows), parse_query(text)
    count_query(query, db)  # code every relation before the delta
    dictionary = db.dictionary
    coded = len(dictionary)
    # -12345 sorts below every coded int but gets the next free code; a
    # string stays off the cases that order their values with ``<``.
    new_values = [-12345, BIG * 4]
    if not any(p.is_comparison for p in query.predicates):
        new_values.append("never-seen")
    for name in rows:
        first = min(rows[name], key=repr)
        db.relation(name).add_rows(
            [(value, first[1]) for value in new_values] + [(first[0], BIG * 4)]
        )
    assert len(dictionary) == coded + len(new_values)  # appended, nothing re-coded
    assert all(db.relation(name).coded_by is dictionary for name in rows)

    rebuilt = _database({name: sorted(db.relation(name), key=repr) for name in rows})
    assert count_query(query, db) == count_query(query, rebuilt) == oracle_count(query, db)
    engine = ResidualSensitivity(query, beta=0.1)
    delta_profile, rebuilt_profile = engine.profile(db), engine.profile(rebuilt)
    for kept, result in delta_profile.results.items():
        want = rebuilt_profile.results[kept]
        assert (result.value, result.exact) == (want.value, want.exact), kept
    releases = [
        PrivateCountingQuery(query, epsilon=0.5, rng=np.random.default_rng(7)).release(
            instance, keep_true_count=True
        )
        for instance in (db, rebuilt)
    ]
    assert (releases[0].noisy_count, releases[0].sensitivity, releases[0].true_count) == (
        releases[1].noisy_count,
        releases[1].sensitivity,
        releases[1].true_count,
    )


def test_release_during_an_elimination_keeps_one_code_space(monkeypatch):
    # A re-registration may release the database's dictionary while a query
    # on it is still eliminating; every atom of that elimination must keep
    # reading codes of the dictionary it started with.
    from repro.engine import columnar

    db = _database({"R": [("a", "b")], "S": [("b", "c")]})
    coded = columnar._relation_codes

    def releasing(relation, dictionary):
        codes = coded(relation, dictionary)
        db.release_caches()
        return codes

    monkeypatch.setattr(columnar, "_relation_codes", releasing)
    assert count_query(parse_query("R(x, y), S(y, z)"), db) == 1


def test_mixed_type_database_compares_int_columns_natively(monkeypatch):
    # S codes a string, a float and an int past int64 into the dictionary;
    # R's comparison and result columns must still be int64 arrays.
    from repro.engine import columnar
    from repro.query.atoms import Variable

    db = _database({"R": [(1, 2), (2, 3), (3, 1), (2, 4)], "S": [("a", 2.5), (BIG, 1)]})
    assert count_query(parse_query("S(x, y)"), db) == 2
    operand_dtypes = []
    mask = columnar.predicate_mask

    def spy(pred, operands, length):
        operand_dtypes.extend(v.dtype for v in operands.values() if isinstance(v, np.ndarray))
        return mask(pred, operands, length)

    monkeypatch.setattr(columnar, "predicate_mask", spy)
    query = parse_query("R(x, y), R(y, z), x < z")
    result = columnar.eliminate_group_counts_columnar(query, db, [Variable("x")])
    assert operand_dtypes and set(operand_dtypes) == {np.dtype(np.int64)}
    assert result.columns[0].dtype == np.int64
    assert int(result.count_array.sum()) == oracle_count(query, db)


class TestValueDictionary:
    def test_int64_values_are_coded_in_ascending_order(self):
        dictionary = ValueDictionary(
            [np.array([30, 10, 20]), np.array([BIG, 5, "x"], dtype=object), np.array([5])]
        )
        assert dictionary.encode(np.array([5, 10, 20, 30])).tolist() == [0, 1, 2, 3]
        assert dictionary.lookup(BIG) is None  # object columns are coded on use

    def test_python_equality_shares_one_code(self):
        dictionary = ValueDictionary([np.array([1, 2])])
        codes = dictionary.encode(np.array([1.0, True, 1, "1"], dtype=object))
        assert codes[0] == codes[1] == codes[2] == dictionary.lookup(1)
        assert codes[3] != codes[0]
        assert dictionary.decode(codes).tolist()[:3] == [1, 1, 1]

    def test_new_values_are_appended_and_old_codes_kept(self):
        dictionary = ValueDictionary([np.array([3, 1])])
        before = dictionary.encode(np.array([1, 3]))
        new = dictionary.encode(np.array([2, 3, -7]))
        assert dictionary.encode(np.array([1, 3])).tolist() == before.tolist()
        assert new.tolist() == [3, 1, 2]  # unseen values appended in value order
        assert dictionary.decode(new).tolist() == [2, 3, -7]

    def test_concurrent_encoders_agree_on_every_code(self):
        # Threads code overlapping fresh values at once (the thread-parallel
        # profile evaluator codes relations concurrently) and decode while
        # others append: every value must get exactly one code, and every
        # code must decode to its value.
        import sys
        import threading

        dictionary = ValueDictionary([np.arange(0, 100, 7)])
        batches = [
            np.arange(start, start + 400, dtype=np.int64) for start in range(0, 2000, 150)
        ] + [np.array([f"s{i % 300}" for i in range(start, start + 400)], dtype=object)
             for start in range(0, 2000, 250)]
        results: dict[int, np.ndarray] = {}
        misdecoded: list[int] = []
        barrier = threading.Barrier(len(batches))

        def encode(index: int) -> None:
            barrier.wait(timeout=10)
            for _ in range(5):
                results[index] = dictionary.encode(batches[index])
                if dictionary.decode(results[index]).tolist() != batches[index].tolist():
                    misdecoded.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=encode, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(batches)
        assert not misdecoded
        code_of: dict = {}
        for index, codes in results.items():
            values = batches[index].tolist()
            assert dictionary.decode(codes).tolist() == values
            for value, code in zip(values, codes.tolist()):
                assert code_of.setdefault(value, code) == code
        # Every value coded (the seed's are among the batches') holds one
        # distinct code, and no code was issued twice.
        assert sorted(code_of.values()) == list(range(len(dictionary)))

    def test_int_codes_decode_to_int64_beside_other_values(self):
        # A string, a float or an int past int64 anywhere in the dictionary
        # must not turn decoded int columns into object arrays.
        dictionary = ValueDictionary([np.array([1, 2, 3])])
        others = dictionary.encode(np.array(["a", BIG, 2.5], dtype=object))
        ints = dictionary.encode(np.array([3, 1]))
        assert dictionary.decode(ints).dtype == np.int64
        assert dictionary.decode(ints).tolist() == [3, 1]
        mixed = dictionary.decode(np.concatenate([ints, others]))
        assert mixed.dtype == object
        assert mixed.tolist() == [3, 1, "a", BIG, 2.5]
        # Values appended after a decode extend the tables.
        fresh = dictionary.encode(np.array([-7, 1]))
        assert dictionary.decode(fresh).dtype == np.int64
        assert dictionary.decode(fresh).tolist() == [-7, 1]
        late = dictionary.encode(np.array(["b"], dtype=object))
        assert dictionary.decode(np.concatenate([fresh, late])).tolist() == [-7, 1, "b"]

    def test_absent_and_unhashable_lookups(self):
        dictionary = ValueDictionary([np.array([1])])
        assert dictionary.lookup("nope") is None
        assert dictionary.lookup([1]) is None
