"""Tests for delta-maintained group counts.

Covers, on ``int64`` and on ``object`` value columns:

* each relation's change log (:meth:`Relation.changes_since`) — net rows,
  cancellation, the size limit, the reset by single-tuple mutations, and
  that constructor rows are not logged;
* component-cache entries caught up by the delta query
  (:func:`repro.engine.columnar.refresh_group_counts`) — equal to a
  recompute in value, exactness and count after inserts, deletes and
  replaces, a never-seen value and a row that fails an atom's constant;
* the cases that recompute instead: a self-joined changed relation, a
  second changed relation, a log that does not reach back, a non-full
  query, a Section 5.2 component and a dictionary replaced by
  ``release_caches``;
* that an entry is stored only for the epochs whose rows it read — also
  when a query runs while a mutation has published its rows but not yet
  advanced the epoch;
* that only counts a refresh can use are kept, and that kept counts do not
  keep their dictionary alive;
* the ``component_delta_updates`` counter through the service.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import repro.engine.columnar as columnar_module
import repro.engine.evaluation as evaluation_module
import repro.engine.profile as profile_module
from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.evaluation import count_query
from repro.engine.profile import evaluate_profile
from repro.query.parser import parse_query
from repro.sensitivity.residual import ResidualSensitivity
from repro.service import PrivateQueryService
from repro.service.cache import LRUCache

# ``numpy`` keeps small ints (``int64`` columns); ``python`` lifts every value
# past ``2**63 - 1`` (order and equality preserved), so the same instance runs
# on ``object`` columns of Python ints.
COLUMNS = ("python", "numpy")
_LIFT = 2**64

SCHEMA = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2})
ROWS = {
    "R": [(1, 2), (2, 2), (3, 4), (4, 5), (5, 2)],
    "S": [(2, 3), (2, 4), (4, 3), (5, 6), (2, 6)],
    "T": [(3, 9), (4, 9), (6, 9), (6, 1)],
}
#: Every relation occurs once, ``T`` with a constant in its second column.
QUERY = "R(x, y), S(y, z), T(z, 9), x != z"


def _v(value: int, columns: str) -> int:
    return value + _LIFT if columns == "python" else value


def _row(row, columns: str) -> tuple:
    return tuple(_v(v, columns) for v in row)


def _database(columns: str, rows=ROWS, schema=SCHEMA) -> Database:
    db = Database(
        schema,
        relations={
            name: [_row(row, columns) for row in relation_rows]
            for name, relation_rows in rows.items()
        },
    )
    want = object if columns == "python" else np.int64
    assert all(col.dtype == want for rel in db for col in rel.to_columns())
    return db


def _query(text: str, columns: str):
    return parse_query(text.replace("9", str(_v(9, columns))))


def _profile(query, db, cache):
    subsets = ResidualSensitivity(query, beta=0.1).required_subsets(db)
    return evaluate_profile(query, db, subsets, component_cache=cache)


def _assert_matches_rebuild(query, db, profile, count):
    fresh = Database(db.schema, relations={rel.name: sorted(rel.tuples()) for rel in db})
    subsets = ResidualSensitivity(query, beta=0.1).required_subsets(db)
    rebuilt = evaluate_profile(query, fresh, subsets)
    for kept in subsets:
        got, want = profile.results[kept], rebuilt.results[kept]
        assert (got.value, got.exact) == (want.value, want.exact), sorted(kept)
        assert sorted(map(repr, got.dropped_predicates)) == sorted(
            map(repr, want.dropped_predicates)
        )
    assert count == count_query(query, fresh)


@pytest.fixture
def refreshes(monkeypatch):
    """Whether each ``refresh_group_counts`` call (profile and count) caught
    its entry up (``True``) or sent it to a recompute (``False``)."""
    calls: list[bool] = []
    real = columnar_module.refresh_group_counts

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(columnar_module, "refresh_group_counts", spy)
    return calls


# --------------------------------------------------------------------- #
# The change log
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("columns", COLUMNS)
class TestChangeLog:
    def test_constructor_rows_are_not_logged(self, columns):
        relation = _database(columns).relation("S")
        assert relation.change_log_rows == 0
        assert relation.changes_since(relation.epoch) == ([], [])
        assert relation.changes_since(0) is None
        assert relation.changes_since(relation.epoch + 1) is None

    def test_net_rows_and_cancellation(self, columns):
        relation = _database(columns).relation("S")
        start = relation.epoch
        new, old = _row((7, 7), columns), _row((2, 3), columns)
        relation.add_rows([new])
        relation.remove_rows([old])
        assert relation.changes_since(start) == ([new], [old])
        assert relation.changes_since(start + 1) == ([], [old])
        relation.remove_rows([new])  # an insert followed by a delete cancels
        relation.add_rows([old])  # and so does a delete followed by an insert
        assert relation.changes_since(start) == ([], [])
        assert relation.changes_since(start + 2) == ([old], [new])
        assert relation.change_log_rows == 4

    def test_net_rows_up_to_an_epoch(self, columns):
        relation = _database(columns).relation("S")
        start = relation.epoch
        new, old = _row((7, 7), columns), _row((2, 3), columns)
        relation.add_rows([new])
        relation.remove_rows([old])
        assert relation.changes_since(start, start + 1) == ([new], [])
        assert relation.changes_since(start + 1, start + 2) == ([], [old])
        assert relation.changes_since(start, start) == ([], [])
        assert relation.changes_since(start, start + 3) is None  # not reached yet
        assert relation.changes_since(start + 1, start) is None

    def test_single_tuple_mutations_reset_the_log(self, columns):
        db = _database(columns)
        for mutate in (
            lambda rel: rel.add(_row((8, 8), columns)),
            lambda rel: rel.remove(_row((2, 3), columns)),
            lambda rel: rel.clear(),
        ):
            relation = db.relation("S")
            start = relation.epoch
            relation.add_rows([_row((9, 9), columns)])
            assert relation.changes_since(start) is not None
            mutate(relation)
            assert relation.change_log_rows == 0
            assert relation.changes_since(start) is None
            assert relation.changes_since(relation.epoch) == ([], [])

    def test_log_holds_at_most_as_many_rows_as_the_relation(self, columns):
        relation = _database(columns).relation("T")  # 4 rows
        start = relation.epoch
        rows = [_row((20 + i, 1), columns) for i in range(3)]
        relation.add_rows(rows)  # 7 rows, 3 logged
        relation.remove_rows(rows)  # 4 rows: the insert no longer fits
        assert relation.change_log_rows == 3
        assert relation.changes_since(start) is None
        assert sorted(relation.changes_since(start + 1)[1]) == sorted(rows)
        removed = _row((3, 9), columns)
        relation.remove_rows([removed])  # 3 rows: only the last call fits
        assert relation.change_log_rows == 1
        assert relation.changes_since(start + 1) is None
        assert relation.changes_since(start + 2) == ([], [removed])


# --------------------------------------------------------------------- #
# Refreshed entries equal a recompute
# --------------------------------------------------------------------- #
def _edits(columns: str) -> dict:
    r = lambda *values: _row(values, columns)  # noqa: E731
    return {
        "insert": lambda db: db.relation("S").add_rows([r(2, 9), r(1, 3)]),
        "delete": lambda db: db.relation("S").remove_rows([r(2, 3), r(5, 6)]),
        "replace": lambda db: db.relation("S").replace(r(2, 4), r(4, 6)),
        # A value no relation held: it is coded on the spot.
        "unseen": lambda db: db.relation("R").add_rows([r(77, 2), r(78, 78)]),
        # Fails T(z, 9): the delta query counts nothing.
        "constant": lambda db: db.relation("T").add_rows([r(3, 1)]),
        "constant-hit": lambda db: db.relation("T").add_rows([r(2, 9)]),
    }


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize(
    "edit", ["insert", "delete", "replace", "unseen", "constant", "constant-hit"]
)
def test_refreshed_entries_equal_a_recompute(columns, edit, refreshes):
    db = _database(columns)
    query = _query(QUERY, columns)
    cache = LRUCache(256)
    _profile(query, db, cache)  # fresh data: entries keep no counts
    assert all(entry.counts is None for entry in map(cache.get, cache.keys()))
    relation = {"unseen": "R", "constant": "T", "constant-hit": "T"}.get(edit, "S")
    db.relation(relation).add_rows([_row((30, 31), columns)])  # starts the log
    warm = _profile(query, db, cache)
    assert warm.stats.component_delta_updates == 0
    count_query(query, db, component_cache=cache)
    assert not any(refreshes)  # stale entries without counts recompute
    refreshes.clear()

    _edits(columns)[edit](db)
    before = cache.stats()
    profile = _profile(query, db, cache)
    count = count_query(query, db, component_cache=cache)
    stats = profile.stats
    assert stats.component_delta_updates > 0
    assert stats.components_evaluated == 0  # every relation occurs once
    assert stats.components_total == (
        stats.components_evaluated
        + stats.component_hits
        + stats.component_cache_hits
        + stats.component_delta_updates
    )
    assert refreshes and all(refreshes)
    # A stale entry the delta path refreshes counts as a miss.
    after = cache.stats()
    assert after.misses - before.misses == stats.component_delta_updates + 1
    assert after.hits - before.hits == stats.component_cache_hits
    _assert_matches_rebuild(query, db, profile, count)

    # The refreshed entries are current: the next lookups are hits.
    again = _profile(query, db, cache)
    assert again.stats.component_cache_hits == len(set(cache.keys())) - 1
    assert count_query(query, db, component_cache=cache) == count


@pytest.mark.parametrize("columns", COLUMNS)
def test_several_rounds_of_replaces(columns):
    db = _database(columns)
    query = _query(QUERY, columns)
    cache = LRUCache(256)
    s = db.relation("S")
    rows = sorted(s.tuples())
    for step in range(6):
        old = rows[step % len(rows)]
        new = _row((40 + step, 3 + step % 2), columns)
        s.replace(old, new)
        rows[step % len(rows)] = new
        profile = _profile(query, db, cache)
        count = count_query(query, db, component_cache=cache)
        _assert_matches_rebuild(query, db, profile, count)
        if step:
            assert profile.stats.component_delta_updates > 0


# --------------------------------------------------------------------- #
# What recomputes
# --------------------------------------------------------------------- #
def _warm(query, db, cache, columns, relation="S"):
    """Start ``relation``'s change log, then fill ``cache`` at that state."""
    db.relation(relation).add_rows([_row((30, 31), columns)])
    _profile(query, db, cache)
    count_query(query, db, component_cache=cache)


@pytest.mark.parametrize("columns", COLUMNS)
class TestRecomputes:
    def test_self_joined_relation(self, columns, refreshes):
        schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
        db = _database(columns, {name: ROWS[name] for name in ("R", "S")}, schema)
        query = parse_query("R(x, y), R(y, z), S(z, w)")
        cache = LRUCache(256)
        _warm(query, db, cache, columns, "R")
        refreshes.clear()
        db.relation("R").add_rows([_row((2, 5), columns)])
        profile = _profile(query, db, cache)
        count = count_query(query, db, component_cache=cache)
        # {0} and {1} are caught up; {0, 1}, {0, 2}... read R twice or not.
        assert profile.stats.component_delta_updates > 0
        assert profile.stats.components_evaluated > 0
        # Counts over R twice are never kept, so the count bypasses the
        # cache and components reading R twice keep results only.
        assert not [key for key in cache.keys() if key[0] == "count"]
        twice = [
            entry
            for entry in map(cache.get, cache.keys())
            if "R" in dict(entry.epochs) and entry.counts is None
        ]
        assert twice
        _assert_matches_rebuild(query, db, profile, count)

    def test_second_changed_relation(self, columns, refreshes):
        db = _database(columns)
        query = parse_query("R(x, y), S(y, z)")
        cache = LRUCache(256)
        db.relation("R").add_rows([_row((30, 31), columns)])
        _warm(query, db, cache, columns)
        db.relation("R").add_rows([_row((6, 4), columns)])
        db.relation("S").add_rows([_row((4, 6), columns)])
        refreshes.clear()
        profile = _profile(query, db, cache)
        count = count_query(query, db, component_cache=cache)
        # The single atoms each read one changed relation; the count, both.
        assert profile.stats.component_delta_updates == 2
        assert refreshes[-1] is False
        _assert_matches_rebuild(query, db, profile, count)

    def test_log_that_does_not_reach_back(self, columns, refreshes):
        db = _database(columns)
        query = _query(QUERY, columns)
        cache = LRUCache(256)
        _warm(query, db, cache, columns, "T")
        db.relation("T").add(_row((3, 1), columns))  # single-tuple: resets the log
        refreshes.clear()
        profile = _profile(query, db, cache)
        count = count_query(query, db, component_cache=cache)
        assert refreshes and not any(refreshes)
        assert profile.stats.component_delta_updates == 0
        _assert_matches_rebuild(query, db, profile, count)

    def test_non_full_query(self, columns, refreshes):
        db = _database(columns)
        query = parse_query("Q(x) :- R(x, y), S(y, z)")
        cache = LRUCache(256)
        _warm(query, db, cache, columns)
        assert all(entry.counts is None for entry in map(cache.get, cache.keys()))
        db.relation("S").add_rows([_row((2, 8), columns)])
        profile = _profile(query, db, cache)
        count = count_query(query, db, component_cache=cache)
        assert profile.stats.component_delta_updates == 0
        assert profile.stats.components_evaluated > 0
        assert not any(refreshes)
        _assert_matches_rebuild(query, db, profile, count)

    def test_section_5_2_component(self, columns, refreshes):
        db = _database(columns)
        query = parse_query("R(x, y), S(y, z), x < z")
        cache = LRUCache(256)
        _warm(query, db, cache, columns)
        db.relation("S").add_rows([_row((2, 8), columns)])
        profile = _profile(query, db, cache)
        count = count_query(query, db, component_cache=cache)
        assert any(r.strategy == "eliminate+domain" for r in profile.results.values())
        assert profile.stats.component_delta_updates == 0
        _assert_matches_rebuild(query, db, profile, count)

    def test_dictionary_replaced_by_release_caches(self, columns, refreshes):
        db = _database(columns)
        query = _query(QUERY, columns)
        cache = LRUCache(256)
        _warm(query, db, cache, columns)
        db.release_caches()
        db.relation("S").add_rows([_row((2, 8), columns)])
        refreshes.clear()
        profile = _profile(query, db, cache)
        count = count_query(query, db, component_cache=cache)
        assert refreshes and not any(refreshes)
        assert profile.stats.component_delta_updates == 0
        _assert_matches_rebuild(query, db, profile, count)


# --------------------------------------------------------------------- #
# Consistency: an entry only for the epochs whose rows it read
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("columns", COLUMNS)
def test_mutation_during_evaluation_leaves_no_entry(columns, monkeypatch):
    db = _database(columns)
    query = _query(QUERY, columns)
    s = db.relation("S")
    s.add_rows([_row((30, 31), columns)])
    looked_up = s.epoch
    cache = LRUCache(256)
    landed = []

    def mutate_once():
        if not landed:
            landed.append(True)
            s.add_rows([_row((2, 90 + len(s)), columns)])

    real_profile = profile_module.boundary_group_counts

    def mutating_profile(query, database, kept, **kwargs):
        if 1 in kept:  # the first component that reads S
            mutate_once()
        return real_profile(query, database, kept, **kwargs)

    monkeypatch.setattr(profile_module, "boundary_group_counts", mutating_profile)
    _profile(query, db, cache)
    assert landed
    entries = [cache.get(key) for key in cache.keys()]
    assert entries  # components looked up after the mutation are stored
    assert all(dict(entry.epochs).get("S") != looked_up for entry in entries)

    landed.clear()
    real_count = evaluation_module.eliminate_group_counts_columnar

    def mutating_count(*args, **kwargs):
        mutate_once()
        return real_count(*args, **kwargs)

    monkeypatch.setattr(evaluation_module, "eliminate_group_counts_columnar", mutating_count)
    count_query(query, db, component_cache=cache)
    assert landed
    assert not [key for key in cache.keys() if key[0] == "count"]


class _PublishedRowsHook(dict):
    """A relation's index table whose ``clear`` runs ``hook`` once.

    The delta mutators clear the indexes after they have published the new
    rows and coded columns and before they advance the epoch, so the hook
    runs exactly where a concurrent reader sees new rows at the old epoch.
    """

    def __init__(self, hook):
        super().__init__()
        self.hook = hook

    def clear(self):
        super().clear()
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("edit", ["insert", "delete"])
def test_query_inside_a_mutation_stores_no_mislabelled_entry(columns, edit):
    """A query run while a mutation of ``S`` has published its rows but not
    yet advanced the epoch reads the new rows; stored under the old epoch,
    they would have the next refresh apply the change a second time.

    ``S`` is coded beforehand, as in a served database, so the mutation
    publishes new coded columns (a reader that has to code ``S`` itself
    waits for the mutation instead; see the next test).
    """
    db = _database(columns)
    query = _query(QUERY, columns)
    s = db.relation("S")
    s.add_rows([_row((30, 31), columns)])  # starts the log
    s.coded_columns(db.dictionary)
    cache = LRUCache(256)
    inside: list[tuple] = []

    def query_inside():
        epoch = s.epoch
        profile = _profile(query, db, cache)
        inside.append((epoch, profile, count_query(query, db, component_cache=cache)))

    s._indexes = _PublishedRowsHook(query_inside)
    rows = [_row((2, 9), columns), _row((4, 6), columns), _row((2, 3), columns)]
    if edit == "insert":
        s.add_rows(rows[:2])
    else:
        s.remove_rows(rows[2:])
    [(epoch, profile, count)] = inside
    assert epoch == s.epoch - 1
    assert profile.stats.components_evaluated > 0
    # No entry claims the rows of the old epoch; the next queries read the
    # new ones, through the cache as in a rebuild.
    entries = [cache.get(key) for key in cache.keys()]
    assert all(dict(entry.epochs).get("S") != epoch for entry in entries)
    profile = _profile(query, db, cache)
    count = count_query(query, db, component_cache=cache)
    _assert_matches_rebuild(query, db, profile, count)
    # ... and after one more edit, by delta from what they stored.
    s.add_rows([_row((4, 9), columns)])
    profile = _profile(query, db, cache)
    count = count_query(query, db, component_cache=cache)
    assert profile.stats.component_delta_updates > 0
    _assert_matches_rebuild(query, db, profile, count)


@pytest.mark.parametrize("columns", COLUMNS)
def test_codes_built_during_a_mutation_wait_for_it(columns):
    import threading

    from repro.data.database import ValueDictionary

    db = _database(columns)
    s = db.relation("S")
    built: list[tuple] = []
    reader = threading.Thread(target=lambda: built.append(s.coded_snapshot(ValueDictionary())))

    def start_reader():
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive()  # waiting for the mutation to finish

    s._indexes = _PublishedRowsHook(start_reader)
    s.add_rows([_row((7, 7), columns)])
    reader.join(timeout=30)
    assert not reader.is_alive()
    [(epoch, coded)] = built
    assert epoch == s.epoch
    assert len(coded[0]) == len(s)


# --------------------------------------------------------------------- #
# What is kept
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("columns", COLUMNS)
def test_counts_are_kept_only_where_a_refresh_can_use_them(columns):
    schema = DatabaseSchema.from_arities({"Edge": 2})
    rows = {"Edge": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1), (2, 4)]}
    db = _database(columns, rows, schema)
    query = parse_query("Edge(x, y), Edge(y, z), Edge(z, x)")
    cache = LRUCache(256)
    db.relation("Edge").add_rows([_row((5, 6), columns)])  # starts the log
    _profile(query, db, cache)
    count_query(query, db, component_cache=cache)
    entries = {key: cache.get(key) for key in cache.keys()}
    assert not [key for key in entries if key[0] == "count"]  # Edge thrice
    atoms = {key: len(key[1]) for key in entries}
    assert {atoms[key] for key, entry in entries.items() if entry.counts is not None} == {1}
    assert {atoms[key] for key, entry in entries.items() if entry.counts is None} == {2}


@pytest.mark.parametrize("columns", COLUMNS)
def test_kept_counts_do_not_keep_their_dictionary_alive(columns):
    import weakref

    db = _database(columns)
    query = _query(QUERY, columns)
    cache = LRUCache(256)
    _warm(query, db, cache, columns)
    kept = [entry for entry in map(cache.get, cache.keys()) if entry.counts is not None]
    assert kept
    dictionary = weakref.ref(db.dictionary)
    db.release_caches()
    gc.collect()
    assert dictionary() is None
    assert all(entry.counts_in(db.dictionary) is None for entry in kept)


# --------------------------------------------------------------------- #
# Through the service
# --------------------------------------------------------------------- #
def test_service_counts_delta_updates():
    db = _database("numpy")
    service = PrivateQueryService(session_budget=100.0, rng=0)
    service.register_database("toy", db)
    for step in range(3):
        old, new = ((2, 3), (2, 9)) if step % 2 == 0 else ((2, 9), (2, 3))
        service.mutate(
            "toy", [{"relation": "S", "op": "replace", "old": list(old), "new": list(new)}]
        )
        service.count("toy", QUERY, 0.5)
    profiler = service.stats()["profiler"]
    assert profiler["component_delta_updates"] > 0
    assert profiler["components_total"] == (
        profiler["components_evaluated"]
        + profiler["component_hits"]
        + profiler["component_cache_hits"]
        + profiler["component_delta_updates"]
    )
    assert 'repro_profiler_components_total{outcome="delta"}' in service.metrics.render()


def test_concurrent_mutations_leave_no_stale_entry():
    """Queries through one cache race a writer; afterwards the cache must
    answer as a rebuild does (an entry stored under epochs it did not read
    would surface here)."""
    import sys
    import threading
    import time

    db = _database("numpy")
    query = _query(QUERY, "numpy")
    cache = LRUCache(256)
    s = db.relation("S")
    s.add_rows([(30, 31)])
    stop = threading.Event()
    errors: list[BaseException] = []

    def guarded(work):
        def run():
            try:
                while not stop.is_set():
                    work()
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)
                stop.set()

        return run

    flips = iter(range(10**9))

    def mutate():
        step = next(flips)
        old, new = ((2, 3), (2, 9)) if step % 2 == 0 else ((2, 9), (2, 3))
        s.remove_rows([old])
        s.add_rows([new])

    def query_once():
        _profile(query, db, cache)
        count_query(query, db, component_cache=cache)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded(mutate))] + [
            threading.Thread(target=guarded(query_once)) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    profile = _profile(query, db, cache)
    count = count_query(query, db, component_cache=cache)
    _assert_matches_rebuild(query, db, profile, count)
