"""The delta-mutation path: in-place relation mutators, per-relation epochs,
epoch-keyed cache invalidation, the registry/service ``mutate`` plumbing and
its journal record (see ``docs/mutation.md``)."""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.columnar import factorization_counter_scope
from repro.engine.evaluation import count_query
from repro.exceptions import SchemaError, ServiceError
from repro.qa.oracle import oracle_count
from repro.query.parser import parse_query


def two_table_db() -> Database:
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
    return Database.from_rows(
        schema,
        R=[(1, 2), (2, 3), (3, 4), (2, 2)],
        S=[(2, 5), (3, 5), (4, 6)],
    )


class TestRelationDelta:
    def test_replace_validation_failure_keeps_old_row(self):
        """Regression: a bad new row must not lose the old tuple."""
        rel = two_table_db().relation("R")
        epoch = rel.epoch
        with pytest.raises(SchemaError):
            rel.replace((1, 2), (1, 2, 3))  # arity mismatch
        assert (1, 2) in rel.tuples()
        assert rel.epoch == epoch

    def test_replace_missing_old_raises(self):
        rel = two_table_db().relation("R")
        with pytest.raises(SchemaError):
            rel.replace((9, 9), (1, 1))

    def test_replace_same_row_is_noop(self):
        rel = two_table_db().relation("R")
        epoch = rel.epoch
        rel.replace((1, 2), (1, 2))
        assert rel.epoch == epoch

    def test_add_remove_rows_epoch_and_noop_semantics(self):
        rel = two_table_db().relation("R")
        epoch = rel.epoch
        assert rel.add_rows([(7, 8), (1, 2)]) == 1  # (1, 2) already present
        assert rel.epoch == epoch + 1
        assert rel.add_rows([(1, 2)]) == 0  # pure no-op: epoch unchanged
        assert rel.epoch == epoch + 1
        assert rel.remove_rows([(7, 8), (9, 9)]) == 1
        assert rel.epoch == epoch + 2
        assert rel.tuples() == two_table_db().relation("R").tuples()

    def test_delta_path_maintains_columnar_state(self):
        """Snapshots and coded columns survive delta mutations: no relation
        is re-coded, and an untouched one keeps its very code arrays."""
        db = two_table_db()
        query = parse_query("R(x, y), S(y, z)")
        count_query(query, db)  # warm columns + codes
        dictionary = db.dictionary
        untouched = db.relation("S").coded_columns(dictionary)
        db.relation("R").add_rows([(5, 2), (99, 2)])  # 99 is a never-seen value
        assert db.relation("S").coded_columns(dictionary) is untouched
        db.relation("S").remove_rows([(4, 6)])
        db.relation("S").replace((3, 5), (3, 6))
        assert db.dictionary is dictionary
        assert all(rel.coded_by is dictionary for rel in db)

        with factorization_counter_scope() as counters:
            mutated = count_query(query, db)
        warm = counters.snapshot()
        assert warm["misses"] == 0, "delta path re-coded a relation from scratch"
        assert warm["hits"] > 0
        for rel in db:  # codes stay aligned with the value snapshot
            for column, codes in zip(rel.to_columns(), rel.coded_columns(dictionary)):
                assert dictionary.decode(codes).tolist() == column.tolist()

        fresh = Database.from_rows(
            DatabaseSchema.from_arities({"R": 2, "S": 2}),
            R=sorted(db.relation("R").tuples()),
            S=sorted(db.relation("S").tuples()),
        )
        assert mutated == count_query(query, fresh) == oracle_count(query, fresh)

    def test_database_epochs_vector(self):
        db = two_table_db()
        before = db.epochs()
        assert set(before) == {"R", "S"}
        db.relation("R").add_rows([(8, 8)])
        after = db.epochs()
        assert after["R"] == before["R"] + 1
        assert after["S"] == before["S"]


class TestRegistryMutate:
    def test_mutate_does_not_bump_version(self, service_factory):
        service = service_factory(db=two_table_db())
        version = service.registry.get("toy").version
        summary = service.mutate(
            "toy", [{"relation": "R", "op": "insert", "rows": [[9, 9]]}]
        )
        assert summary["version"] == version
        assert service.registry.get("toy").version == version
        assert summary["inserted"] == 1 and summary["deleted"] == 0
        assert summary["epochs"]["R"] > 0

    def test_invalid_batch_is_atomic(self, service_factory):
        service = service_factory(db=two_table_db())
        before = service.registry.get("toy").database.epochs()
        rows_before = service.registry.get("toy").database.relation("R").tuples()
        with pytest.raises(ServiceError):
            service.mutate(
                "toy",
                [
                    {"relation": "R", "op": "insert", "rows": [[9, 9]]},
                    {"relation": "R", "op": "replace", "old": [0, 0], "new": [1, 1]},
                ],
            )
        entry = service.registry.get("toy")
        assert entry.database.epochs() == before
        assert entry.database.relation("R").tuples() == rows_before

    def test_describe_carries_epochs(self, service_factory):
        service = service_factory(db=two_table_db())
        service.mutate("toy", [{"relation": "S", "op": "delete", "rows": [[4, 6]]}])
        described = service.registry.get("toy").describe()
        assert described["epochs"] == service.registry.get("toy").database.epochs()
        assert described["relations"]["S"] == 2


class TestServiceMutate:
    QUERY = "R(x, y), S(y, z)"

    def test_count_cache_invalidated_by_epoch_key(self, service_factory):
        service = service_factory(db=two_table_db())
        session = service.create_session(budget=10.0).session_id
        service.count("toy", self.QUERY, 0.5, session=session)
        service.count("toy", self.QUERY, 0.5, session=session)
        hits_before = service.stats()["caches"]["count"]["hits"]
        assert hits_before >= 1  # identical query re-served from cache

        service.mutate("toy", [{"relation": "S", "op": "insert", "rows": [[2, 7]]}])
        service.count("toy", self.QUERY, 0.5, session=session)
        after = service.stats()["caches"]["count"]
        assert after["misses"] > 1, "mutation did not invalidate the count cache"

    def test_component_cache_stays_warm_for_untouched_relations(
        self, service_factory
    ):
        service = service_factory(db=two_table_db())
        session = service.create_session(budget=10.0).session_id
        service.count("toy", self.QUERY, 0.5, session=session)
        base = service.stats()["profiler"]["component_cache_hits"]

        # Mutating S invalidates the profile, but every component reading
        # only R must come back from the epoch-keyed component cache.
        service.mutate("toy", [{"relation": "S", "op": "insert", "rows": [[2, 7]]}])
        service.count("toy", self.QUERY, 0.5, session=session)
        stats = service.stats()
        assert stats["profiler"]["component_cache_hits"] > base
        assert stats["caches"]["component"]["size"] > 0

    def test_stats_mutation_counters(self, service_factory):
        service = service_factory(db=two_table_db())
        service.mutate(
            "toy",
            [
                {"relation": "R", "op": "insert", "rows": [[7, 7], [8, 8]]},
                {"relation": "S", "op": "delete", "rows": [[4, 6]]},
            ],
        )
        mutations = service.stats()["mutations"]
        assert mutations == {"applied": 1, "rows_inserted": 2, "rows_deleted": 1}

    def test_mutate_unknown_database(self, service_factory):
        service = service_factory(register=False)
        with pytest.raises(ServiceError):
            service.mutate("nope", [{"relation": "R", "op": "insert", "rows": [[1]]}])


class TestMutationPersistence:
    def test_mutation_replayed_on_recovery(self, state_service_factory, tmp_path):
        state = tmp_path / "state"
        service = state_service_factory(state)
        service.register_database("two", two_table_db())
        service.mutate(
            "two",
            [
                {"relation": "R", "op": "insert", "rows": [[9, 9]]},
                {"relation": "S", "op": "replace", "old": [4, 6], "new": [4, 7]},
            ],
        )
        epochs = service.registry.get("two").database.epochs()
        service.close(snapshot=False)

        recovered = state_service_factory(state, register=False)
        meta = recovered.registry.recovered_metadata()["two"]
        assert meta["relations"] == {"R": 5, "S": 3}
        assert meta["epochs"] == epochs
        recovered.close(snapshot=False)

    def test_snapshot_state_carries_epochs_through_compaction(
        self, state_service_factory, tmp_path
    ):
        state = tmp_path / "state"
        service = state_service_factory(state)
        service.register_database("two", two_table_db())
        service.mutate("two", [{"relation": "R", "op": "insert", "rows": [[9, 9]]}])
        epochs = service.registry.get("two").database.epochs()
        service.close(snapshot=True)  # compacts: journal collapses to snapshot

        recovered = state_service_factory(state, register=False)
        meta = recovered.registry.recovered_metadata()["two"]
        assert meta["epochs"] == epochs
        assert meta["relations"] == {"R": 5, "S": 3}
        recovered.close(snapshot=False)

    def test_sibling_worker_absorbs_mutation_metadata(
        self, service_factory, tmp_path
    ):
        """Cross-process shape: two shared-state services on one journal."""
        state = str(tmp_path / "state")
        a = service_factory(
            register=False, state_dir=state, shared_state=True, total_budget=100.0
        )
        a.register_database("two", two_table_db())
        b = service_factory(
            register=False, state_dir=state, shared_state=True, total_budget=100.0
        )
        assert b.registry.recovered_metadata()["two"]["relations"] == {"R": 4, "S": 3}

        a.mutate(
            "two",
            [
                {"relation": "R", "op": "insert", "rows": [[9, 9], [8, 8]]},
                {"relation": "S", "op": "delete", "rows": [[4, 6]]},
            ],
        )
        meta = None
        b.stats()  # absorbs the sibling's journal records
        meta = b.registry.recovered_metadata()["two"]
        assert meta["relations"] == {"R": 6, "S": 2}
        assert meta["epochs"] == a.registry.get("two").database.epochs()

    def test_sibling_with_loaded_copy_applies_the_delta(
        self, service_factory, tmp_path
    ):
        """A worker that has the name loaded replays the delta on its copy."""
        state = str(tmp_path / "state")
        a = service_factory(
            register=False, state_dir=state, shared_state=True, total_budget=100.0
        )
        a.register_database("two", two_table_db())
        b = service_factory(
            register=False, state_dir=state, shared_state=True, total_budget=100.0
        )
        b.register_database("two", two_table_db(), replace=True)

        a.stats()  # absorb b's re-registration first so versions agree
        a.mutate("two", [{"relation": "R", "op": "insert", "rows": [[9, 9]]}])
        b.stats()
        assert (9, 9) in b.registry.get("two").database.relation("R").tuples()
