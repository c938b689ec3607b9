"""Tests for the durable state layer: journal, snapshots, recovery, rollback."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import PrivacyError, ServiceError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.service.persistence import LedgerJournal, StateStore, replay_records
from repro.service.sessions import SessionManager


@pytest.fixture
def make_service(state_service_factory):
    """The shared durable-service factory (``toy_db`` registered, recovery-aware)."""
    return state_service_factory


class TestJournal:
    def test_append_and_read_roundtrip(self, tmp_path):
        journal = LedgerJournal(tmp_path / "j.jsonl")
        journal.append({"seq": 1, "event": "charge", "epsilon": 0.5})
        journal.append({"seq": 2, "event": "deny", "epsilon": 1.5})
        journal.close()
        records = list(LedgerJournal.read_records(tmp_path / "j.jsonl"))
        assert [r["seq"] for r in records] == [1, 2]

    def test_torn_tail_write_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = LedgerJournal(path)
        journal.append({"seq": 1, "event": "charge", "epsilon": 0.5})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "event": "char')  # crash mid-write
        records = list(LedgerJournal.read_records(path))
        assert [r["seq"] for r in records] == [1]

    def test_mid_journal_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"seq": 2, "event": "deny"}\n', encoding="utf-8")
        with pytest.raises(ServiceError, match="corrupt journal"):
            list(LedgerJournal.read_records(path))

    def test_missing_file_is_empty(self, tmp_path):
        assert list(LedgerJournal.read_records(tmp_path / "absent.jsonl")) == []

    def test_appends_after_torn_tail_do_not_corrupt_the_journal(self, tmp_path, make_service):
        """Crash-recover-crash-recover: recovery must truncate the torn line,
        or the next append merges with it and poisons the *third* start."""
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        service.close(snapshot=False)
        with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "event": "char')  # crash mid-append

        second = make_service(tmp_path)  # tolerates the torn tail...
        second.count("toy", "R(x, y)", epsilon=0.25, session=sid)  # ...and appends
        second.close(snapshot=False)

        third = make_service(tmp_path)  # must still be parseable
        assert third.budget(sid)["spent"] == pytest.approx(0.75)

    def test_read_only_recovery_never_mutates_the_journal(self, tmp_path, make_service):
        """`state replay` against a live server must not truncate a tail
        that may simply be a record still being flushed."""
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "event": "char')  # in-flight record
        before = path.read_bytes()
        state = StateStore(str(tmp_path), create=False).recover()
        assert path.read_bytes() == before  # untouched
        assert state.sessions[sid].spent == pytest.approx(0.5)


class TestReplay:
    def test_charge_and_rollback_cancel_out(self):
        records = [
            {"seq": 1, "event": "session_create", "session": "s", "budget": 2.0},
            {"seq": 2, "event": "charge", "session": "s", "epsilon": 0.5, "label": "q"},
            {"seq": 3, "event": "rollback", "session": "s", "epsilon": 0.5, "label": "q"},
        ]
        state = replay_records(iter(records))
        assert state.sessions["s"].spent == 0.0
        assert state.shared_spent == 0.0
        assert state.audit_total == 3  # create + charge + rollback all audited

    def test_close_and_expire_remove_sessions(self):
        records = [
            {"seq": 1, "event": "session_create", "session": "a", "budget": 1.0},
            {"seq": 2, "event": "session_create", "session": "b", "budget": 1.0},
            {"seq": 3, "event": "session_close", "session": "a"},
            {"seq": 4, "event": "session_expire", "session": "b"},
            {"seq": 5, "event": "session_expire", "session": "b"},  # tolerated
        ]
        state = replay_records(iter(records))
        assert state.sessions == {}

    def test_unknown_event_rejected(self):
        with pytest.raises(ServiceError, match="unknown journal event"):
            replay_records(iter([{"seq": 1, "event": "bogus"}]))

    def test_register_tracks_highest_version(self):
        records = [
            {"seq": 1, "event": "register", "name": "g", "version": 3, "backend": "python"},
            {"seq": 2, "event": "unregister", "name": "g"},
        ]
        state = replay_records(iter(records))
        assert state.databases == {}
        assert state.versions == {"g": 3}

    def test_register_record_with_retired_backend_field_replays(self):
        # Journals written before the engine choice was retired carry a
        # "backend" key; replay keeps the metadata and drops the key.
        record = {
            "seq": 1, "event": "register", "name": "g", "version": 2,
            "backend": "python", "relations": {"Edge": 4},
        }
        state = replay_records(iter([record]))
        assert state.databases == {"g": {"name": "g", "version": 2, "relations": {"Edge": 4}}}


class TestRecovery:
    def test_sessions_budgets_and_audit_survive_crash(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session(budget=5.0).session_id
        for _ in range(4):
            service.count("toy", "R(x, y), S(y, z)", epsilon=0.5, session=sid)
        with pytest.raises(PrivacyError):
            service.count("toy", "R(x, y)", epsilon=9.0, session=sid)
        before = service.budget(sid)
        audit_before = service.sessions.audit.total_recorded
        # The process "dies": no final snapshot is written — the journal on
        # disk is all that survives (every append was already flushed, and
        # the kernel would release the dir lock of a killed process).
        service.close(snapshot=False)

        recovered = make_service(tmp_path)
        after = recovered.budget(sid)
        assert after["spent"] == pytest.approx(before["spent"])
        assert after["remaining"] == pytest.approx(before["remaining"])
        assert after["charges"] == before["charges"]
        assert after["shared_remaining"] == pytest.approx(before["shared_remaining"])
        assert recovered.sessions.audit.total_recorded == audit_before
        # The replayed audit tail matches the live log record for record
        # (action, epsilon and detail — not just the totals).
        live_tail = [r.to_dict() for r in service.sessions.audit.tail(50)]
        replayed_tail = [r.to_dict() for r in recovered.sessions.audit.tail(50)]
        for live, replayed in zip(live_tail, replayed_tail):
            assert replayed["action"] == live["action"]
            assert replayed["epsilon"] == pytest.approx(live["epsilon"])
            assert replayed["detail"] == live["detail"]
        # The recovered ledger keeps denying once exhausted.
        with pytest.raises(PrivacyError):
            recovered.count("toy", "R(x, y)", epsilon=9.0, session=sid)

    def test_snapshot_compaction_preserves_state(self, tmp_path, make_service):
        service = make_service(tmp_path, snapshot_interval=3)
        sid = service.create_session(budget=8.0).session_id
        for _ in range(10):
            service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        assert service.stats()["persistence"]["snapshots_written"] >= 2
        before = service.budget(sid)
        audit_before = service.sessions.audit.total_recorded
        service.close(snapshot=False)  # die without a final snapshot

        recovered = make_service(tmp_path, snapshot_interval=3)
        assert recovered.budget(sid)["spent"] == pytest.approx(before["spent"])
        assert recovered.sessions.audit.total_recorded == audit_before

    def test_clean_close_writes_final_snapshot(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        service.close()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["format"] == 1
        assert (tmp_path / "journal.jsonl").read_text() == ""
        recovered = make_service(tmp_path)
        assert recovered.budget(sid)["spent"] == pytest.approx(0.5)

    def test_registry_versions_resume_after_restart(self, tmp_path, toy_db, make_service):
        service = make_service(tmp_path)
        service.register_database("toy", toy_db, replace=True)
        assert service.registry.get("toy").version == 2
        service.close(snapshot=False)

        recovered = make_service(tmp_path, register=False)
        # Contents are not persisted: the name is known but not servable...
        assert "toy" in recovered.registry.recovered_metadata()
        assert "toy" not in recovered.registry
        # ...and re-registering resumes the version sequence, so cache keys
        # derived from pre-restart contents can never be served again.
        entry = recovered.register_database("toy", toy_db)
        assert entry.version == 3

    def test_closed_sessions_stay_closed_after_recovery(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.sessions.close(sid)
        service.close(snapshot=False)
        recovered = make_service(tmp_path)
        assert recovered.sessions.active_ids() == []

    def test_state_replay_matches_in_memory_state(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session(budget=5.0).session_id
        for epsilon in (0.5, 0.25, 0.125):
            service.count("toy", "R(x, y)", epsilon=epsilon, session=sid)
        store = StateStore(str(tmp_path), create=False)
        state = store.recover()
        view = state.sessions[sid].describe()
        live = service.budget(sid)
        assert view["spent"] == pytest.approx(live["spent"])
        assert view["charges"] == live["charges"]
        assert state.audit_total == service.sessions.audit.total_recorded

    def test_missing_state_dir_rejected_without_create(self, tmp_path):
        with pytest.raises(ServiceError, match="does not exist"):
            StateStore(str(tmp_path / "nope"), create=False)

    def test_second_live_writer_is_rejected(self, tmp_path, make_service):
        """Two live processes interleaving one journal would let replay's
        seq dedup drop charges; the second writer must fail fast."""
        service = make_service(tmp_path)
        with pytest.raises(ServiceError, match="locked by another live process"):
            StateStore(str(tmp_path))
        # Read-only inspection is always allowed...
        StateStore(str(tmp_path), create=False).recover()
        # ...and the lock dies with the owner.
        service.close(snapshot=False)
        StateStore(str(tmp_path)).close()

    def test_shared_charge_count_survives_restart(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session(budget=5.0).session_id
        for _ in range(3):
            service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        assert len(service.sessions.shared.charges) == 3
        service.close()  # with a final snapshot: shared charges round-trip

        recovered = make_service(tmp_path)
        assert len(recovered.sessions.shared.charges) == 3
        assert recovered.sessions.shared.spent == pytest.approx(1.5)

    def test_no_shared_budget_means_no_phantom_shared_spend(self, tmp_path, make_service):
        """Journal replay of a shared-budget-less deployment must not invent
        shared spend (which a snapshot-based recovery would not have)."""
        service = make_service(tmp_path, total_budget=None)
        sid = service.create_session(budget=5.0).session_id
        service.count("toy", "R(x, y)", epsilon=3.0, session=sid)

        state = StateStore(str(tmp_path), create=False).recover()
        assert state.shared_spent == 0.0
        assert state.shared_charges == 0
        # Restarting *with* a shared budget starts it untouched.
        service.close(snapshot=False)
        recovered = make_service(tmp_path, total_budget=4.0)
        assert recovered.sessions.shared.spent == 0.0
        assert recovered.budget(sid)["spent"] == pytest.approx(3.0)


class TestTransactionalCharge:
    def test_rollback_refunds_session_and_shared(self, tmp_path):
        shared = PrivacyAccountant(total_budget=10.0)
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, shared=shared, journal=store)
        sid = manager.create().session_id
        txn = manager.begin_charge(sid, 0.5, label="q")
        assert txn.remaining == pytest.approx(1.5)
        txn.rollback(reason="release failed")
        assert manager.get(sid).ledger.spent == 0.0
        assert shared.spent == 0.0
        actions = [record.action for record in manager.audit.tail(10)]
        assert actions == ["create", "charge", "rollback"]
        # The journal carries both the charge and the compensating rollback.
        events = [r["event"] for r in LedgerJournal.read_records(store.journal_path)]
        assert events == ["session_create", "charge", "rollback"]

    def test_non_finite_epsilon_denial_is_journaled_not_fatal(self, tmp_path):
        """A NaN/inf ε must deny as PrivacyError and leave a serialisable
        deny record — not blow up json.dumps(allow_nan=False) mid-journal."""
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, journal=store)
        sid = manager.create().session_id
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                manager.charge(sid, bad)
        events = list(LedgerJournal.read_records(store.journal_path))
        assert [r["event"] for r in events] == ["session_create", "deny", "deny"]
        assert all(r["epsilon"] == 0.0 for r in events if r["event"] == "deny")
        assert manager.audit.total_recorded == 3

    def test_non_finite_epsilon_denied_even_without_any_ledger(self):
        """With neither a session nor a shared accountant no can_afford()
        runs — the validation must still deny instead of silently granting."""
        manager = SessionManager(default_budget=1.0)  # no shared, no journal
        for bad in (float("nan"), float("inf"), 0.0, "0.5"):
            with pytest.raises(PrivacyError):
                manager.charge(None, bad)
        denies = [r for r in manager.audit.tail(10) if r.action == "deny"]
        assert len(denies) == 4

    def test_concurrent_closes_only_one_succeeds(self):
        import threading

        manager = SessionManager(default_budget=1.0)
        sid = manager.create().session_id
        outcomes: list[str] = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            try:
                manager.close(sid)
                outcomes.append("closed")
            except ServiceError:
                outcomes.append("denied")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == ["closed", "denied", "denied", "denied"]
        # Exactly one close was audited (create + close).
        assert manager.audit.total_recorded == 2

    def test_transaction_cannot_commit_twice(self, tmp_path):
        manager = SessionManager(default_budget=2.0)
        sid = manager.create().session_id
        txn = manager.begin_charge(sid, 0.5)
        txn.commit()
        with pytest.raises(ServiceError):
            txn.commit()
        with pytest.raises(ServiceError):
            txn.rollback()

    def test_failed_release_rolls_back_service_charge(self, tmp_path, make_service,
                                                      monkeypatch):
        service = make_service(tmp_path)
        sid = service.create_session(budget=2.0).session_id

        def explode(*args, **kwargs):
            raise RuntimeError("noise generator exploded")

        monkeypatch.setattr(
            "repro.mechanisms.mechanism.PrivateCountingQuery.release", explode
        )
        with pytest.raises(RuntimeError):
            service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        # The paid-for-but-never-produced release must not consume budget...
        assert service.budget(sid)["spent"] == 0.0
        assert service.budget(sid)["shared_remaining"] == pytest.approx(100.0)
        # ...and the refusal is durable: recovery agrees.
        service.close(snapshot=False)
        recovered = make_service(tmp_path)
        assert recovered.budget(sid)["spent"] == 0.0
        assert [r.action for r in recovered.sessions.audit.tail(3)][-1] == "rollback"

    def test_count_survives_expiry_race_after_charge(self, service_factory):
        """The paid-for answer must not be lost to a TTL lookup race."""
        now = [0.0]
        service = service_factory(session_budget=5.0, session_ttl=10.0)
        service._sessions._clock = lambda: now[0]
        sid = service.create_session().session_id
        real_begin = service.sessions.begin_charge

        def begin_then_expire(*args, **kwargs):
            txn = real_begin(*args, **kwargs)
            now[0] += 100.0  # the session's TTL lapses right after the charge
            return txn

        service._sessions.begin_charge = begin_then_expire
        response = service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        assert response.remaining_budget == pytest.approx(4.5)


class TestAccountantRefund:
    def test_refund_restores_budget(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        record = accountant.charge(0.4, label="q")
        accountant.refund(record)
        assert accountant.spent == 0.0
        with pytest.raises(PrivacyError):
            accountant.refund(record)  # already refunded

    def test_non_finite_budget_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                PrivacyAccountant(total_budget=bad)

    def test_non_finite_epsilon_rejected(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                accountant.charge(bad)


class TestAuditRestore:
    def test_restored_seqs_adjoin_new_records_when_tail_exceeds_capacity(self):
        from repro.service.sessions import AuditLog

        log = AuditLog(max_records=5)
        tail = [
            {"session": "s", "action": "charge", "epsilon": 0.1, "label": "",
             "ok": True, "detail": "", "timestamp": float(i)}
            for i in range(10)
        ]
        log.restore(tail, total_recorded=20)
        seqs = [record.seq for record in log.tail(10)]
        assert seqs == [15, 16, 17, 18, 19]  # the 5 kept records, contiguous
        new = log.append("s", "charge", epsilon=0.1)
        assert new.seq == 20  # the counter adjoins the restored records
