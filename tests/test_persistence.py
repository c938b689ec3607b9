"""Tests for the durable state layer: journal, snapshots, recovery, charges."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.exceptions import PrivacyError, ServiceError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.service.persistence import REGISTER_METADATA_KEYS, LedgerJournal, StateStore
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
        records, end = LedgerJournal.read_records(tmp_path / "j.jsonl")
        assert [r["seq"] for r in records] == [1, 2]
        assert end == (tmp_path / "j.jsonl").stat().st_size

    def test_torn_tail_write_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = LedgerJournal(path)
        journal.append({"seq": 1, "event": "charge", "epsilon": 0.5})
        journal.close()
        whole = path.stat().st_size
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "event": "char')  # crash mid-write
        records, end = LedgerJournal.read_records(path)
        assert [r["seq"] for r in records] == [1]
        assert end == whole  # the reader stops before the partial line

    def test_mid_journal_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"seq": 2, "event": "deny"}\n', encoding="utf-8")
        with pytest.raises(ServiceError, match="corrupt journal"):
            LedgerJournal.read_records(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert LedgerJournal.read_records(tmp_path / "absent.jsonl") == ([], 0)

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

    def test_unterminated_last_record_does_not_poison_later_starts(
        self, tmp_path, make_service
    ):
        """A last record whose newline never reached the file is an append
        that never returned: the charge it records released nothing, so
        recovery drops it and cuts it off instead of appending onto it."""
        service = make_service(tmp_path)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        service.close(snapshot=False)
        path = tmp_path / "journal.jsonl"
        data = path.read_bytes()
        assert data.endswith(b"\n")
        path.write_bytes(data[:-1])  # the charge record lost its newline

        second = make_service(tmp_path)
        assert second.budget(sid)["spent"] == 0.0
        second.count("toy", "R(x, y)", epsilon=0.25, session=sid)
        second.close(snapshot=False)

        third = make_service(tmp_path)  # the journal still parses
        assert third.budget(sid)["spent"] == pytest.approx(0.25)

    def test_shared_store_cuts_a_crashed_siblings_partial_record(
        self, tmp_path, make_service
    ):
        """A cluster worker absorbing after a sibling died mid-append cuts
        the partial line off, even once its own appends have moved its
        journal handle."""
        service = make_service(tmp_path, shared_state=True)
        sid = service.create_session().session_id
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "event": "char')  # a sibling crashed mid-append
        service.count("toy", "R(x, y)", epsilon=0.25, session=sid)
        service.close(snapshot=False)
        records, end = LedgerJournal.read_records(path)
        assert end == path.stat().st_size  # every line is whole
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        sessions, _ = StateStore(str(tmp_path), create=False).replay()
        assert sessions.get(sid).ledger.spent == pytest.approx(0.75)

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
        sessions, _ = StateStore(str(tmp_path), create=False).replay()
        assert path.read_bytes() == before  # untouched
        assert sessions.get(sid).ledger.spent == pytest.approx(0.5)


def _replay(state_dir: Path, records: list[dict]):
    """Write ``records`` as a journal and replay it offline: the sessions
    and registry that ``repro-dp state replay`` reports."""
    lines = "".join(json.dumps(record) + "\n" for record in records)
    (state_dir / "journal.jsonl").write_text(lines, encoding="utf-8")
    return StateStore(str(state_dir), create=False).replay()


class TestReplay:
    def test_legacy_rollbacks_refund_nothing(self, tmp_path, make_service):
        """State written by builds that reserved ε before drawing recovers
        conservatively: a snapshot's open reservation loads as a charge, and
        a ``rollback`` record is audited but refunds nothing."""
        prefix = (0.1 + 0.3) + 0.5
        snapshot = {
            "format": 2, "seq": 4, "charge_events": 4,
            "sessions": [{"session": "s", "budget": 5.0,
                          "folded": [prefix, 3], "charges": [[0.7, "g:q"]]}],
            "shared": {"spent": prefix + 0.7, "folded": [prefix, 3],
                       "charges": [[0.7, "s:g:q"]]},
            "audit": {"total_recorded": 5, "tail": []},
            "databases": {}, "versions": {},
        }
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot), encoding="utf-8")
        records = [
            {"seq": 5, "event": "rollback", "session": "s", "epsilon": 0.7, "label": "g:q",
             "detail": "release failed: boom", "shared": True},
            {"seq": 6, "event": "charge", "session": "s", "epsilon": 0.2, "label": "g:q",
             "shared": True},
            {"seq": 7, "event": "rollback", "session": "s", "epsilon": 0.2, "label": "g:q",
             "detail": "release failed: boom", "shared": True},
        ]
        sessions, _ = _replay(tmp_path, records)
        expected = (prefix + 0.7) + 0.2
        for ledger in (sessions.get("s").ledger, sessions.shared):
            assert ledger.spent.hex() == expected.hex()
            assert ledger.charge_count == 5
        assert sessions.charge_events == 5
        tail = sessions.audit.tail(3)
        assert [(r.action, r.ok) for r in tail] == [
            ("rollback", False), ("charge", True), ("rollback", False)
        ]
        assert sessions.audit.total_recorded == 8
        # A restart agrees, and its next snapshot lists no charge.
        recovered = make_service(tmp_path, register=False)
        assert recovered.budget("s")["spent"].hex() == expected.hex()
        recovered.close()
        rewritten = json.loads((tmp_path / "snapshot.json").read_text())
        assert rewritten["sessions"][0]["charges"] == rewritten["shared"]["charges"] == []
        assert rewritten["sessions"][0]["folded"] == [expected, 5]

    def test_close_and_expire_remove_sessions(self, tmp_path):
        records = [
            {"seq": 1, "event": "session_create", "session": "a", "budget": 1.0},
            {"seq": 2, "event": "session_create", "session": "b", "budget": 1.0},
            {"seq": 3, "event": "session_close", "session": "a"},
            {"seq": 4, "event": "session_expire", "session": "b"},
            {"seq": 5, "event": "session_expire", "session": "b"},  # tolerated
        ]
        sessions, _ = _replay(tmp_path, records)
        assert sessions.active_ids() == []

    def test_unknown_event_rejected(self, tmp_path):
        # Recovery, `state replay` and a cluster worker's absorption all
        # apply records through SessionManager.absorb, which refuses it.
        with pytest.raises(ServiceError, match="unknown journal event"):
            _replay(tmp_path, [{"seq": 1, "event": "bogus"}])
        with pytest.raises(ServiceError, match="unknown journal event"):
            SessionManager().absorb({"seq": 1, "event": "bogus"})

    def test_applied_record_audits_at_its_own_timestamp(self, tmp_path):
        records = [
            {"seq": 1, "ts": 100.0, "event": "session_create", "session": "s",
             "budget": 2.0},
            {"seq": 2, "ts": 101.5, "event": "charge", "session": "s",
             "epsilon": 0.5, "label": "q"},
        ]
        sessions, _ = _replay(tmp_path, records)
        assert [r.timestamp for r in sessions.audit.tail(2)] == [100.0, 101.5]
        sibling = SessionManager()
        for record in records:
            sibling.absorb(record)
        assert [r.timestamp for r in sibling.audit.tail(2)] == [100.0, 101.5]

    def test_register_tracks_highest_version(self, tmp_path):
        records = [
            {"seq": 1, "event": "register", "name": "g", "version": 3, "backend": "python"},
            {"seq": 2, "event": "unregister", "name": "g"},
        ]
        _, registry = _replay(tmp_path, records)
        assert registry.snapshot_state() == {"databases": {}, "versions": {"g": 3}}

    def test_register_record_with_retired_backend_field_replays(self, tmp_path):
        # Journals written before the engine choice was retired carry a
        # "backend" key; replay keeps the metadata and drops the key.
        record = {
            "seq": 1, "event": "register", "name": "g", "version": 2,
            "backend": "python", "relations": {"Edge": 4},
        }
        _, registry = _replay(tmp_path, [record])
        assert registry.recovered_metadata() == {
            "g": {"name": "g", "version": 2, "relations": {"Edge": 4}}
        }


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
        assert snapshot["format"] == 2
        # The committed charge is folded into the ledger's prefix.
        (session,) = snapshot["sessions"]
        assert session["folded"] == [0.5, 1]
        assert session["charges"] == []
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
        sessions, _ = StateStore(str(tmp_path), create=False).replay()
        view = sessions.get(sid).describe()
        live = service.budget(sid)
        assert view["spent"] == pytest.approx(live["spent"])
        assert view["charges"] == live["charges"]
        assert sessions.audit.total_recorded == service.sessions.audit.total_recorded

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
        StateStore(str(tmp_path), create=False).replay()
        # ...and the lock dies with the owner.
        service.close(snapshot=False)
        StateStore(str(tmp_path)).close()

    def test_shared_charge_count_survives_restart(self, tmp_path, make_service):
        service = make_service(tmp_path)
        sid = service.create_session(budget=5.0).session_id
        for _ in range(3):
            service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        assert service.sessions.shared.charge_count == 3
        service.close()  # with a final snapshot: shared charges round-trip

        recovered = make_service(tmp_path)
        assert recovered.sessions.shared.charge_count == 3
        assert recovered.sessions.shared.spent == pytest.approx(1.5)

    def test_no_shared_budget_means_no_phantom_shared_spend(self, tmp_path, make_service):
        """Journal replay of a shared-budget-less deployment must not invent
        shared spend (which a snapshot-based recovery would not have)."""
        service = make_service(tmp_path, total_budget=None)
        sid = service.create_session(budget=5.0).session_id
        service.count("toy", "R(x, y)", epsilon=3.0, session=sid)

        sessions, _ = StateStore(str(tmp_path), create=False).replay()
        assert sessions.shared.spent == 0.0
        assert sessions.shared.charge_count == 0
        # Restarting *with* a shared budget starts it untouched.
        service.close(snapshot=False)
        recovered = make_service(tmp_path, total_budget=4.0)
        assert recovered.sessions.shared.spent == 0.0
        assert recovered.budget(sid)["spent"] == pytest.approx(3.0)


class TestTransactionalCharge:
    def test_rollback_refunds_session_and_shared(self, tmp_path):
        """A release that fails inside the charge block charges neither
        ledger and journals one deny; a block that exits normally journals
        one charge."""
        shared = PrivacyAccountant(total_budget=10.0)
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, shared=shared, journal=store)
        sid = manager.create().session_id
        with pytest.raises(RuntimeError):
            with manager.begin_charge(sid, 0.5, label="q") as txn:
                assert txn.ordinal == 1
                raise RuntimeError("noise generator exploded")
        assert manager.get(sid).ledger.snapshot() == (0.0, 0)
        assert shared.snapshot() == (0.0, 0)
        with manager.begin_charge(sid, 0.5, label="q") as txn:
            assert txn.ordinal == 1  # the failed draw consumed no ordinal
        assert txn.remaining == pytest.approx(1.5)
        assert shared.spent == 0.5
        actions = [record.action for record in manager.audit.tail(10)]
        assert actions == ["create", "deny", "charge"]
        records, _ = LedgerJournal.read_records(store.journal_path)
        assert [r["event"] for r in records] == ["session_create", "deny", "charge"]
        assert records[1]["detail"] == "release failed: noise generator exploded"
        store.close()

    def test_non_finite_epsilon_denial_is_journaled_not_fatal(self, tmp_path):
        """A NaN/inf ε must deny as PrivacyError and leave a serialisable
        deny record — not blow up json.dumps(allow_nan=False) mid-journal."""
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, journal=store)
        sid = manager.create().session_id
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                manager.charge(sid, bad)
        events, _ = LedgerJournal.read_records(store.journal_path)
        assert [r["event"] for r in events] == ["session_create", "deny", "deny"]
        assert all(r["epsilon"] == 0.0 for r in events if r["event"] == "deny")
        assert manager.audit.total_recorded == 3

    def test_boolean_epsilon_denied_and_journaled_as_zero(self, tmp_path):
        """``True`` counts as 1 in Python; as an ε it denies, and the deny
        record carries 0.0, not ``true``."""
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, journal=store)
        sid = manager.create().session_id
        with pytest.raises(PrivacyError, match="True"):
            manager.charge(sid, True)
        events, _ = LedgerJournal.read_records(store.journal_path)
        assert [r["event"] for r in events] == ["session_create", "deny"]
        assert type(events[1]["epsilon"]) is float and events[1]["epsilon"] == 0.0
        assert manager.describe(sid)["spent"] == 0.0

    def test_boolean_budget_refused_before_the_journal(self, tmp_path):
        store = StateStore(str(tmp_path))
        manager = SessionManager(default_budget=2.0, journal=store)
        with pytest.raises(ServiceError, match="budget"):
            manager.create(budget=True)
        with pytest.raises(ServiceError, match="default_budget"):
            SessionManager(default_budget=True)
        events, _ = LedgerJournal.read_records(store.journal_path)
        assert events == []
        assert manager.active_ids() == []

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
        assert [r.action for r in recovered.sessions.audit.tail(3)][-1] == "deny"

    def test_count_journals_one_charge_after_its_draw(self, tmp_path, make_service,
                                                     monkeypatch):
        """A ``/count`` appends exactly one record, a ``charge``, and only
        once its release has been drawn."""
        from repro.mechanisms.mechanism import PrivateCountingQuery

        service = make_service(tmp_path)
        sid = service.create_session(budget=2.0).session_id
        journal = tmp_path / "journal.jsonl"
        before = len(LedgerJournal.read_records(journal)[0])
        real_release = PrivateCountingQuery.release
        journaled_at_draw = []

        def release(self, *args, **kwargs):
            journaled_at_draw.append(len(LedgerJournal.read_records(journal)[0]))
            return real_release(self, *args, **kwargs)

        monkeypatch.setattr(PrivateCountingQuery, "release", release)
        service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        records = LedgerJournal.read_records(journal)[0][before:]
        assert journaled_at_draw == [before]
        assert [(r["event"], r["epsilon"]) for r in records] == [("charge", 0.5)]

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
    def test_non_finite_budget_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                PrivacyAccountant(total_budget=bad)

    def test_non_finite_epsilon_rejected(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrivacyError):
                accountant.charge(bad)


    def test_boolean_budget_and_epsilon_rejected(self):
        with pytest.raises(PrivacyError):
            PrivacyAccountant(total_budget=True)
        accountant = PrivacyAccountant(total_budget=2.0)
        with pytest.raises(PrivacyError):
            accountant.charge(True)
        assert accountant.snapshot() == (0.0, 0)


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


def _left_fold(epsilons) -> float:
    total = 0.0
    for epsilon in epsilons:
        total += epsilon
    return total


class TestFoldedLedgers:
    """Charges fold into ``(total, count)``; ``spent`` stays the in-order
    left fold, live and after recovery, bitwise."""

    def test_single_writer_ledgers_hold_only_open_reservations(self, tmp_path, make_service):
        """No charge is ever open outside its charge lock, so a ledger holds
        nothing but its fold, and a snapshot lists no charge."""
        service = make_service(tmp_path)
        sid = service.create_session(budget=50.0).session_id
        for epsilon in (0.1, 0.3, 0.7) * 5:
            service.count("toy", "R(x, y)", epsilon=epsilon, session=sid)
        expected = _left_fold((0.1, 0.3, 0.7) * 5)
        ledger = service.sessions.get(sid).ledger
        assert ledger.snapshot() == service.sessions.shared.snapshot() == (expected, 15)
        assert ledger.charge_count == service.budget(sid)["charges"] == 15
        assert ledger.spent.hex() == expected.hex()
        service.store.compact()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["sessions"][0]["charges"] == snapshot["shared"]["charges"] == []

    def test_reservation_open_at_compaction_replays_bitwise(self, tmp_path, make_service):
        """A compaction that comes while a release is being drawn waits for
        its charge record, so no snapshot holds an open charge."""
        service = make_service(tmp_path, snapshot_interval=0)
        sid = service.create_session(budget=50.0).session_id
        for epsilon in (0.1, 0.3, 0.7):
            service.count("toy", "R(x, y)", epsilon=epsilon, session=sid)
        drawing, compacted = threading.Event(), threading.Event()

        def compact() -> None:
            drawing.wait()
            service.store.compact()
            compacted.set()

        thread = threading.Thread(target=compact)
        thread.start()
        try:
            with service.sessions.begin_charge(sid, 0.3, label="open"):
                drawing.set()
                assert not compacted.wait(0.2)  # blocked on the charge lock
        finally:
            drawing.set()
            thread.join()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        (entry,) = snapshot["sessions"]
        assert entry["folded"] == [_left_fold((0.1, 0.3, 0.7, 0.3)), 4]
        assert entry["charges"] == []
        service.count("toy", "R(x, y), S(y, z)", epsilon=0.1, session=sid)
        live = service.budget(sid)
        live_shared = service.sessions.shared.spent
        assert live["spent"].hex() == _left_fold((0.1, 0.3, 0.7, 0.3, 0.1)).hex()
        service.close(snapshot=False)  # die: snapshot + journal tail survive

        sessions, _ = StateStore(str(tmp_path), create=False).replay()
        assert sessions.get(sid).ledger.spent.hex() == live["spent"].hex()
        assert sessions.shared.spent.hex() == live_shared.hex()
        # `state replay` counts folded charges too.
        assert sessions.get(sid).describe()["charges"] == sessions.shared.charge_count == 5
        recovered = make_service(tmp_path)
        after = recovered.budget(sid)
        assert after["spent"].hex() == live["spent"].hex()
        assert after["charges"] == live["charges"] == 5
        assert recovered.sessions.shared.spent.hex() == live_shared.hex()

    def test_300_counts_with_release_failures_recover_bitwise(
        self, tmp_path, make_service, monkeypatch
    ):
        from repro.mechanisms.mechanism import PrivateCountingQuery

        real_release = PrivateCountingQuery.release
        failing = [False]

        def release(self, *args, **kwargs):
            if failing[0]:
                raise RuntimeError("injected release failure")
            return real_release(self, *args, **kwargs)

        monkeypatch.setattr(PrivateCountingQuery, "release", release)
        service = make_service(tmp_path, snapshot_interval=7, total_budget=1000.0)
        sid = service.create_session(budget=500.0).session_id
        committed = []
        for index in range(300):
            epsilon = (0.1, 0.3, 0.7)[index % 3]
            failing[0] = index % 37 == 5
            query = ("R(x, y)", "R(x, y), S(y, z)")[index % 2]
            try:
                service.count("toy", query, epsilon=epsilon, session=sid)
            except RuntimeError:
                continue
            committed.append(epsilon)
        failing[0] = False
        assert len(committed) == 292
        live = service.budget(sid)
        live_shared = service.sessions.shared.spent
        service.close(snapshot=False)  # SIGKILL-style: no final snapshot

        recovered = make_service(tmp_path, snapshot_interval=7, total_budget=1000.0)
        after = recovered.budget(sid)
        # The value the pre-folding ledger (a sum() over every charge) read.
        expected = "0x1.abffffffffff4p+6"
        assert _left_fold(committed).hex() == expected
        assert live["spent"].hex() == after["spent"].hex() == expected
        assert live_shared.hex() == recovered.sessions.shared.spent.hex() == expected
        assert live["charges"] == after["charges"] == 292

    def test_format_1_snapshot_still_loads(self, tmp_path, make_service):
        """A snapshot written before ledgers folded (every charge listed)."""
        fixture = Path(__file__).parent / "fixtures" / "snapshot_format1.json"
        document = json.loads(fixture.read_text())
        assert document["format"] == 1
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "snapshot.json").write_text(fixture.read_text())

        def spent(entry):
            return _left_fold(epsilon for epsilon, _ in entry["charges"])

        sessions = {entry["session"]: entry for entry in document["sessions"]}
        # Not re-registered, so "toy" is carried as recovered metadata.
        recovered = make_service(state_dir, register=False)
        for sid, entry in sessions.items():
            view = recovered.budget(sid)
            assert view["spent"].hex() == spent(entry).hex()
            assert view["charges"] == len(entry["charges"])
        assert recovered.budget("analyst-a")["spent"].hex() == "0x1.8000000000000p+0"
        shared_spent = recovered.sessions.shared.spent
        assert shared_spent.hex() == spent(document["shared"]).hex()
        assert shared_spent == document["shared"]["spent"]
        # The next snapshot is format 2, and reads back the same.
        recovered.close()
        rewritten = json.loads((state_dir / "snapshot.json").read_text())
        assert rewritten["format"] == 2
        # The fixture's entry also carries a retired key; it is not carried
        # forward into the rewritten snapshot.
        assert set(rewritten["databases"]["toy"]) == set(REGISTER_METADATA_KEYS)
        again = make_service(state_dir)
        for sid, entry in sessions.items():
            assert again.budget(sid)["spent"].hex() == spent(entry).hex()
        assert again.sessions.shared.spent.hex() == shared_spent.hex()

    def test_register_record_with_retired_parallelism_mode_recovers(
        self, tmp_path, toy_db, make_service
    ):
        """A journal written while registrations carried ``parallelism_mode``."""
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        record = {
            "seq": 1, "ts": 0.0, "event": "register", "name": "toy", "version": 1,
            "parallelism_mode": "process", "relations": {"R": 4, "S": 3},
            "private_tuples": 7, "epochs": {"R": 4, "S": 3},
        }
        (state_dir / "journal.jsonl").write_text(json.dumps(record) + "\n")
        recovered = make_service(state_dir, register=False)
        meta = recovered.registry.recovered_metadata()["toy"]
        assert set(meta) == set(REGISTER_METADATA_KEYS)
        entry = recovered.register_database("toy", toy_db, replace=True)
        assert entry.version == 2
        sid = recovered.create_session().session_id
        response = recovered.count("toy", "R(x, y), S(y, z)", epsilon=0.5, session=sid)
        assert response.epsilon == 0.5

    def test_absorbed_charges_fold_at_once(self):
        """A cluster worker folds a sibling's charge as it absorbs it: the
        sibling journaled it only once its release existed."""
        shared = PrivacyAccountant(total_budget=10.0)
        manager = SessionManager(default_budget=5.0, shared=shared)
        sid = manager.create(session_id="s").session_id
        manager.charge(sid, 0.1, label="local")
        sibling = {"event": "charge", "session": sid, "epsilon": 0.3, "label": "remote"}
        manager.absorb(sibling)
        manager.charge(sid, 0.7, label="local")
        ledger = manager.get(sid).ledger
        expected = (0.1 + 0.3) + 0.7
        assert ledger.snapshot() == shared.snapshot() == (expected, 3)
        assert manager.charge_events == 3
        manager.absorb({**sibling, "event": "rollback"})  # an older build's record
        assert ledger.snapshot() == shared.snapshot() == (expected, 3)
        assert manager.audit.tail(1)[0].action == "rollback"

    def test_shared_workers_agree_after_a_failed_draw(
        self, tmp_path, make_service, monkeypatch
    ):
        """Two cluster workers on one journal, one of whose draws fails: both
        ledgers read the same bitwise spend, neither holds a charge record,
        and the journal holds a deny and no rollback."""
        from repro.mechanisms.mechanism import PrivateCountingQuery

        a = make_service(tmp_path, shared_state=True)
        b = make_service(tmp_path, shared_state=True)
        sid = a.create_session(budget=5.0, session_id="s").session_id
        real_release = PrivateCountingQuery.release
        failing = [False]

        def release(self, *args, **kwargs):
            if failing[0]:
                raise RuntimeError("injected release failure")
            return real_release(self, *args, **kwargs)

        monkeypatch.setattr(PrivateCountingQuery, "release", release)
        a.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        b.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        failing[0] = True
        with pytest.raises(RuntimeError):
            b.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        failing[0] = False
        a.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        b.count("toy", "R(x, y)", epsilon=0.5, session=sid)
        expected = _left_fold((0.5,) * 4)
        for worker in (a, b):
            assert worker.budget(sid)["spent"].hex() == expected.hex()
            assert worker.budget(sid)["charges"] == 4
            state = worker.sessions.snapshot_state()
            assert state["sessions"][0]["charges"] == state["shared"]["charges"] == []
            assert worker.sessions.shared.snapshot() == (expected, 4)
        records, _ = LedgerJournal.read_records(tmp_path / "journal.jsonl")
        events = [r["event"] for r in records]
        assert events.count("deny") == 1 and "rollback" not in events
        assert events.count("charge") == 4
