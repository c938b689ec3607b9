"""The named-database registry of the serving layer.

Production deployments register each database once and answer many queries
against it.  The registry hands out immutable :class:`RegisteredDatabase`
records, and invalidation is two-tier:

* **Re-registration** bumps the ``(name, version)`` pair the caches embed
  in their keys, so every cached plan, profile or sensitivity derived from
  the old contents silently becomes unreachable (and ages out of the LRU)
  instead of being served stale.  The version bump also releases the
  superseded instance's *data-level* caches — its value dictionary,
  columnar snapshots and coded columns (see
  :meth:`repro.data.database.Database.release_caches`) — so the memory of a
  replaced registration is reclaimed eagerly.
* **Delta mutation** (:meth:`DatabaseRegistry.mutate`) keeps the version
  *unchanged* and instead advances the **epochs** of exactly the relations
  it touches; query-layer caches additionally key on the epochs of the
  relations an entry reads, so a mutation invalidates only the entries
  touching mutated relations while everything else — including the
  columnar snapshots and coded columns, which the delta mutators update
  in place — stays warm.  See ``docs/mutation.md``.

When the registry is backed by a :class:`~repro.service.persistence.StateStore`,
every (un)registration journals a **versioned metadata snapshot** of the
database — name, version, relation sizes, epochs — and every
mutation journals its operations plus the post-mutation sizes and epochs.
Database *contents* are not persisted (re-register them after a restart);
what recovery guarantees is that the version sequence resumes where it left
off, so cache keys derived from pre-restart contents can never be
resurrected by a post-restart registration under the same name.  Recovery
loads a snapshot through :meth:`DatabaseRegistry.restore` and applies each
later record through :meth:`DatabaseRegistry.absorb`, the method through
which cluster siblings absorb each other's records: a mutation record's
operations are applied to a loaded copy, keeping contents and epochs in
sync across processes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.data.database import Database
from repro.exceptions import ServiceError, UnknownResourceError
from repro.service.persistence import (
    MUTATE_METADATA_KEYS,
    exclusive_or_null,
    register_metadata,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.persistence import StateStore

__all__ = ["DatabaseRegistry", "RegisteredDatabase"]


@dataclass(frozen=True)
class RegisteredDatabase:
    """A database registered under a name, at a specific version."""

    name: str
    version: int
    database: Database

    @property
    def key(self) -> tuple[str, int]:
        """The ``(name, version)`` pair cache keys embed."""
        return (self.name, self.version)

    def describe(self) -> dict[str, object]:
        """A JSON-serialisable summary (no tuple contents)."""
        return {
            "name": self.name,
            "version": self.version,
            "relations": {
                rel.schema.name: len(rel) for rel in self.database
            },
            "private_tuples": self.database.size(private_only=True),
            "epochs": self.database.epochs(),
        }


class DatabaseRegistry:
    """A thread-safe mapping of names to registered databases.

    ``journal`` optionally write-ahead-logs every (un)registration's
    metadata; mutating paths acquire the store lock first (the serving
    layer's outermost lock) so snapshots stay consistent.
    """

    def __init__(self, journal: "StateStore | None" = None) -> None:
        self._lock = threading.RLock()
        self._entries: dict[str, RegisteredDatabase] = {}
        self._versions: dict[str, int] = {}
        # Metadata of databases known from a recovered journal but whose
        # contents have not been re-registered in this process lifetime.
        self._recovered: dict[str, dict[str, Any]] = {}
        self.journal = journal

    def _exclusive(self):
        return exclusive_or_null(self.journal)

    def register(
        self,
        name: str,
        database: Database,
        *,
        replace: bool = False,
    ) -> RegisteredDatabase:
        """Register ``database`` under ``name``.

        Raises :class:`ServiceError` if the name is taken and ``replace``
        is false.  Replacing bumps the version so cache keys derived from
        the previous contents can never match again.
        """
        if not name or not isinstance(name, str):
            raise ServiceError(f"database name must be a non-empty string, got {name!r}")
        with self._exclusive():
            with self._lock:
                if name in self._entries and not replace:
                    raise ServiceError(
                        f"database {name!r} is already registered (pass replace=True to update)"
                    )
                version = self._versions.get(name, 0) + 1
                entry = RegisteredDatabase(name=name, version=version, database=database)
                previous = self._entries.get(name)

                def install() -> None:
                    self._versions[name] = version
                    self._entries[name] = entry
                    self._recovered.pop(name, None)
                    # The version bump already makes every cache key derived
                    # from the old contents unreachable; releasing the old
                    # instance's derived caches (value dictionary, columnar
                    # snapshots, coded columns, indexes) frees their memory
                    # now rather than when the LRU ages the last reference
                    # out — unless another registration still serves the
                    # same object.
                    if previous is not None and previous.database is not database:
                        self._release_if_unreferenced(previous.database)

                if self.journal is not None:
                    self.journal.append("register", apply=install, **entry.describe())
                else:
                    install()
                return entry

    def get(self, name: str) -> RegisteredDatabase:
        """The current registration of ``name`` (raises if unknown)."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise UnknownResourceError(f"unknown database {name!r}") from None

    def unregister(self, name: str) -> None:
        """Remove ``name`` (raises if unknown); the version counter survives."""
        with self._exclusive():
            with self._lock:
                if name not in self._entries:
                    raise UnknownResourceError(f"unknown database {name!r}")

                def remove() -> None:
                    removed = self._entries.pop(name)
                    self._release_if_unreferenced(removed.database)

                if self.journal is not None:
                    self.journal.append("unregister", apply=remove, name=name)
                else:
                    remove()

    def mutate(self, name: str, operations: list[dict[str, Any]]) -> dict[str, Any]:
        """Apply a batch of tuple-level delta operations to ``name``.

        ``operations`` is an ordered list of JSON-shaped dicts::

            {"relation": "R", "op": "insert", "rows": [[1, 2], ...]}
            {"relation": "R", "op": "delete", "rows": [[1, 2], ...]}
            {"relation": "R", "op": "replace", "old": [1, 2], "new": [3, 4]}

        The whole batch is validated up front against a simulated overlay of
        the current contents, so a malformed operation anywhere leaves the
        database untouched (effectively atomic).  Inserting a present row or
        deleting an absent one is a tolerated no-op (streaming feeds replay
        freely); replacing a missing row is an error.  The registration
        version does **not** change — only the touched relations' epochs
        advance, which is exactly what the epoch-keyed caches key on.

        When journaled, the record carries the normalized operations plus
        the post-mutation relation sizes and epochs, so sibling workers can
        replay the same delta on their own copy and recovery keeps metadata
        current.  Returns a JSON-serialisable summary.
        """
        with self._exclusive():
            with self._lock:
                entry = self.get(name)
                plan, meta, inserted, deleted = self._normalize_operations(
                    entry.database, operations
                )
                if not plan:
                    return {
                        **entry.describe(),
                        "inserted": 0,
                        "deleted": 0,
                        "operations": 0,
                    }
                normalized = [
                    {"relation": rel, "op": op, "rows": [list(row) for row in rows]}
                    for op, rel, rows in plan
                ]

                def apply_() -> None:
                    self._apply_plan(entry.database, plan)

                if self.journal is not None:
                    self.journal.append(
                        "mutate",
                        apply=apply_,
                        name=entry.name,
                        version=entry.version,
                        operations=normalized,
                        inserted=inserted,
                        deleted=deleted,
                        **meta,
                    )
                else:
                    apply_()
                return {
                    "name": entry.name,
                    "version": entry.version,
                    "inserted": inserted,
                    "deleted": deleted,
                    "operations": len(plan),
                    **meta,
                }

    @staticmethod
    def _normalize_operations(
        database: Database, operations: list[dict[str, Any]]
    ) -> tuple[list[tuple[str, str, list[tuple]]], dict[str, Any], int, int]:
        """Validate a batch and reduce it to effective insert/delete steps.

        Runs the batch against an overlay simulation of the current
        contents: every row is schema-validated, replaces check their old
        row exists at that point of the sequence, and no-op rows are
        filtered out.  Nothing is mutated here — the returned plan applies
        without possibility of error, and the returned metadata (relation
        sizes, private-tuple count, epochs) is the exact *post*-apply state,
        so the journal record can be written before the effect (WAL order).
        """
        overlay: dict[str, tuple[set, set]] = {}  # name -> (added, removed)

        def present(rel, row: tuple) -> bool:
            added, removed = overlay.setdefault(rel.name, (set(), set()))
            return row in added or (row in rel and row not in removed)

        def simulate(rel, row: tuple, *, insert: bool) -> None:
            added, removed = overlay[rel.name]
            if insert:
                added.add(row)
                removed.discard(row)
            else:
                removed.add(row)
                added.discard(row)

        plan: list[tuple[str, str, list[tuple]]] = []
        inserted = deleted = 0
        for position, operation in enumerate(operations):
            if not isinstance(operation, dict):
                raise ServiceError(f"operation #{position} must be an object")
            op = operation.get("op")
            rel = database.relation(str(operation.get("relation")))
            if op == "replace":
                if "old" not in operation or "new" not in operation:
                    raise ServiceError(
                        f"operation #{position}: replace needs 'old' and 'new' rows"
                    )
                old = rel.schema.validate_tuple(tuple(operation["old"]))
                new = rel.schema.validate_tuple(tuple(operation["new"]))
                if not present(rel, old):
                    raise ServiceError(
                        f"operation #{position}: cannot replace missing tuple "
                        f"{old!r} in {rel.name!r}"
                    )
                if new == old:
                    continue
                steps = [("delete", [old])]
                if not present(rel, new):
                    steps.append(("insert", [new]))
                simulate(rel, old, insert=False)
                simulate(rel, new, insert=True)
            elif op in ("insert", "delete"):
                if not isinstance(operation.get("rows"), list):
                    raise ServiceError(
                        f"operation #{position}: {op} needs a 'rows' list"
                    )
                rows = [rel.schema.validate_tuple(tuple(r)) for r in operation["rows"]]
                effective: list[tuple] = []
                seen: set = set()
                for row in rows:
                    if row in seen or present(rel, row) == (op == "insert"):
                        continue  # duplicate in batch, or already in target state
                    seen.add(row)
                    effective.append(row)
                    simulate(rel, row, insert=op == "insert")
                if not effective:
                    continue
                steps = [(op, effective)]
            else:
                raise ServiceError(
                    f"operation #{position} has unknown op {op!r} "
                    "(expected insert, delete or replace)"
                )
            for step_op, step_rows in steps:
                plan.append((step_op, rel.name, step_rows))
                if step_op == "insert":
                    inserted += len(step_rows)
                else:
                    deleted += len(step_rows)

        sizes = {r.schema.name: len(r) for r in database}
        epochs = database.epochs()
        for op, rel_name, rows in plan:
            sizes[rel_name] += len(rows) if op == "insert" else -len(rows)
            epochs[rel_name] += 1  # one bump per effective bulk call
        private = sum(
            sizes[rel_name]
            for rel_name in sizes
            if database.schema.is_private(rel_name)
        )
        meta = {"relations": sizes, "private_tuples": private, "epochs": epochs}
        return plan, meta, inserted, deleted

    @staticmethod
    def _apply_plan(
        database: Database, plan: list[tuple[str, str, list[tuple]]]
    ) -> None:
        """Run a normalized plan through the relations' bulk delta mutators."""
        for op, rel_name, rows in plan:
            rel = database.relation(rel_name)
            if op == "insert":
                rel.add_rows(rows)
            else:
                rel.remove_rows(rows)

    def _release_if_unreferenced(self, database: Database) -> None:
        """Drop a superseded instance's derived caches — but only when no
        surviving registration still serves the very same object (called
        under ``self._lock``)."""
        if not any(entry.database is database for entry in self._entries.values()):
            database.release_caches()

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Load a snapshot's version counters and database metadata (the
        inverse of :meth:`snapshot_state`).

        Silent by design — the state came *from* the journal's snapshot.
        Contents are not restored; a recovered name answers queries again
        only after the caller re-registers its database (with
        ``replace=True``), which continues the version sequence from the
        recovered counter.
        """
        with self._lock:
            for name, version in snapshot.get("versions", {}).items():
                self._versions[name] = max(self._versions.get(name, 0), int(version))
            for name, meta in snapshot.get("databases", {}).items():
                if name not in self._entries:
                    self._recovered[name] = register_metadata(meta)

    def absorb(self, record: Mapping[str, Any]) -> None:
        """Apply one journal record of a registry event.

        The one applier of these records, for recovery, for a cluster
        worker absorbing its siblings' records and for ``repro-dp state
        replay``.  Contents never cross the journal, so a registration
        record only advances the local version counter (keeping cache keys
        unique across restarts and workers) and, when the name is not
        locally loaded, records its metadata as recovered.  Local
        registrations are never displaced: each worker serves the contents
        it loaded itself.

        A *mutation* record carries its normalized operations: if this
        worker has the name loaded, the same delta is applied to the local
        copy (identical copies stay identical, and the local epochs advance
        in lock-step, invalidating exactly the same cache entries as on the
        originating worker); otherwise only the recovered metadata is
        refreshed.  A divergent local copy must not poison the absorb loop,
        so apply errors are swallowed — the next re-registration resyncs.
        """
        name = record.get("name")
        if record["event"] == "register":
            version = int(record.get("version", 0))
            with self._lock:
                self._versions[name] = max(self._versions.get(name, 0), version)
                if name not in self._entries:
                    self._recovered[name] = register_metadata(record)
        elif record["event"] == "unregister":
            with self._lock:
                self._recovered.pop(name, None)
        elif record["event"] == "mutate":
            with self._lock:
                entry = self._entries.get(name)
                if entry is not None:
                    plan = [
                        (
                            str(op.get("op")),
                            str(op.get("relation")),
                            [tuple(row) for row in op.get("rows", [])],
                        )
                        for op in record.get("operations", [])
                    ]
                    try:
                        self._apply_plan(entry.database, plan)
                    except Exception:  # pragma: no cover - divergent copies
                        pass
                meta = self._recovered.get(name)
                if meta is not None:
                    for key in MUTATE_METADATA_KEYS:
                        if key in record:
                            meta[key] = record[key]

    def recovered_metadata(self) -> dict[str, dict[str, Any]]:
        """Metadata of recovered-but-not-reloaded databases (by name)."""
        with self._lock:
            return {name: dict(meta) for name, meta in self._recovered.items()}

    def names(self) -> list[str]:
        """The registered names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def describe(self) -> dict[str, dict[str, object]]:
        """Per-database summaries for the ``/stats`` endpoint."""
        with self._lock:
            entries = list(self._entries.values())
        return {entry.name: entry.describe() for entry in entries}

    def snapshot_state(self) -> dict[str, Any]:
        """The databases/versions portion of a compacted state snapshot.

        Recovered-but-not-reloaded metadata is carried forward so a
        compaction can never lose a version counter.
        """
        with self._lock:
            entries = list(self._entries.values())
            databases: dict[str, Any] = {
                name: dict(meta) for name, meta in self._recovered.items()
            }
            versions = dict(self._versions)
        for entry in entries:
            databases[entry.name] = entry.describe()
            versions[entry.name] = max(versions.get(entry.name, 0), entry.version)
        return {"databases": databases, "versions": versions}
