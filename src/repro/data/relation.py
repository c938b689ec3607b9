"""Set-semantics relation instances.

A :class:`Relation` stores a set of tuples conforming to a
:class:`~repro.data.schema.RelationSchema`.  On top of plain storage it
offers the small amount of query-processing machinery the rest of the library
needs directly:

* hash indexes on attribute subsets (built lazily, invalidated on mutation),
* maximum frequencies ``mf(x, R)`` over attribute subsets, which are the
  building block of elastic sensitivity (Section 4.4),
* a columnar snapshot (:meth:`Relation.to_columns`, one value array per
  attribute) and, beside it, the same rows as *coded columns*
  (:meth:`Relation.coded_columns`): ``int64`` codes of the owning
  database's :class:`~repro.data.database.ValueDictionary`, the only form
  in which the columnar elimination engine reads a relation — coded once,
  they serve every residual subset, query and service request against the
  same instance,
* for a binary relation, whether its rows are closed under swapping the
  two columns (:attr:`Relation.symmetry`, recorded per epoch), and
* projection / selection helpers used by tests and data loading.

Every mutation advances the relation's **epoch** (:attr:`Relation.epoch`),
the per-relation invalidation counter the serving layer embeds into its
cache keys (see :mod:`repro.service.service`): cached values derived from
this instance's contents are keyed by the epoch at which they were
computed, so a mutation invalidates exactly the entries that read this
relation.  Single-tuple mutators (:meth:`add` / :meth:`remove` /
:meth:`clear`) drop the derived caches wholesale; the bulk delta mutators
(:meth:`Relation.add_rows` / :meth:`Relation.remove_rows`) instead update
the columnar snapshot and the coded columns *in place* — appending the new
rows (new values are coded against the shared dictionary) or compacting
with one keep-mask — so a small edit against a large hot instance keeps its
columnar state warm and never re-codes another relation.
:meth:`Relation.release_caches` still drops everything eagerly (the
serving-layer registry calls it when a database version is replaced, so
superseded snapshots free their memory immediately).

The bulk delta mutators also keep a **change log**: the rows each call
inserted or deleted, by epoch, holding at most as many rows as the
relation.  :meth:`Relation.changes_since` folds it into the net rows
inserted and deleted since an earlier epoch, which is what a cache of
counts over this relation needs to catch up by a delta query instead of a
recomputation (see :mod:`repro.engine.profile`).  Rows given to the
constructor are not logged, and a single-tuple mutation resets the log.

Each mutation runs under the relation's lock and is atomic for a reader of
:meth:`Relation.coded_snapshot`, which returns the coded columns together
with the epoch they hold: the delta mutators publish their new coded
columns already labelled with the epoch the mutation advances to, and a
snapshot built from the rows is built under the lock.  A cache that stores
counts derived from the codes can therefore tell exactly which epoch they
belong to, even while a writer is half way through an edit.

Set semantics matches the paper: duplicate insertions are no-ops and the
tuple-DP distance between two instances is the number of insertions,
deletions, and substitutions needed to transform one into the other.
"""

from __future__ import annotations

import bisect
import threading
from collections import Counter, defaultdict, deque
from typing import Callable, Iterable, Iterator, Sequence

from repro.data.schema import RelationSchema
from repro.exceptions import SchemaError

__all__ = ["Relation", "value_column"]


def value_column(values: list):
    """``values`` as one NumPy column: ``int64`` when they are all Python ints
    that fit (the fast path of the columnar engine), ``object`` otherwise."""
    import numpy as np

    if all(type(v) is int for v in values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


class Relation:
    """A mutable set of tuples over a fixed :class:`RelationSchema`."""

    def __init__(self, schema: RelationSchema, rows: Iterable[tuple] | None = None):
        self._schema = schema
        self._rows: set[tuple] = set()
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}
        # Row order shared by the value snapshot and the coded columns; the
        # delta mutators append to / compact all three together.
        self._column_rows: list[tuple] | None = None
        self._columns: tuple | None = None
        # ``(dictionary, coded columns, epoch)`` — the codes are only
        # meaningful in the code space of the dictionary they were made
        # with, and hold the rows of that epoch.
        self._codes: tuple | None = None
        # ``(epoch, flag)``: whether the rows were closed under swapping the
        # two columns at that epoch (see :attr:`symmetry`).
        self._symmetry: tuple[int, bool] | None = None
        self._version = 0
        # ``(epoch after, +1 insert / -1 delete, rows)`` per bulk call since
        # the last reset, oldest first; ``_log_rows`` rows in all.
        self._log: deque[tuple[int, int, tuple[tuple, ...]]] = deque()
        self._log_rows = 0
        # Held by every mutation and by every build of a snapshot from the
        # rows, so neither sees the other half done.
        self._lock = threading.RLock()
        if rows is not None:
            # Not shared yet: no lock.
            for row in rows:
                self._insert(self._schema.validate_tuple(tuple(row)))

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> RelationSchema:
        """The schema this instance conforms to."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name (from the schema)."""
        return self._schema.name

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return self._schema.arity

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema.name == other._schema.name and self._rows == other._rows

    def __hash__(self):  # pragma: no cover - relations are mutable
        raise TypeError("Relation instances are mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Relation({self.name}, {len(self)} tuples)"

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """The mutation counter of this instance.

        Advanced by every effective mutation (no-op edits — inserting a
        present tuple, deleting an absent one — leave it unchanged).  Cache
        keys derived from this instance's contents embed the epoch, so a
        mutation invalidates exactly the entries that read this relation.
        """
        return self._version
    def add(self, row: Sequence) -> bool:
        """Insert ``row`` (validated against the schema); return ``True`` if new."""
        validated = self._schema.validate_tuple(tuple(row))
        with self._lock:
            return self._insert(validated)

    def _insert(self, validated: tuple) -> bool:
        if validated in self._rows:
            return False
        self._rows.add(validated)
        self._bump()
        return True

    def remove(self, row: Sequence) -> bool:
        """Delete ``row`` if present; return ``True`` if it was present."""
        key = tuple(row)
        with self._lock:
            if key in self._rows:
                self._rows.remove(key)
                self._bump()
                return True
            return False

    def replace(self, old_row: Sequence, new_row: Sequence) -> None:
        """Substitute ``old_row`` by ``new_row`` (a single DP "change").

        The new tuple is validated *before* the old one is touched, so a
        :class:`~repro.exceptions.SchemaError` on ``new_row`` leaves the
        instance exactly as it was (no lost tuple, no epoch advance).
        """
        old_key = tuple(old_row)
        with self._lock:
            if old_key not in self._rows:
                raise SchemaError(
                    f"cannot replace missing tuple {old_key!r} in {self.name!r}"
                )
            new_key = self._schema.validate_tuple(tuple(new_row))
            if new_key == old_key:
                return
            self.remove_rows((old_key,))
            self.add_rows((new_key,))

    def add_rows(self, rows: Iterable[Sequence]) -> int:
        """Bulk-insert ``rows`` via the delta path; return how many were new.

        All rows are validated first (a :class:`SchemaError` applies
        nothing).  Unlike :meth:`add`, an existing columnar snapshot and its
        coded columns are *extended in place* — the new rows are appended,
        their unseen values coded against the shared dictionary — instead of
        being discarded.  The epoch advances once for the whole batch (not
        at all if every row was present).
        """
        candidates = [self._schema.validate_tuple(tuple(row)) for row in rows]
        with self._lock:
            validated = [
                row for row in dict.fromkeys(candidates) if row not in self._rows
            ]
            if not validated:
                return 0
            epoch = self._version + 1
            if self._column_rows is not None:
                self._extend_snapshot(validated, epoch)
            self._rows.update(validated)
            self._indexes.clear()
            self._version = epoch
            self._log_change(1, validated)
            return len(validated)

    def remove_rows(self, rows: Iterable[Sequence]) -> int:
        """Bulk-delete ``rows`` via the delta path; return how many existed.

        An existing columnar snapshot and its coded columns are *compacted
        in place* with one keep-mask instead of being discarded.  The epoch
        advances once for the whole batch (not at all if no row was
        present).
        """
        requested = [tuple(row) for row in rows]
        with self._lock:
            keys = {key for key in requested if key in self._rows}
            if not keys:
                return 0
            epoch = self._version + 1
            if self._column_rows is not None:
                import numpy as np

                mask = np.fromiter(
                    (row not in keys for row in self._column_rows),
                    dtype=bool,
                    count=len(self._column_rows),
                )
                # New array objects throughout: a reader holding the previous
                # snapshot tuple keeps seeing a consistent (pre-edit) view.
                if self._columns is not None:
                    self._columns = tuple(column[mask] for column in self._columns)
                if self._codes is not None:
                    dictionary, coded, _ = self._codes
                    self._codes = (
                        dictionary,
                        tuple(column[mask] for column in coded),
                        epoch,
                    )
                self._column_rows = [row for row in self._column_rows if row not in keys]
            self._rows.difference_update(keys)
            self._indexes.clear()
            self._version = epoch
            self._log_change(-1, keys)
            return len(keys)

    def clear(self) -> None:
        """Remove all tuples."""
        with self._lock:
            self._rows.clear()
            self._bump()

    def _bump(self) -> None:
        self._version += 1
        self._indexes.clear()
        self._drop_snapshot()
        self._log.clear()
        self._log_rows = 0

    def _log_change(self, sign: int, rows) -> None:
        """Log one bulk call's rows, then drop the oldest calls until the log
        holds at most as many rows as the relation."""
        log = self._log
        log.append((self._version, sign, tuple(rows)))
        self._log_rows += len(log[-1][2])
        while log and self._log_rows > len(self._rows):
            self._log_rows -= len(log.popleft()[2])

    @property
    def change_log_rows(self) -> int:
        """How many rows the change log holds (0 when nothing is logged)."""
        return self._log_rows

    def changes_since(
        self, epoch: int, until: int | None = None
    ) -> tuple[list[tuple], list[tuple]] | None:
        """The net ``(inserted, deleted)`` rows between ``epoch`` and
        ``until`` (default: now).

        A row inserted and deleted again (or the reverse) cancels out, so
        ``inserted`` holds only rows absent at ``epoch`` and ``deleted`` only
        rows present then.  ``None`` when the log does not cover every epoch
        in ``(epoch, until]``: a single-tuple mutation since, rows trimmed
        off by the size limit, or an epoch this relation never had.
        """
        with self._lock:
            current = self._version
            log = tuple(self._log)
        version = current if until is None else until
        if not epoch <= version <= current:
            return None
        # One call per epoch since the last reset, oldest first, so the log
        # covers the range exactly when it holds each of its epochs.
        start = bisect.bisect_right(log, epoch, key=lambda entry: entry[0])
        needed = log[start : start + version - epoch]
        if [entry[0] for entry in needed] != list(range(epoch + 1, version + 1)):
            return None
        inserted: dict[tuple, None] = {}
        deleted: dict[tuple, None] = {}
        for _, sign, rows in needed:
            add, cancel = (inserted, deleted) if sign > 0 else (deleted, inserted)
            for row in rows:
                if row in cancel:
                    del cancel[row]
                else:
                    add[row] = None
        return list(inserted), list(deleted)

    def _drop_snapshot(self) -> None:
        # The value and coded columns are positionally aligned with
        # ``_column_rows``, so all three go together: a rebuilt snapshot
        # enumerates the row set in a fresh order.
        self._column_rows = None
        self._columns = None
        self._codes = None

    def _extend_snapshot(self, new_rows: list[tuple], epoch: int) -> None:
        """Append ``new_rows`` to the cached snapshot and coded columns, the
        latter labelled with the ``epoch`` the mutation advances to.

        A value column whose dtype cannot take a new value (a string into an
        ``int64`` column, an int past its range) is dropped and rebuilt on
        the next :meth:`to_columns` in the kept row order; the coded columns
        take any value, so they are always extended.
        """
        import numpy as np

        tails = [value_column([row[p] for row in new_rows]) for p in range(self.arity)]
        columns = self._columns
        if columns is not None:
            if any(
                column.dtype != object and tail.dtype == object
                for column, tail in zip(columns, tails)
            ):
                columns = None
            else:
                columns = tuple(
                    np.concatenate([column, tail.astype(column.dtype, copy=False)])
                    for column, tail in zip(columns, tails)
                )
        codes = self._codes
        if codes is not None:
            dictionary, coded, _ = codes
            codes = (
                dictionary,
                tuple(
                    np.concatenate([column, dictionary.encode(tail)])
                    for column, tail in zip(coded, tails)
                ),
                epoch,
            )
        self._columns = columns
        self._codes = codes
        self._column_rows = self._column_rows + new_rows

    def release_caches(self) -> None:
        """Drop every derived cache (indexes, columnar snapshot, coded columns,
        the symmetry flag).

        Semantically a no-op — everything recomputes on demand — but frees
        the memory of superseded snapshots immediately.  The serving-layer
        registry calls this when a registration is replaced or removed, so
        cache state tied to an old database version cannot linger.
        """
        with self._lock:
            self._indexes.clear()
            self._drop_snapshot()
            self._symmetry = None

    @property
    def symmetry(self) -> bool | None:
        """Whether the rows are closed under swapping the two columns, as
        recorded for the current epoch (``None`` when not recorded).

        :func:`repro.engine.columnar.relation_is_symmetric` computes and
        records it; a mutation advances the epoch, which retires the record.
        """
        return self.symmetry_at(self._version)

    def symmetry_at(self, epoch: int) -> bool | None:
        """The swap-closure flag recorded for the rows of ``epoch`` (``None``
        when none is)."""
        recorded = self._symmetry
        if recorded is None or recorded[0] != epoch:
            return None
        return recorded[1]

    def record_symmetry(self, epoch: int, flag: bool) -> None:
        """Record the swap-closure ``flag`` computed on the rows of ``epoch``."""
        self._symmetry = (epoch, flag)

    # ------------------------------------------------------------------ #
    # Copying and comparison
    # ------------------------------------------------------------------ #
    def copy(self) -> "Relation":
        """An independent copy sharing the (immutable) schema."""
        clone = Relation(self._schema)
        clone._rows = set(self._rows)
        return clone

    def tuples(self) -> frozenset[tuple]:
        """An immutable snapshot of the tuple set."""
        return frozenset(self._rows)

    def distance(self, other: "Relation") -> int:
        """Tuple-edit distance to ``other``.

        With substitutions allowed the distance between two sets ``A`` and
        ``B`` is ``max(|A - B|, |B - A|)``: the smaller side of the symmetric
        difference is covered by substitutions, the excess by insertions or
        deletions.
        """
        if other.schema.name != self._schema.name or other.arity != self.arity:
            raise SchemaError(
                f"cannot compare instances of {self.name!r} and {other.name!r}"
            )
        only_self = len(self._rows - other._rows)
        only_other = len(other._rows - self._rows)
        return max(only_self, only_other)

    # ------------------------------------------------------------------ #
    # Indexes and statistics
    # ------------------------------------------------------------------ #
    def index_on(self, positions: Sequence[int]) -> dict[tuple, list[tuple]]:
        """A hash index mapping value-combinations at ``positions`` to tuples.

        The index is cached until the relation is mutated.  ``positions`` may
        be empty, in which case the single key ``()`` maps to every tuple.
        """
        key = tuple(positions)
        for pos in key:
            if pos < 0 or pos >= self.arity:
                raise SchemaError(f"index position {pos} out of range for {self.name!r}")
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        index: dict[tuple, list[tuple]] = defaultdict(list)
        for row in self._rows:
            index[tuple(row[p] for p in key)].append(row)
        index = dict(index)
        self._indexes[key] = index
        return index

    def max_frequency(self, positions: Sequence[int]) -> int:
        """``mf(x, R)``: the largest number of tuples agreeing on ``positions``.

        With ``positions`` empty this is simply ``|R|`` (every tuple agrees on
        the empty attribute set); on an empty relation it is ``0``.
        """
        if not self._rows:
            return 0
        key = tuple(positions)
        if not key:
            return len(self._rows)
        counts = Counter(tuple(row[p] for p in key) for row in self._rows)
        return max(counts.values())

    def frequency_histogram(self, positions: Sequence[int]) -> dict[tuple, int]:
        """The full histogram of value-combination frequencies at ``positions``."""
        key = tuple(positions)
        counts: Counter = Counter(tuple(row[p] for p in key) for row in self._rows)
        return dict(counts)

    def to_columns(self) -> tuple:
        """A columnar snapshot: one NumPy array per attribute.

        Columns whose values are all Python ints become ``int64`` arrays;
        anything else becomes an ``object`` array.  Row order is unspecified
        but consistent across the columns of one snapshot (and with
        :meth:`coded_columns`), and the snapshot is cached until the relation
        is mutated.
        """
        columns = self._columns
        if columns is not None:
            return columns
        with self._lock:
            if self._columns is None:
                rows = self._column_rows
                if rows is None:
                    rows = list(self._rows)
                self._columns = tuple(
                    value_column([row[position] for row in rows])
                    for position in range(self.arity)
                )
                self._column_rows = rows
            return self._columns

    @property
    def coded_by(self):
        """The dictionary the cached coded columns belong to (``None`` if none)."""
        codes = self._codes
        return None if codes is None else codes[0]

    def coded_columns(self, dictionary) -> tuple:
        """The snapshot's columns as ``int64`` codes of ``dictionary``.

        Aligned row for row with :meth:`to_columns`.  Coded on first use and
        kept beside the snapshot until the relation is re-coded against
        another dictionary or a single-tuple mutation drops the snapshot;
        the delta mutators maintain them in place.
        """
        return self.coded_snapshot(dictionary)[1]

    def coded_snapshot(self, dictionary) -> tuple[int, tuple]:
        """``(epoch, coded columns)``: :meth:`coded_columns` together with
        the epoch whose rows they hold.

        Read as one pair even while a mutation is under way, which a plain
        read of :attr:`epoch` next to the codes is not: a delta mutator
        publishes its new codes before it advances the epoch.
        """
        codes = self._codes
        if codes is None or codes[0] is not dictionary:
            with self._lock:
                codes = self._codes
                if codes is None or codes[0] is not dictionary:
                    coded = tuple(dictionary.encode(column) for column in self.to_columns())
                    codes = self._codes = (dictionary, coded, self._version)
        return codes[2], codes[1]

    def active_domain(self, position: int | None = None) -> set:
        """Values appearing in the instance (at ``position``, or anywhere)."""
        if position is None:
            return {value for row in self._rows for value in row}
        if position < 0 or position >= self.arity:
            raise SchemaError(f"position {position} out of range for {self.name!r}")
        return {row[position] for row in self._rows}

    # ------------------------------------------------------------------ #
    # Relational-algebra helpers
    # ------------------------------------------------------------------ #
    def project(self, positions: Sequence[int]) -> set[tuple]:
        """Distinct projections of every tuple onto ``positions``."""
        key = tuple(positions)
        return {tuple(row[p] for p in key) for row in self._rows}

    def select(self, predicate: Callable[[tuple], bool]) -> list[tuple]:
        """Tuples satisfying ``predicate`` (a Python callable on raw tuples)."""
        return [row for row in self._rows if predicate(row)]

    def matching(self, positions: Sequence[int], values: tuple) -> list[tuple]:
        """Tuples whose projection on ``positions`` equals ``values`` (index-backed)."""
        return list(self.index_on(positions).get(tuple(values), ()))
