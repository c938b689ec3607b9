"""Set-semantics relation instances.

A :class:`Relation` stores a set of tuples conforming to a
:class:`~repro.data.schema.RelationSchema`, together with

* one *coded snapshot* (:meth:`Relation.coded_snapshot`): the rows as
  ``int64`` codes of the owning database's
  :class:`~repro.data.database.ValueDictionary`, in one row order and
  labelled with the epoch whose rows they hold — the only form in which the
  columnar elimination engine reads a relation; coded once, they serve
  every residual subset, query and service request against the same
  instance,
* one change log (:meth:`Relation.changes_since`), and
* for a binary relation, whether its rows are closed under swapping the
  two columns (:attr:`Relation.symmetry`, recorded per epoch).

Value columns (:meth:`Relation.to_columns`, one array per attribute) are
built on demand and not kept.  :meth:`Relation.max_frequency` gives the
maximum frequencies ``mf(x, R)`` that elastic sensitivity is built from
(Section 4.4).

Every edit goes through one mutation path, :meth:`Relation.add_rows` /
:meth:`Relation.remove_rows` (:meth:`add`, :meth:`remove`, :meth:`replace`
and :meth:`clear` call them).  Each effective call advances the relation's
**epoch** (:attr:`Relation.epoch`) once: the per-relation invalidation
counter the serving layer embeds into its cache keys (see
:mod:`repro.service.service`), so a mutation invalidates exactly the
entries that read this relation.  The call updates the coded snapshot *in
place* — appending the new rows (new values are coded against the shared
dictionary) or compacting with one keep-mask — so an edit against a large
hot instance keeps its codes warm and never re-codes another relation.
:meth:`Relation.release_caches` drops the codes eagerly (the serving-layer
registry calls it when a database version is replaced, so superseded
snapshots free their memory immediately).

Each call is also logged: the **change log** holds the rows each call
inserted or deleted, by epoch, and at most as many rows as the relation.
:meth:`Relation.changes_since` folds it into the net rows inserted and
deleted since an earlier epoch, which is what a cache of counts over this
relation needs to catch up by a delta query instead of a recomputation
(see :mod:`repro.engine.profile`).  Rows given to the constructor load as
one unlogged epoch (1, or 0 when there are none), so fresh data has no
change to catch up from.

Each mutation runs under the relation's lock and is atomic for a reader of
:meth:`Relation.coded_snapshot`, which returns the coded columns together
with the epoch they hold: a mutation publishes its new coded columns
already labelled with the epoch it advances to, then updates the row set,
then advances the epoch, and a snapshot coded from the rows is coded under
the lock.  A cache that stores counts derived from the codes can therefore
tell exactly which epoch they belong to, even while a writer is half way
through an edit.

Set semantics matches the paper: duplicate insertions are no-ops and the
tuple-DP distance between two instances is the number of insertions,
deletions, and substitutions needed to transform one into the other.
"""

from __future__ import annotations

import bisect
import threading
from collections import Counter, deque
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.schema import RelationSchema
from repro.exceptions import SchemaError

__all__ = ["Relation", "value_column"]


def value_column(values: list):
    """``values`` as one NumPy column: ``int64`` when they are all Python ints
    that fit (the fast path of the columnar engine), ``object`` otherwise."""
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
        self._rows: set[tuple] = {
            schema.validate_tuple(tuple(row)) for row in (() if rows is None else rows)
        }
        # ``(dictionary, row order, coded columns, epoch)``: the codes are
        # only meaningful in the code space of the dictionary they were made
        # with, and hold the rows of that epoch in that order.
        self._codes: tuple | None = None
        # ``(epoch, flag)``: whether the rows were closed under swapping the
        # two columns at that epoch (see :attr:`symmetry`).
        self._symmetry: tuple[int, bool] | None = None
        # The constructor's rows are one unlogged epoch.
        self._version = 1 if self._rows else 0
        # ``(epoch after, +1 insert / -1 delete, rows)`` per mutation, oldest
        # first; ``_log_rows`` rows in all.
        self._log: deque[tuple[int, int, tuple[tuple, ...]]] = deque()
        self._log_rows = 0
        # Held by every mutation and by every coding of the rows, so neither
        # sees the other half done.
        self._lock = threading.RLock()

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
        return self.add_rows((row,)) == 1

    def remove(self, row: Sequence) -> bool:
        """Delete ``row`` if present; return ``True`` if it was present."""
        return self.remove_rows((row,)) == 1

    def clear(self) -> None:
        """Remove all tuples."""
        with self._lock:
            self.remove_rows(tuple(self._rows))

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
        """Insert ``rows``; return how many were new.

        All rows are validated first (a :class:`SchemaError` applies
        nothing).  Coded columns are *extended in place*: the new rows are
        appended, their unseen values coded against the shared dictionary.
        The epoch advances once for the whole call (not at all if every row
        was present).
        """
        candidates = [self._schema.validate_tuple(tuple(row)) for row in rows]
        with self._lock:
            new = [row for row in dict.fromkeys(candidates) if row not in self._rows]
            if not new:
                return 0
            epoch = self._version + 1
            if self._codes is not None:
                dictionary, order, coded, _ = self._codes
                self._codes = (
                    dictionary,
                    order + new,
                    tuple(
                        np.concatenate([column, dictionary.encode(tail)])
                        for column, tail in zip(coded, self._value_columns(new))
                    ),
                    epoch,
                )
            self._rows.update(new)
            self._version = epoch
            self._log_change(1, new)
            return len(new)

    def remove_rows(self, rows: Iterable[Sequence]) -> int:
        """Delete ``rows``; return how many existed.

        Coded columns are *compacted in place* with one keep-mask.  The
        epoch advances once for the whole call (not at all if no row was
        present).
        """
        requested = [tuple(row) for row in rows]
        with self._lock:
            gone = {key for key in requested if key in self._rows}
            if not gone:
                return 0
            epoch = self._version + 1
            if self._codes is not None:
                dictionary, order, coded, _ = self._codes
                keep = np.fromiter(
                    (row not in gone for row in order), dtype=bool, count=len(order)
                )
                # New arrays throughout: a reader holding the previous
                # snapshot keeps seeing a consistent (pre-edit) view.
                self._codes = (
                    dictionary,
                    list(compress(order, keep)),
                    tuple(column[keep] for column in coded),
                    epoch,
                )
            self._rows.difference_update(gone)
            self._version = epoch
            self._log_change(-1, gone)
            return len(gone)

    def _log_change(self, sign: int, rows) -> None:
        """Log one mutation's rows, then drop the oldest mutations until the
        log holds at most as many rows as the relation."""
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
        in ``(epoch, until]``: rows trimmed off by the size limit, the
        constructor's unlogged epoch, or an epoch this relation never had.
        """
        with self._lock:
            current = self._version
            log = tuple(self._log)
        version = current if until is None else until
        if not epoch <= version <= current:
            return None
        # One mutation per epoch, oldest first, so the log covers the range
        # exactly when it holds each of its epochs.
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

    def release_caches(self) -> None:
        """Drop the coded columns and the symmetry flag.

        Semantically a no-op — both recompute on demand — but frees the
        memory of superseded snapshots immediately.  The serving-layer
        registry calls this when a registration is replaced or removed, so
        cache state tied to an old database version cannot linger.
        """
        with self._lock:
            self._codes = None
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
        return Relation(self._schema, self._rows)

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
    # Statistics and columns
    # ------------------------------------------------------------------ #
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

    def _value_columns(self, rows: Sequence[tuple]) -> tuple:
        return tuple(
            value_column([row[position] for row in rows]) for position in range(self.arity)
        )

    def to_columns(self) -> tuple:
        """The rows as one NumPy array per attribute, built on each call.

        Columns whose values are all Python ints become ``int64`` arrays;
        anything else becomes an ``object`` array.  Once the relation is
        coded the rows follow the coded row order (row ``i`` of every array
        is row ``i`` of :meth:`coded_columns`); before, their order is
        unspecified but the same in every column.
        """
        with self._lock:
            codes = self._codes
            rows = list(self._rows) if codes is None else codes[1]
        return self._value_columns(rows)

    @property
    def coded_by(self):
        """The dictionary the coded columns belong to (``None`` if none)."""
        codes = self._codes
        return None if codes is None else codes[0]

    def coded_columns(self, dictionary) -> tuple:
        """The rows as one ``int64`` column of ``dictionary`` codes per
        attribute.

        Coded from the rows on first use and kept until the relation is
        re-coded against another dictionary or :meth:`release_caches` drops
        them; every mutation maintains them in place.
        """
        return self.coded_snapshot(dictionary)[1]

    def coded_snapshot(self, dictionary) -> tuple[int, tuple]:
        """``(epoch, coded columns)``: :meth:`coded_columns` together with
        the epoch whose rows they hold.

        Read as one pair even while a mutation is under way, which a plain
        read of :attr:`epoch` next to the codes is not: a mutation publishes
        its new codes before it advances the epoch.
        """
        codes = self._codes
        if codes is None or codes[0] is not dictionary:
            with self._lock:
                codes = self._codes
                if codes is None or codes[0] is not dictionary:
                    order = list(self._rows)
                    coded = tuple(
                        dictionary.encode(column) for column in self._value_columns(order)
                    )
                    codes = self._codes = (dictionary, order, coded, self._version)
        return codes[3], codes[2]
