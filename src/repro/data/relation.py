"""Set-semantics relation instances.

A :class:`Relation` stores a set of tuples conforming to a
:class:`~repro.data.schema.RelationSchema`.  On top of plain storage it
offers the small amount of query-processing machinery the rest of the library
needs directly:

* hash indexes on attribute subsets (built lazily, invalidated on mutation),
* maximum frequencies ``mf(x, R)`` over attribute subsets, which are the
  building block of elastic sensitivity (Section 4.4),
* a columnar snapshot (:meth:`Relation.to_columns`) consumed by the
  columnar elimination engine,
* a generic per-column *factorization* slot
  (:meth:`Relation.cached_factorization` / :meth:`Relation.store_factorization`)
  in which the columnar engine memoizes the dense-code encodings of base
  columns (``np.unique`` is the single hottest primitive of vectorized bucket
  elimination; caching it here shares the work across every residual subset,
  query and service request against the same instance), and
* projection / selection helpers used by tests and data loading.

Every mutation advances the relation's **epoch** (:attr:`Relation.epoch`),
the per-relation invalidation counter the serving layer embeds into its
cache keys (see :mod:`repro.service.service`): cached values derived from
this instance's contents are keyed by the epoch at which they were
computed, so a mutation invalidates exactly the entries that read this
relation.  Single-tuple mutators (:meth:`add` / :meth:`remove` /
:meth:`clear`) drop the derived caches wholesale; the bulk delta mutators
(:meth:`Relation.add_rows` / :meth:`Relation.remove_rows`) instead update
the columnar snapshot and any cached column factorizations *in place*
(appending or compacting codes for the touched columns only), so a small
edit against a large hot instance keeps its expensively-built columnar
state warm.  :meth:`Relation.release_caches` still drops everything
eagerly (the serving-layer registry calls it when a database version is
replaced, so superseded snapshots free their memory immediately).

Set semantics matches the paper: duplicate insertions are no-ops and the
tuple-DP distance between two instances is the number of insertions,
deletions, and substitutions needed to transform one into the other.
"""

from __future__ import annotations

from collections import Counter, defaultdict
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
        self._columns: tuple | None = None
        # Row order of the cached columnar snapshot; the delta mutators need
        # it to append/compact columns (and factorization codes) in place.
        self._column_rows: list[tuple] | None = None
        self._factorizations: dict[int, object] = {}
        self._version = 0
        if rows is not None:
            for row in rows:
                self.add(row)

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
        if validated in self._rows:
            return False
        self._rows.add(validated)
        self._bump()
        return True

    def remove(self, row: Sequence) -> bool:
        """Delete ``row`` if present; return ``True`` if it was present."""
        key = tuple(row)
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
        if old_key not in self._rows:
            raise SchemaError(f"cannot replace missing tuple {old_key!r} in {self.name!r}")
        new_key = self._schema.validate_tuple(tuple(new_row))
        if new_key == old_key:
            return
        self.remove_rows((old_key,))
        self.add_rows((new_key,))

    def add_rows(self, rows: Iterable[Sequence]) -> int:
        """Bulk-insert ``rows`` via the delta path; return how many were new.

        All rows are validated first (a :class:`SchemaError` applies
        nothing).  Unlike :meth:`add`, an existing columnar snapshot and its
        cached column factorizations are *extended in place* — new values
        are appended to the touched columns and coded against the existing
        value dictionaries — instead of being discarded.  The epoch advances
        once for the whole batch (not at all if every row was present).
        """
        validated: list[tuple] = []
        seen: set[tuple] = set()
        for row in rows:
            candidate = self._schema.validate_tuple(tuple(row))
            if candidate in self._rows or candidate in seen:
                continue
            seen.add(candidate)
            validated.append(candidate)
        if not validated:
            return 0
        if self._columns is not None and self._column_rows is not None:
            self._extend_snapshot(validated)
        else:
            self._drop_snapshot()
        self._rows.update(validated)
        self._indexes.clear()
        self._version += 1
        return len(validated)

    def remove_rows(self, rows: Iterable[Sequence]) -> int:
        """Bulk-delete ``rows`` via the delta path; return how many existed.

        An existing columnar snapshot (and every cached column
        factorization) is *compacted in place* with one keep-mask instead of
        being discarded, so untouched columns keep their dense codes.  The
        epoch advances once for the whole batch (not at all if no row was
        present).
        """
        keys = {key for key in (tuple(row) for row in rows) if key in self._rows}
        if not keys:
            return 0
        if self._columns is not None and self._column_rows is not None:
            import numpy as np

            mask = np.fromiter(
                (row not in keys for row in self._column_rows),
                dtype=bool,
                count=len(self._column_rows),
            )
            # New array objects throughout: a reader holding the previous
            # snapshot tuple keeps seeing a consistent (pre-edit) view.
            self._columns = tuple(column[mask] for column in self._columns)
            self._factorizations = {
                position: cached.take(mask)
                for position, cached in self._factorizations.items()
                if hasattr(cached, "take")
            }
            self._column_rows = [row for row in self._column_rows if row not in keys]
        else:
            self._drop_snapshot()
        self._rows.difference_update(keys)
        self._indexes.clear()
        self._version += 1
        return len(keys)

    def clear(self) -> None:
        """Remove all tuples."""
        self._rows.clear()
        self._bump()

    def _bump(self) -> None:
        self._version += 1
        self._indexes.clear()
        self._drop_snapshot()

    def _drop_snapshot(self) -> None:
        # The factorization codes are positionally aligned with the columnar
        # snapshot's row order, so the two must always be dropped together:
        # a rebuilt snapshot enumerates the row set in a fresh order.
        self._columns = None
        self._column_rows = None
        self._factorizations.clear()

    def _extend_snapshot(self, new_rows: list[tuple]) -> None:
        """Append ``new_rows`` to the cached columnar snapshot in place.

        Falls back to dropping the snapshot (and the factorizations aligned
        with it) when a new value cannot join an existing column dtype —
        correctness never depends on the fast path.
        """
        import numpy as np

        try:
            columns = []
            for position, column in enumerate(self._columns):
                values = [row[position] for row in new_rows]
                if column.dtype == object:
                    tail = np.empty(len(values), dtype=object)
                    tail[:] = values
                else:
                    if not all(type(v) is int for v in values):
                        raise TypeError("non-int value for an integer column")
                    tail = np.array(values, dtype=column.dtype)
                columns.append(np.concatenate([column, tail]))
        except (OverflowError, TypeError, ValueError):
            self._drop_snapshot()
            return
        factorizations = {}
        for position, cached in self._factorizations.items():
            extended = self._extend_factorization(
                cached, [row[position] for row in new_rows]
            )
            if extended is not None:
                factorizations[position] = extended
        self._columns = tuple(columns)
        self._factorizations = factorizations
        self._column_rows = self._column_rows + new_rows

    @staticmethod
    def _extend_factorization(cached: object, new_values: list) -> object | None:
        """Append codes for ``new_values`` to a cached column factorization.

        The stored object is opaque here but duck-typed against the columnar
        engine's ``ColumnCodes`` contract: ``codes`` index positionally into
        ``values``, and ``sorted_values`` certifies ascending value order.
        Unseen values get fresh codes appended to the dictionary; if the
        append breaks the sort order the flag is conservatively cleared.
        Returns ``None`` (drop the entry) when the object does not match or
        a value cannot join the dictionary dtype.
        """
        import numpy as np

        codes = getattr(cached, "codes", None)
        values = getattr(cached, "values", None)
        sorted_values = getattr(cached, "sorted_values", None)
        if codes is None or values is None or sorted_values is None:
            return None
        try:
            mapping = {value: code for code, value in enumerate(values.tolist())}
            appended: list = []
            new_codes: list[int] = []
            for value in new_values:
                code = mapping.get(value)
                if code is None:
                    code = len(mapping)
                    mapping[value] = code
                    appended.append(value)
                new_codes.append(code)
            sorted_flag = bool(sorted_values)
            if appended:
                if values.dtype == object:
                    tail = np.empty(len(appended), dtype=object)
                    tail[:] = appended
                else:
                    tail = np.array(appended, dtype=values.dtype)
                if sorted_flag:
                    ascending = all(
                        appended[i] < appended[i + 1] for i in range(len(appended) - 1)
                    )
                    sorted_flag = ascending and (
                        len(values) == 0 or appended[0] > values[-1]
                    )
                values = np.concatenate([values, tail])
            codes = np.concatenate([codes, np.asarray(new_codes, dtype=codes.dtype)])
            return type(cached)(codes, values, sorted_flag)
        except (OverflowError, TypeError, ValueError):
            return None

    def release_caches(self) -> None:
        """Drop every derived cache (indexes, columnar snapshot, factorizations).

        Semantically a no-op — everything recomputes on demand — but frees
        the memory of superseded snapshots immediately.  The serving-layer
        registry calls this when a registration is replaced or removed, so
        cache state tied to an old database version cannot linger.
        """
        self._indexes.clear()
        self._drop_snapshot()

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

        Columns whose values are all Python ints become ``int64`` arrays (the
        fast path of the columnar engine); anything else becomes an
        ``object`` array.  Row order is unspecified but consistent across the
        columns of one snapshot, and the snapshot is cached until the relation
        is mutated.
        """
        if self._columns is not None:
            return self._columns
        rows = list(self._rows)
        self._columns = tuple(
            value_column([row[position] for row in rows]) for position in range(self.arity)
        )
        self._column_rows = rows
        return self._columns

    def cached_factorization(self, position: int) -> object | None:
        """The memoized factorization of column ``position``, or ``None``.

        The stored object is opaque to this class (the columnar engine keeps
        its :class:`~repro.engine.columnar.ColumnCodes` here); it is dropped
        whenever the relation mutates, exactly like the columnar snapshot.
        """
        return self._factorizations.get(position)

    def store_factorization(self, position: int, factorization: object) -> None:
        """Memoize the factorization of column ``position`` until mutation."""
        if position < 0 or position >= self.arity:
            raise SchemaError(f"position {position} out of range for {self.name!r}")
        self._factorizations[position] = factorization

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
