"""Database instances and the tuple-DP neighborhood structure.

A :class:`Database` holds one :class:`~repro.data.relation.Relation` instance
per relation of a :class:`~repro.data.schema.DatabaseSchema`.  Besides being
a container it implements the notions the paper's DP policy needs:

* ``distance`` — the tuple-edit distance ``d(I, I')`` summed over *private*
  physical relations (public relations must be identical);
* ``neighbors`` — enumeration of all instances at distance exactly one over a
  finite domain, used by the brute-force local/smooth sensitivity reference
  implementations in :mod:`repro.sensitivity.local` and
  :mod:`repro.sensitivity.smooth`;
* ``size`` — the total number of tuples ``N = |I|`` (over private relations),
  which relaxed DP treats as public.

It also owns the instance's :class:`ValueDictionary`, the one code space in
which the columnar engine (:mod:`repro.engine.columnar`) joins, groups and
compares every relation's values.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.exceptions import SchemaError

__all__ = ["Database", "ValueDictionary"]

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


class ValueDictionary:
    """An append-only map from values to dense ``int64`` codes.

    Every relation of a :class:`Database` is coded against the database's
    one dictionary (:attr:`Database.dictionary`), so equal values carry equal
    codes in every column: the columnar engine joins, groups and tests
    inequalities on codes and decodes only what it must compare by order or
    return.  Codes follow Python equality — ``1``, ``1.0`` and ``True`` share
    one code, whose representative value is the first of them coded.

    The dictionary is seeded with the values of the database's ``int64``
    columns in ascending order, so until a delta brings in a new value the
    code order of those values is their value order (group order, witnesses
    and tie-breaks follow it).  Any other value gets the next free code when
    it is first coded.  Appends happen under a lock and never change an
    issued code, so a reader holding codes from an older snapshot can always
    decode them.
    """

    def __init__(self, columns: Iterable[np.ndarray] = ()):
        self._lock = threading.Lock()
        int_columns = [column for column in columns if column.dtype != object]
        ints = np.unique(np.concatenate(int_columns)) if int_columns else np.empty(0, np.int64)
        self._values: list = ints.tolist()
        self._index: dict = {value: code for code, value in enumerate(self._values)}
        # Sorted int64 keys with their codes: the vectorised path of encode().
        self._ints = (ints, np.arange(len(ints), dtype=np.int64))
        # Decode tables, extended to new codes on the next decode(): each
        # code's value as int64 (0 where it is no int that fits), which codes
        # those are, and whether all are; the object table is built on the
        # first decode that needs it.
        self._int_table = (ints, np.ones(len(ints), dtype=bool), True)
        self._object_table: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._values)

    def lookup(self, value: object) -> int | None:
        """The code of ``value``, or ``None`` if no coded value equals it."""
        try:
            return self._index.get(value)
        except TypeError:  # unhashable: no relation can hold it
            return None

    def encode(self, column: np.ndarray) -> np.ndarray:
        """The ``int64`` codes of a value column, coding unseen values first."""
        if column.dtype == object:
            return self._encode_objects(column.tolist())
        keys, codes = self._ints
        if not len(column):
            return np.empty(0, dtype=np.int64)
        if len(keys):
            position = np.minimum(np.searchsorted(keys, column), len(keys) - 1)
            found = keys[position] == column
            if found.all():
                return codes[position]
            column_missing = column[~found]
        else:
            column_missing = column
        self._add_ints(np.unique(column_missing))
        return self.encode(column)

    def _add_ints(self, new: np.ndarray) -> None:
        with self._lock:
            keys, codes = self._ints
            new = new[~np.isin(new, keys)]
            if not len(new):
                return
            new_codes = np.array([self._code(v) for v in new.tolist()], dtype=np.int64)
            keys = np.concatenate([keys, new])
            order = np.argsort(keys, kind="stable")
            self._ints = (keys[order], np.concatenate([codes, new_codes])[order])

    def _encode_objects(self, values: list) -> np.ndarray:
        index = self._index
        codes = [index.get(v, -1) for v in values]
        if -1 in codes:
            with self._lock:
                codes = [self._code(v) for v in values]
        return np.array(codes, dtype=np.int64)

    def _code(self, value: object) -> int:
        """The code of ``value``, appending it if new (caller holds the lock)."""
        code = self._index.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            self._index[value] = code
        return code

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The values of ``codes``: ``int64`` when every value they code is
        an ``int`` that fits, ``object`` otherwise."""
        ints, fits, all_fit = self._int_table
        if len(ints) < len(self._values):
            ints, fits, all_fit = self._extend_int_table()
        if all_fit or fits[codes].all():
            return ints[codes]
        objects = self._object_table
        if objects is None or len(objects) < len(self._values):
            objects = self._extend_object_table()
        return objects[codes]

    def _extend_int_table(self) -> tuple[np.ndarray, np.ndarray, bool]:
        with self._lock:
            ints, fits, all_fit = self._int_table
            tail = self._values[len(ints) :]
            tail_fits = [type(v) is int and _INT64_MIN <= v <= _INT64_MAX for v in tail]
            self._int_table = (
                np.concatenate(
                    [ints, np.array([v if ok else 0 for v, ok in zip(tail, tail_fits)], np.int64)]
                ),
                np.concatenate([fits, np.array(tail_fits, dtype=bool)]),
                all_fit and all(tail_fits),
            )
            return self._int_table

    def _extend_object_table(self) -> np.ndarray:
        with self._lock:
            objects = self._object_table
            start = 0 if objects is None else len(objects)
            tail = np.empty(len(self._values) - start, dtype=object)
            tail[:] = self._values[start:]
            self._object_table = tail if objects is None else np.concatenate([objects, tail])
            return self._object_table


class Database:
    """A database instance over a fixed :class:`DatabaseSchema`."""

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, Iterable[tuple]] | None = None,
    ):
        self._schema = schema
        self._relations: dict[str, Relation] = {
            rel_schema.name: Relation(rel_schema) for rel_schema in schema
        }
        self._dictionary: ValueDictionary | None = None
        self._dictionary_lock = threading.Lock()
        if relations is not None:
            for name, rows in relations.items():
                self._relations[name] = Relation(self.relation(name).schema, rows)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> DatabaseSchema:
        """The database schema."""
        return self._schema

    def relation(self, name: str) -> Relation:
        """The instance of relation ``name`` (raises if unknown)."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if set(self._relations) != set(other._relations):
            return False
        return all(self._relations[n] == other._relations[n] for n in self._relations)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in self._relations.items())
        return f"Database({parts})"

    # ------------------------------------------------------------------ #
    # Sizes and distances
    # ------------------------------------------------------------------ #
    def size(self, private_only: bool = True) -> int:
        """Total number of tuples ``N`` (by default over private relations only)."""
        names: Iterable[str]
        if private_only:
            names = self._schema.private_relations
        else:
            names = self._relations
        return sum(len(self._relations[name]) for name in names)

    def distance(self, other: "Database") -> int:
        """Tuple-DP distance ``d(I, I')``.

        The distance is the sum over private physical relations of the
        per-relation tuple-edit distance.  If the two instances differ on a
        public relation the distance is infinite (they are not comparable
        under the DP policy), signalled by raising :class:`SchemaError`.
        """
        if set(self._relations) != set(other._relations):
            raise SchemaError("cannot compare databases over different schemas")
        total = 0
        for name, rel in self._relations.items():
            other_rel = other._relations[name]
            if self._schema.is_private(name):
                total += rel.distance(other_rel)
            elif rel != other_rel:
                raise SchemaError(
                    f"public relation {name!r} differs between the two instances"
                )
        return total

    # ------------------------------------------------------------------ #
    # Copying / editing
    # ------------------------------------------------------------------ #
    def copy(self) -> "Database":
        """A deep copy (relation instances are copied, schema is shared)."""
        clone = Database(self._schema)
        for name, rel in self._relations.items():
            clone._relations[name] = rel.copy()
        return clone

    def epochs(self) -> dict[str, int]:
        """Per-relation mutation epochs ``{name: epoch}``.

        Every effective mutation of a relation advances its epoch, so the
        vector (or any sub-vector restricted to the relations a computation
        actually reads) is a sound cache key: two equal epoch vectors imply
        the underlying tuples are unchanged.  See ``docs/mutation.md``.
        """
        return {name: rel.epoch for name, rel in self._relations.items()}

    @property
    def dictionary(self) -> ValueDictionary:
        """The instance's value dictionary, built on first use.

        It is seeded from every relation's value columns
        (:meth:`Relation.to_columns`, built for the purpose and not kept),
        so building it costs the first elimination, not registration.
        Relations code their rows against it lazily
        (:meth:`Relation.coded_columns`).
        """
        dictionary = self._dictionary
        if dictionary is None:
            with self._dictionary_lock:
                if self._dictionary is None:
                    self._dictionary = ValueDictionary(
                        column
                        for relation in self._relations.values()
                        for column in relation.to_columns()
                    )
                dictionary = self._dictionary
        return dictionary

    def release_caches(self) -> None:
        """Drop the dictionary and every relation's coded columns and
        symmetry flag.

        Called by the serving-layer registry when this instance's
        registration is replaced or removed, so snapshots tied to a stale
        database version free their memory instead of lingering until GC.
        """
        self._dictionary = None
        for rel in self._relations.values():
            rel.release_caches()

    def with_tuple_added(self, relation: str, row: tuple) -> "Database":
        """A copy of this instance with ``row`` inserted into ``relation``."""
        clone = self.copy()
        clone.relation(relation).add(row)
        return clone

    def with_tuple_removed(self, relation: str, row: tuple) -> "Database":
        """A copy of this instance with ``row`` deleted from ``relation``."""
        clone = self.copy()
        clone.relation(relation).remove(row)
        return clone

    def with_tuple_replaced(self, relation: str, old_row: tuple, new_row: tuple) -> "Database":
        """A copy of this instance with ``old_row`` substituted by ``new_row``."""
        clone = self.copy()
        clone.relation(relation).replace(old_row, new_row)
        return clone

    # ------------------------------------------------------------------ #
    # Neighborhood enumeration (brute-force support)
    # ------------------------------------------------------------------ #
    def candidate_tuples(self, relation: str) -> list[tuple]:
        """All tuples the finite domains of ``relation`` allow.

        Used by brute-force sensitivity computations, which must consider
        every possible insertion.  Raises :class:`SchemaError` if any
        attribute domain of the relation is infinite.
        """
        rel_schema: RelationSchema = self._schema.relation(relation)
        value_lists = []
        for attr in rel_schema.attributes:
            if not attr.domain.is_finite:
                raise SchemaError(
                    f"attribute {relation}.{attr.name} has an infinite domain; "
                    "candidate_tuples requires finite domains"
                )
            value_lists.append(list(attr.domain))
        return [tuple(combo) for combo in itertools.product(*value_lists)]

    def neighbors(
        self,
        allow_insert: bool = True,
        allow_delete: bool = True,
        allow_substitute: bool = True,
    ) -> Iterator["Database"]:
        """Yield every instance at tuple-DP distance exactly one.

        Only private relations are edited.  Insertions and substitutions
        require finite attribute domains (see :meth:`candidate_tuples`);
        deletion-only enumeration works for any domain.  The iterator may
        yield instances that coincide (e.g. substituting a tuple by itself is
        skipped, but different edit paths can reach equal instances); callers
        that need distinct neighbors should deduplicate.
        """
        for name in self._schema.private_relations:
            rel = self._relations[name]
            existing = list(rel)
            if allow_delete:
                for row in existing:
                    yield self.with_tuple_removed(name, row)
            if allow_insert or allow_substitute:
                candidates = self.candidate_tuples(name)
                if allow_insert:
                    for candidate in candidates:
                        if candidate not in rel:
                            yield self.with_tuple_added(name, candidate)
                if allow_substitute:
                    for row in existing:
                        for candidate in candidates:
                            if candidate != row and candidate not in rel:
                                yield self.with_tuple_replaced(name, row, candidate)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        schema: DatabaseSchema,
        **relations: Sequence[tuple],
    ) -> "Database":
        """Build an instance with keyword arguments naming relations.

        Example
        -------
        >>> schema = DatabaseSchema.from_arities({"R": 2, "S": 1})
        >>> db = Database.from_rows(schema, R=[(1, 2), (2, 3)], S=[(2,)])
        """
        return cls(schema, relations={name: rows for name, rows in relations.items()})
