"""Vectorized columnar bucket elimination — the library's elimination engine.

The boundary multiplicities ``T_E(I)`` behind residual sensitivity are
AJAR/FAQ-style aggregate queries: a COUNT grouped by the boundary variables
followed by a MAX over the groups.  This module computes the COUNT group-by
part with classic *bucket elimination* over count-annotated factors, which
runs in time polynomial in the instance for bounded elimination width — the
polynomial-time claim of Theorem 1.1.

Relations are read as **dictionary codes**: every
:class:`~repro.data.database.Database` owns one append-only
:class:`~repro.data.database.ValueDictionary` mapping each value to a dense
``int64`` code, and each relation keeps its columns coded against it
(:meth:`~repro.data.relation.Relation.coded_columns`), beside its columnar
snapshot.  Intermediate results are :class:`ArrayFactor` objects — count
annotations over code columns — and the engine never touches a value until
it must order or return one, in the manner of column stores that execute
directly on compressed data (Abadi, Madden & Ferreira, SIGMOD 2006):

* **equi-join** — the shared code columns of both sides are packed into one
  key per row (both sides share the code space, so nothing is re-mapped);
  a dense key space finds each key's match range by counting
  (``bincount`` + ``cumsum``), a sparse one by ``argsort`` +
  ``searchsorted``, and the pairs are expanded with ``np.repeat``;
* **group-by aggregation** (summing variables out, and the boundary
  multiplicity profiles of residual sensitivity) — the group columns are
  packed into one key and summed with one sort and ``np.add.reduceat``;
* **predicate filtering** — inequalities compare codes; comparisons and
  generic predicates decode their columns through the dictionary (generic
  ones row by row, so exactness is preserved);
* **heavy-bucket aggregation** — two-factor buckets whose shared variables
  are all being summed out and whose join size exceeds
  :data:`MATMUL_THRESHOLD` take a sparse matrix product (the joined rows are
  never materialised).

Only the final group columns are decoded
(:attr:`EliminationResult.columns`).  Every factor's rows are distinct, so a
group-by that keeps every variable of its factor returns it unchanged; rows
therefore come in no promised order, and neither do the groups of a result.

A *restriction* (``restrict=``) counts only the groups whose values on some
of the group variables are one of a given set of rows: it is joined as a
count-1 filter factor into the first bucket whose variables cover it, in
every term of a Möbius expansion too, and it changes no surviving group's
count.  :mod:`repro.engine.aggregates` uses it to evaluate a residual only
on the groups that can still hold its maximum.

Inequalities ``x != y`` still pending after the atom factors, with an
endpoint outside the group variables, are expanded by Möbius inversion over
set partitions (:mod:`repro.engine.mobius`): the count is a signed sum of
counts of quotient queries, each with the inequalities dropped and a block
of variables merged into one.  When every pending predicate is expanded and
no delta is counted, each isomorphism class of quotients is counted once,
under its summed coefficient and with duplicate atoms collapsed
(:func:`repro.engine.mobius.quotient_classes`); a binary atom's two
arguments count as interchangeable when the rows it read are closed under
swapping them, a flag recorded on the relation per epoch.  An elimination
with no predicate pending sums out next the variable whose bucket joins the
fewest variables, then the fewest rows (:func:`_smallest_bucket`).  The leaf
pairs of a k-star and the non-adjacent pairs of a path are exact this way at
the cost of a few predicate-free eliminations, one per class: 3 for the
3-star, 8 for the path of four edges.

Every other predicate is part of the plan, in the spirit of FAQ with
additive inequalities (Abo Khamis et al., PODS 2019): it is applied on the
first factor (atom factor, bucket join, or the final join over the group
variables) that contains all of its variables, each predicate still pending
after the atom factors is a hyperedge of the elimination order, and when a
variable ``v`` is summed out its bucket also takes every factor sharing a
variable with a pending predicate on ``v`` — so the predicate is applied in
the joined bucket instead of being lost with ``v``.

That plan joins more rows per bucket, so each of its joins is checked
against :data:`BUCKET_ROW_CAP` before anything is materialised.  When one
would pass the cap (in the query or in a term of its expansion), the
unexpanded query reruns on that plan and then, if it passes the cap too,
on the predicate-blind plan: predicates that never become applicable there
are reported back as *dropped* and the counts are upper bounds: a boundary
multiplicity read off them is reported as one, and a count is refused
(:mod:`repro.engine.evaluation`).

Each read of a relation's coded columns is counted as a hit (already coded)
or a miss (coded now) on every active :func:`factorization_counter_scope`:
a *context-local* counter immune to concurrent unrelated work — the profile
evaluator (:mod:`repro.engine.profile`) computes its per-profile counters
through a scope, so two serving-layer services in one process never
cross-contaminate each other's ``/stats`` and ``/metrics``.

Counts are exact.  They are ``int64`` while they provably fit: before every
count multiply (a join) or sum (a group-by), a Python-int bound on the
result (``max · max`` or ``rows · max``) is checked, and a factor whose
counts could pass ``2**63 - 1`` carries them as Python ints (``object``
dtype) from then on.  Such factors never take the ``int64`` sparse-matmul
path.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import math
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.database import Database, ValueDictionary
from repro.data.relation import Relation, value_column
from repro.engine import mobius
from repro.engine.canonical import _predicate_key, _term_key
from repro.exceptions import EvaluationError
from repro.query.atoms import Constant, Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.predicates import (
    ComparisonPredicate,
    GenericPredicate,
    InequalityPredicate,
    Predicate,
)

__all__ = [
    "ArrayFactor",
    "BUCKET_ROW_CAP",
    "CountsEntry",
    "EliminationResult",
    "MATMUL_THRESHOLD",
    "eliminate_group_counts_columnar",
    "factorization_counter_scope",
    "fold_group_counts",
    "greedy_elimination_order",
    "keeps_counts",
    "maintained_counts",
    "order_factors_for_join",
    "predicate_mask",
    "refresh_group_counts",
    "relation_epochs",
    "relation_is_symmetric",
]

#: Re-densify a packed key once its key space exceeds this bound, keeping
#: every subsequent ``key * radix + code`` combination safely inside
#: ``int64``.
_RENORMALIZE_CARDINALITY = 2**31

#: Above this estimated number of joined rows, a two-factor bucket whose
#: shared variables are being summed out switches to the sparse-matrix
#: product (see :func:`_matmul_aggregate`).  Small instances (and therefore
#: the exactness-checking tests) stay on the join path.  On the heavy
#: residuals of the graph datasets the product is not only faster: it never
#: materialises the joined rows, so the predicate-aware plan stays under
#: :data:`BUCKET_ROW_CAP` and the value stays exact.  The rectangle's 3-path
#: residual on the AstroPh surrogate reads an exact 1683 this way, and an
#: upper bound of 1851, with ``x2 != x4`` dropped, through the join.
MATMUL_THRESHOLD = 200_000

#: The most rows one join of the predicate-aware plan may materialise.  A
#: join that would pass it makes the elimination rerun with the
#: predicate-blind plan, which drops the predicates it cannot apply (see
#: :func:`eliminate_group_counts_columnar`).  Inequalities with an endpoint
#: outside the group variables are expanded instead of joined, so only
#: comparisons, generic predicates and inequalities between group variables
#: reach it.
BUCKET_ROW_CAP = 1_000_000

#: The largest count an ``int64`` array holds; a count that could exceed it
#: is carried as a Python int instead (see :func:`_exact_counts`).
_INT64_MAX = int(np.iinfo(np.int64).max)

#: A packed key space of at most this many keys per row is *dense*: joins
#: find their match ranges by counting into it (``bincount``) instead of
#: searching.
_DENSE_KEYS_PER_ROW = 4


@dataclass
class EliminationResult:
    """Outcome of :func:`eliminate_group_counts_columnar`.

    The group counts stay columnar: row ``i`` is the group whose value of
    ``group_variables[j]`` is ``columns[j][i]``, with count
    ``count_array[i]``.  Every group occurs once, in no promised order, and
    every count is positive.  Counts are exact if ``dropped_predicates`` is
    empty, otherwise upper bounds obtained by ignoring the dropped
    predicates.

    Attributes
    ----------
    group_variables:
        The group variables, in the order of ``codes``.
    codes:
        One code column per group variable, in ``dictionary``'s code space.
    count_array:
        The per-group counts (``int64``, or ``object`` Python ints).
    dropped_predicates:
        Predicates that could not be applied during elimination.
    elimination_order:
        The internal variables in the order they were summed out.
    dictionary:
        The database's value dictionary (``None`` without atoms).
    epochs:
        The sorted ``(relation, epoch)`` pairs of the rows the atoms read
        (:meth:`~repro.data.relation.Relation.coded_snapshot`); a relation
        read at two epochs, by a self-join during a mutation, has two.
    """

    group_variables: tuple[Variable, ...]
    codes: tuple[np.ndarray, ...]
    count_array: np.ndarray
    dropped_predicates: tuple[Predicate, ...]
    elimination_order: tuple[Variable, ...]
    dictionary: ValueDictionary | None
    epochs: tuple[tuple[str, int], ...] = ()

    @property
    def is_exact(self) -> bool:
        """Whether every predicate was applied (counts are exact)."""
        return not self.dropped_predicates

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """One value array per group variable (decoded on first use)."""
        return tuple(self.dictionary.decode(codes) for codes in self.codes)

    @functools.cached_property
    def counts(self) -> dict[tuple, int]:
        """The counts as a mapping from group-value tuples (built on first use)."""
        values = [col.tolist() for col in self.columns]
        return {
            tuple(col[i] for col in values): count
            for i, count in enumerate(self.count_array.tolist())
        }

    def key(self, row: int) -> tuple:
        """The group-value tuple of one row, as Python values."""
        return tuple(
            self.dictionary.decode(codes[row : row + 1]).tolist()[0] for codes in self.codes
        )

    def group_codes(self, arity: int) -> np.ndarray:
        """Dense ``int64`` codes of the rows' values on the first ``arity``
        group variables (equal codes ⇔ equal values)."""
        return _renormalize(_pack(self.codes[:arity], len(self.count_array))[0])[0]

    def take(self, selector: np.ndarray) -> "EliminationResult":
        """The result keeping the groups chosen by an index array or mask."""
        return dataclasses.replace(
            self,
            codes=tuple(codes[selector] for codes in self.codes),
            count_array=self.count_array[selector],
        )


def order_factors_for_join(factors):
    """Order factors so each one shares variables with the joined prefix.

    Starts from the smallest factor and greedily prefers connected factors,
    falling back to a cross product only for genuinely disconnected ones.
    Works on any object exposing ``variables`` and ``__len__``.
    """
    ordered = []
    seen_vars: set[Variable] = set()
    candidates = sorted(factors, key=len)
    while candidates:
        best = None
        for factor in candidates:
            if best is None or (
                bool(set(factor.variables) & seen_vars)
                and not bool(set(best.variables) & seen_vars)
            ):
                best = factor
        candidates.remove(best)
        ordered.append(best)
        seen_vars |= set(best.variables)
    return ordered


def greedy_elimination_order(
    factor_variable_sets: Sequence[set[Variable]],
    internal_variables: Sequence[Variable],
) -> list[Variable]:
    """A min-width-style greedy elimination order over ``internal_variables``,
    fixed before any join.

    Repeatedly picks the variable whose bucket join touches the fewest
    variables (ties broken by variable name, so the order is deterministic).
    It plans every elimination that starts with a predicate pending; one
    with none picks each variable from the live factors instead, by their
    row counts too (:func:`_smallest_bucket`).
    """
    order: list[Variable] = []
    remaining = set(internal_variables)
    sim_factors = [set(fvars) for fvars in factor_variable_sets]
    while remaining:
        best_var = None
        best_width = None
        for var in remaining:
            touched: set[Variable] = set()
            for fvars in sim_factors:
                if var in fvars:
                    touched |= fvars
            width = len(touched)
            if best_width is None or (width, str(var.name)) < (best_width, str(best_var.name)):
                best_width = width
                best_var = var
        assert best_var is not None
        order.append(best_var)
        remaining.remove(best_var)
        merged: set[Variable] = set()
        kept = []
        for fvars in sim_factors:
            if best_var in fvars:
                merged |= fvars
            else:
                kept.append(fvars)
        merged.discard(best_var)
        kept.append(merged)
        sim_factors = kept
    return order


# --------------------------------------------------------------------- #
# Coded-column lookup counters
# --------------------------------------------------------------------- #
class _FactorizationCounters:
    """Thread-safe hit/miss counters of coded-column lookups.

    Instances are installed context-locally
    (:func:`factorization_counter_scope`) so one computation's counts can be
    read without racing unrelated work — two
    :class:`~repro.service.service.PrivateQueryService` instances evaluating
    profiles concurrently in one process each see only their own events.
    Scopes nest: a ``parent`` chain lets an outer scope keep counting while
    an inner one is active.
    """

    def __init__(self, parent: "_FactorizationCounters | None" = None) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.parent = parent

    def _record_one(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}


#: The innermost context-local counter scope (``None``: nothing counts).
_FACTORIZATION_SCOPE: "contextvars.ContextVar[_FactorizationCounters | None]" = (
    contextvars.ContextVar("repro_factorization_scope", default=None)
)


def _record_factorization(hit: bool) -> None:
    """Record one lookup on every active scope."""
    scope = _FACTORIZATION_SCOPE.get()
    while scope is not None:
        scope._record_one(hit)
        scope = scope.parent


@contextlib.contextmanager
def factorization_counter_scope() -> "Iterator[_FactorizationCounters]":
    """A context-local counter seeing only this context's lookups, one per
    relation read (a miss when the relation had to be coded; the coded
    columns live on each :class:`~repro.data.relation.Relation`).

    Nested scopes stack (both count).  The yielded object stays readable
    after the ``with`` block — its snapshot is the computation's exact count.
    """
    scope = _FactorizationCounters(parent=_FACTORIZATION_SCOPE.get())
    token = _FACTORIZATION_SCOPE.set(scope)
    try:
        yield scope
    finally:
        _FACTORIZATION_SCOPE.reset(token)


def _relation_codes(
    relation: Relation, dictionary: ValueDictionary
) -> tuple[int, tuple[np.ndarray, ...]]:
    """``(epoch, coded columns)`` of the relation in ``dictionary``'s code
    space (:meth:`~repro.data.relation.Relation.coded_snapshot`); counts one
    lookup per call (a miss when the relation had to be coded)."""
    hit = relation.coded_by is dictionary
    snapshot = relation.coded_snapshot(dictionary)
    _record_factorization(hit)
    return snapshot


def _swap_closed(relation: Relation, epoch: int, coded: tuple[np.ndarray, ...]) -> bool:
    """Whether the binary ``relation``'s rows at ``epoch``, coded as
    ``coded``, hold ``(b, a)`` for every row ``(a, b)``.

    The flag recorded for that epoch (:meth:`Relation.symmetry_at`) is
    used when there is one; otherwise the sorted packed code keys of both
    column orders are compared and the flag is recorded.
    """
    flag = relation.symmetry_at(epoch)
    if flag is None:
        first, second = coded
        # Codes are dense, so the squared radix stays far inside int64.
        radix = np.int64(max(_radix(first), _radix(second)))
        flag = bool(
            np.array_equal(np.sort(first * radix + second), np.sort(second * radix + first))
        )
        relation.record_symmetry(epoch, flag)
    return flag


def relation_is_symmetric(relation: Relation, dictionary: ValueDictionary) -> bool:
    """Whether the binary ``relation`` holds ``(b, a)`` for every row ``(a, b)``
    (:func:`_swap_closed`, on the rows of its current coded snapshot).

    Every call reads the codes through the counted lookup, recorded or not,
    so a relation coded here counts its one miss and every profile counts
    the same lookups.
    """
    epoch, coded = _relation_codes(relation, dictionary)
    return _swap_closed(relation, epoch, coded)


# --------------------------------------------------------------------- #
# Factors and keys
# --------------------------------------------------------------------- #
@dataclass
class ArrayFactor:
    """A count-annotated factor stored columnar.

    ``columns`` holds one ``int64`` code column (codes of the database's
    :class:`~repro.data.database.ValueDictionary`) per entry of
    ``variables`` (aligned, equal length); ``counts`` is the per-row
    multiplicity, ``int64`` or — once it could overflow — ``object``
    (Python ints).  A factor over zero variables is a scalar: ``columns`` is
    empty and ``counts`` has exactly one entry (or zero entries for the
    empty result).

    Rows are distinct, in no promised order.  Atom factors hold distinct
    relation rows, and every operation keeps them distinct: two rows of a
    join differ on the columns of one side or the other, a group-by emits
    one row per group, and a selection or a merge of equal columns keeps a
    subset.
    """

    variables: tuple[Variable, ...]
    columns: tuple[np.ndarray, ...]
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.shape[0])

    def column(self, var: Variable) -> np.ndarray:
        """The code column of ``var`` (raises ``ValueError`` if absent)."""
        return self.columns[self.variables.index(var)]

    def take(self, selector: np.ndarray) -> "ArrayFactor":
        """A new factor keeping the rows chosen by a boolean mask / index array."""
        return ArrayFactor(
            self.variables,
            tuple(col[selector] for col in self.columns),
            self.counts[selector],
        )


def _renormalize(key: np.ndarray) -> tuple[np.ndarray, int]:
    uniq, inverse = np.unique(key, return_inverse=True)
    return inverse.astype(np.int64, copy=False), max(int(len(uniq)), 1)


def _radix(column: np.ndarray) -> int:
    return int(column.max()) + 1 if len(column) else 1


def _pack(columns: Sequence[np.ndarray], length: int) -> tuple[np.ndarray, int]:
    """One ``int64`` key per row of the code ``columns``, and the key space.

    Codes are packed positionally (``key * radix + code``, the radix being
    the column's largest code plus one), so equal keys ⇔ equal rows and keys
    ascend lexicographically with the codes.  The key is re-densified
    whenever its space passes :data:`_RENORMALIZE_CARDINALITY`, which keeps
    every product inside ``int64``.  No columns means one all-zero key.
    """
    if not columns:
        return np.zeros(length, dtype=np.int64), 1
    key, cardinality = columns[0], _radix(columns[0])
    for column in columns[1:]:
        radix = _radix(column)
        key = key * np.int64(radix) + column
        cardinality *= radix
        if cardinality > _RENORMALIZE_CARDINALITY:
            key, cardinality = _renormalize(key)
    return key, cardinality


def _join_keys(
    left: ArrayFactor, right: ArrayFactor, shared: Sequence[Variable]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Packed keys of the shared columns on both sides, in one key space.

    Both sides code values in the same dictionary, so equal codes are equal
    values and the keys compare directly; only the radix is shared.
    """
    nl = len(left)
    lkey = rkey = None
    cardinality = 1
    for var in shared:
        lcol, rcol = left.column(var), right.column(var)
        radix = max(_radix(lcol), _radix(rcol))
        if lkey is None:
            lkey, rkey, cardinality = lcol, rcol, radix
        else:
            lkey = lkey * np.int64(radix) + lcol
            rkey = rkey * np.int64(radix) + rcol
            cardinality *= radix
        if cardinality > _RENORMALIZE_CARDINALITY:
            joint, cardinality = _renormalize(np.concatenate([lkey, rkey]))
            lkey, rkey = joint[:nl], joint[nl:]
    return lkey, rkey, cardinality


def _is_dense(cardinality: int, rows: int) -> bool:
    """Whether a key space is small enough to count into directly."""
    return cardinality <= _DENSE_KEYS_PER_ROW * max(rows, 1)


# --------------------------------------------------------------------- #
# Relational primitives
# --------------------------------------------------------------------- #
class _RowCapExceeded(Exception):
    """A join of the predicate-aware plan would pass its row cap."""


def _check_row_cap(rows: int, row_cap: int | None) -> None:
    if row_cap is not None and rows > row_cap:
        raise _RowCapExceeded(rows)


def _expand_matches(
    lkey: np.ndarray, rkey: np.ndarray, cardinality: int, row_cap: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Matching ``(left_idx, right_idx)`` row pairs of an equi-join on keys.

    The right rows are sorted by key (in any order among equal keys) and
    every left row is expanded to the range of its key with ``repeat`` and
    ``cumsum`` offsets.  A dense key space finds the ranges by counting
    (``bincount`` + ``cumsum``), a sparse one by ``searchsorted``.  The
    number of pairs is known before anything is expanded, and is checked
    against ``row_cap`` there.
    """
    order = np.argsort(rkey)
    if _is_dense(cardinality, len(lkey) + len(rkey)):
        per_key = np.bincount(rkey, minlength=cardinality)
        lo = (np.cumsum(per_key) - per_key)[lkey]
        matches = per_key[lkey]
    else:
        rsorted = rkey[order]
        lo = np.searchsorted(rsorted, lkey, side="left")
        matches = np.searchsorted(rsorted, lkey, side="right") - lo
    total = int(matches.sum())
    _check_row_cap(total, row_cap)
    left_idx = np.repeat(np.arange(len(lkey), dtype=np.int64), matches)
    shift = np.repeat(lo - (np.cumsum(matches) - matches), matches)
    right_idx = order[np.arange(total, dtype=np.int64) + shift]
    return left_idx, right_idx


def _join(
    left: ArrayFactor,
    right: ArrayFactor,
    pending: list[Predicate],
    dictionary: ValueDictionary,
    row_cap: int | None = None,
) -> tuple[ArrayFactor, list[Predicate]]:
    """Natural join of two factors, multiplying counts, then every pending
    predicate it covers; ``(factor, still pending)``.

    With shared variables the packed key columns of both sides are matched
    by :func:`_expand_matches`; without them the join is a cross product.
    A join that would produce more than ``row_cap`` rows raises
    :class:`_RowCapExceeded` before materialising them.  The predicates are
    evaluated on the matched row pairs, so only surviving rows are
    materialised.
    """
    shared = tuple(v for v in left.variables if v in right.variables)
    nl, nr = len(left), len(right)
    if shared:
        lkey, rkey, cardinality = _join_keys(left, right, shared)
        left_idx, right_idx = _expand_matches(lkey, rkey, cardinality, row_cap)
    else:
        _check_row_cap(nl * nr, row_cap)
        left_idx = np.repeat(np.arange(nl, dtype=np.int64), nr)
        right_idx = np.tile(np.arange(nr, dtype=np.int64), nl)

    extra = tuple(v for v in right.variables if v not in shared)
    out_vars = left.variables + extra

    def gather(var: Variable) -> np.ndarray:
        if var in extra:
            return right.column(var)[right_idx]
        return left.column(var)[left_idx]

    ready, pending = _split_ready(pending, out_vars)
    if ready:
        gathered: dict[Variable, np.ndarray] = {}

        def column(var: Variable) -> np.ndarray:
            if var not in gathered:
                gathered[var] = gather(var)
            return gathered[var]

        keep = _conjunction(ready, column, len(left_idx), dictionary)
        left_idx, right_idx = left_idx[keep], right_idx[keep]
        out_cols = tuple(
            gathered[v][keep] if v in gathered else gather(v) for v in out_vars
        )
    else:
        out_cols = tuple(gather(v) for v in out_vars)
    bound = _max_count(left.counts) * _max_count(right.counts)
    counts = _exact_counts(left.counts[left_idx], bound) * right.counts[right_idx]
    return ArrayFactor(out_vars, out_cols, counts), pending


def _max_count(counts: np.ndarray) -> int:
    """The largest count as a Python int (0 for an empty factor)."""
    return int(counts.max()) if len(counts) else 0


def _exact_counts(counts: np.ndarray, bound: int) -> np.ndarray:
    """``counts`` as Python ints (``object`` dtype) when an arithmetic result
    bounded by ``bound`` could overflow ``int64``; unchanged otherwise.

    Object arrays stay object through every later multiply and sum, so once
    a factor leaves ``int64`` its counts remain exact."""
    if bound > _INT64_MAX and counts.dtype != object:
        return counts.astype(object)
    return counts


def _group_reduce(
    key: np.ndarray, counts: np.ndarray, kind: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One representative row index and the count sum per group, groups in
    ascending key order: one sort (of NumPy's ``kind``) and
    ``np.add.reduceat`` over its runs."""
    order = np.argsort(key, kind=kind)
    sorted_key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
    counts = _exact_counts(counts, len(key) * _max_count(counts))
    return order[starts], np.add.reduceat(counts[order], starts)


def _project_sum(factor: ArrayFactor, keep: Sequence[Variable]) -> ArrayFactor:
    """Sum out every variable not in ``keep`` (vectorized group-by).

    A factor whose variables ``keep`` all keeps is returned as it is: its
    rows are distinct, so each is already its own group."""
    keep_set = set(keep)
    keep_vars = tuple(v for v in factor.variables if v in keep_set)
    if len(keep_vars) == len(factor.variables):
        return factor
    if not len(factor):
        return ArrayFactor(keep_vars, tuple(factor.column(v) for v in keep_vars), factor.counts)
    if not keep_vars:
        counts = _exact_counts(factor.counts, len(factor) * _max_count(factor.counts))
        total = counts.sum()
        return ArrayFactor((), (), np.array([total], dtype=counts.dtype))
    columns = [factor.column(v) for v in keep_vars]
    representative, sums = _group_reduce(_pack(columns, len(factor))[0], factor.counts)
    return ArrayFactor(keep_vars, tuple(col[representative] for col in columns), sums)


# --------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------- #
def _as_bool_mask(result: object, length: int) -> np.ndarray:
    """Normalise a comparison result to a boolean array of the right length.

    NumPy collapses comparisons between incompatible operands (e.g. an int64
    column against a string constant) to a scalar; broadcast that back out.
    """
    if isinstance(result, np.ndarray) and result.shape == (length,):
        return result.astype(bool, copy=False)
    return np.full(length, bool(result))


def predicate_mask(
    pred: Predicate, operands: Mapping[Variable, object], length: int
) -> np.ndarray:
    """A boolean keep-mask for ``pred`` over ``length`` rows.

    ``operands`` maps each variable of ``pred`` to a value column of
    ``length`` rows or to one scalar shared by every row.
    """

    def operand(term):
        if isinstance(term, Variable):
            return operands[term]
        return term.value

    if isinstance(pred, InequalityPredicate):
        return _as_bool_mask(operand(pred.left) != operand(pred.right), length)
    if isinstance(pred, ComparisonPredicate):
        left, right = operand(pred.left), operand(pred.right)
        if pred.op == "<":
            result = left < right
        elif pred.op == "<=":
            result = left <= right
        elif pred.op == ">":
            result = left > right
        else:
            result = left >= right
        return _as_bool_mask(result, length)

    # Generic predicates: exact row-by-row evaluation.
    variables = tuple(pred.variables)
    rows = zip(*(operands[v].tolist() for v in variables))
    return np.fromiter(
        (pred.evaluate(dict(zip(variables, row))) for row in rows),
        dtype=bool,
        count=length,
    )


def _code_mask(
    pred: Predicate, column, length: int, dictionary: ValueDictionary
) -> np.ndarray:
    """``pred``'s keep-mask over ``length`` rows; ``column(var)`` gives the
    code column of a variable.

    An inequality on a variable compares codes (equal codes ⇔ equal
    values; a constant no value equals gets code ``-1``); every other
    predicate decodes its columns through the dictionary and compares
    values.
    """
    if isinstance(pred, InequalityPredicate) and pred.variables:

        def code(term):
            if isinstance(term, Variable):
                return column(term)
            found = dictionary.lookup(term.value)
            return -1 if found is None else found

        return _as_bool_mask(code(pred.left) != code(pred.right), length)
    operands = {v: dictionary.decode(column(v)) for v in pred.variables}
    return predicate_mask(pred, operands, length)


def _conjunction(
    predicates: Sequence[Predicate], column, length: int, dictionary: ValueDictionary
) -> np.ndarray:
    mask = _code_mask(predicates[0], column, length, dictionary)
    for pred in predicates[1:]:
        mask &= _code_mask(pred, column, length, dictionary)
    return mask


def _split_ready(
    pending: list[Predicate], variables: Sequence[Variable]
) -> tuple[list[Predicate], list[Predicate]]:
    """``(predicates covered by variables, the rest)``."""
    var_set = frozenset(variables)
    ready = [p for p in pending if p.variables <= var_set]
    if not ready:
        return ready, pending
    return ready, [p for p in pending if p not in ready]


def _apply_ready_predicates(
    factor: ArrayFactor, pending: list[Predicate], dictionary: ValueDictionary
) -> tuple[ArrayFactor, list[Predicate]]:
    """Apply (and consume) every pending predicate contained in ``factor``."""
    ready, pending = _split_ready(pending, factor.variables)
    if not ready:
        return factor, pending
    return factor.take(_conjunction(ready, factor.column, len(factor), dictionary)), pending


# --------------------------------------------------------------------- #
# Atom factors
# --------------------------------------------------------------------- #
def _atom_factor(
    atom, coded: tuple[np.ndarray, ...], length: int, dictionary: ValueDictionary
) -> ArrayFactor:
    """The initial factor of one atom over the coded rows ``coded``: distinct
    variable bindings with count 1.

    The columns are normally the relation's coded columns, so repeated
    eliminations over the same instance — every subset of a sensitivity
    profile, every query of a serving session — code nothing.  Constants
    and repeated variables are matched on codes.
    """
    mask: np.ndarray | None = None

    def conjoin(condition: np.ndarray) -> None:
        nonlocal mask
        mask = condition if mask is None else (mask & condition)

    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            code = dictionary.lookup(term.value)
            conjoin(coded[position] == (-1 if code is None else code))
    variables = atom.variables
    var_positions = {v: atom.positions_of(v) for v in variables}
    for positions in var_positions.values():
        for position in positions[1:]:
            conjoin(coded[positions[0]] == coded[position])

    columns = tuple(coded[var_positions[v][0]] for v in variables)
    if mask is not None:
        keep = np.flatnonzero(mask)
        columns = tuple(col[keep] for col in columns)
        length = int(len(keep))
    # Distinct relation rows always induce distinct bindings (constants and
    # repeated variables are filtered above), so every count is 1.
    return ArrayFactor(tuple(variables), columns, np.ones(length, dtype=np.int64))


def _cut_to(factors: list[ArrayFactor], position: int) -> list[ArrayFactor]:
    """``factors`` with every factor sharing a variable with
    ``factors[position]`` cut to the rows whose codes there occur in it (a
    semi-join: the rows cut away join nothing).

    Only the direct neighbours are cut: cutting their neighbours in turn
    measured slower on the mutation workload than the joins it saves.
    """
    seed = factors[position]
    cut = []
    for index, factor in enumerate(factors):
        mask = None
        if index != position:
            for var in factor.variables:
                if var in seed.variables:
                    found = np.isin(factor.column(var), seed.column(var))
                    mask = found if mask is None else mask & found
        cut.append(factor if mask is None else factor.take(np.flatnonzero(mask)))
    return cut


# --------------------------------------------------------------------- #
# Heavy-bucket sparse-matmul fast path
# --------------------------------------------------------------------- #
def _estimated_join_rows(
    left: ArrayFactor, right: ArrayFactor, shared: tuple[Variable, ...]
) -> int:
    """Number of rows the join of two factors would produce (exact, cheap):
    the dot product of both sides' per-key row counts."""
    lkey, rkey, cardinality = _join_keys(left, right, shared)
    if not _is_dense(cardinality, len(lkey) + len(rkey)):
        joint, cardinality = _renormalize(np.concatenate([lkey, rkey]))
        lkey, rkey = joint[: len(lkey)], joint[len(lkey) :]
    return int(
        np.dot(
            np.bincount(lkey, minlength=cardinality),
            np.bincount(rkey, minlength=cardinality),
        )
    )


def _matmul_aggregate(
    left: ArrayFactor,
    right: ArrayFactor,
    shared: tuple[Variable, ...],
    pending: list[Predicate],
    dictionary: ValueDictionary,
) -> tuple[ArrayFactor, list[Predicate]]:
    """Sum out ``shared`` from ``left ⋈ right`` via a sparse matrix product.

    This is the asymptotically cheap way to evaluate the heavy residual
    multiplicities (e.g. the length-3-path residual of the rectangle query),
    where the number of joined rows is huge but the output — keyed by the
    surviving variables of both factors — is small.  Pending predicates
    whose variables all survive are applied to the output; predicates
    involving the summed-out variables cannot be honoured on this path and
    are left pending (the caller reports them as dropped, making the counts
    upper bounds).  The product is ``int64``, so callers check
    :func:`_matmul_fits_int64` first.
    """
    from scipy import sparse

    nl, nr = len(left), len(right)
    left_keep = tuple(v for v in left.variables if v not in shared)
    right_keep = tuple(v for v in right.variables if v not in shared)
    out_vars = left_keep + right_keep

    def empty_result() -> ArrayFactor:
        columns = tuple(np.empty(0, dtype=np.int64) for _ in out_vars)
        return ArrayFactor(out_vars, columns, np.zeros(0, dtype=np.int64))

    # An empty side, or no right row matching any left mid, returns the
    # empty factor with ``pending`` untouched (the predicates stay pending
    # for later factors).
    if not nl or not nr:
        return empty_result(), pending

    lmid, rmid, _ = _join_keys(left, right, shared)
    if not np.isin(rmid, lmid).any():
        return empty_result(), pending
    mid_uniq, mid_inverse = np.unique(np.concatenate([lmid, rmid]), return_inverse=True)
    lmid_dense, rmid_dense = mid_inverse[:nl], mid_inverse[nl:]

    lrow = _pack([left.column(v) for v in left_keep], nl)[0]
    rcol = _pack([right.column(v) for v in right_keep], nr)[0]
    lrow_uniq, lrow_first, lrow_dense = np.unique(
        lrow, return_index=True, return_inverse=True
    )
    rcol_uniq, rcol_first, rcol_dense = np.unique(
        rcol, return_index=True, return_inverse=True
    )

    left_matrix = sparse.coo_matrix(
        (left.counts.astype(np.int64, copy=False), (lrow_dense, lmid_dense)),
        shape=(max(1, len(lrow_uniq)), max(1, len(mid_uniq))),
    ).tocsr()
    right_matrix = sparse.coo_matrix(
        (right.counts.astype(np.int64, copy=False), (rmid_dense, rcol_dense)),
        shape=(max(1, len(mid_uniq)), max(1, len(rcol_uniq))),
    ).tocsr()
    product = (left_matrix @ right_matrix).tocoo()

    nonzero = product.data != 0
    rows = product.row[nonzero]
    cols = product.col[nonzero]
    counts = product.data[nonzero].astype(np.int64, copy=False)

    left_idx = lrow_first[rows]
    right_idx = rcol_first[cols]
    out_cols = tuple(left.column(v)[left_idx] for v in left_keep) + tuple(
        right.column(v)[right_idx] for v in right_keep
    )
    factor = ArrayFactor(out_vars, out_cols, counts)

    # Apply the pending predicates that survived the projection.
    return _apply_ready_predicates(factor, pending, dictionary)


# --------------------------------------------------------------------- #
# Bucket joins and the driver
# --------------------------------------------------------------------- #
def _matmul_fits_int64(left: ArrayFactor, right: ArrayFactor) -> bool:
    """Whether every entry of the ``left @ right`` product fits ``int64``.

    An entry sums at most ``min(rows)`` products of one count from each
    side; when that bound could overflow, the bucket takes the exact join
    path instead.
    """
    bound = _max_count(left.counts) * _max_count(right.counts) * min(len(left), len(right))
    return bound <= _INT64_MAX


def _join_and_aggregate(
    bucket: Sequence[ArrayFactor],
    keep: Sequence[Variable],
    pending: list[Predicate],
    dictionary: ValueDictionary,
    row_cap: int | None = None,
) -> tuple[ArrayFactor, list[Predicate]]:
    """Join ``bucket``, filter, and sum onto ``keep`` (vectorized).

    Factors are ordered by :func:`order_factors_for_join`, and predicates
    are applied as soon as some intermediate factor covers their variables.
    Two-factor buckets whose shared variables are all being summed out and
    whose join size exceeds :data:`MATMUL_THRESHOLD` take the sparse-matmul
    path, unless their counts could overflow its ``int64`` product.  That
    path drops the pending predicates on the summed-out variables, so with
    a ``row_cap`` (the predicate-aware plan, which must keep every
    predicate) a bucket with such a predicate joins instead, and each join
    is checked against the cap.
    """
    if len(bucket) == 2:
        keep_set = set(keep)
        shared = tuple(v for v in bucket[0].variables if v in bucket[1].variables)
        would_drop = row_cap is not None and any(p.variables & set(shared) for p in pending)
        if shared and not would_drop and all(v not in keep_set for v in shared):
            estimated = _estimated_join_rows(bucket[0], bucket[1], shared)
            if estimated > MATMUL_THRESHOLD and _matmul_fits_int64(bucket[0], bucket[1]):
                factor, pending = _matmul_aggregate(
                    bucket[0], bucket[1], shared, pending, dictionary
                )
                return _project_sum(factor, keep), pending

    ordered = order_factors_for_join(bucket)
    current, pending = _apply_ready_predicates(ordered[0], pending, dictionary)
    for factor in ordered[1:]:
        current, pending = _join(current, factor, pending, dictionary, row_cap)
    return _project_sum(current, keep), pending


def _smallest_bucket(factors: Sequence[ArrayFactor], candidates: Sequence[Variable]) -> Variable:
    """The candidate whose bucket joins the fewest variables, then the
    fewest rows (the product of its factors' row counts), then by name."""

    def rank(var: Variable) -> tuple[int, int, str]:
        bucket = [f for f in factors if var in f.variables]
        width = len({v for f in bucket for v in f.variables})
        return width, math.prod(len(f) for f in bucket), str(var.name)

    return min(candidates, key=rank)


def _eliminate(
    factors: list[ArrayFactor],
    internal: Sequence[Variable],
    group_vars: tuple[Variable, ...],
    pending: list[Predicate],
    dictionary: ValueDictionary,
    row_cap: int | None,
    restriction: ArrayFactor | None = None,
) -> tuple[ArrayFactor, list[Predicate], list[Variable]]:
    """Sum ``internal`` out of ``factors``; ``(final factor, dropped, order)``.

    With a ``row_cap`` this is the predicate-aware plan: pending predicates
    are hyperedges of the elimination order, the bucket of ``v`` also takes
    every factor sharing a variable with a pending predicate on ``v``, and a
    join above the cap raises :class:`_RowCapExceeded`.  Without one it is
    the predicate-blind plan, which drops what it cannot apply.  Either
    follows :func:`greedy_elimination_order` while a predicate is pending
    at the start; with none pending (and so no cap), each step sums out the
    variable of :func:`_smallest_bucket` over the live factors, which
    reorders no predicate and so moves no count.

    A ``restriction`` (a count-1 factor over group variables) does not
    change the order: it joins the first bucket whose variables cover it,
    or else the final join.
    """
    planned = None
    if pending or row_cap is not None:
        edges = [set(f.variables) for f in factors]
        if row_cap is not None:
            edges += [set(p.variables) for p in pending]
        planned = greedy_elimination_order(edges, internal)

    order: list[Variable] = []
    remaining = list(internal)
    while remaining:
        if planned is None:
            var = _smallest_bucket(factors, remaining)
        else:
            var = planned[len(order)]
        remaining.remove(var)
        order.append(var)
        linked = {var}
        if row_cap is not None:
            for pred in pending:
                if var in pred.variables:
                    linked |= pred.variables
        bucket = [f for f in factors if linked.intersection(f.variables)]
        if not bucket:
            continue
        others = [f for f in factors if not linked.intersection(f.variables)]
        if restriction is not None and set(restriction.variables) <= {
            v for factor in bucket for v in factor.variables
        }:
            bucket.append(restriction)
            restriction = None
        keep = [v for factor in bucket for v in factor.variables if v != var]
        summed, pending = _join_and_aggregate(bucket, keep, pending, dictionary, row_cap)
        factors = others + [summed]

    if restriction is not None:
        factors = factors + [restriction]
    final, pending = _join_and_aggregate(
        factors, list(group_vars), pending, dictionary, row_cap
    )
    return final, pending, order


# --------------------------------------------------------------------- #
# Möbius expansion of disequalities
# --------------------------------------------------------------------- #
#: What :func:`_rename_predicate` returns for a predicate that always holds.
_ALWAYS = object()


def _rename_term(term, rep: Mapping[Variable, Variable]):
    """``term`` renamed by ``rep`` (constants are kept)."""
    return rep.get(term, term) if isinstance(term, Variable) else term


def _rename_predicate(pred: Predicate, rep: Mapping[Variable, Variable]):
    """``pred`` over the merged variables of ``rep``: the predicate itself,
    ``None`` when it can never hold (``x != x``, ``x < x``), or
    :data:`_ALWAYS` when it always does (``x <= x``)."""
    if all(rep.get(v, v) == v for v in pred.variables):
        return pred
    if isinstance(pred, InequalityPredicate):
        left, right = _rename_term(pred.left, rep), _rename_term(pred.right, rep)
        return None if left == right else InequalityPredicate(left, right)
    if isinstance(pred, ComparisonPredicate):
        left, right = _rename_term(pred.left, rep), _rename_term(pred.right, rep)
        if left == right:
            return _ALWAYS if pred.op in ("<=", ">=") else None
        return ComparisonPredicate(left, pred.op, right)
    renamed = tuple(rep.get(v, v) for v in pred.vars)
    merged = tuple(dict.fromkeys(renamed))
    position = [merged.index(v) for v in renamed]
    func = pred.func
    return GenericPredicate(
        lambda *values: func(*(values[i] for i in position)), merged, pred.name
    )


def _merge_columns(factor: ArrayFactor, rep: Mapping[Variable, Variable]) -> ArrayFactor:
    """``factor`` with its variables renamed by ``rep``: rows whose merged
    columns disagree are dropped, and each merged variable keeps one column."""
    renamed = tuple(rep.get(v, v) for v in factor.variables)
    if renamed == factor.variables:
        return factor
    first: dict[Variable, np.ndarray] = {}
    mask: np.ndarray | None = None
    for var, column in zip(renamed, factor.columns):
        if var not in first:
            first[var] = column
            continue
        equal = first[var] == column
        mask = equal if mask is None else mask & equal
    merged = ArrayFactor(tuple(first), tuple(first.values()), factor.counts)
    return merged if mask is None else merged.take(np.flatnonzero(mask))


def _quotient_factors(
    factors: Sequence[ArrayFactor],
    rep: Mapping[Variable, Variable],
    kept: Sequence[Predicate],
    dictionary: ValueDictionary,
) -> tuple[list[ArrayFactor], list[Predicate]] | None:
    """The atom factors and pending predicates of ``q/π``, or ``None`` when
    ``q/π`` provably counts nothing.

    Each factor is derived from its atom's factor, which already applied
    the atom's own predicates, so no relation is read again.
    """
    predicates = []
    for pred in kept:
        renamed = _rename_predicate(pred, rep)
        if renamed is None:
            return None
        if renamed is not _ALWAYS:
            predicates.append(renamed)
    quotient = []
    for factor in factors:
        merged = _merge_columns(factor, rep)
        if merged is not factor and not len(merged):
            return None
        merged, predicates = _apply_ready_predicates(merged, predicates, dictionary)
        quotient.append(merged)
    return quotient, predicates


def _signed_sum(
    group_vars: tuple[Variable, ...],
    terms: Sequence[tuple[int, ArrayFactor, Mapping[Variable, Variable]]],
) -> ArrayFactor:
    """``Σ c · count`` per group over ``(c, final factor, rep)`` terms.

    The first term is the all-singletons one (``c = 1``): every other
    term's groups are among its groups, so each of them is located there by
    one ``searchsorted`` into the sorted keys of the first term and added
    with ``np.add.at``; groups whose sum is 0 are dropped.  Those keys are
    packed in the first term's variable order, the order its last group-by
    usually left them in, and a stable sort orders such a run in about one
    pass; nothing relies on it.  The sums stay exact: when
    ``Σ |c| · max count`` could pass ``int64`` they are carried as Python
    ints.
    """
    _, base, _ = terms[0]
    lengths = [len(final) for _, final, _ in terms]
    columns = [
        np.concatenate([final.column(rep.get(v, v)) for _, final, rep in terms])
        for v in base.variables
    ]
    keys = _pack(columns, sum(lengths))[0]
    base_keys = keys[: lengths[0]]
    order = np.argsort(base_keys, kind="stable")
    position = order[np.searchsorted(base_keys[order], keys[lengths[0] :])]

    bound = sum(abs(c) * _max_count(final.counts) for c, final, _ in terms)
    wide = bound > _INT64_MAX or any(final.counts.dtype == object for _, final, _ in terms)
    dtype = object if wide else np.int64
    total = base.counts.astype(dtype)
    signed = np.concatenate(
        [final.counts.astype(dtype) * c for c, final, _ in terms[1:]]
    )
    np.add.at(total, position, signed)
    keep = np.flatnonzero(total != 0)
    return ArrayFactor(
        group_vars, tuple(base.column(g)[keep] for g in group_vars), total[keep]
    )


def _atom_types(
    atoms: Sequence,
    applied: Sequence[Sequence[Predicate]],
    reads: Sequence[tuple[Relation, int, tuple[np.ndarray, ...]]],
) -> list[tuple[int, bool]]:
    """``(type, symmetric)`` of each atom factor, for
    :func:`repro.engine.mobius.quotient_classes`.

    An atom's type is its relation and the epoch it read, its term pattern
    (constants and repeated variables) and the predicates ``applied`` to its
    factor, so atoms of one type have equal factors up to their variables'
    names; types are numbered in order of first appearance.  An atom is
    symmetric when it is binary over two distinct variables, everything
    applied to it is ``!=`` between them, and the rows it read are closed
    under swapping its columns (:func:`_swap_closed`, only asked then).
    """
    numbers: dict[tuple, int] = {}
    types = []
    for atom, predicates, (relation, epoch, coded) in zip(atoms, applied, reads):
        names = {v: f"v{i}" for i, v in enumerate(atom.variables)}
        key = (
            atom.relation,
            epoch,
            tuple(_term_key(t, names) for t in atom.terms),
            tuple(sorted(_predicate_key(p, names) or f"#{id(p)}" for p in predicates)),
        )
        symmetric = (
            len(atom.terms) == len(names) == 2
            and all(_separates(p) for p in predicates)
            and _swap_closed(relation, epoch, coded)
        )
        types.append((numbers.setdefault(key, len(numbers)), symmetric))
    return types


def _separates(pred: Predicate) -> bool:
    """Whether ``pred`` is ``x != y`` between two variables."""
    return isinstance(pred, InequalityPredicate) and len(pred.variables) == 2


def _expand_disequalities(
    factors: list[ArrayFactor],
    internal: Sequence[Variable],
    group_vars: tuple[Variable, ...],
    pending: list[Predicate],
    dictionary: ValueDictionary,
    restriction: ArrayFactor | None,
    applied: Sequence[Sequence[Predicate]],
    atom_types: Callable[[], list[tuple[int, bool]]] | None,
) -> tuple[ArrayFactor, list[Predicate], list[Variable]] | None:
    """Count by Möbius inversion over the pending ``x != y`` predicates with
    a non-group endpoint (see :mod:`repro.engine.mobius`).

    ``applied`` lists the predicates each factor applied itself: a
    partition merging the two sides of such an ``x != y`` counts nothing
    and is skipped.  When every pending predicate is expanded and
    ``atom_types`` gives the factors' types (:func:`_atom_types`; ``None``
    for a delta query, whose factors are cut to the delta), one quotient
    per isomorphism class is counted, under the class's summed
    coefficient, keeping the first of each set of duplicate atoms
    (:func:`repro.engine.mobius.quotient_classes`): such terms run with no
    row cap, so no flag can move.  Otherwise every partition is a term of
    its own, counted by the predicate-aware plan while predicates that are
    not expanded stay pending.  Each term runs under the ``restriction``
    with its merged columns agreeing.  Returns ``(final factor, [], order
    of the all-singletons term)``, or ``None`` when there is nothing to
    expand or a term's plan would pass :data:`BUCKET_ROW_CAP` — a signed
    sum of upper bounds bounds nothing, so the caller then runs the
    unexpanded plans.
    """
    group_set = set(group_vars)
    expanded = [
        p
        for p in pending
        if isinstance(p, InequalityPredicate)
        and len(p.variables) == 2
        and not p.variables <= group_set
    ]
    if not expanded:
        return None
    kept = [p for p in pending if p not in expanded]
    touched = set().union(*(p.variables for p in expanded))
    vertices = list(dict.fromkeys(v for f in factors for v in f.variables if v in touched))
    # Vertices are numbered first, then every other variable.
    number = {v: i for i, v in enumerate(vertices)}
    for factor in factors:
        for var in factor.variables:
            number.setdefault(var, len(number))

    def pair(pred: Predicate) -> tuple[int, int]:
        return tuple(sorted(number[v] for v in pred.variables))

    edges = tuple(sorted({pair(p) for p in expanded}))
    separated = tuple(
        sorted({pair(p) for ps in applied for p in ps if _separates(p) and p.variables <= touched})
    )
    groups = tuple(number[g] for g in group_vars)
    if kept or atom_types is None:
        every = tuple(range(len(factors)))
        plan = [
            (blocks, coefficient, every)
            for blocks, coefficient in mobius.separated_partitions(
                len(vertices), edges, separated
            )
        ]
    else:
        atoms = tuple(
            (kind, symmetric, tuple(number[v] for v in factor.variables))
            for (kind, symmetric), factor in zip(atom_types(), factors)
        )
        plan = mobius.quotient_classes(len(vertices), edges, separated, atoms, groups)

    terms = []
    order: list[Variable] = []
    for blocks, coefficient, atoms_kept in plan:
        heads = mobius.block_heads(len(vertices), blocks, groups)
        rep = {v: vertices[h] for v, h in zip(vertices, heads)}
        quotient = _quotient_factors([factors[i] for i in atoms_kept], rep, kept, dictionary)
        term_restriction = None if restriction is None else _merge_columns(restriction, rep)
        if quotient is None or (
            term_restriction is not restriction and not len(term_restriction)
        ):
            continue
        term_factors, term_pending = quotient
        term_groups = tuple(dict.fromkeys(rep.get(g, g) for g in group_vars))
        term_internal = [
            v for v in dict.fromkeys(rep.get(v, v) for v in internal) if v not in term_groups
        ]
        try:
            final, left, term_order = _eliminate(
                term_factors,
                term_internal,
                term_groups,
                term_pending,
                dictionary,
                BUCKET_ROW_CAP if term_pending else None,
                term_restriction,
            )
        except _RowCapExceeded:
            return None
        if left:
            return None
        if not terms:
            order = term_order
            if not len(final):
                return final, [], order
        terms.append((coefficient, final, rep))
    if len(terms) == 1:
        return terms[0][1], [], order
    return _signed_sum(group_vars, terms), [], order


def eliminate_group_counts_columnar(
    query: ConjunctiveQuery,
    database: Database,
    group_variables: Sequence[Variable],
    *,
    atom_indices: Sequence[int] | None = None,
    predicates: Sequence[Predicate] | None = None,
    delta: tuple[int, Sequence[tuple]] | None = None,
    restrict: EliminationResult | None = None,
) -> EliminationResult:
    """Group-by counts of a (residual) CQ via vectorized bucket elimination.

    Pending ``x != y`` predicates with a non-group endpoint are expanded by
    Möbius inversion, so every term is counted on a plan without them.
    Predicates that are not expanded, and every predicate when a term's plan
    would pass :data:`BUCKET_ROW_CAP`, run through the predicate-aware plan,
    which applies every one of them; if one of its joins would pass the cap,
    the predicate-blind plan runs instead and reports the predicates it
    could not apply as dropped.

    Parameters
    ----------
    query, database:
        The query and instance.
    group_variables:
        The variables to group by (they are never eliminated).  An empty
        sequence computes a single global count keyed by ``()``.
    atom_indices:
        Restrict evaluation to these atoms (defaults to all atoms).
    predicates:
        Predicates to apply (defaults to ``query.predicates``); predicates
        mentioning variables outside the selected atoms are ignored here —
        residual classification is the caller's responsibility.
    delta:
        ``(atom index, rows)``: that atom reads only ``rows`` (value tuples
        of its relation) instead of the relation, and every atom sharing a
        variable with it is first cut to the rows that can join them — the
        delta query of :func:`refresh_group_counts`.
    restrict:
        Count only the groups whose values on ``restrict.group_variables``
        (group variables of this call) are one of ``restrict``'s rows; its
        counts are ignored.  The elimination then runs in ``restrict``'s
        dictionary, so its codes always meet codes of their own space.

    Returns
    -------
    EliminationResult
        Group counts plus bookkeeping about dropped predicates.
    """
    indices = list(range(query.num_atoms)) if atom_indices is None else list(atom_indices)
    if not indices:
        return EliminationResult(
            tuple(group_variables), (), np.ones(1, dtype=np.int64), (), (), None
        )

    covered_vars = query.variables_of(indices)
    group_vars = tuple(group_variables)
    unknown = [v for v in group_vars if v not in covered_vars]
    if unknown:
        raise EvaluationError(
            f"group variables {sorted(v.name for v in unknown)} do not occur in the "
            "selected atoms"
        )
    restriction = None
    if restrict is not None:
        if not set(restrict.group_variables) <= set(group_vars):
            raise EvaluationError("a restriction must be over group variables")
        restriction = ArrayFactor(
            restrict.group_variables,
            restrict.codes,
            np.ones(len(restrict.count_array), dtype=np.int64),
        )

    pending = [
        p
        for p in (query.predicates if predicates is None else predicates)
        if p.variables <= covered_vars
    ]

    # One dictionary for the whole elimination: a concurrent
    # ``release_caches`` may replace the database's, and codes of two
    # dictionaries must never meet in one join.
    dictionary = database.dictionary if restrict is None else restrict.dictionary
    factors: list[ArrayFactor] = []
    read: set[tuple[str, int]] = set()
    reads = []  # (relation, epoch, codes) per atom read from its relation
    for idx in indices:
        atom = query.atoms[idx]
        if delta is not None and idx == delta[0]:
            rows = delta[1]
            coded = tuple(
                dictionary.encode(value_column([row[p] for row in rows]))
                for p in range(len(atom.terms))
            )
            length = len(rows)
        else:
            relation = database.relation(atom.relation)
            epoch, coded = _relation_codes(relation, dictionary)
            read.add((atom.relation, epoch))
            reads.append((relation, epoch, coded))
            length = len(coded[0]) if coded else len(relation)
        factors.append(_atom_factor(atom, coded, length, dictionary))
    if delta is not None:
        factors = _cut_to(factors, indices.index(delta[0]))
    applied = []  # the predicates each atom factor applied itself
    for position, factor in enumerate(factors):
        before = pending
        factors[position], pending = _apply_ready_predicates(factor, pending, dictionary)
        applied.append([p for p in before if p not in pending])

    internal = [v for v in covered_vars if v not in group_vars]
    plan = None
    if pending:
        atoms = [query.atoms[idx] for idx in indices]
        plan = _expand_disequalities(
            factors, internal, group_vars, pending, dictionary, restriction, applied,
            None if delta is not None else functools.partial(_atom_types, atoms, applied, reads),
        )
    if plan is None and pending:
        try:
            plan = _eliminate(
                factors, internal, group_vars, pending, dictionary, BUCKET_ROW_CAP,
                restriction,
            )
        except _RowCapExceeded:
            pass  # the predicate-blind plan below drops what it cannot apply
    final, pending, order = plan or _eliminate(
        factors, internal, group_vars, pending, dictionary, None, restriction
    )

    # Key columns in the requested group-variable order (the final factor's
    # variables are a permutation of ``group_vars``).
    return EliminationResult(
        group_variables=group_vars,
        codes=tuple(final.column(v) for v in group_vars),
        count_array=final.counts,
        dropped_predicates=tuple(pending),
        elimination_order=tuple(order),
        dictionary=dictionary,
        epochs=tuple(sorted(read)),
    )


# --------------------------------------------------------------------- #
# Delta maintenance of cached group counts
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CountsEntry:
    """A cached result with what it was computed from.

    ``value`` is what the cache serves (a component's
    :class:`~repro.engine.aggregates.MultiplicityResult`, a query's count),
    ``epochs`` the ``(relation, epoch)`` pairs it read, and ``counts`` the
    exact group counts it was read off — kept only when
    :func:`keeps_counts` holds, so the entry can be caught up by
    :func:`refresh_group_counts` instead of recomputed.  The kept counts
    hold their dictionary weakly (``coded_by``): an entry never keeps the
    dictionary of a superseded database alive, and counts whose dictionary
    is gone are recomputed.
    """

    epochs: tuple[tuple[str, int], ...]
    value: object
    counts: EliminationResult | None = None
    coded_by: weakref.ref | None = None

    @classmethod
    def keeping(
        cls, epochs: tuple[tuple[str, int], ...], value: object, counts: EliminationResult
    ) -> "CountsEntry":
        """An entry that keeps ``counts`` (their dictionary held weakly)."""
        return cls(
            epochs,
            value,
            dataclasses.replace(counts, dictionary=None),
            weakref.ref(counts.dictionary),
        )

    def counts_in(self, dictionary: ValueDictionary) -> EliminationResult | None:
        """The kept counts if they are codes of ``dictionary``, else ``None``."""
        if self.counts is None or self.coded_by() is not dictionary:
            return None
        return dataclasses.replace(self.counts, dictionary=dictionary)


def relation_epochs(database: Database, names) -> tuple[tuple[str, int], ...]:
    """The sorted ``(name, epoch)`` pairs of the relations ``names``."""
    return tuple(sorted((name, database.relation(name).epoch) for name in set(names)))


def keeps_counts(
    query: ConjunctiveQuery, database: Database, atom_indices: Sequence[int] | None = None
) -> bool:
    """Whether group counts over these atoms are worth keeping for
    :func:`refresh_group_counts`: some relation that logs its changes occurs
    in exactly one of them, the only shape a refresh can catch up."""
    indices = range(query.num_atoms) if atom_indices is None else atom_indices
    occurrences = Counter(query.atoms[idx].relation for idx in indices)
    return any(
        count == 1 and database.relation(name).change_log_rows
        for name, count in occurrences.items()
    )


def fold_group_counts(
    base: EliminationResult, deltas: Sequence[tuple[int, EliminationResult]]
) -> EliminationResult:
    """``base``'s counts plus ``Σ sign · counts`` of the ``(sign, result)``
    deltas, per group.

    The codes of every part are packed into one key space and summed with
    the engine's one-sort group-by (:func:`_group_reduce`), so the groups
    come out in ascending key order; groups whose sum is 0 are dropped.
    The sort is stable, so once folded, ``base`` is in key order and the
    few delta rows after it are ordered in about one pass; a ``base`` fresh
    from an elimination arrives in no promised order and takes a full
    sort.  Sums that could pass ``int64`` are carried as Python ints.
    """
    parts = [(1, base), *deltas]
    length = sum(len(part.count_array) for _, part in parts)
    if not length:
        return base
    columns = [
        np.concatenate([part.codes[j] for _, part in parts])
        for j in range(len(base.group_variables))
    ]
    bound = sum(
        len(part.count_array) * int(np.abs(part.count_array).max())
        for _, part in parts
        if len(part.count_array)
    )
    wide = bound > _INT64_MAX or any(part.count_array.dtype == object for _, part in parts)
    dtype = object if wide else np.int64
    counts = np.concatenate(
        [part.count_array.astype(dtype) * sign for sign, part in parts]
    )
    representative, sums = _group_reduce(_pack(columns, length)[0], counts, "stable")
    keep = np.flatnonzero(sums != 0)
    return EliminationResult(
        group_variables=base.group_variables,
        codes=tuple(column[representative[keep]] for column in columns),
        count_array=sums[keep],
        dropped_predicates=(),
        elimination_order=base.elimination_order,
        dictionary=base.dictionary,
    )


def refresh_group_counts(
    query: ConjunctiveQuery,
    database: Database,
    entry: CountsEntry,
    epochs: tuple[tuple[str, int], ...],
    *,
    atom_indices: Sequence[int] | None = None,
    predicates: Sequence[Predicate] | None = None,
) -> EliminationResult | None:
    """``entry``'s group counts caught up to ``epochs`` by delta queries, or
    ``None`` when they must be recomputed.

    The counts are linear in the rows of a relation that occurs in one atom
    only, so when exactly one relation's epoch differs and it is such a
    relation, the counts at ``epochs`` are the old ones plus the counts with
    that atom reading only the rows inserted up to its epoch in ``epochs``,
    minus those with it reading only the rows deleted
    (:meth:`~repro.data.relation.Relation.changes_since`).  Each delta query
    is the same elimination as the cached one (``atom_indices`` /
    ``predicates`` / the group variables), with every atom sharing a
    variable with the delta atom cut to the delta's codes, and must read the
    other relations at the entry's epochs.  ``None`` when the entry holds no
    counts in the database's dictionary, no relation or more than one
    changed, the changed one occurs twice, its log does not cover the
    epochs, a delta query is inexact or read another epoch, or a count would
    turn negative.
    """
    base = entry.counts_in(database.dictionary)
    if base is None:
        return None
    indices = list(range(query.num_atoms)) if atom_indices is None else list(atom_indices)
    target = dict(epochs)
    changed = [(name, epoch) for name, epoch in entry.epochs if target.get(name) != epoch]
    if len(changed) != 1:
        return None
    name, epoch = changed[0]
    atoms = [idx for idx in indices if query.atoms[idx].relation == name]
    if len(atoms) != 1 or target.get(name) is None:
        return None
    changes = database.relation(name).changes_since(epoch, target[name])
    if changes is None:
        return None
    deltas = []
    for sign, rows in zip((1, -1), changes):
        if not rows:
            continue
        result = eliminate_group_counts_columnar(
            query,
            database,
            base.group_variables,
            atom_indices=indices,
            predicates=predicates,
            delta=(atoms[0], rows),
        )
        if (
            not result.is_exact
            or result.dictionary is not base.dictionary
            or not set(result.epochs) <= set(entry.epochs)
        ):
            return None
        deltas.append((sign, result))
    folded = fold_group_counts(base, deltas) if deltas else base
    if len(folded.count_array) and folded.count_array.min() < 0:
        return None  # the log and the counts disagree: recompute
    return dataclasses.replace(folded, epochs=tuple(epochs))


def maintained_counts(
    cache,
    key: Hashable,
    query: ConjunctiveQuery,
    database: Database,
    names: Sequence[str],
    compute: Callable[[], tuple[object, EliminationResult | None]],
    value_of: Callable[[EliminationResult], object],
    *,
    atom_indices: Sequence[int] | None = None,
    predicates: Sequence[Predicate] | None = None,
) -> tuple[object, str]:
    """A value read off group counts, maintained in ``cache`` under ``key``.

    ``cache`` is a :class:`repro.service.cache.LRUCache` of
    :class:`CountsEntry`; ``names`` are the relations the value depends on,
    and ``atom_indices`` / ``predicates`` the elimination the counts come
    from.  Returns ``(value, how)``:

    * ``"hit"`` — the entry is at the current epochs of ``names``;
    * ``"delta"`` — a stale entry was caught up by
      :func:`refresh_group_counts` and the value is ``value_of(counts)``
      (the stale lookup counts as a cache miss);
    * ``"evaluated"`` — ``compute()`` ran; it returns the value and the
      exact group counts it was read off, or ``None`` for them.

    The result is stored under the epochs looked up, and only if they did
    not move while it was computed and, for counts, only if they are the
    epochs the counts read (:attr:`EliminationResult.epochs`: a mutation
    publishes its rows before it advances the epoch).  The counts are kept
    only when :func:`keeps_counts` holds.
    """
    epochs = relation_epochs(database, names)
    entry = cache.get(key, None, is_current=lambda entry: entry.epochs == epochs)
    if entry is not None and entry.epochs == epochs:
        return entry.value, "hit"
    counts = None
    if entry is not None:
        counts = refresh_group_counts(
            query, database, entry, epochs, atom_indices=atom_indices, predicates=predicates
        )
    if counts is not None:
        value, how = value_of(counts), "delta"
    else:
        (value, counts), how = compute(), "evaluated"
    if relation_epochs(database, names) == epochs and (
        counts is None or counts.epochs == epochs
    ):
        if counts is not None and keeps_counts(query, database, atom_indices):
            cache.put(key, CountsEntry.keeping(epochs, value, counts))
        else:
            cache.put(key, CountsEntry(epochs, value))
    return value, how
