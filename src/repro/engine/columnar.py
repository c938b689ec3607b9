"""Vectorized columnar bucket elimination — the library's elimination engine.

The boundary multiplicities ``T_E(I)`` behind residual sensitivity are
AJAR/FAQ-style aggregate queries: a COUNT grouped by the boundary variables
followed by a MAX over the groups.  This module computes the COUNT group-by
part with classic *bucket elimination* over count-annotated factors, which
runs in time polynomial in the instance for bounded elimination width — the
polynomial-time claim of Theorem 1.1.

Relations are read through :meth:`repro.data.relation.Relation.to_columns`
(one array per attribute), intermediate results are :class:`ArrayFactor`
objects — count annotations over value columns — and the primitive
operations of bucket elimination are all vectorized:

* **hash join** — join keys are *factorized* into dense ``int64`` codes
  (:class:`ColumnCodes`), both sides' code spaces are merged over their
  distinct values, and rows are matched with ``np.argsort``/``np.searchsorted``
  and expanded with ``np.repeat`` (a sort-merge join over the factorized
  codes);
* **group-by aggregation** (summing variables out, and the boundary
  multiplicity profiles of residual sensitivity) — group keys are packed from
  the per-column codes and counts are accumulated with ``np.add.at``;
* **predicate filtering** — inequality and comparison predicates become
  boolean column masks; generic predicates fall back to a row loop so that
  exactness is preserved;
* **heavy-bucket aggregation** — two-factor buckets whose shared variables
  are all being summed out and whose join size exceeds
  :data:`MATMUL_THRESHOLD` take a sparse matrix product (the joined rows are
  never materialised).

Predicates are part of the plan, in the spirit of FAQ with additive
inequalities (Abo Khamis et al., PODS 2019): every predicate is applied on
the first factor (atom factor, bucket join, or the final join over the group
variables) that contains all of its variables, each predicate still pending
after the atom factors is a hyperedge of the elimination order, and when a
variable ``v`` is summed out its bucket also takes every factor sharing a
variable with a pending predicate on ``v`` — so the predicate is applied in
the joined bucket instead of being lost with ``v``.  The leaf pairs of a
k-star and the non-adjacent pairs of a path are exact this way.

That plan joins more rows per bucket, so each of its joins is checked
against :data:`BUCKET_ROW_CAP` before anything is materialised.  When one
would pass the cap, the whole elimination reruns with the predicate-blind
plan: predicates that never become applicable there are reported back as
*dropped*, the counts are upper bounds, and callers that need exactness
fall back to :mod:`repro.engine.join`.

Factorization is the single hottest primitive, so it is **cached and
propagated** instead of recomputed:

* base-relation columns are factorized once per ``(relation, column)`` and
  memoized on the :class:`~repro.data.relation.Relation` itself (invalidated
  on mutation, released when the serving-layer registry bumps a database
  version) — every residual subset, query and service request against the
  same instance reuses the codes;
* every :class:`ArrayFactor` carries its per-column :class:`ColumnCodes`
  through joins, filters and projections (indexing codes is O(rows); the
  ``np.unique`` it replaces is O(rows log rows)), so intermediate results
  never re-factorize a column they inherited.

:func:`factorization_cache_stats` exposes process-wide hit/miss counters,
and :func:`factorization_counter_scope` opens a *context-local* view whose
delta is immune to concurrent unrelated work — the profile evaluator
(:mod:`repro.engine.profile`) computes its per-profile counters through a
scope, so two serving-layer services in one process never cross-contaminate
each other's ``/stats`` and ``/metrics``.

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
import functools
import threading
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.data.database import Database
from repro.data.relation import Relation
from repro.exceptions import EvaluationError
from repro.query.atoms import Constant, Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.predicates import (
    ComparisonPredicate,
    InequalityPredicate,
    Predicate,
)

__all__ = [
    "ArrayFactor",
    "BUCKET_ROW_CAP",
    "ColumnCodes",
    "EliminationResult",
    "MATMUL_THRESHOLD",
    "adopt_factorization_scope",
    "current_factorization_scope",
    "eliminate_group_counts_columnar",
    "factorization_cache_stats",
    "factorization_counter_scope",
    "greedy_elimination_order",
    "merge_factorization_delta",
    "order_factors_for_join",
    "predicate_mask",
    "reset_factorization_cache_stats",
]

#: Re-factorize packed row codes once their key space exceeds this bound,
#: keeping every subsequent ``codes * cardinality + codes`` combination safely
#: inside ``int64``.
_RENORMALIZE_CARDINALITY = 2**31

#: Above this estimated number of joined rows, a two-factor bucket whose
#: shared variables are being summed out switches to the sparse-matrix
#: product fast path (see :func:`_matmul_aggregate`).  The threshold keeps
#: small instances (and therefore the exactness-checking tests) on the exact
#: join path while routing the heavy residuals of the graph benchmarks
#: through scipy.
MATMUL_THRESHOLD = 200_000

#: The most rows one join of the predicate-aware plan may materialise.  A
#: join that would pass it makes the elimination rerun with the
#: predicate-blind plan, which drops the predicates it cannot apply (see
#: :func:`eliminate_group_counts_columnar`).  On the 300-node benchmark
#: graph the 4-star's all-leaves bucket (8.4 M rows) is above it; every
#: bucket of the other paper shapes is below.
BUCKET_ROW_CAP = 1_000_000

#: The largest count an ``int64`` array holds; a count that could exceed it
#: is carried as a Python int instead (see :func:`_exact_counts`).
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class EliminationResult:
    """Outcome of :func:`eliminate_group_counts_columnar`.

    The group counts stay columnar: row ``i`` is the group whose value of
    ``group_variables[j]`` is ``columns[j][i]``, with count
    ``count_array[i]``.  Every group occurs once and every count is
    positive.  Counts are exact if ``dropped_predicates`` is empty,
    otherwise upper bounds obtained by ignoring the dropped predicates.

    Attributes
    ----------
    group_variables:
        The group variables, in the order of ``columns``.
    columns:
        One value array per group variable.
    count_array:
        The per-group counts (``int64``, or ``object`` Python ints).
    dropped_predicates:
        Predicates that could not be applied during elimination.
    elimination_order:
        The internal variables in the order they were summed out.
    """

    group_variables: tuple[Variable, ...]
    columns: tuple[np.ndarray, ...]
    count_array: np.ndarray
    dropped_predicates: tuple[Predicate, ...]
    elimination_order: tuple[Variable, ...]

    @property
    def is_exact(self) -> bool:
        """Whether every predicate was applied (counts are exact)."""
        return not self.dropped_predicates

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
        return tuple(col[row : row + 1].tolist()[0] for col in self.columns)

    def group_codes(self, arity: int) -> np.ndarray:
        """Dense ``int64`` codes of the rows' values on the first ``arity``
        group variables (equal codes ⇔ equal values)."""
        prefix = self.group_variables[:arity]
        factor = ArrayFactor(prefix, self.columns[:arity], self.count_array)
        return _renormalize(_factor_row_codes(factor, prefix))[0]


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
    """A min-width-style greedy elimination order over ``internal_variables``.

    Repeatedly picks the variable whose bucket join touches the fewest
    variables (ties broken by variable name, so the order is deterministic).
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
# Key factorization
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ColumnCodes:
    """The dense factorization of one value column.

    ``codes`` assigns every row an ``int64`` code in ``range(cardinality)``;
    ``values`` lists the distinct values (``values[codes]`` reconstructs the
    column).  ``sorted_values`` records whether ``values`` is a sorted
    non-object array (the ``np.unique`` fast path) — two sorted code spaces
    can be merged with vectorized ``searchsorted`` arithmetic, everything
    else goes through Python-dict interning (which also unifies
    numerically-equal values of different types, exactly like Python's own
    hashing).

    Codes survive row selection and fancy indexing unchanged (``values`` may
    then over-approximate the values actually present, which is harmless:
    codes are only ever compared for equality), so factors propagate their
    factorizations through joins and filters instead of recomputing them.
    """

    codes: np.ndarray
    values: np.ndarray
    sorted_values: bool

    @property
    def cardinality(self) -> int:
        """Number of distinct values in the code space."""
        return int(len(self.values))

    def take(self, selector: np.ndarray) -> "ColumnCodes":
        """The factorization of the rows chosen by a mask / index array."""
        return ColumnCodes(self.codes[selector], self.values, self.sorted_values)


def _factorize_column(col: np.ndarray) -> ColumnCodes:
    """Factorize one column: ``np.unique`` for plain dtypes, dict interning
    for object columns (hashable but not necessarily mutually orderable)."""
    if col.dtype != object:
        uniq, inverse = np.unique(col, return_inverse=True)
        return ColumnCodes(inverse.astype(np.int64, copy=False), uniq, True)
    table: dict = {}
    out = np.empty(len(col), dtype=np.int64)
    for i, value in enumerate(col.tolist()):
        out[i] = table.setdefault(value, len(table))
    values = np.empty(len(table), dtype=object)
    values[:] = list(table)
    return ColumnCodes(out, values, False)


class _FactorizationCounters:
    """Thread-safe hit/miss counters of the base-column factorization cache.

    One process-wide instance (:data:`_FACTORIZATION_COUNTERS`) accumulates
    the global totals; additional *scoped* instances are installed
    context-locally (:func:`factorization_counter_scope`) so one
    computation's delta can be read without racing unrelated work — two
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

    def add_delta(self, hits: int, misses: int) -> None:
        """Fold a batch of events counted elsewhere into this counter."""
        with self._lock:
            self.hits += hits
            self.misses += misses

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}

    def reset(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0


_FACTORIZATION_COUNTERS = _FactorizationCounters()

#: The innermost context-local counter scope (``None``: only globals count).
_FACTORIZATION_SCOPE: "contextvars.ContextVar[_FactorizationCounters | None]" = (
    contextvars.ContextVar("repro_factorization_scope", default=None)
)


def _record_factorization(hit: bool) -> None:
    """Record one cache event on the global counters and every active scope."""
    _FACTORIZATION_COUNTERS._record_one(hit)
    scope = _FACTORIZATION_SCOPE.get()
    while scope is not None:
        scope._record_one(hit)
        scope = scope.parent


def merge_factorization_delta(hits: int, misses: int) -> None:
    """Fold a ``{"hits", "misses"}`` delta counted in another process into
    the global counters and every active scope.

    This is the process-pool analogue of :func:`_record_factorization`:
    workers count their cache events in a worker-local scope, ship the
    snapshot home, and the parent merges it here so
    :func:`factorization_cache_stats` and any open
    :func:`factorization_counter_scope` stay consistent across
    serial/thread/process evaluation modes.
    """
    if not hits and not misses:
        return
    _FACTORIZATION_COUNTERS.add_delta(hits, misses)
    scope = _FACTORIZATION_SCOPE.get()
    while scope is not None:
        scope.add_delta(hits, misses)
        scope = scope.parent


def factorization_cache_stats() -> dict[str, int]:
    """Cumulative process-wide ``{"hits", "misses"}`` of the per-(relation,
    column) cache (the cache itself lives on each
    :class:`~repro.data.relation.Relation`).

    These totals are shared by everything in the process; callers that need
    the delta of *one* computation must not diff before/after snapshots
    (concurrent work pollutes the difference) — open a
    :func:`factorization_counter_scope` instead, as
    :func:`repro.engine.profile.evaluate_profile` does.
    """
    return _FACTORIZATION_COUNTERS.snapshot()


def reset_factorization_cache_stats() -> None:
    """Zero the process-wide counters (tests/benchmarks; scopes are unaffected)."""
    _FACTORIZATION_COUNTERS.reset()


@contextlib.contextmanager
def factorization_counter_scope() -> "Iterator[_FactorizationCounters]":
    """A context-local counter seeing only this context's cache events.

    Nested scopes stack (both count); the global totals always count.  The
    yielded object stays readable after the ``with`` block — its snapshot is
    the computation's exact delta.  Worker threads spawned inside the scope
    start with an empty context; re-establish the scope there with
    :func:`adopt_factorization_scope`.
    """
    scope = _FactorizationCounters(parent=_FACTORIZATION_SCOPE.get())
    token = _FACTORIZATION_SCOPE.set(scope)
    try:
        yield scope
    finally:
        _FACTORIZATION_SCOPE.reset(token)


@contextlib.contextmanager
def adopt_factorization_scope(scope: "_FactorizationCounters | None"):
    """Re-establish ``scope`` (captured in another thread) in this context.

    ``adopt_factorization_scope(None)`` is a no-op context, so callers can
    pass through whatever they captured.  The counters are thread-safe, so
    any number of workers may adopt one scope concurrently.
    """
    if scope is None:
        yield None
        return
    token = _FACTORIZATION_SCOPE.set(scope)
    try:
        yield scope
    finally:
        _FACTORIZATION_SCOPE.reset(token)


def current_factorization_scope() -> "_FactorizationCounters | None":
    """The innermost active scope (capture before fanning out to a pool)."""
    return _FACTORIZATION_SCOPE.get()


def _relation_factorization(relation: Relation, position: int) -> ColumnCodes:
    """The cached factorization of a base-relation column (compute on miss)."""
    cached = relation.cached_factorization(position)
    if isinstance(cached, ColumnCodes):
        _record_factorization(True)
        return cached
    factorized = _factorize_column(relation.to_columns()[position])
    relation.store_factorization(position, factorized)
    _record_factorization(False)
    return factorized


# --------------------------------------------------------------------- #
# Factors
# --------------------------------------------------------------------- #
@dataclass
class ArrayFactor:
    """A count-annotated factor stored columnar.

    ``columns`` holds one value array per entry of ``variables`` (aligned,
    equal length); ``counts`` is the per-row multiplicity, ``int64`` or —
    once it could overflow — ``object`` (Python ints).  Value arrays are
    either ``int64`` (fast path) or ``object`` (arbitrary hashable values).
    ``codes`` optionally carries the :class:`ColumnCodes` factorization of
    each column (``None`` entries are factorized lazily and memoized).
    A factor over zero variables is a scalar: ``columns`` is empty and
    ``counts`` has exactly one entry (or zero entries for the empty result).
    """

    variables: tuple[Variable, ...]
    columns: tuple[np.ndarray, ...]
    counts: np.ndarray
    codes: list[ColumnCodes | None] | None = field(default=None)

    def __len__(self) -> int:
        return int(self.counts.shape[0])

    def column(self, var: Variable) -> np.ndarray:
        """The value column of ``var`` (raises ``ValueError`` if absent)."""
        return self.columns[self.variables.index(var)]

    def _code_slots(self) -> list[ColumnCodes | None]:
        if self.codes is None:
            self.codes = [None] * len(self.columns)
        return self.codes

    def code_of(self, var: Variable) -> ColumnCodes:
        """The (lazily computed, memoized) factorization of ``var``'s column."""
        slots = self._code_slots()
        index = self.variables.index(var)
        if slots[index] is None:
            slots[index] = _factorize_column(self.columns[index])
        return slots[index]

    def take(self, selector: np.ndarray) -> "ArrayFactor":
        """A new factor keeping the rows chosen by a boolean mask / index array."""
        codes = None
        if self.codes is not None:
            codes = [cc.take(selector) if cc is not None else None for cc in self.codes]
        return ArrayFactor(
            self.variables,
            tuple(col[selector] for col in self.columns),
            self.counts[selector],
            codes,
        )


def _renormalize(codes: np.ndarray) -> tuple[np.ndarray, int]:
    uniq, inverse = np.unique(codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), max(int(len(uniq)), 1)


def _factor_row_codes(factor: ArrayFactor, variables: Sequence[Variable]) -> np.ndarray:
    """``int64`` codes identifying the distinct rows of ``variables`` in ``factor``.

    Zero variables means every row is the same (all-zero codes).  Multi-column
    keys are packed positionally (``codes * cardinality + codes``) from the
    per-column factorizations and re-factorized whenever the packed key space
    approaches the ``int64`` range.
    """
    if not variables:
        return np.zeros(len(factor), dtype=np.int64)
    codes: np.ndarray | None = None
    cardinality = 1
    for var in variables:
        cc = factor.code_of(var)
        distinct = max(cc.cardinality, 1)
        if codes is None:
            codes, cardinality = cc.codes, distinct
        else:
            codes = codes * np.int64(distinct) + cc.codes
            cardinality *= distinct
        if cardinality > _RENORMALIZE_CARDINALITY:
            codes, cardinality = _renormalize(codes)
    return codes


def _merge_column_codes(
    left: ColumnCodes, right: ColumnCodes
) -> tuple[np.ndarray, np.ndarray, int]:
    """Re-encode two factorizations of one variable into a joint code space.

    Only the *distinct values* of each side are compared (O(distinct) work
    instead of the O(rows) column concatenation the codes replace); the row
    codes are then translated with one vectorized ``take`` per side.
    """
    if left.sorted_values and right.sorted_values:
        combined = np.concatenate([left.values, right.values])
        joint, inverse = np.unique(combined, return_inverse=True)
        left_map = inverse[: len(left.values)].astype(np.int64, copy=False)
        right_map = inverse[len(left.values) :].astype(np.int64, copy=False)
        cardinality = int(len(joint))
    else:
        table: dict = {}
        left_map = np.fromiter(
            (table.setdefault(v, len(table)) for v in left.values.tolist()),
            dtype=np.int64,
            count=len(left.values),
        )
        right_map = np.fromiter(
            (table.setdefault(v, len(table)) for v in right.values.tolist()),
            dtype=np.int64,
            count=len(right.values),
        )
        cardinality = len(table)
    left_codes = left_map[left.codes] if len(left.values) else left.codes
    right_codes = right_map[right.codes] if len(right.values) else right.codes
    return left_codes, right_codes, cardinality


def _factor_join_codes(
    left: ArrayFactor, right: ArrayFactor, shared: Sequence[Variable]
) -> tuple[np.ndarray, np.ndarray]:
    """Row codes for the shared key columns, consistent across both join sides."""
    nl, nr = len(left), len(right)
    lcodes: np.ndarray | None = None
    rcodes: np.ndarray | None = None
    cardinality = 1
    for var in shared:
        lcol, rcol, distinct = _merge_column_codes(left.code_of(var), right.code_of(var))
        distinct = max(distinct, 1)
        if lcodes is None or rcodes is None:
            lcodes, rcodes, cardinality = lcol, rcol, distinct
        else:
            lcodes = lcodes * np.int64(distinct) + lcol
            rcodes = rcodes * np.int64(distinct) + rcol
            cardinality *= distinct
        if cardinality > _RENORMALIZE_CARDINALITY:
            combined, cardinality = _renormalize(np.concatenate([lcodes, rcodes]))
            lcodes, rcodes = combined[:nl], combined[nl:]
    if lcodes is None or rcodes is None:
        return np.zeros(nl, dtype=np.int64), np.zeros(nr, dtype=np.int64)
    return lcodes, rcodes


# --------------------------------------------------------------------- #
# Relational primitives
# --------------------------------------------------------------------- #
class _RowCapExceeded(Exception):
    """A join of the predicate-aware plan would pass its row cap."""


def _check_row_cap(rows: int, row_cap: int | None) -> None:
    if row_cap is not None and rows > row_cap:
        raise _RowCapExceeded(rows)


def _expand_matches(
    lkey: np.ndarray, rkey: np.ndarray, row_cap: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Matching ``(left_idx, right_idx)`` row pairs of a factorized join.

    The right codes are stable-sorted; every left row is expanded to its
    matching right rows through ``searchsorted`` ranges, ``repeat`` and
    ``cumsum`` offsets.  The number of pairs is known from the ranges before
    anything is expanded, and is checked against ``row_cap`` there.
    """
    order = np.argsort(rkey, kind="stable")
    rsorted = rkey[order]
    lo = np.searchsorted(rsorted, lkey, side="left")
    hi = np.searchsorted(rsorted, lkey, side="right")
    matches = hi - lo
    hit = matches > 0
    per_left = matches[hit]
    total = int(per_left.sum())
    _check_row_cap(total, row_cap)
    left_idx = np.repeat(np.nonzero(hit)[0], per_left)
    starts = np.repeat(lo[hit], per_left)
    offsets = np.repeat(np.cumsum(per_left) - per_left, per_left)
    right_idx = order[starts + (np.arange(total, dtype=np.int64) - offsets)]
    return left_idx, right_idx


def _join(
    left: ArrayFactor, right: ArrayFactor, row_cap: int | None = None
) -> ArrayFactor:
    """Natural join of two factors, multiplying counts (vectorized).

    With shared variables this is a factorized sort-merge join: both sides'
    key columns are encoded into one code space, the right side is sorted by
    code, and every left row is expanded to its matching right rows through
    ``searchsorted`` ranges.  Without shared variables it degenerates to a
    cross product.  A join that would produce more than ``row_cap`` rows
    raises :class:`_RowCapExceeded` before materialising them.
    """
    shared = tuple(v for v in left.variables if v in right.variables)
    nl, nr = len(left), len(right)
    if shared:
        lkey, rkey = _factor_join_codes(left, right, shared)
        left_idx, right_idx = _expand_matches(lkey, rkey, row_cap)
    else:
        _check_row_cap(nl * nr, row_cap)
        left_idx = np.repeat(np.arange(nl, dtype=np.int64), nr)
        right_idx = np.tile(np.arange(nr, dtype=np.int64), nl)

    extra = tuple(v for v in right.variables if v not in shared)
    out_vars = left.variables + extra
    out_cols = tuple(col[left_idx] for col in left.columns) + tuple(
        right.column(v)[right_idx] for v in extra
    )
    left_codes = left.codes or [None] * len(left.columns)
    right_slots = right.codes or [None] * len(right.columns)
    out_codes: list[ColumnCodes | None] = [
        cc.take(left_idx) if cc is not None else None for cc in left_codes
    ]
    for v in extra:
        cc = right_slots[right.variables.index(v)]
        out_codes.append(cc.take(right_idx) if cc is not None else None)
    bound = _max_count(left.counts) * _max_count(right.counts)
    counts = _exact_counts(left.counts[left_idx], bound) * right.counts[right_idx]
    return ArrayFactor(out_vars, out_cols, counts, out_codes)


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


def _group_reduce(codes: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group first-occurrence indices and count sums, groups in
    ascending code order."""
    uniq, first_idx, inverse = np.unique(codes, return_index=True, return_inverse=True)
    counts = _exact_counts(counts, len(counts) * _max_count(counts))
    sums = np.zeros(len(uniq), dtype=counts.dtype)
    np.add.at(sums, inverse, counts)
    return first_idx, sums


def _project_sum(factor: ArrayFactor, keep: Sequence[Variable]) -> ArrayFactor:
    """Sum out every variable not in ``keep`` (vectorized group-by)."""
    keep_set = set(keep)
    keep_vars = tuple(v for v in factor.variables if v in keep_set)
    codes = _factor_row_codes(factor, keep_vars)
    first_idx, sums = _group_reduce(codes, factor.counts)
    slots = factor.codes or [None] * len(factor.columns)
    out_codes = []
    out_cols = []
    for v in keep_vars:
        index = factor.variables.index(v)
        out_cols.append(factor.columns[index][first_idx])
        cc = slots[index]
        out_codes.append(cc.take(first_idx) if cc is not None else None)
    return ArrayFactor(keep_vars, tuple(out_cols), sums, out_codes)


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


def _apply_ready_predicates(
    factor: ArrayFactor, pending: list[Predicate]
) -> tuple[ArrayFactor, list[Predicate]]:
    """Apply (and consume) every pending predicate contained in ``factor``."""
    var_set = frozenset(factor.variables)
    ready = [p for p in pending if p.variables <= var_set]
    if not ready:
        return factor, pending
    remaining = [p for p in pending if p not in ready]
    operands = dict(zip(factor.variables, factor.columns))
    mask = np.ones(len(factor), dtype=bool)
    for pred in ready:
        mask &= predicate_mask(pred, operands, len(factor))
    return factor.take(mask), remaining


# --------------------------------------------------------------------- #
# Atom factors
# --------------------------------------------------------------------- #
def _atom_factor(query: ConjunctiveQuery, database: Database, atom_index: int) -> ArrayFactor:
    """The initial factor of one atom: distinct variable bindings with count 1.

    Columns (and their factorizations) come straight from the relation's
    cached columnar snapshot, so repeated eliminations over the same
    instance — every subset of a sensitivity profile, every query of a
    serving session — skip the ``np.unique`` factorization entirely.
    """
    atom = query.atoms[atom_index]
    relation = database.relation(atom.relation)
    raw = relation.to_columns()
    length = len(relation)

    mask: np.ndarray | None = None

    def conjoin(condition: np.ndarray) -> None:
        nonlocal mask
        mask = condition if mask is None else (mask & condition)

    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            conjoin(_as_bool_mask(raw[position] == term.value, length))
    variables = atom.variables
    var_positions = {v: atom.positions_of(v) for v in variables}
    for positions in var_positions.values():
        for position in positions[1:]:
            conjoin(_as_bool_mask(raw[positions[0]] == raw[position], length))

    codes: list[ColumnCodes | None] = [
        _relation_factorization(relation, var_positions[v][0]) for v in variables
    ]
    if mask is not None:
        keep = np.nonzero(mask)[0]
        columns = tuple(raw[var_positions[v][0]][keep] for v in variables)
        codes = [cc.take(keep) if cc is not None else None for cc in codes]
        rows = int(len(keep))
    else:
        columns = tuple(raw[var_positions[v][0]] for v in variables)
        rows = length
    # Distinct relation rows always induce distinct bindings (constants and
    # repeated variables are filtered above), so every count is 1.
    return ArrayFactor(tuple(variables), columns, np.ones(rows, dtype=np.int64), codes)


# --------------------------------------------------------------------- #
# Heavy-bucket sparse-matmul fast path
# --------------------------------------------------------------------- #
def _estimated_join_rows(
    left: ArrayFactor, right: ArrayFactor, shared: tuple[Variable, ...]
) -> int:
    """Number of rows the join of two factors would produce (exact, cheap)."""
    lkey, rkey = _factor_join_codes(left, right, shared)
    rsorted = np.sort(rkey, kind="stable")
    lo = np.searchsorted(rsorted, lkey, side="left")
    hi = np.searchsorted(rsorted, lkey, side="right")
    return int((hi - lo).sum())


def _matmul_aggregate(
    left: ArrayFactor,
    right: ArrayFactor,
    shared: tuple[Variable, ...],
    pending: list[Predicate],
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
        columns = tuple(left.column(v)[:0] for v in left_keep) + tuple(
            right.column(v)[:0] for v in right_keep
        )
        return ArrayFactor(out_vars, columns, np.zeros(0, dtype=np.int64))

    # An empty side, or no right row matching any left mid, returns the
    # empty factor with ``pending`` untouched (the predicates stay pending
    # for later factors).
    if not nl or not nr:
        return empty_result(), pending

    lmid, rmid = _factor_join_codes(left, right, shared)
    if not np.isin(rmid, lmid).any():
        return empty_result(), pending
    mid_uniq, mid_inverse = np.unique(np.concatenate([lmid, rmid]), return_inverse=True)
    lmid_dense, rmid_dense = mid_inverse[:nl], mid_inverse[nl:]

    lrow = _factor_row_codes(left, left_keep)
    rcol = _factor_row_codes(right, right_keep)
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
    left_slots = left.codes or [None] * len(left.columns)
    right_slots = right.codes or [None] * len(right.columns)
    out_codes: list[ColumnCodes | None] = []
    for v in left_keep:
        cc = left_slots[left.variables.index(v)]
        out_codes.append(cc.take(left_idx) if cc is not None else None)
    for v in right_keep:
        cc = right_slots[right.variables.index(v)]
        out_codes.append(cc.take(right_idx) if cc is not None else None)
    factor = ArrayFactor(out_vars, out_cols, counts, out_codes)

    # Apply the pending predicates that survived the projection.
    return _apply_ready_predicates(factor, pending)


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
                    bucket[0], bucket[1], shared, pending
                )
                return _project_sum(factor, keep), pending

    ordered = order_factors_for_join(bucket)
    current, pending = _apply_ready_predicates(ordered[0], pending)
    for factor in ordered[1:]:
        current = _join(current, factor, row_cap)
        current, pending = _apply_ready_predicates(current, pending)
    return _project_sum(current, keep), pending


def _eliminate(
    factors: list[ArrayFactor],
    internal: Sequence[Variable],
    group_vars: tuple[Variable, ...],
    pending: list[Predicate],
    row_cap: int | None,
) -> tuple[ArrayFactor, list[Predicate], list[Variable]]:
    """Sum ``internal`` out of ``factors``; ``(final factor, dropped, order)``.

    With a ``row_cap`` this is the predicate-aware plan: pending predicates
    are hyperedges of the elimination order, the bucket of ``v`` also takes
    every factor sharing a variable with a pending predicate on ``v``, and a
    join above the cap raises :class:`_RowCapExceeded`.  Without one it is
    the predicate-blind plan, which drops what it cannot apply.
    """
    edges = [set(f.variables) for f in factors]
    if row_cap is not None:
        edges += [set(p.variables) for p in pending]
    order = greedy_elimination_order(edges, internal)

    for var in order:
        linked = {var}
        if row_cap is not None:
            for pred in pending:
                if var in pred.variables:
                    linked |= pred.variables
        bucket = [f for f in factors if linked.intersection(f.variables)]
        if not bucket:
            continue
        others = [f for f in factors if not linked.intersection(f.variables)]
        keep = [v for factor in bucket for v in factor.variables if v != var]
        summed, pending = _join_and_aggregate(bucket, keep, pending, row_cap)
        factors = others + [summed]

    final, pending = _join_and_aggregate(factors, list(group_vars), pending, row_cap)
    return final, pending, order


def eliminate_group_counts_columnar(
    query: ConjunctiveQuery,
    database: Database,
    group_variables: Sequence[Variable],
    *,
    atom_indices: Sequence[int] | None = None,
    predicates: Sequence[Predicate] | None = None,
) -> EliminationResult:
    """Group-by counts of a (residual) CQ via vectorized bucket elimination.

    Predicates that no single atom covers run through the predicate-aware
    plan, which applies every one of them; if one of its joins would pass
    :data:`BUCKET_ROW_CAP` rows, the predicate-blind plan runs instead and
    reports the predicates it could not apply as dropped.

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

    Returns
    -------
    EliminationResult
        Group counts plus bookkeeping about dropped predicates.
    """
    indices = list(range(query.num_atoms)) if atom_indices is None else list(atom_indices)
    if not indices:
        return EliminationResult(
            tuple(group_variables), (), np.ones(1, dtype=np.int64), (), ()
        )

    covered_vars = query.variables_of(indices)
    group_vars = tuple(group_variables)
    unknown = [v for v in group_vars if v not in covered_vars]
    if unknown:
        raise EvaluationError(
            f"group variables {sorted(v.name for v in unknown)} do not occur in the "
            "selected atoms"
        )

    pending = [
        p
        for p in (query.predicates if predicates is None else predicates)
        if p.variables <= covered_vars
    ]

    factors: list[ArrayFactor] = []
    for idx in indices:
        factor = _atom_factor(query, database, idx)
        factor, pending = _apply_ready_predicates(factor, pending)
        factors.append(factor)

    internal = [v for v in covered_vars if v not in group_vars]
    plan = None
    if pending:
        try:
            plan = _eliminate(factors, internal, group_vars, pending, BUCKET_ROW_CAP)
        except _RowCapExceeded:
            pass  # the predicate-blind plan below drops what it cannot apply
    final, pending, order = plan or _eliminate(factors, internal, group_vars, pending, None)

    # Key columns in the requested group-variable order (the final factor's
    # variables are a permutation of ``group_vars``).
    return EliminationResult(
        group_variables=group_vars,
        columns=tuple(final.column(v) for v in group_vars),
        count_array=final.counts,
        dropped_predicates=tuple(pending),
        elimination_order=tuple(order),
    )
