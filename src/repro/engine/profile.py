"""Shared-lattice evaluation of residual-sensitivity profiles.

Residual sensitivity (Equations 19–21 of the paper) needs the boundary
multiplicity ``T_F(I)`` of *every* residual subset ``F`` in a lattice that
is exponential in the number of private atoms.  Evaluating each subset in
isolation — the reference path of
:meth:`repro.sensitivity.residual.ResidualSensitivity.multiplicities_reference`
— multiplies work that the subsets overwhelmingly share:

* a disconnected residual factorizes into **connected components** whose
  boundaries are disjoint, so ``T_F`` is the product of the per-component
  maxima (see :func:`repro.engine.aggregates.combine_component_results`) —
  and the *same* component recurs across dozens of subsets of the lattice;
* components that are **isomorphic up to variable renaming** (ubiquitous
  under self-joins: every single-atom residual of the triangle query is the
  same query shape) have identical multiplicities on every instance.

:func:`evaluate_profile` therefore plans the whole lattice up front:
every subset is decomposed once, each *structurally distinct* component is
evaluated exactly once (isomorphism detected through a conservative
canonical signature in the spirit of
:func:`repro.engine.canonical.canonical_query_key`), and per-subset results
are assembled from the memoized component results.  Independent component
evaluations can optionally fan out over a thread pool (``parallelism=``);
each thread adopts the profile's factorization-counter scope, so the
:class:`ProfileStats` totals match serial evaluation.

The evaluator is *result-identical* to the per-subset reference path:
value, exactness flag and dropped-predicate multiset agree on every subset
(the ``lattice-profile`` differential-fuzz check in :mod:`repro.qa.runner`
enforces this for every generated workload).  Components
whose evaluation depends on more than their own shape — residuals with
boundary-crossing comparison predicates (the Section 5.2 augmented-domain
path) or generic predicates — are never shared structurally, only by
identical atom sets.

Sharing can additionally persist *across* runs through an optional
``component_cache``: entries are keyed by the component's exact atoms plus
the **epochs** of the relations the component actually reads
(:meth:`repro.data.database.Database.epochs`), so a delta mutation of
relation ``R`` (see ``docs/mutation.md``) invalidates exactly the entries
touching ``R`` — untouched components come back as cache hits and only the
changed ones are re-evaluated.  Components on the augmented-domain path
read the whole database's active domain, so their entries are keyed on the
full epoch vector.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro.data.database import Database
from repro.engine.aggregates import (
    DEFAULT_MAX_ENUMERATION,
    MultiplicityResult,
    boundary_multiplicity,
    combine_component_results,
)
from repro.engine.canonical import _predicate_key, _term_key
from repro.engine.columnar import (
    adopt_factorization_scope,
    current_factorization_scope,
    factorization_counter_scope,
)
from repro.obs.tracing import span as obs_span
from repro.query.atoms import Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import QueryHypergraph
from repro.query.residual import ResidualQuery, residual_query

__all__ = ["LatticeProfile", "ProfileStats", "evaluate_profile"]


@dataclass(frozen=True)
class ProfileStats:
    """Work-sharing diagnostics of one :func:`evaluate_profile` run.

    Attributes
    ----------
    subsets_total:
        Number of lattice subsets the profile covers.
    components_total:
        Component references across all subsets (what the per-subset
        reference path would evaluate).
    components_evaluated:
        Distinct component evaluations actually run.
    component_hits:
        Within-run reuses (a component recurring in another subset, or an
        isomorphic twin folded onto its representative).
    component_cache_hits:
        Representatives answered from the cross-run ``component_cache``
        (epoch-keyed; zero when no cache is supplied).  Together:
        ``components_total == components_evaluated + component_hits +
        component_cache_hits``.
    factorization_hits / factorization_misses:
        This run's coded-column lookups, one per relation read by an
        atom (a miss when the relation had to be coded against the
        database's value dictionary),
        counted through a context-local scope
        (:func:`repro.engine.columnar.factorization_counter_scope`) — exact
        even when unrelated evaluations run concurrently in the process.
    """

    subsets_total: int
    components_total: int
    components_evaluated: int
    component_hits: int
    factorization_hits: int
    factorization_misses: int
    component_cache_hits: int = 0

    def to_dict(self) -> dict[str, int]:
        """A JSON-serialisable view (for reports, ``--json`` and ``/stats``)."""
        return {
            "subsets_total": self.subsets_total,
            "components_total": self.components_total,
            "components_evaluated": self.components_evaluated,
            "component_hits": self.component_hits,
            "component_cache_hits": self.component_cache_hits,
            "factorization_hits": self.factorization_hits,
            "factorization_misses": self.factorization_misses,
        }


@dataclass(frozen=True)
class LatticeProfile:
    """The full ``{F → T_F}`` profile plus its work-sharing statistics."""

    results: Mapping[frozenset[int], MultiplicityResult]
    stats: ProfileStats


# --------------------------------------------------------------------- #
# Component canonicalization
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ComponentInfo:
    """Structural description of one connected component of the lattice."""

    atoms: tuple[int, ...]
    residual: ResidualQuery
    group_vars: tuple[Variable, ...]
    names: Mapping[Variable, str]
    by_name: Mapping[str, Variable]
    signature: tuple | None
    pred_keys: tuple[str | None, ...]


def _component_info(query: ConjunctiveQuery, component: frozenset[int]) -> _ComponentInfo:
    residual = residual_query(query, component)
    group_vars = tuple(sorted(residual.boundary_relational, key=lambda v: v.name))
    atoms = tuple(sorted(component))

    names: dict[Variable, str] = {}
    for idx in atoms:
        for term in query.atoms[idx].terms:
            if isinstance(term, Variable) and term not in names:
                names[term] = f"v{len(names)}"
    by_name = {name: var for var, name in names.items()}

    pred_keys = tuple(_predicate_key(p, names) for p in residual.predicates)

    signature: tuple | None
    if any(not p.is_inequality for p in residual.dropped_predicates) or any(
        key is None for key in pred_keys
    ):
        # Section 5.2 domain-ranging (value depends on predicates linking to
        # the outside) or generic predicates (not structurally comparable):
        # share only by identical atom set.
        signature = None
    else:
        atom_keys = tuple(
            (
                query.atoms[idx].relation,
                tuple(_term_key(t, names) for t in query.atoms[idx].terms),
            )
            for idx in atoms
        )
        boundary_key = tuple(sorted(names[v] for v in residual.boundary_relational))
        output_key = (
            ("*",)
            if query.is_full
            else tuple(sorted(names[v] for v in residual.output_variables))
        )
        signature = (atom_keys, boundary_key, output_key, tuple(sorted(pred_keys)))

    return _ComponentInfo(
        atoms=atoms,
        residual=residual,
        group_vars=group_vars,
        names=names,
        by_name=by_name,
        signature=signature,
        pred_keys=pred_keys,
    )


def _translate_result(
    result: MultiplicityResult, source: _ComponentInfo, target: _ComponentInfo
) -> MultiplicityResult:
    """Re-express an isomorphic component's result in the target's variables.

    ``source`` and ``target`` share a canonical signature, so the positional
    variable correspondence (canonical name → variable) is a query
    isomorphism: the value, exactness and strategy carry over verbatim,
    dropped predicates map to the target's own predicate objects through
    their canonical keys, and the witness tuple is re-ordered to the
    target's boundary-variable ordering.
    """
    dropped = []
    if result.dropped_predicates:
        target_by_key: dict[str, list[int]] = {}
        for idx, key in enumerate(target.pred_keys):
            target_by_key.setdefault(key, []).append(idx)
        consumed: dict[str, int] = {}
        source_preds = list(source.residual.predicates)
        for pred in result.dropped_predicates:
            source_idx = next(
                i for i, p in enumerate(source_preds) if p is pred or p == pred
            )
            key = source.pred_keys[source_idx]
            position = consumed.get(key, 0)
            consumed[key] = position + 1
            dropped.append(target.residual.predicates[target_by_key[key][position]])

    witness = result.witness
    if witness is not None:
        source_index = {var: i for i, var in enumerate(source.group_vars)}
        witness = tuple(
            witness[source_index[source.by_name[target.names[var]]]]
            for var in target.group_vars
        )

    return replace(
        result,
        witness=witness,
        boundary=target.group_vars,
        dropped_predicates=tuple(dropped),
    )


# --------------------------------------------------------------------- #
# Cross-run component caching
# --------------------------------------------------------------------- #
_MISS = object()


def _component_cache_key(
    query: ConjunctiveQuery,
    database: Database,
    info: _ComponentInfo,
    scope: tuple,
    strategy: str,
    max_enumeration: int | None,
) -> tuple:
    """Cache key pinning everything a component's result depends on.

    The atoms are recorded with their literal terms (not the canonical
    signature) so a hit is guaranteed to come from a textually identical
    component of a query under the same ``scope`` — the stored result's
    variable and predicate objects then compare equal to this run's rebuilt
    residual, and :func:`_translate_result` / assembly work unchanged.
    Residual and dropped predicates are keyed by ``repr`` so generic
    predicates (whose canonical key is ``None``) still disambiguate.
    """
    atoms_key = tuple(
        (query.atoms[idx].relation, tuple(repr(t) for t in query.atoms[idx].terms))
        for idx in info.atoms
    )
    preds_key = (
        tuple(repr(p) for p in info.residual.predicates),
        tuple(repr(p) for p in info.residual.dropped_predicates),
    )
    if any(not p.is_inequality for p in info.residual.dropped_predicates):
        # Section 5.2 augmented-domain path: the boundary value ranges over
        # the *whole* database's active domain, so any relation's mutation
        # can change the result — key on the full epoch vector.
        epochs = tuple(sorted(database.epochs().items()))
    else:
        names = {query.atoms[idx].relation for idx in info.atoms}
        epochs = tuple(sorted((n, database.relation(n).epoch) for n in names))
    return (scope, strategy, max_enumeration, atoms_key, preds_key, epochs)


# --------------------------------------------------------------------- #
# The evaluator
# --------------------------------------------------------------------- #
def evaluate_profile(
    query: ConjunctiveQuery,
    database: Database,
    subsets: Iterable[Iterable[int]],
    *,
    strategy: str = "auto",
    max_enumeration: int | None = DEFAULT_MAX_ENUMERATION,
    parallelism: int | None = None,
    component_cache=None,
    cache_scope: tuple = (),
) -> LatticeProfile:
    """Evaluate ``T_F(I)`` for every subset ``F`` in one shared pass.

    Parameters
    ----------
    query / database:
        The parent conjunctive query and the instance ``I``.
    subsets:
        The kept-atom subsets the profile must cover (typically
        :meth:`~repro.sensitivity.residual.ResidualSensitivity.required_subsets`).
    strategy / max_enumeration:
        Forwarded to :func:`repro.engine.aggregates.boundary_multiplicity`.
        ``strategy="enumerate"`` deliberately bypasses all sharing (the
        exact-enumeration path does not decompose residuals either) and
        evaluates per subset.
    parallelism:
        Fan independent component evaluations out over a thread pool of
        this size (``None``/``0``/``1`` evaluates serially).  Results are
        identical either way; ``strategy="enumerate"`` always evaluates
        serially.
    component_cache / cache_scope:
        Optional cross-run memo table for representative components —
        anything with the :class:`repro.service.cache.LRUCache` ``get(key,
        default)`` / ``put(key, value)`` shape.  Entries embed the epochs of
        the relations each component reads (see the module docstring), so
        after a delta mutation only the components touching mutated
        relations re-evaluate.  ``cache_scope`` namespaces entries (the
        serving layer passes ``(name, version, plan_key)``) so distinct
        registrations never collide even if their relation epochs do.

    Returns
    -------
    LatticeProfile
        Per-subset :class:`~repro.engine.aggregates.MultiplicityResult`
        values (in ``subsets`` order) plus sharing statistics.
    """
    subset_list = [frozenset(s) for s in subsets]
    # The factorization counters are read through a context-local scope so
    # the per-profile delta is exact even when other services/threads are
    # evaluating concurrently in this process; the span is a no-op unless a
    # request-scoped trace is active (see repro.obs.tracing).
    with obs_span(
        "profile.evaluate", subsets=len(subset_list)
    ), factorization_counter_scope() as fact_counters:
        return _evaluate_profile_scoped(
            query,
            database,
            subset_list,
            strategy=strategy,
            max_enumeration=max_enumeration,
            parallelism=parallelism,
            fact_counters=fact_counters,
            component_cache=component_cache,
            cache_scope=cache_scope,
        )


def _evaluate_profile_scoped(
    query: ConjunctiveQuery,
    database: Database,
    subset_list: list[frozenset[int]],
    *,
    strategy: str,
    max_enumeration: int | None,
    parallelism: int | None,
    fact_counters,
    component_cache=None,
    cache_scope: tuple = (),
) -> LatticeProfile:
    """The evaluator body, run inside the counter scope (see above)."""

    def finish(
        results: dict[frozenset[int], MultiplicityResult],
        components_total: int,
        components_evaluated: int,
        cache_hits: int = 0,
    ) -> LatticeProfile:
        fact = fact_counters.snapshot()
        stats = ProfileStats(
            subsets_total=len(subset_list),
            components_total=components_total,
            components_evaluated=components_evaluated,
            component_hits=components_total - components_evaluated - cache_hits,
            factorization_hits=fact["hits"],
            factorization_misses=fact["misses"],
            component_cache_hits=cache_hits,
        )
        return LatticeProfile(results=results, stats=stats)

    def evaluate(kept: Iterable[int]) -> MultiplicityResult:
        return boundary_multiplicity(
            query,
            database,
            kept,
            strategy=strategy,
            max_enumeration=max_enumeration,
        )

    if strategy == "enumerate":
        results = {kept: evaluate(kept) for kept in subset_list}
        nonempty = sum(1 for kept in subset_list if kept)
        return finish(results, nonempty, nonempty)

    # Phase 1 — plan: decompose every subset into connected components.
    plans: dict[frozenset[int], list[frozenset[int]]] = {}
    infos: dict[frozenset[int], _ComponentInfo] = {}
    for kept in subset_list:
        if kept in plans:
            continue
        if not kept:
            plans[kept] = []
            continue
        components = [
            frozenset(c) for c in QueryHypergraph(query, kept).connected_components()
        ]
        plans[kept] = components
        for component in components:
            if component not in infos:
                infos[component] = _component_info(query, component)

    # Phase 2 — dedupe: pick one representative per canonical signature.
    representative: dict[frozenset[int], frozenset[int]] = {}
    by_signature: dict[tuple, frozenset[int]] = {}
    for component in sorted(infos, key=lambda c: (len(c), tuple(sorted(c)))):
        signature = infos[component].signature
        if signature is None:
            representative[component] = component
        else:
            representative[component] = by_signature.setdefault(signature, component)

    # Phase 3 — evaluate each representative once (optionally in parallel).
    # Representatives already answered by the epoch-keyed component cache
    # (same scope, same atoms, same relation epochs) skip evaluation
    # entirely; only the remainder runs.
    to_evaluate = sorted(
        set(representative.values()), key=lambda c: (len(c), tuple(sorted(c)))
    )
    cache_keys: dict[frozenset[int], tuple] = {}
    cached: dict[frozenset[int], MultiplicityResult] = {}
    if component_cache is not None:
        for component in to_evaluate:
            key = _component_cache_key(
                query,
                database,
                infos[component],
                cache_scope,
                strategy,
                max_enumeration,
            )
            cache_keys[component] = key
            hit = component_cache.get(key, _MISS)
            if hit is not _MISS:
                cached[component] = hit
    pending = [c for c in to_evaluate if c not in cached]
    if parallelism is not None and parallelism > 1 and len(pending) > 1:
        # Pool workers start with an empty context: re-establish the
        # factorization-counter scope there so parallel evaluation counts
        # exactly like serial evaluation (spans are deliberately not
        # propagated — concurrent child wall times would double-count).
        scope = current_factorization_scope()

        def evaluate_scoped(kept: frozenset[int]) -> MultiplicityResult:
            with adopt_factorization_scope(scope):
                return evaluate(kept)

        # Submit + wait(FIRST_EXCEPTION) rather than pool.map: map surfaces
        # the first failure only after every in-flight sibling finishes and
        # keeps running queued work — here queued siblings are cancelled and
        # the failure propagates as soon as it happens.
        pool = ThreadPoolExecutor(max_workers=parallelism)
        try:
            futures = {pool.submit(evaluate_scoped, kept): kept for kept in pending}
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            failure = next(
                (f.exception() for f in done if f.exception() is not None), None
            )
            if failure is not None:
                raise failure
            by_component = {kept: future for future, kept in futures.items()}
            fresh = {kept: by_component[kept].result() for kept in pending}
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        fresh = {component: evaluate(component) for component in pending}
    if component_cache is not None:
        for component, result in fresh.items():
            component_cache.put(cache_keys[component], result)
    evaluated = {**cached, **fresh}

    component_results: dict[frozenset[int], MultiplicityResult] = {}
    for component, rep in representative.items():
        if component == rep:
            component_results[component] = evaluated[rep]
        else:
            component_results[component] = _translate_result(
                evaluated[rep], infos[rep], infos[component]
            )

    # Phase 4 — assemble the per-subset results (in the requested order).
    results = {}
    for kept in subset_list:
        components = plans[kept]
        if not components:
            results[kept] = evaluate(kept)  # the T_∅ = 1 convention
        elif len(components) == 1:
            results[kept] = component_results[components[0]]
        else:
            residual = residual_query(query, kept)
            group_vars = tuple(
                sorted(residual.boundary_relational, key=lambda v: v.name)
            )
            results[kept] = combine_component_results(
                residual,
                group_vars,
                [component_results[c] for c in components],
                [query.variables_of(c) for c in components],
            )

    components_total = sum(len(c) for c in plans.values())
    return finish(results, components_total, len(pending), len(cached))
