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
* components that are **isomorphic** have identical multiplicities on every
  instance — up to variable renaming and atom order, and, for a binary
  relation whose rows are closed under swapping its two columns on the
  current data (an undirected graph stored as a symmetric ``Edge``), up to
  the order of that relation's two arguments.  Isomorphic twins are
  ubiquitous under self-joins: every single-atom residual of the triangle
  query is the same shape, and on a symmetric ``Edge`` so are its three
  two-atom paths.

:func:`evaluate_profile` therefore plans the whole lattice up front:
every subset is decomposed once, each *structurally distinct* component is
evaluated exactly once, and per-subset results are assembled from the
memoized component results.  Isomorphism is detected through a canonical
labelling (:func:`repro.engine.canonical.canonical_labelling`, which the
Möbius expansion shares): the least key over the leaves of an
individualisation-refinement search, capped at :data:`MAX_LABELLINGS`
leaves, memoised on the component's integer description, so a process
labels each component shape once.  The symmetry flag of each binary
relation the query reads is computed once per profile from its coded
columns and recorded on the relation for its epoch
(:func:`repro.engine.columnar.relation_is_symmetric`), so a delta that
breaks the symmetry re-plans the next profile.  Components are evaluated
one after another on the calling thread; concurrency comes only from
serving several requests at once.

The evaluator is *result-identical* to the per-subset reference path:
value, exactness flag and dropped-predicate multiset agree on every subset
(the ``lattice-profile`` differential-fuzz check in :mod:`repro.qa.runner`
enforces this for every generated workload).  Components
whose evaluation depends on more than their own shape — residuals with
boundary-crossing comparison predicates (the Section 5.2 augmented-domain
path) or generic predicates — and components over the labelling cap are
never shared structurally, only by identical atom sets.

Sharing can additionally persist *across* runs through an optional
``component_cache``: entries are keyed by the component's exact atoms and
record the **epochs** of the relations the component actually reads
(:meth:`repro.data.database.Database.epochs`), so after a delta mutation of
relation ``R`` (see ``docs/mutation.md``) only the entries touching ``R``
are stale — untouched components come back as cache hits.  A stale entry
that kept its boundary group counts is caught up by the delta query
instead of re-evaluated (:func:`repro.engine.columnar.refresh_group_counts`:
``R`` must be the only relation that changed and occur in one atom of the
component), the way incremental view maintenance keeps a view (F-IVM,
Nikolic & Olteanu, SIGMOD 2018).  An entry keeps its counts only when the
component is an exact elimination over a full query and a relation that
logs its changes occurs in exactly one of its atoms, so a pass over fresh
data keeps nothing but the results.  Components on the augmented-domain
path read the whole database's active domain, so their entries record the
full epoch vector and are never refreshed.  An entry is stored only for
the epochs whose rows it read
(:func:`repro.engine.columnar.maintained_counts`, which the true count of
:func:`repro.engine.evaluation.count_query` shares).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

from repro.data.database import Database
from repro.engine.aggregates import (
    MultiplicityResult,
    boundary_group_counts,
    combine_component_results,
    multiplicity_from_counts,
)
from repro.engine.canonical import (
    MAX_LABELLINGS,
    OPERATORS,
    _term_key,
    canonical_labelling,
)
from repro.engine.columnar import (
    EliminationResult,
    factorization_counter_scope,
    maintained_counts,
    relation_is_symmetric,
)
from repro.obs.tracing import span as obs_span
from repro.query.atoms import Constant, Variable
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
        (entries at the current epochs; zero when no cache is supplied).
    component_delta_updates:
        Representatives whose stale cache entry was caught up by a delta
        query instead of re-evaluated.  Together: ``components_total ==
        components_evaluated + component_hits + component_cache_hits +
        component_delta_updates``.
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
    component_delta_updates: int = 0

    def to_dict(self) -> dict[str, int]:
        """A JSON-serialisable view (for reports, ``--json`` and ``/stats``)."""
        return {
            "subsets_total": self.subsets_total,
            "components_total": self.components_total,
            "components_evaluated": self.components_evaluated,
            "component_hits": self.component_hits,
            "component_cache_hits": self.component_cache_hits,
            "component_delta_updates": self.component_delta_updates,
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
    names: Mapping[Variable, int]
    by_name: Mapping[int, Variable]
    signature: tuple | None
    pred_keys: tuple[tuple, ...]


class _QueryCodes:
    """The query as integers, built once per profile for the labelling.

    Variables are numbered from 0 in order of first appearance; relations
    are numbered from 0 and constants from -1 down, in the sorted order of
    their names and keys.  The numbers mean nothing outside this query, and
    signatures are only compared within one profile.  ``atoms`` holds
    ``(relation number, relation name, terms)`` per atom and ``predicates``
    ``(operator, left, right)`` per inequality or comparison, by ``id``.
    """

    def __init__(
        self, query: ConjunctiveQuery, is_symmetric: Callable[[str], bool]
    ) -> None:
        self.query = query
        self.is_symmetric = is_symmetric
        self.variables: list[Variable] = []
        self.index: dict[Variable, int] = {}
        oriented = {}
        for pred in query.predicates:
            if pred.is_inequality:
                oriented[id(pred)] = ("!=", pred.left, pred.right)
            elif pred.is_comparison:
                if pred.op in (">", ">="):
                    oriented[id(pred)] = (pred.op.replace(">", "<"), pred.right, pred.left)
                else:
                    oriented[id(pred)] = (pred.op, pred.left, pred.right)
        terms = [t for atom in query.atoms for t in atom.terms]
        terms += [t for _, left, right in oriented.values() for t in (left, right)]
        self._constants = {
            key: -1 - rank
            for rank, key in enumerate(
                sorted({_term_key(t, {}) for t in terms if isinstance(t, Constant)})
            )
        }
        relations = {
            name: rank
            for rank, name in enumerate(sorted({atom.relation for atom in query.atoms}))
        }
        self.atoms = [
            (relations[atom.relation], atom.relation, tuple(map(self._code, atom.terms)))
            for atom in query.atoms
        ]
        self.predicates = {
            key: (OPERATORS[op], self._code(left), self._code(right))
            for key, (op, left, right) in oriented.items()
        }

    def _code(self, term) -> int:
        if isinstance(term, Variable):
            code = self.index.get(term)
            if code is None:
                code = self.index[term] = len(self.variables)
                self.variables.append(term)
            return code
        return self._constants[_term_key(term, {})]


def _component_labelling(
    codes: _QueryCodes, atoms: tuple[int, ...], residual: ResidualQuery
) -> tuple[tuple, dict[Variable, int], tuple[tuple, ...]] | None:
    """The component's canonical key, the variable names giving it, and its
    predicates' keys under those names (``None`` over :data:`MAX_LABELLINGS`).

    The component goes to :func:`~repro.engine.canonical.canonical_labelling`
    as integers: its variables numbered in order of first appearance, a
    binary atom marked symmetric when its relation is, and each variable
    coloured by its boundary and output membership.
    """
    local: dict[int, int] = {}  # query variable number -> component variable
    specs = []
    for idx in atoms:
        relation, name, terms = codes.atoms[idx]
        terms = tuple(local.setdefault(t, len(local)) if t >= 0 else t for t in terms)
        specs.append((relation, len(terms) == 2 and codes.is_symmetric(name), terms))
    preds = tuple(
        (op, local.get(left, left), local.get(right, right))
        for op, left, right in (codes.predicates[id(p)] for p in residual.predicates)
    )
    colours = [0] * len(local)
    for v in residual.boundary_relational:
        colours[local[codes.index[v]]] = 1
    if not codes.query.is_full:
        for v in residual.output_variables:
            colours[local[codes.index[v]]] += 2
    # The cap is this module's name, read at call time, so lowering it here
    # lowers it for the profile alone.
    labelling = canonical_labelling(tuple(specs), preds, tuple(colours), MAX_LABELLINGS)
    if labelling is None:
        return None
    key, names, pred_keys = labelling
    variables = codes.variables
    return key, {variables[code]: names[i] for code, i in local.items()}, pred_keys


def _component_info(
    codes: _QueryCodes, component: frozenset[int]
) -> _ComponentInfo:
    query = codes.query
    residual = residual_query(query, component)
    group_vars = tuple(sorted(residual.boundary_relational, key=lambda v: v.name))
    atoms = tuple(sorted(component))

    labelling = None
    if all(p.is_inequality for p in residual.dropped_predicates) and all(
        id(p) in codes.predicates for p in residual.predicates
    ):
        labelling = _component_labelling(codes, atoms, residual)
    # Section 5.2 domain ranging (the value depends on predicates linking to
    # the outside), generic predicates (not structurally comparable) and
    # components over the labelling cap are shared only by identical atom set.
    signature, names, pred_keys = labelling or (None, {}, ())

    return _ComponentInfo(
        atoms=atoms,
        residual=residual,
        group_vars=group_vars,
        names=names,
        by_name={name: var for var, name in names.items()},
        signature=signature,
        pred_keys=pred_keys,
    )


def _translate_result(
    result: MultiplicityResult, source: _ComponentInfo, target: _ComponentInfo
) -> MultiplicityResult:
    """Re-express an isomorphic component's result in the target's variables.

    ``source`` and ``target`` share a canonical signature, so the variable
    correspondence through the canonical labelling (name → variable) is a
    query isomorphism — on the current data, when it swaps the arguments
    of a symmetric relation: the value, exactness and strategy carry over
    verbatim, dropped predicates map to the target's own predicate objects
    through their canonical keys, and the witness tuple is re-ordered to
    the target's boundary-variable ordering.
    """
    dropped = []
    if result.dropped_predicates:
        target_by_key: dict[tuple, list[int]] = {}
        for idx, key in enumerate(target.pred_keys):
            target_by_key.setdefault(key, []).append(idx)
        consumed: dict[tuple, int] = {}
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
def _component_cache_key(query: ConjunctiveQuery, info: _ComponentInfo, scope: tuple) -> tuple:
    """Cache key pinning everything a component's result depends on, except
    the data (the entry records the epochs it read).

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
    return (scope, atoms_key, preds_key)


def _component_relations(
    query: ConjunctiveQuery, database: Database, info: _ComponentInfo
) -> list[str]:
    """The relations whose epochs a component's result depends on."""
    if any(not p.is_inequality for p in info.residual.dropped_predicates):
        # Section 5.2 augmented-domain path: the boundary value ranges over
        # the *whole* database's active domain, so any relation's mutation
        # can change the result.
        return list(database.epochs())
    return [query.atoms[idx].relation for idx in info.atoms]


# --------------------------------------------------------------------- #
# The evaluator
# --------------------------------------------------------------------- #
def evaluate_profile(
    query: ConjunctiveQuery,
    database: Database,
    subsets: Iterable[Iterable[int]],
    *,
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
    component_cache / cache_scope:
        Optional cross-run memo table for representative components — a
        :class:`repro.service.cache.LRUCache` (``get(key, default,
        is_current=)`` / ``put(key, value)``).  Entries record the epochs of
        the relations each component reads (see the module docstring), so
        after a delta mutation only the components touching mutated
        relations are caught up by delta or re-evaluated.  ``cache_scope``
        namespaces entries (the serving layer passes ``(name, version,
        plan_key)``) so distinct registrations never collide even if their
        relation epochs do.

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
            fact_counters=fact_counters,
            component_cache=component_cache,
            cache_scope=cache_scope,
        )


def _evaluate_profile_scoped(
    query: ConjunctiveQuery,
    database: Database,
    subset_list: list[frozenset[int]],
    *,
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
        delta_updates: int = 0,
    ) -> LatticeProfile:
        fact = fact_counters.snapshot()
        stats = ProfileStats(
            subsets_total=len(subset_list),
            components_total=components_total,
            components_evaluated=components_evaluated,
            component_hits=components_total
            - components_evaluated
            - cache_hits
            - delta_updates,
            factorization_hits=fact["hits"],
            factorization_misses=fact["misses"],
            component_cache_hits=cache_hits,
            component_delta_updates=delta_updates,
        )
        return LatticeProfile(results=results, stats=stats)

    def evaluate(kept: Iterable[int]) -> tuple[MultiplicityResult, EliminationResult | None]:
        return boundary_group_counts(query, database, kept)

    # Phase 1 — plan: decompose every subset into connected components.
    # A binary relation's symmetry flag is read on first need, once per
    # profile (and recorded on the relation for its epoch).
    symmetric: dict[str, bool] = {}

    def is_symmetric(name: str) -> bool:
        flag = symmetric.get(name)
        if flag is None:
            flag = symmetric[name] = relation_is_symmetric(
                database.relation(name), database.dictionary
            )
        return flag

    codes = _QueryCodes(query, is_symmetric)
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
                infos[component] = _component_info(codes, component)

    # Phase 2 — dedupe: pick one representative per canonical signature.
    representative: dict[frozenset[int], frozenset[int]] = {}
    by_signature: dict[tuple, frozenset[int]] = {}
    for component in sorted(infos, key=lambda c: (len(c), tuple(sorted(c)))):
        signature = infos[component].signature
        if signature is None:
            representative[component] = component
        else:
            representative[component] = by_signature.setdefault(signature, component)

    # Phase 3 — evaluate each representative once.
    # Through the component cache, a representative whose entry is at the
    # current epochs skips evaluation entirely, a stale entry that kept its
    # group counts is caught up by the delta query, and only the remainder
    # is evaluated.
    to_evaluate = sorted(
        set(representative.values()), key=lambda c: (len(c), tuple(sorted(c)))
    )

    def evaluate_representative(component: frozenset[int]) -> tuple[MultiplicityResult, str]:
        if component_cache is None:
            return evaluate(component)[0], "evaluated"
        info = infos[component]
        return maintained_counts(
            component_cache,
            _component_cache_key(query, info, cache_scope),
            query,
            database,
            _component_relations(query, database, info),
            lambda: evaluate(component),
            lambda counts: multiplicity_from_counts(counts, info.group_vars),
            atom_indices=info.atoms,
            predicates=info.residual.predicates,
        )

    outcomes = {component: evaluate_representative(component) for component in to_evaluate}
    evaluated = {component: result for component, (result, _) in outcomes.items()}
    tally = Counter(how for _, how in outcomes.values())

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
            results[kept] = evaluate(kept)[0]  # the T_∅ = 1 convention
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
    return finish(
        results, components_total, tally["evaluated"], tally["hit"], tally["delta"]
    )
