"""Query evaluation engine.

This subpackage evaluates conjunctive queries over the relational substrate.
It provides two complementary strategies:

* :mod:`repro.engine.columnar` — vectorized bucket (variable) elimination
  over count-annotated NumPy columns, which evaluates the aggregate queries
  behind ``T_E(I)`` in polynomial time for bounded-width residuals,
  expanding inequalities across buckets by Möbius inversion
  (:mod:`repro.engine.mobius`) and joining the factors any other predicate
  spans into one bucket, so every predicate is applied, and
* :mod:`repro.engine.join` — exact backtracking enumeration that applies
  every predicate (the fallback when elimination drops one above its row
  cap, and the evaluator of :func:`evaluate_query`).

On top of these, :mod:`repro.engine.aggregates` computes the boundary
multiplicities ``T_E(I)`` of residual queries (the building block of residual
sensitivity), :mod:`repro.engine.profile` evaluates whole residual-sensitivity
profiles in one shared-lattice pass (component memoization, isomorphism
dedup, optional thread fan-out — see ``docs/performance.md``),
:mod:`repro.engine.agm` computes AGM bounds via the fractional
edge cover LP, and :mod:`repro.engine.domains` builds the augmented active
domain ``Z+(q, I)`` needed for comparison predicates (Section 5.2).
:mod:`repro.engine.canonical` canonicalizes query structure into cache keys
for the serving layer's plan and sensitivity caches.
"""

from repro.engine.aggregates import MultiplicityResult, boundary_multiplicity
from repro.engine.agm import AGMBound, fractional_edge_cover
from repro.engine.canonical import canonical_query_key
from repro.engine.evaluation import count_query, evaluate_query
from repro.engine.join import count_assignments, group_counts, iterate_assignments
from repro.engine.profile import LatticeProfile, ProfileStats, evaluate_profile

__all__ = [
    "AGMBound",
    "LatticeProfile",
    "MultiplicityResult",
    "ProfileStats",
    "boundary_multiplicity",
    "canonical_query_key",
    "count_assignments",
    "count_query",
    "evaluate_profile",
    "evaluate_query",
    "fractional_edge_cover",
    "group_counts",
    "iterate_assignments",
]
