"""Residual sensitivity ``RS(I)`` — the paper's mechanism (Sections 3, 5, 6).

Residual sensitivity is a smooth upper bound of smooth sensitivity that can
be computed in polynomial time.  For a full CQ ``q`` over atoms ``[n]`` with
self-join blocks ``D_1, ..., D_m`` (atoms grouped by physical relation) and
private physical relations ``P_m`` (with logical copies ``P_n``), it is

    RS(I)      = max_{k >= 0} e^{-βk} · L̂S^(k)(I)                        (21)
    L̂S^(k)(I)  = max_{s ∈ S_k} max_{i ∈ P_m} Σ_{E ⊆ D_i, E ≠ ∅} T̂_{[n]-E, s}(I)   (19)
    T̂_{F, s}(I) = Σ_{E' ⊆ F} T_{F - E'}(I) · Π_{j ∈ E'} s_j               (20)

where ``S_k`` is the set of valid distance vectors (every logical copy of the
same physical relation carries the same distance, public relations carry
zero, private distances sum to ``k``), and ``T_F(I)`` is the maximum boundary
multiplicity of the residual query on atom subset ``F`` (computed by
:mod:`repro.engine.aggregates`).

Lemma 3.10 shows the maximisation over ``k`` can stop at
``k̂ = m_P / (1 - exp(-β / max_i n_i))``; we iterate ``k = 0 .. ceil(k̂)``.

Two layers of work sharing keep the computation polynomial *and* fast:

* the ``{F → T_F}`` profile is produced in one pass by the shared-lattice
  evaluator (:func:`repro.engine.profile.evaluate_profile`): every subset is
  decomposed into connected components once, each structurally distinct
  component is evaluated once, and per-subset values are assembled from the
  memoized component results (the per-subset reference path survives as
  :meth:`ResidualSensitivity.multiplicities_reference` and is checked
  against the shared path by the differential fuzzer);
* the ``(E, E')`` coefficient structure of Equations (19)–(20) is folded
  once into a ``(block, exponent-vector)`` matrix, after which ``L̂S^(k)``
  for every ``k ≤ k_max`` is one vectorized NumPy contraction over the
  distance vectors of all those ``k`` at once, streamed in bounded chunks,
  instead of nested Python loops per vector per ``k``.

Predicates (Section 5) and projections (Section 6) are handled entirely
inside the ``T_F`` evaluation: predicates via the Corollary 5.1 /
Section 5.2 boundary treatment, projections by counting distinct output
projections per boundary group.  The formulas above are unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.data.database import Database
from repro.engine.aggregates import MultiplicityResult, boundary_multiplicity
from repro.engine.profile import LatticeProfile, ProfileStats, evaluate_profile
from repro.exceptions import SensitivityError
from repro.query.cq import ConjunctiveQuery, SelfJoinBlock
from repro.query.residual import all_subsets_of_block
from repro.sensitivity.base import (
    SensitivityResult,
    beta_from_epsilon,
    validate_beta,
)

__all__ = ["ResidualSensitivity", "ResidualSensitivityReport"]


@dataclass(frozen=True)
class ResidualSensitivityReport:
    """Detailed diagnostics of a residual-sensitivity computation.

    Attributes
    ----------
    value:
        ``RS(I)``.
    beta:
        The smoothing parameter used.
    k_star:
        The distance attaining the maximum in Equation (21).
    k_max:
        The largest distance considered (Lemma 3.10 truncation).
    ls_hat_series:
        ``L̂S^(k)(I)`` for ``k = 0 .. k_max``.
    multiplicities:
        ``T_F(I)`` for every residual subset ``F`` the formula needed, keyed
        by the sorted tuple of kept atom indices.
    exact_multiplicities:
        ``True`` if every ``T_F`` was evaluated exactly (no predicate had to
        be dropped by the elimination engine).
    subsets_total:
        Number of residual subsets the profile covers (0 when a precomputed
        profile was supplied and no evaluation ran).
    components_evaluated:
        Distinct residual-component evaluations the shared-lattice evaluator
        actually ran (see :class:`repro.engine.profile.ProfileStats`).
    factorization_hits:
        Coded-column lookups that found the relation already coded during
        the profile evaluation.
    """

    value: float
    beta: float
    k_star: int
    k_max: int
    ls_hat_series: tuple[float, ...]
    multiplicities: Mapping[tuple[int, ...], int]
    exact_multiplicities: bool
    subsets_total: int = 0
    components_evaluated: int = 0
    factorization_hits: int = 0


class ResidualSensitivity:
    """Residual sensitivity for full and non-full CQs with self-joins and predicates.

    Parameters
    ----------
    query:
        The conjunctive query (its projection and predicates, if any, are
        honoured as described in the module docstring).
    beta:
        The smoothing parameter ``β``.  Exactly one of ``beta`` / ``epsilon``
        must be provided; with ``epsilon`` the paper's choice ``β = ε/10`` is
        used.
    epsilon:
        The privacy parameter, used only to derive ``β``.
    strategy:
        Evaluation strategy for the boundary multiplicities (``"auto"``,
        ``"enumerate"`` or ``"eliminate"``); see
        :func:`repro.engine.aggregates.boundary_multiplicity`.
    k_max:
        Optional override of the Lemma 3.10 truncation point (mainly for
        tests).
    parallelism:
        Fan independent residual-component evaluations out over a thread
        pool of this size (``None``/``0``/``1`` — the default — evaluates
        serially).  Purely a throughput knob: results are identical.  See
        :func:`repro.engine.profile.evaluate_profile`.

    Examples
    --------
    >>> from repro.data import DatabaseSchema, Database
    >>> from repro.query import parse_query
    >>> schema = DatabaseSchema.from_arities({"R": 2, "S": 2})
    >>> db = Database.from_rows(schema, R=[(1, 2), (2, 2)], S=[(2, 5), (2, 7)])
    >>> q = parse_query("R(x, y), S(y, z)")
    >>> rs = ResidualSensitivity(q, beta=0.1)
    >>> rs.compute(db).value > 0
    True
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        *,
        beta: float | None = None,
        epsilon: float | None = None,
        strategy: str = "auto",
        k_max: int | None = None,
        parallelism: int | None = None,
    ):
        if (beta is None) == (epsilon is None):
            raise SensitivityError("provide exactly one of beta= or epsilon=")
        if parallelism is not None and parallelism < 0:
            raise SensitivityError(f"parallelism must be non-negative, got {parallelism}")
        if k_max is not None and k_max < 0:
            raise SensitivityError(f"k_max must be non-negative, got {k_max}")
        self._beta = validate_beta(beta if beta is not None else beta_from_epsilon(epsilon))
        self._query = query
        self._strategy = strategy
        self._k_max_override = k_max
        self._parallelism = parallelism

    # ------------------------------------------------------------------ #
    # Public accessors
    # ------------------------------------------------------------------ #
    @property
    def query(self) -> ConjunctiveQuery:
        """The query whose sensitivity is computed."""
        return self._query

    @property
    def beta(self) -> float:
        """The smoothing parameter ``β``."""
        return self._beta

    # ------------------------------------------------------------------ #
    # Structural preparation
    # ------------------------------------------------------------------ #
    def _private_blocks(self, database: Database) -> tuple[SelfJoinBlock, ...]:
        self._query.validate_against_schema(database.schema)
        blocks = self._query.private_blocks(database.schema)
        if not blocks:
            raise SensitivityError(
                "the query touches no private relation; residual sensitivity is "
                "undefined (the count can be released without noise)"
            )
        return blocks

    def required_subsets(self, database: Database) -> list[frozenset[int]]:
        """The kept-atom subsets ``F`` whose ``T_F`` the formula needs.

        For every private block ``D_i``, every non-empty ``E ⊆ D_i`` and
        every ``E' ⊆ P_n - E``, the subset ``F = [n] - E - E'`` is required
        (terms with ``E'`` touching a public atom vanish because the distance
        of public relations is zero).
        """
        blocks = self._private_blocks(database)
        private_atoms = frozenset(
            idx for block in blocks for idx in block.atom_indices
        )
        n = self._query.num_atoms
        all_atoms = frozenset(range(n))
        needed: set[frozenset[int]] = set()
        for block in blocks:
            for removed in all_subsets_of_block(block.atom_indices):
                remaining_private = private_atoms - removed
                for size in range(len(remaining_private) + 1):
                    for extra in itertools.combinations(sorted(remaining_private), size):
                        needed.add(all_atoms - removed - frozenset(extra))
        return sorted(needed, key=lambda s: (len(s), tuple(sorted(s))))

    def lemma_3_10_k_max(self, database: Database) -> int:
        """The truncation point ``ceil(m_P / (1 - exp(-β / max_i n_i)))`` of Lemma 3.10."""
        blocks = self._private_blocks(database)
        m_p = len(blocks)
        max_copies = max(block.copies for block in self._query.self_join_blocks)
        denominator = 1.0 - math.exp(-self._beta / max_copies)
        return int(math.ceil(m_p / denominator))

    # ------------------------------------------------------------------ #
    # Core computation
    # ------------------------------------------------------------------ #
    def profile(
        self,
        database: Database,
        *,
        component_cache=None,
        cache_scope: tuple = (),
    ) -> LatticeProfile:
        """The full ``{F → T_F}`` profile, evaluated by the shared-lattice pass.

        One pass over the residual lattice: subsets are decomposed into
        connected components, each structurally distinct component is
        evaluated once, and per-subset results are assembled from the
        memoized components (see :func:`repro.engine.profile.evaluate_profile`).
        The returned :class:`~repro.engine.profile.LatticeProfile` carries
        work-sharing statistics alongside the results.

        ``component_cache`` / ``cache_scope`` optionally persist
        representative-component results across calls with the epochs they
        read, so re-profiling after a delta mutation catches up or
        re-evaluates only the components whose relations changed (see
        ``docs/mutation.md``).
        """
        return evaluate_profile(
            self._query,
            database,
            self.required_subsets(database),
            strategy=self._strategy,
            parallelism=self._parallelism,
            component_cache=component_cache,
            cache_scope=cache_scope,
        )

    def multiplicities(self, database: Database) -> dict[frozenset[int], MultiplicityResult]:
        """Evaluate ``T_F(I)`` for every required subset ``F`` (shared-lattice pass)."""
        return dict(self.profile(database).results)

    def multiplicities_reference(
        self, database: Database
    ) -> dict[frozenset[int], MultiplicityResult]:
        """The per-subset reference evaluation of the profile.

        Each ``T_F`` is computed by an isolated
        :func:`~repro.engine.aggregates.boundary_multiplicity` call, sharing
        nothing across the lattice.  Kept as the semantic baseline: the
        differential fuzzer asserts :meth:`multiplicities` matches it (value,
        exactness, dropped predicates) on every generated workload, and the
        profile benchmark measures the shared pass against it.
        """
        results: dict[frozenset[int], MultiplicityResult] = {}
        for kept in self.required_subsets(database):
            results[kept] = boundary_multiplicity(
                self._query,
                database,
                kept,
                strategy=self._strategy,
            )
        return results

    @classmethod
    def _distance_vectors(
        cls, parts: int, k_max: int, k_min: int = 0
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every composition of every ``k`` in ``[k_min, k_max]`` into
        ``parts`` non-negative integers, as ``(vectors, k)`` array chunks.

        The vectors come in ascending ``k`` and, within each ``k``, in
        ascending lexicographic order; a chunk holds at most
        :attr:`_LS_HAT_CHUNK` of them and may span several ``k``.  The
        vectors are the leaves of a tree whose level ``j`` fixes part ``j``
        (level 0 fixes ``k``): consecutive subtrees that fit one chunk
        together are written out level by level with NumPy
        (:func:`_fill_compositions`), and a subtree too large for a chunk is
        opened one level down first.  The walk is iterative, so neither a
        large ``k`` nor many parts nest any calls.
        """
        chunk = cls._LS_HAT_CHUNK
        path = np.zeros(parts + 1, dtype=np.int64)  # the values fixed above
        totals = np.arange(k_min, k_max + 1, dtype=np.int64)
        # Sibling subtrees still to write: (level, their values, their rests).
        stack = [(0, totals, totals)]
        while stack:
            level, values, rests = stack.pop()
            sizes = _composition_counts(rests, parts - level, chunk + 1)
            ends = np.cumsum(sizes)
            start = 0
            while start < len(values):
                base = int(ends[start - 1]) if start else 0
                stop = int(np.searchsorted(ends, base + chunk, side="right"))
                if stop > start:
                    rows = _fill_compositions(
                        path[:level], values[start:stop], rests[start:stop],
                        sizes[start:stop], parts,
                    )
                    yield rows[:, 1:], rows[:, 0]
                    start = stop
                    continue
                # One subtree holds more than a chunk: open it a level down,
                # keeping its later siblings for after it.
                if start + 1 < len(values):
                    stack.append((level, values[start + 1 :], rests[start + 1 :]))
                path[level] = values[start]
                children = np.arange(rests[start] + 1, dtype=np.int64)
                stack.append((level + 1, children, rests[start] - children))
                break

    def _ls_hat_structure(
        self,
        blocks: Sequence[SelfJoinBlock],
        t_value: Mapping[frozenset[int], int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold Equations (19)–(20) into a ``(block, exponent-vector)`` matrix.

        Every term of ``Σ_{E ⊆ D_i} T̂_{[n]-E, s}`` is ``T_{[n]-E-E'} ·
        Π_{j ∈ E'} s_j``, and the monomial ``Π s_j`` depends only on how many
        atoms of each self-join block ``E'`` contains.  Grouping the terms by
        that exponent vector once yields coefficients ``C[i, e] = Σ T_F`` —
        after which ``L̂S^(k)`` for *any* distance vector ``s`` is the single
        contraction ``max_i Σ_e C[i, e] · Π_b s_b^{e_b}``, evaluated for all
        vectors of all ``k`` as NumPy matrix products
        (:meth:`_ls_hat_series`).

        Returns ``(exponents, coefficients)`` with shapes ``(terms, m)`` and
        ``(m_P, terms)``.
        """
        m = len(blocks)
        private_atoms = [idx for block in blocks for idx in block.atom_indices]
        atom_block = {
            idx: block_pos
            for block_pos, block in enumerate(blocks)
            for idx in block.atom_indices
        }
        n = self._query.num_atoms
        all_atoms = frozenset(range(n))

        exponent_index: dict[tuple[int, ...], int] = {}
        entries: list[dict[int, int]] = [dict() for _ in blocks]
        for block_pos, block in enumerate(blocks):
            bucket = entries[block_pos]
            for removed in all_subsets_of_block(block.atom_indices):
                remaining_private = [a for a in private_atoms if a not in removed]
                # T̂_{[n]-E, s} = Σ_{E' ⊆ P_n - E} T_{[n]-E-E'} Π_{j ∈ E'} s_j
                for size in range(len(remaining_private) + 1):
                    for extra in itertools.combinations(remaining_private, size):
                        exponents = [0] * m
                        for j in extra:
                            exponents[atom_block[j]] += 1
                        kept = all_atoms - removed - frozenset(extra)
                        index = exponent_index.setdefault(
                            tuple(exponents), len(exponent_index)
                        )
                        bucket[index] = bucket.get(index, 0) + t_value[kept]

        exponent_matrix = np.array(list(exponent_index), dtype=np.int64).reshape(
            len(exponent_index), m
        )
        coefficients = np.zeros((len(blocks), len(exponent_index)), dtype=np.float64)
        for block_pos, bucket in enumerate(entries):
            for index, coefficient in bucket.items():
                coefficients[block_pos, index] = coefficient
        return exponent_matrix, coefficients

    #: Distance vectors per vectorized batch: bounds the working set of the
    #: contraction to ``chunk × terms`` floats even when a tiny ``β`` pushes
    #: ``k_max`` (and with it the composition count) into the millions.
    _LS_HAT_CHUNK = 1 << 15

    def _ls_hat_series(
        self, structure: tuple[np.ndarray, np.ndarray], k_max: int, k_min: int = 0
    ) -> np.ndarray:
        """``L̂S^(k)`` for every ``k`` in ``[k_min, k_max]`` in one contraction.

        The distance vectors of all those ``k`` stream in bounded chunks
        (:meth:`_distance_vectors`); per chunk, the monomials ``Π_b
        s_b^{e_b}`` are accumulated block by block (with ``0^0 = 1`` for
        empty products), contracted with the coefficients, maximised over
        the blocks, and each ``k``'s maximum is taken with one
        ``np.maximum.reduceat``.  Memory stays O(chunk × terms).  Every term
        of the paper's shapes is an integer below ``2**53``, so the sums are
        exact and independent of how vectors are batched.
        """
        exponents, coefficients = structure
        m = exponents.shape[1]
        best = np.zeros(k_max - k_min + 1, dtype=np.float64)
        for vectors, totals in self._distance_vectors(m, k_max, k_min):
            monomials = np.ones((len(vectors), exponents.shape[0]), dtype=np.float64)
            for b in range(m):
                monomials *= np.power(
                    vectors[:, b : b + 1].astype(np.float64), exponents[None, :, b]
                )
            per_vector = (monomials @ coefficients.T).max(axis=1)
            starts = np.flatnonzero(np.concatenate(([True], totals[1:] != totals[:-1])))
            ks = totals[starts] - k_min
            best[ks] = np.maximum(best[ks], np.maximum.reduceat(per_vector, starts))
        return best

    def ls_hat(
        self,
        database: Database,
        k: int,
        multiplicities: Mapping[frozenset[int], MultiplicityResult] | None = None,
    ) -> float:
        """``L̂S^(k)(I)`` (Equation 19)."""
        if k < 0:
            raise SensitivityError(f"k must be non-negative, got {k}")
        blocks = self._private_blocks(database)
        if multiplicities is None:
            multiplicities = self.multiplicities(database)
        t_value = {kept: result.value for kept, result in multiplicities.items()}
        return float(self._ls_hat_series(self._ls_hat_structure(blocks, t_value), k, k)[0])

    def compute(
        self,
        database: Database,
        multiplicities: Mapping[frozenset[int], MultiplicityResult] | None = None,
    ) -> SensitivityResult:
        """``RS(I)`` with full diagnostics (Equation 21, truncated by Lemma 3.10).

        ``multiplicities`` may be supplied to reuse previously computed
        ``T_F`` values (they do not depend on ``β``); the β-sweep experiment
        (Figure 3) and the serving layer's profile cache rely on this to
        evaluate many values of ``β`` with a single round of residual-query
        evaluation (the profiler counters of the report then stay zero —
        no evaluation ran).
        """
        blocks = self._private_blocks(database)
        stats: ProfileStats | None = None
        if multiplicities is None:
            profile = self.profile(database)
            multiplicities = profile.results
            stats = profile.stats
        k_max = (
            self._k_max_override
            if self._k_max_override is not None
            else self.lemma_3_10_k_max(database)
        )
        t_value = {kept: result.value for kept, result in multiplicities.items()}
        structure = self._ls_hat_structure(blocks, t_value)
        series = self._ls_hat_series(structure, k_max).tolist()
        best = 0.0
        best_k = 0
        for k, ls_hat_k in enumerate(series):
            smoothed = math.exp(-self._beta * k) * ls_hat_k
            if smoothed > best:
                best = smoothed
                best_k = k
        exact = all(result.exact for result in multiplicities.values())
        report = ResidualSensitivityReport(
            value=best,
            beta=self._beta,
            k_star=best_k,
            k_max=k_max,
            ls_hat_series=tuple(series),
            multiplicities={
                tuple(sorted(kept)): result.value for kept, result in multiplicities.items()
            },
            exact_multiplicities=exact,
            subsets_total=stats.subsets_total if stats is not None else 0,
            components_evaluated=stats.components_evaluated if stats is not None else 0,
            factorization_hits=stats.factorization_hits if stats is not None else 0,
        )
        return SensitivityResult(
            measure="RS",
            value=best,
            beta=self._beta,
            details={
                "k_star": best_k,
                "k_max": k_max,
                "ls_hat_series": tuple(series),
                "multiplicities": report.multiplicities,
                "exact_multiplicities": exact,
                "profiler": stats.to_dict() if stats is not None else None,
                "report": report,
            },
        )

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def value(self, database: Database) -> float:
        """Shorthand for ``self.compute(database).value``."""
        return self.compute(database).value


def _composition_counts(rests: np.ndarray, parts: int, cap: int) -> np.ndarray:
    """How many compositions of each ``rest`` into ``parts`` parts there
    are, ``C(rest + parts - 1, parts - 1)``, capped at ``cap``.

    Built up one factor at a time over the shorter of ``parts - 1`` and the
    largest rest (``C(n, i) = C(n - 1, i - 1) · n / i``, exact before the
    cap); a count once capped stays at least ``cap``, so the cap only ever
    marks a count as too large."""
    counts = np.ones(len(rests), dtype=np.int64)
    longest = int(rests.max()) if len(rests) else 0
    if parts - 1 <= longest:
        for i in range(1, parts):
            counts = np.minimum(counts * (rests + i) // i, cap)
    else:
        for i in range(1, longest + 1):
            grown = np.minimum(counts * (parts - 1 + i) // i, cap)
            counts = np.where(rests >= i, grown, counts)
    return counts


def _fill_compositions(
    prefix: np.ndarray,
    values: np.ndarray,
    rests: np.ndarray,
    sizes: np.ndarray,
    parts: int,
) -> np.ndarray:
    """The leaves of sibling subtrees as rows ``(k, s_1, ..., s_parts)``.

    The subtrees share the fixed values ``prefix`` (columns before theirs);
    subtree ``i`` fixes ``values[i]`` in the next column and splits
    ``rests[i]`` over the columns after it, in lexicographic order, giving
    ``sizes[i]`` rows.  Each later column is written for all rows at once:
    every node of the previous column is repeated over its children ``0 ..
    rest``, each child over its own leaf count.
    """
    level = len(prefix)
    out = np.empty((int(sizes.sum()), parts + 1), dtype=np.int64)
    out[:, :level] = prefix
    out[:, level] = np.repeat(values, sizes)
    for column in range(level + 1, parts + 1):
        if column == parts:
            out[:, column] = np.repeat(rests, sizes)  # the last part takes the rest
            break
        if not rests.any():
            out[:, column:] = 0
            break
        # Children 0 .. rest of every node, in node order.
        fanout = rests + 1
        first = np.repeat(np.cumsum(fanout) - fanout, fanout)
        children = np.arange(int(fanout.sum()), dtype=np.int64) - first
        rests = np.repeat(rests, fanout) - children
        sizes = _composition_counts(rests, parts - column, len(out) + 1)
        out[:, column] = np.repeat(children, sizes)
    return out
