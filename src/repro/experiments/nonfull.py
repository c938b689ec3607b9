"""Non-full CQs (Section 6): projection-aware residual sensitivity and Theorem 6.4.

Two things are demonstrated on the query

    q = π_{x1} ( R1(x1, x2) ⋈ R2(x2) ),     R1 private, R2 public:

1. **Projection-aware RS is much smaller.**  On an instance where every
   ``x1`` value joins with many ``x2`` values, the full-CQ residual
   sensitivity scales with the join fan-out while the projection-aware
   version (counting *distinct* ``x1`` per boundary) stays small — this is
   the utility gain of Section 6.

2. **The Theorem 6.4 trade-off.**  The proof constructs two instances:
   ``I`` with ``R1 = [N/r] × [r]`` and ``I'`` with ``R1 = [N] × {0}``
   (``R2 = [r]`` public in both).  Within the ``r``-neighborhood of ``I``
   the query answer is constantly ``N/r`` while near ``I'`` it is at most
   ``r``; any mechanism that is ``(r, c)``-neighborhood optimal must
   therefore have ``c·r² >= N``.  The harness evaluates both instances,
   reports the answer gap ``N/r - r`` and the implied lower bound on ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.database import Database
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.exceptions import ExperimentError
from repro.experiments.reporting import format_number, render_table
from repro.query.parser import parse_query
from repro.sensitivity.residual import ResidualSensitivity

__all__ = [
    "NonFullRow",
    "nonfull_schema",
    "projection_gain_instance",
    "projection_gain_schema",
    "theorem_6_4_instances",
    "run_nonfull_study",
    "format_nonfull_study",
]


def nonfull_schema() -> DatabaseSchema:
    """``R1(x1, x2)`` private, ``R2(x2)`` public — the Theorem 6.4 schema."""
    return DatabaseSchema(
        [RelationSchema("R1", ["a", "b"]), RelationSchema("R2", ["b"])],
        private=["R1"],
    )


def theorem_6_4_instances(n: int, r: int) -> tuple[Database, Database]:
    """The instance pair ``(I, I')`` from the proof of Theorem 6.4.

    ``I`` has ``R1 = [n/r] × [r]`` (every ``x1`` value joins through each of
    the ``r`` public values), ``I'`` has ``R1 = [n] × {0}`` (nothing joins).
    """
    if r <= 0 or n <= 0 or n % r != 0:
        raise ExperimentError(f"need r > 0 and r dividing n, got n={n}, r={r}")
    schema = nonfull_schema()
    public = [(x2,) for x2 in range(1, r + 1)]
    instance = Database(
        schema,
        {"R1": [(x1, x2) for x1 in range(n // r) for x2 in range(1, r + 1)], "R2": public},
    )
    other = Database(schema, {"R1": [(x1, 0) for x1 in range(n)], "R2": public})
    return instance, other


@dataclass(frozen=True)
class NonFullRow:
    """Measurements for one ``(n, r)`` configuration."""

    n: int
    r: int
    answer_dense: int
    answer_sparse: int
    rs_projected: float
    rs_full: float
    c_lower_bound: float

    @property
    def projection_gain(self) -> float:
        """How much smaller the projection-aware RS is than the full-CQ RS."""
        if self.rs_projected == 0:
            return float("inf")
        return self.rs_full / self.rs_projected


def projection_gain_schema() -> DatabaseSchema:
    """``R1(x1, x2)`` and ``R2(x2, x3)``, both private — the projection-gain study."""
    return DatabaseSchema(
        [RelationSchema("R1", ["a", "b"]), RelationSchema("R2", ["b", "c"])]
    )


def projection_gain_instance(num_entities: int, groups: int, fanout: int) -> Database:
    """An instance where the projection slashes the sensitivity.

    ``R1`` holds one tuple per entity, hashed into ``groups`` join keys;
    ``R2`` gives every join key ``fanout`` partners.  The *full* join count is
    ``num_entities · fanout`` and changes by ``fanout`` when one ``R1`` tuple
    changes, while the projected count ``π_{x1}`` is just ``num_entities`` and
    changes by at most one — the Section 6 situation where projection-aware
    residual sensitivity pays off.
    """
    if num_entities <= 0 or groups <= 0 or fanout <= 0:
        raise ExperimentError("num_entities, groups and fanout must be positive")
    return Database(
        projection_gain_schema(),
        {
            "R1": [(entity, entity % groups) for entity in range(num_entities)],
            "R2": [(group, partner) for group in range(groups) for partner in range(fanout)],
        },
    )


def run_nonfull_study(
    configurations: Sequence[tuple[int, int]] = ((64, 4), (256, 8), (1024, 16)),
    *,
    beta: float = 0.1,
) -> list[NonFullRow]:
    """Evaluate the projection study for each ``(n, r)`` configuration.

    Each configuration contributes two things to a row: the Theorem 6.4
    instance pair (for the query answers and the ``c >= N/r²`` bound) and a
    projection-gain instance with ``r`` join groups and fan-out ``n`` (for the
    projected-vs-full residual sensitivities).
    """
    projected_query = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)", name="q_projected")
    full_query = parse_query("R1(x1, x2), R2(x2, x3)", name="q_full")
    rows: list[NonFullRow] = []
    for n, r in configurations:
        theorem_6_4_instances(n, r)  # validates the configuration
        gain_db = projection_gain_instance(num_entities=n, groups=r, fanout=n)
        rs_projected = ResidualSensitivity(projected_query, beta=beta).compute(gain_db).value
        rs_full = ResidualSensitivity(full_query, beta=beta).compute(gain_db).value
        answer_dense = n // r
        answer_sparse = 0
        # Theorem 6.4: c * r^2 >= N, i.e. any (r, c)-neighborhood optimal
        # mechanism must have c >= N / r^2.
        c_lower = n / (r * r)
        rows.append(
            NonFullRow(
                n=n,
                r=r,
                answer_dense=answer_dense,
                answer_sparse=answer_sparse,
                rs_projected=rs_projected,
                rs_full=rs_full,
                c_lower_bound=c_lower,
            )
        )
    return rows


def format_nonfull_study(rows: Sequence[NonFullRow]) -> str:
    """Render the non-full-CQ study as a table."""
    table_rows = [
        [
            format_number(row.n),
            format_number(row.r),
            format_number(row.answer_dense),
            format_number(row.rs_projected, decimals=1),
            format_number(row.rs_full, decimals=1),
            f"{row.projection_gain:.1f}×",
            format_number(row.c_lower_bound, decimals=1),
        ]
        for row in rows
    ]
    return render_table(
        ["N", "r", "|q(I)|", "RS (projected)", "RS (full CQ)", "gain", "c >= N/r^2"],
        table_rows,
        title="Section 6 — projection-aware residual sensitivity and the Theorem 6.4 trade-off",
    )
