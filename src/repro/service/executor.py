"""Batch execution: budget splitting, deduplication, groups in request order.

A batch is a list of ``(query, ε)`` requests against one registered
database.  The executor:

1. **canonicalizes** every request and groups exact duplicates — same query
   shape, same ε;
2. **splits the budget**: with ``epsilon_total`` given, each *distinct* group
   receives ``epsilon_total / #groups`` (duplicates are free — see below);
3. **deduplicates**: one noisy release is drawn per group and *shared* by
   all duplicate requests in the batch.  Answering the same question twice
   with the same noisy value discloses nothing beyond answering it once, so
   only one charge of ε is made per group — the classic "answer reuse"
   optimisation of DP query engines;
4. answers the groups **one after another**, in the order of each group's
   first request, on the calling thread — so a seeded batch releases
   exactly what the same requests sent one by one through
   :meth:`~repro.service.service.PrivateQueryService.count` release.

Failures are per-item: a group whose budget charge or evaluation fails
produces error entries for its members without aborting the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.exceptions import ServiceError
from repro.obs.tracing import span as obs_span
from repro.query.cq import ConjunctiveQuery
from repro.service.service import CountResponse, PrivateQueryService

__all__ = ["BatchExecutor", "BatchRequest", "BatchItemResult", "BatchResult"]


@dataclass(frozen=True)
class BatchRequest:
    """One entry of a batch: a query plus an optional per-request ε."""

    query: ConjunctiveQuery | str
    epsilon: float | None = None

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "BatchRequest":
        """Build from a JSON-style dict (``{"query": ..., "epsilon": ...}``)."""
        if not isinstance(payload, Mapping):
            raise ServiceError(f"batch request must be an object, got {payload!r}")
        if "query" not in payload:
            raise ServiceError(f"batch request missing 'query': {dict(payload)!r}")
        unknown = set(payload) - {"query", "epsilon"}
        if unknown:
            raise ServiceError(f"unknown batch request fields: {sorted(unknown)}")
        query = payload["query"]
        if not isinstance(query, (str, ConjunctiveQuery)):
            raise ServiceError(f"batch request 'query' must be a string, got {query!r}")
        epsilon = payload.get("epsilon")
        if epsilon is not None:
            try:
                if isinstance(epsilon, bool):  # float(True) is 1.0
                    raise TypeError
                epsilon = float(epsilon)
            except (TypeError, ValueError):
                raise ServiceError(
                    f"batch request epsilon must be a number, got {epsilon!r}"
                ) from None
            if not math.isfinite(epsilon):
                raise ServiceError(f"batch request epsilon must be finite, got {epsilon}")
        return cls(query=query, epsilon=epsilon)


@dataclass(frozen=True)
class BatchItemResult:
    """Outcome of one batch entry, in the original request order."""

    index: int
    ok: bool
    response: CountResponse | None = None
    error: str | None = None
    deduplicated: bool = False
    group: int = -1

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view."""
        return {
            "index": self.index,
            "ok": self.ok,
            "result": self.response.to_dict() if self.response else None,
            "error": self.error,
            "deduplicated": self.deduplicated,
            "group": self.group,
        }


@dataclass(frozen=True)
class BatchResult:
    """The outcome of a whole batch."""

    items: tuple[BatchItemResult, ...]
    groups: int
    deduplicated: int
    epsilon_per_group: float | None
    epsilon_charged: float
    details: Mapping[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every item succeeded."""
        return all(item.ok for item in self.items)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view."""
        payload = {
            "ok": self.ok,
            "groups": self.groups,
            "deduplicated": self.deduplicated,
            "epsilon_per_group": self.epsilon_per_group,
            "epsilon_charged": self.epsilon_charged,
            "items": [item.to_dict() for item in self.items],
        }
        # The opt-in trace block (``timings: true`` on the batch request).
        for field_name in ("trace_id", "timings"):
            if field_name in self.details:
                payload[field_name] = self.details[field_name]
        return payload


class BatchExecutor:
    """Run batches of counting queries through a :class:`PrivateQueryService`."""

    def __init__(self, service: PrivateQueryService):
        self._service = service

    def run(
        self,
        database: str,
        requests: Sequence[BatchRequest | Mapping[str, Any]],
        *,
        session: str | None = None,
        epsilon_total: float | None = None,
    ) -> BatchResult:
        """Answer every request; see the module docstring for the protocol.

        Either every request carries its own ``epsilon`` or ``epsilon_total``
        is given (mixing the two is rejected to keep budget arithmetic
        auditable).
        """
        if not requests:
            raise ServiceError("a batch must contain at least one request")
        normalized = [
            req if isinstance(req, BatchRequest) else BatchRequest.from_mapping(req)
            for req in requests
        ]

        # Canonicalize every request up front so duplicates can be grouped.
        plans: list[tuple[ConjunctiveQuery, str | None]] = []
        with obs_span("plan", requests=len(normalized)):
            for req in normalized:
                parsed, key, _ = self._service.plan(req.query)
                plans.append((parsed, key))

        if epsilon_total is not None:
            if any(req.epsilon is not None for req in normalized):
                raise ServiceError(
                    "per-request epsilons and epsilon_total are mutually exclusive"
                )
            # NaN sails through a bare "<= 0" comparison and would poison
            # epsilon_per_group for every group; reject non-finite totals.
            if not math.isfinite(epsilon_total) or epsilon_total <= 0:
                raise ServiceError(
                    f"epsilon_total must be positive and finite, got {epsilon_total}"
                )
        elif any(req.epsilon is None for req in normalized):
            raise ServiceError(
                "every request needs an epsilon when epsilon_total is not given"
            )

        # Group exact duplicates.  Uncanonicalizable queries (generic
        # predicates) get a per-index group of their own.
        group_of: dict[tuple, int] = {}
        members: list[list[int]] = []
        for idx, (req, (_, key)) in enumerate(zip(normalized, plans)):
            shape = key if key is not None else ("#", idx)
            group_key = (shape, req.epsilon)
            if group_key not in group_of:
                group_of[group_key] = len(members)
                members.append([])
            members[group_of[group_key]].append(idx)

        epsilon_per_group = (
            epsilon_total / len(members) if epsilon_total is not None else None
        )

        items: list[BatchItemResult | None] = [None] * len(normalized)
        charged = 0.0
        deduplicated = 0
        for group_idx, group_members in enumerate(members):
            leader = group_members[0]
            req = normalized[leader]
            epsilon = req.epsilon if req.epsilon is not None else epsilon_per_group
            try:
                with obs_span("group", members=len(group_members)):
                    response = self._service.count(
                        database, plans[leader][0], epsilon, session=session
                    )
            except Exception as exc:
                # The per-item failure contract covers *any* exception — a
                # poisoned query object raising something outside ReproError
                # must not abort the rest of the batch.
                for idx in group_members:
                    items[idx] = BatchItemResult(
                        index=idx, ok=False, error=str(exc), group=group_idx
                    )
                continue
            charged += response.epsilon
            for position, idx in enumerate(group_members):
                is_dup = position > 0
                deduplicated += is_dup
                items[idx] = BatchItemResult(
                    index=idx,
                    ok=True,
                    response=replace(response, deduplicated=True) if is_dup else response,
                    deduplicated=is_dup,
                    group=group_idx,
                )
        return BatchResult(
            items=tuple(items),  # type: ignore[arg-type]
            groups=len(members),
            deduplicated=deduplicated,
            epsilon_per_group=epsilon_per_group,
            epsilon_charged=charged,
        )
