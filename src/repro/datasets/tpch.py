"""A small TPC-H-flavoured schema and generator.

The paper motivates DP join counting with SQL analytics over business data;
the classic playground for that is TPC-H.  This module provides a reduced
three-table slice of the TPC-H schema —

* ``Customer(custkey, nationkey, segment)``
* ``Orders(orderkey, custkey, priority)``
* ``Lineitem(orderkey, partkey, quantity)``

— together with a seeded generator producing skewed foreign-key
distributions (a few customers place many orders, a few orders have many
line items), which is exactly the regime where instance-specific sensitivity
beats worst-case calibration.  The ``private_sql_analytics`` example and
several tests build on it.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import Database
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.exceptions import DatasetError
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query

__all__ = [
    "TPCH_RELATIONS",
    "tpch_schema",
    "generate_tpch",
    "customer_order_lineitem_query",
    "customers_with_large_orders_query",
]

#: The relations of the reduced schema, with their attribute lists.
TPCH_RELATIONS: dict[str, tuple[str, ...]] = {
    "Customer": ("custkey", "nationkey", "segment"),
    "Orders": ("orderkey", "custkey", "priority"),
    "Lineitem": ("orderkey", "partkey", "quantity"),
}


def tpch_schema(private: tuple[str, ...] = ("Customer", "Orders", "Lineitem")) -> DatabaseSchema:
    """The reduced TPC-H schema; by default every table is private (tuple-DP)."""
    relations = [
        RelationSchema(name, list(attributes)) for name, attributes in TPCH_RELATIONS.items()
    ]
    return DatabaseSchema(relations, private=private)


def generate_tpch(
    num_customers: int = 50,
    orders_per_customer: float = 3.0,
    lineitems_per_order: float = 2.5,
    *,
    num_nations: int = 5,
    num_parts: int = 40,
    max_quantity: int = 50,
    skew: float = 1.1,
    seed: int = 0,
    private: tuple[str, ...] = ("Customer", "Orders", "Lineitem"),
) -> Database:
    """A seeded random instance of the reduced TPC-H schema.

    Foreign keys are drawn with Zipf-like skew, so some customers have many
    orders and some orders many line items — producing realistic join fan-out
    for the sensitivity experiments.
    """
    if num_customers < 1:
        raise DatasetError(f"need at least one customer, got {num_customers}")
    if orders_per_customer < 0 or lineitems_per_order < 0:
        raise DatasetError("per-entity rates must be non-negative")
    rng = np.random.default_rng(seed)
    customers = []
    for custkey in range(num_customers):
        nation = int(rng.integers(0, num_nations))
        segment = f"SEG{int(rng.integers(0, 5))}"
        customers.append((custkey, nation, segment))

    # Skewed foreign keys: rank-based Zipf weights over customers / orders.
    def _skewed_keys(count: int, universe: int) -> np.ndarray:
        ranks = np.arange(1, universe + 1, dtype=float)
        weights = ranks ** (-skew)
        return rng.choice(universe, size=count, p=weights / weights.sum())

    num_orders = max(1, int(round(num_customers * orders_per_customer)))
    order_custkeys = _skewed_keys(num_orders, num_customers)
    orders = []
    for orderkey in range(num_orders):
        priority = int(rng.integers(1, 6))
        orders.append((orderkey, int(order_custkeys[orderkey]), priority))

    num_lineitems = max(1, int(round(num_orders * lineitems_per_order)))
    lineitem_orderkeys = _skewed_keys(num_lineitems, num_orders)
    # Distinct line items in draw order.
    lineitems: dict[tuple, None] = {}
    attempt = 0
    while len(lineitems) < num_lineitems and attempt < num_lineitems * 5:
        orderkey = int(lineitem_orderkeys[len(lineitems) % num_lineitems])
        partkey = int(rng.integers(0, num_parts))
        quantity = int(rng.integers(1, max_quantity + 1))
        lineitems.setdefault((orderkey, partkey, quantity))
        attempt += 1
    return Database(
        tpch_schema(private),
        {"Customer": customers, "Orders": orders, "Lineitem": lineitems},
    )


def customer_order_lineitem_query() -> ConjunctiveQuery:
    """The full three-way join count (customers × their orders × line items)."""
    return parse_query(
        "Customer(c, n, s), Orders(o, c, p), Lineitem(o, pk, q)",
        name="q_customer_order_lineitem",
    )


def customers_with_large_orders_query(min_quantity: int = 30) -> ConjunctiveQuery:
    """A non-full CQ: distinct customers having an order with a large line item.

    ``π_c ( Customer(c,n,s) ⋈ Orders(o,c,p) ⋈ Lineitem(o,pk,q) ⋈ q >= min_quantity )``
    """
    return parse_query(
        f"Q(c) :- Customer(c, n, s), Orders(o, c, p), Lineitem(o, pk, q), q >= {min_quantity}",
        name="q_customers_large_orders",
    )
