"""TPC-C consistency invariants, checked at quiesce.

These are the spec's consistency conditions (TPC-C clause 3.3.2) adapted
to this loader's initial state, plus a physical index-vs-heap audit. They
only hold if the engine provides serializable-equivalent execution: a
single lost update to ``W_YTD`` or ``S_YTD``, a torn order-id allocation,
or a B-tree entry missed during a concurrent split all surface as a
violation here. The concurrency stress test
(``tests/workloads/test_concurrency_stress.py``) runs a multi-threaded
mix and asserts ``check_invariants`` returns no violations.

Checked conditions (loader initial state in parentheses):

* **Money conservation** — per warehouse,
  ``W_YTD − 300000 == Σ (D_YTD − 30000) == Σ H_AMOUNT``; Payment either
  commits all three writes or rolls all of them back.
* **Order-id allocation** — per district,
  ``D_NEXT_O_ID − 1 == count(ORDERS)``: the atomic increment in NewOrder
  never skips or duplicates an order id.
* **Stock flow** — per warehouse, ``Σ S_YTD`` equals the summed
  ``OL_QUANTITY`` of post-load order lines (loader orders have
  ``OL_O_ID ≤ customers_per_district``; S_YTD starts at 0).
* **Referential** — every NEW_ORDER row points at an existing order.
* **Physical** — every usable index agrees with its heap, which the
  server reports through its ``audit`` message
  (:meth:`~repro.sqlengine.server.SqlServer.audit`).

All comparisons over money columns use a small absolute tolerance:
increments are applied in SQL expression order, Python re-sums in scan
order, and float addition is not associative.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

#: Float-sum tolerance (dollars). Payments are ≤ 5000.00 each; double
#: rounding over thousands of them stays far below a cent.
_TOL = 0.01

_W_YTD_INITIAL = 300000.0
_D_YTD_INITIAL = 30000.0


def check_invariants(system) -> list[str]:
    """Audit a quiesced :class:`~repro.workloads.tpcc.driver.TpccSystem`.

    Returns a list of human-readable violation strings — empty means every
    invariant holds. Must be called with no transaction in flight.
    """
    conn = system.connection
    config = system.config
    violations: list[str] = []

    # -- money conservation ------------------------------------------------
    warehouses = {
        row[0]: row[1]
        for row in conn.execute("SELECT W_ID, W_YTD FROM WAREHOUSE").rows
    }
    district_totals: dict[int, float] = defaultdict(float)
    for w_id, d_ytd in conn.execute("SELECT D_W_ID, D_YTD FROM DISTRICT").rows:
        district_totals[w_id] += d_ytd - _D_YTD_INITIAL
    history_totals: dict[int, float] = defaultdict(float)
    for w_id, amount in conn.execute("SELECT H_W_ID, H_AMOUNT FROM HISTORY").rows:
        history_totals[w_id] += amount
    for w_id, w_ytd in sorted(warehouses.items()):
        w_delta = w_ytd - _W_YTD_INITIAL
        d_delta = district_totals.get(w_id, 0.0)
        h_total = history_totals.get(w_id, 0.0)
        if not math.isclose(w_delta, d_delta, abs_tol=_TOL):
            violations.append(
                f"warehouse {w_id}: W_YTD delta {w_delta:.2f} != "
                f"sum of D_YTD deltas {d_delta:.2f}"
            )
        if not math.isclose(w_delta, h_total, abs_tol=_TOL):
            violations.append(
                f"warehouse {w_id}: W_YTD delta {w_delta:.2f} != "
                f"sum of H_AMOUNT {h_total:.2f}"
            )

    # -- order-id allocation ----------------------------------------------
    next_o_ids = {
        (row[0], row[1]): row[2]
        for row in conn.execute(
            "SELECT D_W_ID, D_ID, D_NEXT_O_ID FROM DISTRICT"
        ).rows
    }
    order_rows = conn.execute("SELECT O_W_ID, O_D_ID, O_ID FROM ORDERS").rows
    order_counts = Counter((w, d) for w, d, __ in order_rows)
    order_ids: dict[tuple[int, int], set[int]] = defaultdict(set)
    for w, d, o_id in order_rows:
        order_ids[(w, d)].add(o_id)
    for (w_id, d_id), next_o_id in sorted(next_o_ids.items()):
        count = order_counts.get((w_id, d_id), 0)
        if next_o_id - 1 != count:
            violations.append(
                f"district ({w_id}, {d_id}): D_NEXT_O_ID {next_o_id} "
                f"inconsistent with {count} orders"
            )
        if len(order_ids[(w_id, d_id)]) != count:
            violations.append(
                f"district ({w_id}, {d_id}): duplicate order ids "
                f"({count} rows, {len(order_ids[(w_id, d_id)])} distinct)"
            )

    # -- stock flow --------------------------------------------------------
    stock_totals: dict[int, int] = defaultdict(int)
    for w_id, s_ytd in conn.execute("SELECT S_W_ID, S_YTD FROM STOCK").rows:
        stock_totals[w_id] += int(s_ytd)
    line_totals: dict[int, int] = defaultdict(int)
    loader_max_o_id = config.customers_per_district
    for w_id, o_id, quantity in conn.execute(
        "SELECT OL_W_ID, OL_O_ID, OL_QUANTITY FROM ORDER_LINE"
    ).rows:
        if o_id > loader_max_o_id:
            line_totals[w_id] += int(quantity)
    for w_id in sorted(warehouses):
        if stock_totals.get(w_id, 0) != line_totals.get(w_id, 0):
            violations.append(
                f"warehouse {w_id}: sum(S_YTD) {stock_totals.get(w_id, 0)} != "
                f"new order-line quantity {line_totals.get(w_id, 0)}"
            )

    # -- referential: NEW_ORDER → ORDERS ----------------------------------
    for w_id, d_id, o_id in conn.execute(
        "SELECT NO_W_ID, NO_D_ID, NO_O_ID FROM NEW_ORDER"
    ).rows:
        if o_id not in order_ids.get((w_id, d_id), set()):
            violations.append(
                f"NEW_ORDER ({w_id}, {d_id}, {o_id}) references a missing order"
            )

    # -- physical: every index agrees with its heap ------------------------
    violations.extend(system.server.audit())

    return violations


def assert_invariants(system) -> None:
    """Raise ``AssertionError`` listing every violated invariant."""
    violations = check_invariants(system)
    if violations:
        raise AssertionError(
            "TPC-C invariants violated:\n  " + "\n  ".join(violations)
        )


__all__ = ["check_invariants", "assert_invariants"]
