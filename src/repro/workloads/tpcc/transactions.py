"""The five TPC-C transactions, with the paper's modifications.

Section 5.3: Payment and Order-Status are modified to remove the ORDER BY
on C_FIRST (AEv2 does not support ORDER BY in the enclave) — the matching
customers are fetched with the filter predicate and the *client* sorts the
decrypted first names to pick the median customer. The only scalar
operation over encrypted data is ``C_LAST = @c_last``, used by 60% of
Payment and Order-Status transactions (the other 40% select by C_ID).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.client.driver import Connection
from repro.workloads.tpcc.config import TpccConfig
from repro.workloads.tpcc.generator import c_last_name, nurand


@dataclass
class TxnCounts:
    new_order: int = 0
    payment: int = 0
    order_status: int = 0
    delivery: int = 0
    stock_level: int = 0
    rollbacks: int = 0

    @property
    def total(self) -> int:
        return (
            self.new_order + self.payment + self.order_status
            + self.delivery + self.stock_level
        )


@dataclass
class TpccTransactions:
    """Executes TPC-C transactions through a driver connection."""

    connection: Connection
    config: TpccConfig
    rng: random.Random = field(default_factory=lambda: random.Random(7))
    counts: TxnCounts = field(default_factory=TxnCounts)
    #: Pin every transaction to one warehouse (sharded runs: the client's
    #: home warehouse, so statements route to — and the enclave session
    #: lives on — a single shard). None keeps the uniform spec behavior.
    home_warehouse: int | None = None

    # -- random helpers ---------------------------------------------------------

    def _random_warehouse(self) -> int:
        if self.home_warehouse is not None:
            return self.home_warehouse
        return self.rng.randint(1, self.config.warehouses)

    def _random_district(self) -> int:
        return self.rng.randint(1, self.config.districts_per_warehouse)

    def _random_customer_id(self) -> int:
        return nurand(self.rng, 1023, 1, self.config.customers_per_district)

    def _random_last_name(self) -> str:
        limit = min(self.config.customers_per_district, 1000) - 1
        return c_last_name(nurand(self.rng, 255, 0, max(limit, 0)))

    def _random_item(self) -> int:
        return nurand(self.rng, 8191, 1, self.config.items)

    # -- customer selection (the encrypted predicate) ------------------------------

    def _customer_by_last_name(self, conn: Connection, w_id: int, d_id: int, last: str):
        """Filter by C_LAST, decrypt, sort by C_FIRST client-side, pick the
        median — the paper's replacement for the removed ORDER BY."""
        result = conn.execute(
            "SELECT C_ID, C_FIRST, C_BALANCE, C_DISCOUNT, C_CREDIT FROM CUSTOMER "
            "WHERE C_W_ID = @w AND C_D_ID = @d AND C_LAST = @last",
            {"w": w_id, "d": d_id, "last": last},
        )
        if not result.rows:
            return None
        ordered = sorted(result.rows, key=lambda row: row[1] or "")
        return ordered[len(ordered) // 2]

    def _customer_by_id(self, conn: Connection, w_id: int, d_id: int, c_id: int):
        result = conn.execute(
            "SELECT C_ID, C_FIRST, C_BALANCE, C_DISCOUNT, C_CREDIT FROM CUSTOMER "
            "WHERE C_W_ID = @w AND C_D_ID = @d AND C_ID = @c",
            {"w": w_id, "d": d_id, "c": c_id},
        )
        return result.rows[0] if result.rows else None

    # -- the five transactions -------------------------------------------------------

    def new_order(self) -> None:
        conn = self.connection
        w_id = self._random_warehouse()
        d_id = self._random_district()
        c_id = self._random_customer_id()
        n_items = self.rng.randint(5, 15)

        conn.begin()
        try:
            conn.execute(
                "SELECT W_TAX FROM WAREHOUSE WHERE W_ID = @w", {"w": w_id}
            )
            # Atomic increment under the row lock: the assignment expression
            # is evaluated against the locked-current row, so concurrent
            # NewOrders never allocate the same order id.
            conn.execute(
                "UPDATE DISTRICT SET D_NEXT_O_ID = D_NEXT_O_ID + 1 "
                "WHERE D_W_ID = @w AND D_ID = @d",
                {"w": w_id, "d": d_id},
            )
            district = conn.execute(
                "SELECT D_TAX, D_NEXT_O_ID FROM DISTRICT WHERE D_W_ID = @w AND D_ID = @d",
                {"w": w_id, "d": d_id},
            )
            o_id = district.rows[0][1] - 1
            self._customer_by_id(conn, w_id, d_id, c_id)
            conn.execute(
                "INSERT INTO ORDERS (O_ID, O_D_ID, O_W_ID, O_C_ID, O_ENTRY_D, "
                "O_CARRIER_ID, O_OL_CNT, O_ALL_LOCAL) "
                "VALUES (@o, @d, @w, @c, @entry, NULL, @cnt, 1)",
                {"o": o_id, "d": d_id, "w": w_id, "c": c_id,
                 "entry": "2026-07-06 00:00:00", "cnt": n_items},
            )
            conn.execute(
                "INSERT INTO NEW_ORDER (NO_O_ID, NO_D_ID, NO_W_ID) VALUES (@o, @d, @w)",
                {"o": o_id, "d": d_id, "w": w_id},
            )
            for ol_number in range(1, n_items + 1):
                i_id = self._random_item()
                item = conn.execute(
                    "SELECT I_PRICE FROM ITEM WHERE I_ID = @i", {"i": i_id}
                )
                price = item.rows[0][0]
                stock = conn.execute(
                    "SELECT S_QUANTITY, S_DIST_01 FROM STOCK WHERE S_W_ID = @w AND S_I_ID = @i",
                    {"w": w_id, "i": i_id},
                )
                quantity = self.rng.randint(1, 10)
                s_quantity = stock.rows[0][0]
                new_quantity = (
                    s_quantity - quantity if s_quantity - quantity >= 10
                    else s_quantity - quantity + 91
                )
                # Increments, not absolute writes: under concurrency the
                # assignment expression is evaluated against the locked
                # row, so parallel NewOrders never lose an S_YTD update
                # (the invariant checker sums S_YTD against order lines).
                conn.execute(
                    "UPDATE STOCK SET S_QUANTITY = @q, S_YTD = S_YTD + @add, "
                    "S_ORDER_CNT = S_ORDER_CNT + 1 "
                    "WHERE S_W_ID = @w AND S_I_ID = @i",
                    {"q": new_quantity, "add": quantity, "w": w_id, "i": i_id},
                )
                conn.execute(
                    "INSERT INTO ORDER_LINE (OL_O_ID, OL_D_ID, OL_W_ID, OL_NUMBER, "
                    "OL_I_ID, OL_SUPPLY_W_ID, OL_DELIVERY_D, OL_QUANTITY, OL_AMOUNT, "
                    "OL_DIST_INFO) VALUES (@o, @d, @w, @n, @i, @sw, NULL, @q, @amt, @info)",
                    {"o": o_id, "d": d_id, "w": w_id, "n": ol_number, "i": i_id,
                     "sw": w_id, "q": quantity,
                     "amt": round(price * quantity, 2), "info": "x" * 24},
                )
            # Spec: 1% of New-Order transactions roll back (invalid item).
            if self.rng.random() < 0.01:
                conn.rollback()
                self.counts.rollbacks += 1
            else:
                conn.commit()
            self.counts.new_order += 1
        except Exception:
            if conn.session.in_transaction:
                conn.rollback()
            raise

    def payment(self) -> None:
        conn = self.connection
        w_id = self._random_warehouse()
        d_id = self._random_district()
        amount = round(self.rng.uniform(1.0, 5000.0), 2)

        conn.begin()
        try:
            # Read-modify-write increments, evaluated under the row lock:
            # concurrent Payments against the same warehouse/district
            # serialize on the lock and never lose an update, which is
            # what makes the money-conservation invariant
            # (W_YTD deltas == D_YTD deltas == Σ H_AMOUNT) hold.
            conn.execute(
                "UPDATE WAREHOUSE SET W_YTD = W_YTD + @amt WHERE W_ID = @w",
                {"amt": amount, "w": w_id},
            )
            conn.execute(
                "UPDATE DISTRICT SET D_YTD = D_YTD + @amt "
                "WHERE D_W_ID = @w AND D_ID = @d",
                {"amt": amount, "w": w_id, "d": d_id},
            )
            # 60% by last name (the encrypted predicate), 40% by id.
            if self.rng.random() < 0.6:
                customer = self._customer_by_last_name(
                    conn, w_id, d_id, self._random_last_name()
                )
            else:
                customer = self._customer_by_id(
                    conn, w_id, d_id, self._random_customer_id()
                )
            if customer is None:
                # No matching customer (a miss in the NURand last-name
                # space): roll the YTD increments back so they stay equal
                # to the HISTORY total, and count the abort.
                conn.rollback()
                self.counts.rollbacks += 1
                self.counts.payment += 1
                return
            c_id = customer[0]
            conn.execute(
                "UPDATE CUSTOMER SET C_BALANCE = C_BALANCE - @amt, "
                "C_YTD_PAYMENT = C_YTD_PAYMENT + @amt, "
                "C_PAYMENT_CNT = C_PAYMENT_CNT + 1 "
                "WHERE C_W_ID = @w AND C_D_ID = @d AND C_ID = @c",
                {"amt": amount, "w": w_id, "d": d_id, "c": c_id},
            )
            conn.execute(
                "INSERT INTO HISTORY (H_C_ID, H_C_D_ID, H_C_W_ID, H_D_ID, H_W_ID, "
                "H_DATE, H_AMOUNT, H_DATA) VALUES (@c, @d, @w, @d, @w, @dt, @amt, @data)",
                {"c": c_id, "d": d_id, "w": w_id,
                 "dt": "2026-07-06 00:00:00", "amt": amount, "data": "payment"},
            )
            conn.commit()
            self.counts.payment += 1
        except Exception:
            if conn.session.in_transaction:
                conn.rollback()
            raise

    def order_status(self) -> None:
        conn = self.connection
        w_id = self._random_warehouse()
        d_id = self._random_district()
        try:
            if self.rng.random() < 0.6:
                customer = self._customer_by_last_name(
                    conn, w_id, d_id, self._random_last_name()
                )
            else:
                customer = self._customer_by_id(
                    conn, w_id, d_id, self._random_customer_id()
                )
            if customer is not None:
                c_id = customer[0]
                orders = conn.execute(
                    "SELECT O_ID, O_ENTRY_D, O_CARRIER_ID FROM ORDERS "
                    "WHERE O_W_ID = @w AND O_D_ID = @d AND O_C_ID = @c",
                    {"w": w_id, "d": d_id, "c": c_id},
                )
                if orders.rows:
                    o_id = max(row[0] for row in orders.rows)
                    conn.execute(
                        "SELECT OL_I_ID, OL_SUPPLY_W_ID, OL_QUANTITY, OL_AMOUNT, "
                        "OL_DELIVERY_D FROM ORDER_LINE "
                        "WHERE OL_W_ID = @w AND OL_D_ID = @d AND OL_O_ID = @o",
                        {"w": w_id, "d": d_id, "o": o_id},
                    )
            self.counts.order_status += 1
        except Exception:
            if conn.session.in_transaction:
                conn.rollback()
            raise

    def delivery(self) -> None:
        conn = self.connection
        w_id = self._random_warehouse()
        carrier = self.rng.randint(1, 10)
        conn.begin()
        try:
            for d_id in range(1, self.config.districts_per_warehouse + 1):
                pending = conn.execute(
                    "SELECT NO_O_ID FROM NEW_ORDER WHERE NO_W_ID = @w AND NO_D_ID = @d",
                    {"w": w_id, "d": d_id},
                )
                if not pending.rows:
                    continue
                o_id = min(row[0] for row in pending.rows)
                deleted = conn.execute(
                    "DELETE FROM NEW_ORDER WHERE NO_W_ID = @w AND NO_D_ID = @d AND NO_O_ID = @o",
                    {"w": w_id, "d": d_id, "o": o_id},
                )
                if deleted.rowcount == 0:
                    # Reads are unlocked: another Delivery took this order
                    # between the SELECT and the DELETE, and credits it.
                    continue
                order = conn.execute(
                    "SELECT O_C_ID FROM ORDERS WHERE O_W_ID = @w AND O_D_ID = @d AND O_ID = @o",
                    {"w": w_id, "d": d_id, "o": o_id},
                )
                conn.execute(
                    "UPDATE ORDERS SET O_CARRIER_ID = @carrier "
                    "WHERE O_W_ID = @w AND O_D_ID = @d AND O_ID = @o",
                    {"carrier": carrier, "w": w_id, "d": d_id, "o": o_id},
                )
                total = conn.execute(
                    "SELECT SUM(OL_AMOUNT) FROM ORDER_LINE "
                    "WHERE OL_W_ID = @w AND OL_D_ID = @d AND OL_O_ID = @o",
                    {"w": w_id, "d": d_id, "o": o_id},
                )
                amount = total.rows[0][0] or 0.0
                if order.rows:
                    c_id = order.rows[0][0]
                    conn.execute(
                        "UPDATE CUSTOMER SET C_BALANCE = C_BALANCE + @amt, "
                        "C_DELIVERY_CNT = C_DELIVERY_CNT + 1 "
                        "WHERE C_W_ID = @w AND C_D_ID = @d AND C_ID = @c",
                        {"amt": amount, "w": w_id, "d": d_id, "c": c_id},
                    )
            conn.commit()
            self.counts.delivery += 1
        except Exception:
            if conn.session.in_transaction:
                conn.rollback()
            raise

    def stock_level(self) -> None:
        conn = self.connection
        w_id = self._random_warehouse()
        d_id = self._random_district()
        threshold = self.rng.randint(10, 20)
        district = conn.execute(
            "SELECT D_NEXT_O_ID FROM DISTRICT WHERE D_W_ID = @w AND D_ID = @d",
            {"w": w_id, "d": d_id},
        )
        next_o_id = district.rows[0][0]
        lines = conn.execute(
            "SELECT OL_I_ID FROM ORDER_LINE WHERE OL_W_ID = @w AND OL_D_ID = @d "
            "AND OL_O_ID >= @lo AND OL_O_ID < @hi",
            {"w": w_id, "d": d_id, "lo": max(next_o_id - 20, 1), "hi": next_o_id},
        )
        item_ids = {row[0] for row in lines.rows}
        low = 0
        for i_id in item_ids:
            stock = conn.execute(
                "SELECT S_QUANTITY FROM STOCK WHERE S_W_ID = @w AND S_I_ID = @i",
                {"w": w_id, "i": i_id},
            )
            if stock.rows and stock.rows[0][0] < threshold:
                low += 1
        self.counts.stock_level += 1

    # -- mix dispatch -------------------------------------------------------------------

    def run_one(self, kind: str) -> None:
        getattr(self, kind)()

    def run_one_with_retry(self, kind: str, max_attempts: int = 3) -> None:
        """Run a transaction, retrying on lock timeouts (deadlock victims).

        Lock-wait timeouts under concurrency are expected behaviour; the
        client rolls back and retries, as any TPC-C driver does.
        """
        from repro.errors import LockTimeoutError

        for attempt in range(max_attempts):
            try:
                self.run_one(kind)
                return
            except LockTimeoutError:
                if self.connection.session.in_transaction:
                    self.connection.rollback()
                self.counts.rollbacks += 1
                if attempt == max_attempts - 1:
                    return  # give up on this transaction instance

    def run_mix(
        self,
        n_transactions: int,
        mix: list[tuple[str, float]],
        retry_on_timeout: bool = True,
    ) -> None:
        kinds = [k for k, __ in mix]
        weights = [w for __, w in mix]
        for __ in range(n_transactions):
            kind = self.rng.choices(kinds, weights=weights, k=1)[0]
            if retry_on_timeout:
                self.run_one_with_retry(kind)
            else:
                self.run_one(kind)
