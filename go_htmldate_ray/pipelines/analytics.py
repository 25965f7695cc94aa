"""Dataset-level analytics operators (SURVEY.md §2.7): aggregations,
broadcast joins, sorts/limits over the star-schema tables.  These are the
engine's generic groupby/join building blocks, each with a DuckDB oracle
in ``__ray_entry__``."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ..sources.io import read_parquet_clean


def _round2(col):
    return pc.round(col, ndigits=2)


def events_by_type(sf_dir: str):
    """events → (event_type, n_events, sum_value): partial per-batch
    aggregation inside map_batches, then a tiny groupby — the
    combiner-before-shuffle shape."""
    import ray.data

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by("event_type").aggregate(
            [("value", "sum"), ("value", "count")]
        )
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "part_sum": t.column("value_sum"),
                "part_count": t.column("value_count"),
            }
        )

    from ..stages.combine import tree_combine

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # a handful of event types: one merge task beats the sort exchange
    agg = tree_combine(partials, _combine_partials_by(["event_type"]))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_events": pc.cast(batch.column("part_count"), pa.int64()),
                "sum_value": _round2(batch.column("part_sum")),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def _combine_partials_by(keys: list[str]):
    """Reducer for (part_sum, part_count) partial rows keyed by ``keys``,
    mapping the partial schema back to itself."""

    def combine(batch: pa.Table) -> pa.Table:
        t = batch.group_by(keys).aggregate(
            [("part_sum", "sum"), ("part_count", "sum")]
        )
        cols = {k: t.column(k) for k in keys}
        cols["part_sum"] = t.column("part_sum_sum")
        cols["part_count"] = t.column("part_count_sum")
        return pa.table(cols)

    return combine


def distinct_users_by_type(sf_dir: str):
    """events → (event_type, n_users): exact COUNT(DISTINCT user_id) per
    type via the two-level shape — per-batch LOCAL pair dedup (Arrow
    group_by, cuts the shuffle to ≤ distinct pairs per block) → one
    groupby on the (type, user) pair → per-batch partial type counts →
    one tiny Sum groupby.  Both shuffles carry light rows; no
    whole-column set ever sits on one worker."""
    import ray.data
    from ray.data.aggregate import Count

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def local_dedup(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type", "user_id"]).aggregate([])

    pairs = (
        ds.map_batches(local_dedup, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count())
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        t = batch.group_by("event_type").aggregate([("user_id", "count")])
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "n": t.column("user_id_count").cast(pa.int64()),
            }
        )

    from ..stages.combine import tree_combine

    # the heavy exchange is the (type, user) pair groupby above; the
    # per-type count rollup after it is types x blocks light rows, so
    # one merge task replaces the second sort exchange
    def combine(batch: pa.Table) -> pa.Table:
        t = batch.group_by("event_type").aggregate([("n", "sum")])
        return pa.table(
            {"event_type": t.column("event_type"), "n": t.column("n_sum")}
        )

    return tree_combine(
        pairs.map_batches(partial_counts, batch_format="pyarrow"), combine
    ).map_batches(
        lambda b: pa.table(
            {
                "event_type": b.column("event_type"),
                "n_users": b.column("n").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def top_users_by_value(sf_dir: str, n: int = 10):
    """events → top-N users by total value (groupby → sort → limit)."""
    import ray.data

    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    from ray.data.aggregate import Sum

    agg = ds.groupby("user_id").aggregate(Sum("value"))
    top = agg.sort(["sum(value)", "user_id"], descending=[True, False]).limit(n)
    return top.map_batches(
        lambda b: pa.table(
            {
                "user_id": b.column("user_id"),
                "total_value": _round2(b.column("sum(value)")),
            }
        ),
        batch_format="pyarrow",
    )


def orders_by_segment(sf_dir: str):
    """orders ⋈ customer (broadcast small side) → per-segment totals.

    The customer→segment map is built once, shipped once via ``ray.put``
    and read inside every task — no shuffle join for a small dimension
    table, the idiomatic 100 TB shape."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_map = dict(
        zip(cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist())
    )
    seg_ref = ray.put(seg_map)

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def attach(batch: pa.Table) -> pa.Table:
        mapping = ray.get(seg_ref)
        segs = [mapping.get(k) for k in batch.column("o_custkey").to_pylist()]
        return pa.table(
            {
                "c_mktsegment": pa.array(segs, pa.string()),
                "o_totalprice": batch.column("o_totalprice"),
            }
        )

    from ray.data.aggregate import Count, Sum

    agg = (
        orders.map_batches(attach, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Count(), Sum("o_totalprice"))
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "c_mktsegment": b.column("c_mktsegment"),
                "n_orders": pc.cast(b.column("count()"), pa.int64()),
                "total_price": _round2(b.column("sum(o_totalprice)")),
            }
        ),
        batch_format="pyarrow",
    )


def pricing_summary(sf_dir: str):
    """lineitem pricing summary (TPC-H Q1 shape): per-flag/status sums."""
    import ray.data

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        import datetime

        mask = pc.less_equal(batch.column("l_shipdate"), pa.scalar(datetime.date(1998, 9, 2)))
        batch = batch.filter(mask)
        disc_price = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        # Money sums as integer cents: exact and order-independent, so the
        # distributed sum matches the oracle bit-for-bit.  half_towards_infinity
        # mirrors SQL round() (pyarrow defaults to banker's rounding).
        to_cents = lambda col: pc.cast(
            pc.round(pc.multiply(col, pa.scalar(100.0)), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        batch = batch.append_column("disc_cents", to_cents(disc_price))
        batch = batch.append_column("price_cents", to_cents(batch.column("l_extendedprice")))
        t = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("price_cents", "sum"), ("disc_cents", "sum"), ("l_quantity", "count")]
        )
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "p_qty": t.column("l_quantity_sum"),
                "p_price": t.column("price_cents_sum"),
                "p_disc": t.column("disc_cents_sum"),
                "p_count": t.column("l_quantity_count"),
            }
        )

    from ..stages.combine import tree_combine

    # six-row output: the sort exchange the generic groupby pays moves
    # nothing but fixed cost here, so merge the light partials in one
    # task instead (measured 1.1-1.9 s -> 0.54 s warm at sf0.1)
    def combine(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("p_qty", "sum"), ("p_price", "sum"), ("p_disc", "sum"), ("p_count", "sum")]
        )
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "p_qty": t.column("p_qty_sum"),
                "p_price": t.column("p_price_sum"),
                "p_disc": t.column("p_disc_sum"),
                "p_count": t.column("p_count_sum"),
            }
        )

    agg = tree_combine(ds.map_batches(partial, batch_format="pyarrow"), combine)

    def finalize(batch: pa.Table) -> pa.Table:
        cents_to_float = lambda col: pc.divide(pc.cast(col, pa.float64()), pa.scalar(100.0))
        out = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": _round2(batch.column("p_qty")),
                "sum_base_price": cents_to_float(batch.column("p_price")),
                "sum_disc_price": cents_to_float(batch.column("p_disc")),
                "count_order": pc.cast(batch.column("p_count"), pa.int64()),
            }
        )
        idx = pc.sort_indices(
            out,
            sort_keys=[("l_returnflag", "ascending"), ("l_linestatus", "ascending")],
        )
        return out.take(idx)

    return agg.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def orders_customer_join(sf_dir: str):
    """orders ⋈ customer on custkey — the distributed shuffle-join shape
    (both sides large: no broadcast; one keyed exchange via
    stages.joins.hash_join).  Emits one row per order with its
    customer's segment, row-level verifiable against SQL."""
    import ray.data

    from ..stages.joins import hash_join

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    customer = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    joined = hash_join(orders, customer, on="o_custkey", right_on="c_custkey")
    return joined.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "c_mktsegment": b.column("c_mktsegment"),
                "o_totalprice": _round2(b.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )


def orders_customer_left_join(sf_dir: str, custkey_cap: int = 50):
    """orders LEFT OUTER JOIN a restricted customer slice (c_custkey <
    ``custkey_cap``) — exercises hash_join's ``how="left"`` path: every
    order survives, unmatched orders carry a null segment."""
    from ..stages.joins import hash_join

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    customer = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).filter(expr=f"c_custkey < {custkey_cap}")
    joined = hash_join(
        orders, customer, on="o_custkey", right_on="c_custkey", how="left"
    )
    return joined.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "c_mktsegment": b.column("c_mktsegment"),
                "o_totalprice": _round2(b.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )


def orders_customer_full_join(
    sf_dir: str, custkey_cap: int = 50, orderkey_cap: int = 1000
):
    """A restricted orders slice FULL OUTER JOIN a restricted customer
    slice — both unmatched sides survive: slice orders outside the
    customer slice carry a null segment, slice customers with no
    qualifying orders appear once with null order columns (their key in
    o_custkey, SQL coalesce semantics).  At sf0.01 the caps leave 961
    left-only and 23 right-only rows, so both outer paths are
    oracle-exercised."""
    from ..stages.joins import hash_join

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).filter(expr=f"o_orderkey < {orderkey_cap}")
    customer = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).filter(expr=f"c_custkey < {custkey_cap}")
    joined = hash_join(
        orders, customer, on="o_custkey", right_on="c_custkey", how="full"
    )
    return joined.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "c_mktsegment": b.column("c_mktsegment"),
                "o_totalprice": _round2(b.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )


def top_users_per_type(sf_dir: str, k: int = 3):
    """events → per-event-type top-k users by total value
    (event_type, user_id, total_value, rank) — the grouped top-N shape:
    per-batch partial sums on (type, user) → one keyed Sum groupby →
    bucketed vectorized rank (groups are *hash buckets of event_type*,
    never one task per type, and ranking inside a bucket is lexsort +
    run boundaries, no per-group Python).  Ranking uses the cent-rounded
    total so the order is exactly reproducible across summation orders."""
    import numpy as np
    import ray.data
    from ray.data.aggregate import Sum

    from ..stages.joins import SHUFFLE_BUCKETS, _bucket_of

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["event_type", "user_id"]).aggregate([("value", "sum")])
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "user_id": t.column("user_id"),
                "part_sum": t.column("value_sum"),
            }
        )

    totals = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("part_sum"))
    )

    # Bucketing on user_id would split a type across buckets; the rank
    # needs all of a type's users together, so bucket on a STABLE hash
    # of event_type (md5 — Python's builtin hash() is per-process salted
    # and would scatter one type over many buckets).  Types are far
    # fewer than buckets; rank work per bucket is tiny because totals
    # are already aggregated.
    def bucket_by_type(batch: pa.Table) -> pa.Table:
        from ..stages.cleaning import _hash63

        h = pa.array(
            [_hash63(s) for s in batch.column("event_type").to_pylist()],
            pa.int64(),
        )
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "user_id": batch.column("user_id"),
                "total_value": pc.round(batch.column("sum(part_sum)"), ndigits=2),
                "bkt": _bucket_of(h, SHUFFLE_BUCKETS),
            }
        )

    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "user_id": pa.array([], pa.int64()),
            "total_value": pa.array([], pa.float64()),
            "rank": pa.array([], pa.int64()),
        }
    )

    def rank_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return empty
        et = np.asarray(group.column("event_type").to_pylist())
        tv = np.asarray(group.column("total_value"), dtype=np.float64)
        uid = np.asarray(group.column("user_id"), dtype=np.int64)
        order = np.lexsort((uid, -tv, et))
        et_s = et[order]
        starts = np.flatnonzero(np.r_[True, et_s[1:] != et_s[:-1]])
        counts = np.diff(np.r_[starts, len(et_s)])
        pos = np.arange(len(et_s)) - np.repeat(starts, counts)
        keep = pos < k
        idx = pa.array(order[keep], pa.int64())
        return pa.table(
            {
                "event_type": group.column("event_type").take(idx),
                "user_id": group.column("user_id").take(idx),
                "total_value": group.column("total_value").take(idx),
                "rank": pa.array(pos[keep] + 1, pa.int64()),
            }
        )

    return (
        totals.map_batches(bucket_by_type, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(rank_topk, batch_format="pyarrow")
    )


def events_rollup(sf_dir: str):
    """GROUPING-SETS aggregate in ONE corpus pass: (event_type, day),
    (event_type), (day) and the grand total, each row tagged with its
    grouping id — the OLAP rollup a dashboard reads.

    Shape: every batch computes the finest (type, day) partial ONCE,
    then derives the three coarser partials FROM that tiny table (no
    second pass over rows); the union shuffles ≤ 4 × |distinct keys|
    light rows per block into a single Sum groupby on the composite
    key.  ``''`` marks a rolled-up dimension (nulls differ across
    engines and would break the value hash)."""
    import ray.data

    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        days = pc.strftime(
            pc.cast(batch.column("ts"), pa.timestamp("us")), format="%Y-%m-%d"
        )
        fine = (
            pa.table(
                {
                    "event_type": batch.column("event_type"),
                    "day": days,
                    "value": batch.column("value"),
                }
            )
            .group_by(["event_type", "day"])
            .aggregate([("value", "sum"), ("value", "count")])
        )
        pieces = []
        for gid, keys in ((0, ["event_type", "day"]), (1, ["event_type"]), (2, ["day"]), (3, [])):
            if gid == 0:
                # finest level IS `fine`; re-key by NAME (pyarrow's
                # group_by output column order is not contractual)
                t = pa.table(
                    {
                        "event_type": fine.column("event_type"),
                        "day": fine.column("day"),
                        "value_sum_sum": fine.column("value_sum"),
                        "value_count_sum": fine.column("value_count"),
                    }
                )
            elif keys:
                t = fine.group_by(keys).aggregate(
                    [("value_sum", "sum"), ("value_count", "sum")]
                )
            else:
                t = pa.table(
                    {
                        "value_sum_sum": pa.array(
                            [pc.sum(fine.column("value_sum")).as_py() or 0.0],
                            pa.float64(),
                        ),
                        "value_count_sum": pa.array(
                            [pc.sum(fine.column("value_count")).as_py() or 0],
                            pa.int64(),
                        ),
                    }
                )
            n = t.num_rows
            et = (
                t.column("event_type")
                if "event_type" in t.column_names
                else pa.nulls(n, pa.string()).fill_null("")
            )
            dy = (
                t.column("day")
                if "day" in t.column_names
                else pa.nulls(n, pa.string()).fill_null("")
            )
            pieces.append(
                pa.table(
                    {
                        "grouping_id": pa.array([gid] * n, pa.int64()),
                        "event_type": pc.cast(et, pa.string()),
                        "day": pc.cast(dy, pa.string()),
                        "part_sum": pc.cast(t.column("value_sum_sum"), pa.float64()),
                        "part_count": pc.cast(t.column("value_count_sum"), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(pieces)

    from ..stages.combine import tree_combine

    # grouped output is (4 sets x types x days) — a few thousand rows at
    # most, so merge the light partials in one task
    agg = tree_combine(
        ds.map_batches(partials, batch_format="pyarrow"),
        _combine_partials_by(["grouping_id", "event_type", "day"]),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "grouping_id": batch.column("grouping_id"),
                "event_type": batch.column("event_type"),
                "day": batch.column("day"),
                "n_events": pc.cast(batch.column("part_count"), pa.int64()),
                "sum_value": _round2(batch.column("part_sum")),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def orders_customer_skew_join(sf_dir: str, *, hot_threshold: int = 1000):
    """Planted-skew variant of :func:`orders_customer_join`: every third
    order is re-keyed to customer 1 — a mega-customer owning ~a third of
    the fact table — so the join exercises
    :func:`~go_htmldate_ray.stages.joins.skew_join`'s hot-key broadcast
    path (the mega-key never routes through one bucket task) alongside
    the bucketed cold path.  Output layout matches the plain join."""
    import numpy as np

    from ..stages.joins import skew_join

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    customer = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def plant(b: pa.Table) -> pa.Table:
        ok = np.asarray(b.column("o_orderkey"), dtype=np.int64)
        ck = np.asarray(b.column("o_custkey"), dtype=np.int64).copy()
        ck[ok % 3 == 0] = 1
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": pa.array(ck, pa.int64()),
                "o_totalprice": b.column("o_totalprice"),
            }
        )

    joined = skew_join(
        orders.map_batches(plant, batch_format="pyarrow"),
        customer,
        on="o_custkey",
        right_on="c_custkey",
        hot_threshold=hot_threshold,
    )
    return joined.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "c_mktsegment": b.column("c_mktsegment"),
                "o_totalprice": _round2(b.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )
