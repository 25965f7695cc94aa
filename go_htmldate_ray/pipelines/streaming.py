"""Streaming-shaped operators over the events table.

Ray Data lacks these as primitives, so they're composed per the custom-
operator ladder (map_batches + groupby().map_groups + sort):

- **Tumbling-window aggregate**: window assignment is a vectorized batch
  map (pure arithmetic on timestamps — the partial/combiner step), the
  final combine is a small groupby on (window, type).
- **As-of join**: the small side's (key·2^21 + day, orderkey)-sorted
  arrays are broadcast once via ``ray.put``; each event batch answers
  every row with ONE vectorized ``searchsorted``.  At scale the same
  resolve runs per HASH BUCKET of the key after one
  :func:`~go_htmldate_ray.stages.joins.co_partition` exchange — never
  per key (millions of per-key Python callbacks is the
  max-scheduling-overhead shape) and never per row.
- **Sessionization**: groupby(key hash bucket) → per-bucket vectorized
  lexsort + run-boundary gap scan (the ``tfidf_top_terms`` /
  ``paragraph_dedup`` pattern).  Ordering is only assumed *within* a
  bucket, which the groupby guarantees; session ids are deterministic
  (user_id * 10^6 + per-user session index).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import read_parquet_clean
from ..stages.joins import SHUFFLE_BUCKETS, _bucket_of

SESSION_GAP_MINUTES = 30

# (key, day) pairs pack into ONE int64 so an as-of lookup is a single
# searchsorted over a sorted int64 array: low 21 bits = day ordinal
# (covers ~5.7 millennia), high bits = key (< 2^42).  Bounds are loud.
_PACK_DAY_BITS = 21
_PACK_DAY_SPAN = 1 << _PACK_DAY_BITS


def _pack_key_day(key: np.ndarray, days: np.ndarray, what: str) -> np.ndarray:
    if len(days) and (days.min() < 0 or days.max() >= _PACK_DAY_SPAN):
        raise ValueError(f"{what}: day ordinal outside [0, 2^{_PACK_DAY_BITS})")
    if len(key) and (key.min() < 0 or key.max() >= (1 << (63 - _PACK_DAY_BITS))):
        raise ValueError(f"{what}: key outside [0, 2^{63 - _PACK_DAY_BITS})")
    return key * _PACK_DAY_SPAN + days


def _asof_resolve(
    t_pack: np.ndarray, o_pack_sorted: np.ndarray, o_key_sorted: np.ndarray
) -> np.ndarray:
    """Vectorized as-of core: for each packed (key, day) target, the
    orderkey of the latest order with the same key and day ≤ target —
    ties on day resolve to the max orderkey because the order side is
    sorted by (pack, orderkey) and ``searchsorted(right)`` lands after
    the whole equal-pack run.  -1 where the key has no earlier order."""
    idx = np.searchsorted(o_pack_sorted, t_pack, side="right")
    cand = np.maximum(idx - 1, 0)
    ok = (idx > 0) & (
        (o_pack_sorted[cand] >> _PACK_DAY_BITS) == (t_pack >> _PACK_DAY_BITS)
    )
    res = np.full(len(t_pack), -1, dtype=np.int64)
    if len(o_pack_sorted):
        res[ok] = o_key_sorted[cand[ok]]
    return res


def _day_ordinal_from_ts(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Calendar-day ordinal (days since epoch) of a timestamp column —
    int64 floor division, matching ``ts.date()`` for the post-epoch
    timestamps the events table carries."""
    us = np.asarray(pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64()))
    return us // 86_400_000_000


def _day_ordinal_from_date(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    return np.asarray(
        pc.cast(pc.cast(col, pa.date32()), pa.int32()), dtype=np.int64
    )


def windowed_events(sf_dir: str):
    """events → (window_start, event_type, n_events, sum_value) over
    tumbling 1-hour windows."""
    import ray.data

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def assign_and_partial(batch: pa.Table) -> pa.Table:
        window = pc.floor_temporal(batch.column("ts"), unit="hour")
        batch = batch.set_column(0, "window_start", window)
        t = batch.group_by(["window_start", "event_type"]).aggregate(
            [("value", "sum"), ("value", "count")]
        )
        return pa.table(
            {
                "window_start": t.column("window_start"),
                "event_type": t.column("event_type"),
                "part_sum": t.column("value_sum"),
                "part_count": t.column("value_count"),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(assign_and_partial, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Sum("part_sum"), Sum("part_count"))
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                # string timestamps: engine-independent value hashing
                "window_start": pc.strftime(b.column("window_start"), format="%Y-%m-%d %H:%M:%S"),
                "event_type": b.column("event_type"),
                "n_events": pc.cast(b.column("sum(part_count)"), pa.int64()),
                "sum_value": pc.round(b.column("sum(part_sum)"), ndigits=2),
            }
        ),
        batch_format="pyarrow",
    )


def asof_join_latest_order(sf_dir: str):
    """events ⟕asof orders: for each event, the latest order of the same
    customer placed on or before the event date → (event_id, o_orderkey);
    -1 when the customer has no earlier order.

    While the orders file's uncompressed size (parquet metadata) fits
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget, the
    per-customer order history ships once via ``ray.put``; above it the
    co-partitioned scale path runs — both sides hash-co-located on the
    customer key by one ``co_partition`` exchange, the as-of walk running
    per bucket with no driver-side or broadcast state."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from ..stages.blocks import LIGHT_TABLE_BYTES

    meta = pq.ParquetFile(f"{sf_dir}/orders.parquet").metadata
    n_bytes = sum(meta.row_group(i).total_byte_size for i in range(meta.num_row_groups))
    if n_bytes > LIGHT_TABLE_BYTES:
        return _asof_latest_order_copartition(sf_dir)

    orders = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_orderkey"]
    )
    ck = np.asarray(orders.column("o_custkey"), dtype=np.int64)
    days = _day_ordinal_from_date(orders.column("o_orderdate"))
    okey = np.asarray(orders.column("o_orderkey"), dtype=np.int64)
    pack = _pack_key_day(ck, days, "asof_join_latest_order")
    # sorted ONCE by (pack, orderkey): ties on date resolve to the
    # highest orderkey, matching the SQL row_number ordering
    # (o_orderdate DESC, o_orderkey DESC)
    order = np.lexsort((okey, pack))
    orders_ref = ray.put((pack[order], okey[order]))

    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def join(batch: pa.Table) -> pa.Table:
        o_pack, o_key = ray.get(orders_ref)
        uid = np.asarray(batch.column("user_id"), dtype=np.int64)
        t_pack = _pack_key_day(
            uid, _day_ordinal_from_ts(batch.column("ts")), "asof_join_latest_order"
        )
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "o_orderkey": pa.array(
                    _asof_resolve(t_pack, o_pack, o_key), pa.int64()
                ),
            }
        )

    return events.map_batches(join, batch_format="pyarrow")


def _asof_latest_order_copartition(sf_dir: str):
    """Co-partitioned as-of join: each side ships its packed
    ``(key·2^21 + day)`` int64, and one
    :func:`~go_htmldate_ray.stages.joins.co_partition` exchange on the
    customer key co-locates events with their customer's orders.  Each
    bucket resolves ALL of its keys with one vectorized lexsort +
    ``searchsorted`` (:func:`_asof_resolve`); the key is the packed
    value's high bits, so key identity rides inside the same binary
    search.  Nothing is broadcast and the driver holds no state — the
    shape that survives an orders table too large for ``ray.put``."""
    from ..stages.joins import co_partition

    def packed(key_col: str, id_col: str, days):
        def pre(batch: pa.Table) -> pa.Table:
            key = np.asarray(batch.column(key_col), dtype=np.int64)
            return pa.table(
                {
                    key_col: pa.array(key, pa.int64()),
                    id_col: batch.column(id_col).cast(pa.int64()),
                    "pack": pa.array(
                        _pack_key_day(key, days(batch), "asof copartition"), pa.int64()
                    ),
                }
            )

        return pre

    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    ).map_batches(
        packed("user_id", "event_id", lambda b: _day_ordinal_from_ts(b.column("ts"))),
        batch_format="pyarrow",
    )
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_orderkey"]
    ).map_batches(
        packed(
            "o_custkey", "o_orderkey", lambda b: _day_ordinal_from_date(b.column("o_orderdate"))
        ),
        batch_format="pyarrow",
    )

    def asof_bucket(ev: pa.Table, od: pa.Table) -> pa.Table:
        if not ev.num_rows:  # an empty side may hold only its key column
            return pa.schema([("event_id", pa.int64()), ("o_orderkey", pa.int64())]).empty_table()
        o_pack = np.asarray(od.column("pack"), dtype=np.int64)
        o_key = np.asarray(od.column("o_orderkey"), dtype=np.int64)
        order = np.lexsort((o_key, o_pack))
        t_pack = np.asarray(ev.column("pack"), dtype=np.int64)
        return pa.table(
            {
                "event_id": ev.column("event_id"),
                "o_orderkey": pa.array(
                    _asof_resolve(t_pack, o_pack[order], o_key[order]), pa.int64()
                ),
            }
        )

    return co_partition(
        events, orders, "user_id", "o_custkey", asof_bucket, n_buckets=SHUFFLE_BUCKETS
    )


def sessionize_events(sf_dir: str):
    """events → (event_id, session_id): a new session starts when a user's
    gap since their previous event exceeds 30 minutes.
    session_id = user_id * 10^6 + per-user session index (0-based).

    Shape: ONE groupby shuffle on a hash BUCKET of the user key, then a
    fully vectorized per-bucket resolve — lexsort by (user, ts, event_id)
    and a run-boundary segmented cumsum of the gap indicator (the
    ``paragraph_dedup`` pattern).  Grouping on the raw user key would
    invoke a Python callback once per user — the max-scheduling-overhead
    shape at corpus-scale key cardinality."""
    import ray.data

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    gap_us = SESSION_GAP_MINUTES * 60_000_000

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64())
        return pa.table(
            {
                "bucket": _bucket_of(uid, SHUFFLE_BUCKETS),
                "user_id": uid,
                "event_id": batch.column("event_id").cast(pa.int64()),
                "ts_us": pc.cast(
                    pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
                ),
            }
        )

    def sessionize(group: pa.Table) -> pa.Table:
        uid = np.asarray(group.column("user_id"), dtype=np.int64)
        eid = np.asarray(group.column("event_id"), dtype=np.int64)
        ts = np.asarray(group.column("ts_us"), dtype=np.int64)
        order = np.lexsort((eid, ts, uid))
        u, t, e = uid[order], ts[order], eid[order]
        first = np.r_[True, u[1:] != u[:-1]]  # run boundary per user
        gap_hit = np.r_[False, (t[1:] - t[:-1]) > gap_us]
        inc = (~first & gap_hit).astype(np.int64)
        # segmented cumsum: global cumsum minus its value at each user's
        # first row (inc is 0 there, so the base is the carry-in)
        cs = np.cumsum(inc)
        seg = np.cumsum(first) - 1
        base = cs[np.flatnonzero(first)][seg]
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "session_id": pa.array(u * 10**6 + (cs - base), pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(sessionize, batch_format="pyarrow")
    )


def sliding_window_events(sf_dir: str, window_hours: int = 2, hop_hours: int = 1):
    """events → (window_start, event_type, n_events, sum_value) over
    SLIDING windows (window > hop ⇒ each event lands in window/hop
    windows).  Same combiner-before-shuffle shape as the tumbling
    variant: window replication + per-batch partial aggregation is pure
    batch arithmetic, the final groupby moves one row per
    (window, type) per block."""
    import ray.data
    from ray.data.aggregate import Sum

    if window_hours % hop_hours:
        raise ValueError("window must be a multiple of hop")
    n_offsets = window_hours // hop_hours
    hop_us = hop_hours * 3_600_000_000

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def assign_and_partial(batch: pa.Table) -> pa.Table:
        base = pc.floor_temporal(batch.column("ts"), multiple=hop_hours, unit="hour")
        # pin the unit before dropping to int64 arithmetic — a ts column
        # stored as timestamp[ns]/[s] would otherwise shift by the wrong
        # magnitude when hop_us is subtracted
        base_us = pc.cast(pc.cast(base, pa.timestamp("us")), pa.int64())
        parts = []
        for j in range(n_offsets):
            shifted = pc.cast(
                pc.subtract(base_us, j * hop_us), pa.timestamp("us")
            )
            parts.append(
                pa.table(
                    {
                        "window_start": shifted,
                        "event_type": batch.column("event_type"),
                        "value": batch.column("value"),
                    }
                )
            )
        t = (
            pa.concat_tables(parts)
            .group_by(["window_start", "event_type"])
            .aggregate([("value", "sum"), ("value", "count")])
        )
        return pa.table(
            {
                "window_start": t.column("window_start"),
                "event_type": t.column("event_type"),
                "part_sum": t.column("value_sum"),
                "part_count": t.column("value_count"),
            }
        )

    agg = (
        ds.map_batches(assign_and_partial, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Sum("part_sum"), Sum("part_count"))
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "window_start": pc.strftime(
                    b.column("window_start"), format="%Y-%m-%d %H:%M:%S"
                ),
                "event_type": b.column("event_type"),
                "n_events": pc.cast(b.column("sum(part_count)"), pa.int64()),
                "sum_value": pc.round(b.column("sum(part_sum)"), ndigits=2),
            }
        ),
        batch_format="pyarrow",
    )


N_MAINTENANCE_WINDOWS = 180  # one per 4h over the events month
_WINDOW_STRIDE_US = 4 * 3600 * 1_000_000
_EVENTS_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z


def maintenance_windows() -> pa.Table:
    """Deterministic overlapping interval table: window i starts at
    epoch + i·4h and lasts 2h + (i mod 5)h (2–6h, so ~40% of windows
    overlap their successor) — recomputable in SQL from the formula."""
    import numpy as np

    i = np.arange(N_MAINTENANCE_WINDOWS, dtype=np.int64)
    starts = _EVENTS_EPOCH_US + i * _WINDOW_STRIDE_US
    ends = starts + (2 + (i % 5)) * 3600 * 1_000_000
    return pa.table(
        {
            "window_id": pa.array(i, pa.int64()),
            "wstart": pa.array(starts, pa.timestamp("us")),
            "wend": pa.array(ends, pa.timestamp("us")),
        }
    )


def events_in_windows(sf_dir: str):
    """Range (interval) join: events × overlapping maintenance windows →
    one row per (event, containing window).

    The general :func:`~go_htmldate_ray.stages.joins.range_join` shape:
    grid-cell equi-join reduction (grid = the 4 h window stride, so
    interval replication ≤ 2–3 cells) followed by the exact containment
    filter.  The window table here is tiny, but the join deliberately
    runs the distributed two-sided path — the same code handles a
    billion-interval right side."""
    import ray.data

    from ..stages.joins import range_join

    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )
    windows = ray.data.from_arrow(maintenance_windows())
    joined = range_join(
        events,
        windows,
        left_ts="ts",
        right_start="wstart",
        right_end="wend",
        grid_us=_WINDOW_STRIDE_US,
    )
    return joined.select_columns(["event_id", "window_id"])


N_SERVICE_WINDOWS = 240  # one per 10 days over the 1995-2001 orders span
_SERVICE_STRIDE_US = 10 * 86_400 * 1_000_000
_ORDERS_EPOCH_US = 788_918_400_000_000  # 1995-01-01T00:00:00Z
_DAY_US = 86_400 * 1_000_000


def service_windows() -> pa.Table:
    """Formula-literal interval table over the orders era: window i
    starts at 1995-01-01 + i·10d and lasts 3 + (i mod 9) days."""
    import numpy as np

    i = np.arange(N_SERVICE_WINDOWS, dtype=np.int64)
    starts = _ORDERS_EPOCH_US + i * _SERVICE_STRIDE_US
    ends = starts + (3 + (i % 9)) * _DAY_US
    return pa.table(
        {
            "window_id": pa.array(i, pa.int64()),
            "wstart": pa.array(starts, pa.timestamp("us")),
            "wend": pa.array(ends, pa.timestamp("us")),
        }
    )


def orders_overlapping_windows(sf_dir: str):
    """Interval-overlap join: order fulfillment spans
    ``[o_orderdate, +1..7 days)`` × service windows → one row per
    overlapping (order, window) pair.

    Exercises the two-sided
    :func:`~go_htmldate_ray.stages.joins.interval_overlap_join`
    (both sides grid-expanded, first-shared-cell dedup — no distinct
    shuffle) with the grid at the window stride."""
    import ray.data

    from ..stages.joins import interval_overlap_join

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )

    def add_span(batch: pa.Table) -> pa.Table:
        import numpy as np

        start_us = pc.cast(
            pc.cast(batch.column("o_orderdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        keys = np.asarray(batch.column("o_orderkey"), dtype=np.int64)
        end_us = start_us + (1 + keys % 7) * _DAY_US
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "ostart": pa.array(start_us, pa.timestamp("us")),
                "oend": pa.array(end_us, pa.timestamp("us")),
            }
        )

    spans = orders.map_batches(add_span, batch_format="pyarrow")
    joined = interval_overlap_join(
        spans,
        ray.data.from_arrow(service_windows()),
        left_start="ostart",
        left_end="oend",
        right_start="wstart",
        right_end="wend",
        grid_us=_SERVICE_STRIDE_US,
    )
    return joined.select_columns(["o_orderkey", "window_id"])


def crawl_delay_compliance(sf_dir: str):
    """Politeness audit over a fetch log: per key (the events fixture's
    ``user_id`` standing in for a crawl host), order fetches by
    (ts, event_id) and count consecutive-fetch gaps SHORTER than the
    key's declared minimum delay — exactly the check a crawl operator
    runs against the fetch log to prove the politeness scheduler honored
    per-host Crawl-delay at 10^10 fetches.

    The per-key minimum delay is deterministic fixture policy:
    ``(user_id % 5 + 1)`` minutes (five distinct budgets, every branch
    exercised).  Output: ``(user_id, n_events, n_violations,
    min_gap_s)``; single-event keys have 0 violations.

    Shape: same as :func:`sessionize_events` — one groupby shuffle on a
    hash bucket of the key, then a fully vectorized per-bucket resolve
    (lexsort + run-boundary gap scan + one ``np.unique`` count); gaps
    compare in integer microseconds, so the SQL oracle matches exactly.
    """
    import ray.data

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").cast(pa.int64())
        return pa.table(
            {
                "bucket": _bucket_of(uid, SHUFFLE_BUCKETS),
                "user_id": uid,
                "event_id": batch.column("event_id").cast(pa.int64()),
                "ts_us": pc.cast(
                    pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
                ),
            }
        )

    def audit(group: pa.Table) -> pa.Table:
        uid = np.asarray(group.column("user_id"), dtype=np.int64)
        eid = np.asarray(group.column("event_id"), dtype=np.int64)
        ts = np.asarray(group.column("ts_us"), dtype=np.int64)
        if len(uid) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "n_violations": pa.array([], pa.int64()),
                    "min_gap_s": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], ts[order]
        first = np.r_[True, u[1:] != u[:-1]]
        min_gap_min = (u % 5) + 1  # fixture policy, in minutes
        min_gap_us = min_gap_min * 60_000_000
        viol = np.r_[False, (t[1:] - t[:-1]) < min_gap_us[1:]] & ~first
        users, starts = np.unique(u, return_index=True)
        n_events = np.diff(np.r_[starts, len(u)])
        boundaries = starts
        n_viol = np.add.reduceat(viol.astype(np.int64), boundaries)
        # reduceat on a single-row final segment still works; but a
        # segment whose slice is empty can't occur (every user has >= 1)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "n_violations": pa.array(n_viol, pa.int64()),
                "min_gap_s": pa.array((users % 5 + 1) * 60, pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(audit, batch_format="pyarrow")
    )
