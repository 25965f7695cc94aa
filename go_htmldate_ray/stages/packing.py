"""Ordered prefix sums and GPT-style sequence packing.

Training-prep step: concatenate the token streams of all documents in a
fixed (doc_id) order and slice the stream into ``context_len``-token
packs — the standard concat-and-chunk batching of LM pretraining.  The
hard part at scale is the **global ordered cumulative sum** (each doc's
start offset depends on every earlier doc), a carry-chain Ray Data has
no native operator for.

:func:`ordered_cumsum` expresses it Dataset-native in two light passes
plus one grouped pass:

1. **Range stats** — ``min``/``max`` of the order column (one tiny
   aggregate) define ``SHUFFLE_BUCKETS`` contiguous key ranges, so bucket
   order IS key order (hash buckets would scramble the carry chain).
2. **Bucket partials** — per-batch partial sums → one keyed ``Sum``
   over ≤ one light row per bucket → the driver prefix-sums them into
   per-bucket start offsets (broadcast once).
3. **Within-bucket cumsum** — ``groupby(bucket).map_groups``: every row
   of a key range co-locates, a vectorized argsort + ``np.cumsum`` adds
   the bucket's carry-in.

Partitioning assumption (documented per the custom-operator contract):
the order key is roughly uniform over its [min, max] span — true for
dense doc_ids; a pathologically clustered key would send most rows to
one range bucket (same contract as a range-partitioned sort).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def ordered_cumsum(ds, *, order_col: str, value_col: str):
    """→ the input rows plus ``cum`` = inclusive cumulative sum of
    ``value_col`` in ascending ``order_col`` order (order values must be
    unique integers)."""
    from .joins import SHUFFLE_BUCKETS

    return _ordered_cumsum(ds, order_col, value_col, SHUFFLE_BUCKETS)


def _ordered_cumsum(ds, order_col: str, value_col: str, n_buckets: int):
    # n_buckets range buckets: suffix_array's rounds pass adaptive_buckets
    import ray
    from ray.data.aggregate import Max, Min, Sum

    # pin the input once: the Min/Max aggregate, the per-bucket partial
    # sums and the final grouped cumsum below are three separate
    # executions, and all callers pass light rows by contract
    ds = ds.materialize()
    stats = ds.aggregate(Min(order_col), Max(order_col))
    lo = stats.get(f"min({order_col})") if stats else None
    hi = stats.get(f"max({order_col})") if stats else None
    if lo is None or hi is None:
        # typed empty result (an empty map_batches would lose the schema)
        schema = ds.schema()
        cols = {n: pa.array([], t) for n, t in zip(schema.names, schema.types)}
        cols["cum"] = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table(cols))
    span = int(hi) - int(lo) + 1

    def bucket_of(order_arr: pa.Array) -> np.ndarray:
        # float64 range split: (o - lo) * n_buckets overflows int64 for
        # wide key domains (e.g. md5-int63 keys spanning ~2^62 — observed
        # as NEGATIVE, non-monotonic buckets corrupting the prefix
        # offsets).  Bucket ids only need to be a monotonic
        # non-decreasing pure function of the key (the within-bucket
        # sort orders exactly), so float precision loss is harmless.
        o = np.asarray(order_arr, dtype=np.int64)
        f = (o.astype(np.float64) - float(lo)) * (float(n_buckets) / float(span))
        return np.clip(f, 0, n_buckets - 1).astype(np.int64)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bkt", pa.array(bucket_of(batch.column(order_col)), pa.int64())
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["_bkt", value_col]).group_by(["_bkt"]).aggregate(
            [(value_col, "sum")]
        )
        return pa.table(
            {
                "b": t.column("_bkt"),
                "s": t.column(f"{value_col}_sum").cast(pa.int64()),
            }
        )

    rows = (
        tagged.map_batches(partial, batch_format="pyarrow")
        .groupby("b")
        .aggregate(Sum("s"))
        .take_all()  # bounded: <= n_buckets light rows
    )
    sums = np.zeros(n_buckets, dtype=np.int64)
    for r in rows:
        sums[r["b"]] = r["sum(s)"]
    offsets = np.concatenate([[0], np.cumsum(sums)[:-1]])
    off_ref = ray.put(offsets)

    def bucket_cumsum(group: pa.Table) -> pa.Table:
        off = ray.get(off_ref)
        order = pc.sort_indices(group.column(order_col))
        g = group.take(order)
        vals = np.asarray(g.column(value_col), dtype=np.int64)
        carry = int(off[int(g.column("_bkt")[0].as_py())])
        cum = np.cumsum(vals) + carry
        return g.drop_columns(["_bkt"]).append_column(
            "cum", pa.array(cum, pa.int64())
        )

    return tagged.groupby("_bkt").map_groups(
        bucket_cumsum, batch_format="pyarrow"
    )


def pack_sequences(ds, *, context_len: int = 512):
    """documents → (doc_id, n_tokens, start_offset, first_pack,
    last_pack): the standard LM concat-and-chunk packing layout.  The
    global token stream concatenates documents in doc_id order;
    ``start_offset`` is where each doc's tokens begin, and
    ``first_pack``/``last_pack`` are the context windows
    (``offset // context_len``) its tokens land in.  Zero-token docs
    contribute nothing to the stream and are omitted."""
    if context_len <= 0:
        raise ValueError(f"context_len must be positive, got {context_len}")

    def token_counts(batch: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(batch.column("text").combine_chunks())
        flat_keep = pc.not_equal(pc.list_flatten(toks), "")
        n = len(batch)
        counts = np.zeros(n, dtype=np.int64)
        par = np.asarray(
            pc.list_parent_indices(toks).filter(flat_keep), dtype=np.int64
        )
        np.add.at(counts, par, 1)
        keep = counts > 0
        ids = np.asarray(batch.column("doc_id").combine_chunks().cast(pa.int64()))
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_tokens": pa.array(counts[keep], pa.int64()),
            }
        )

    counted = ds.select_columns(["doc_id", "text"]).map_batches(
        token_counts, batch_format="pyarrow"
    )
    cum = ordered_cumsum(counted, order_col="doc_id", value_col="n_tokens")

    def layout(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch.column("cum"), dtype=np.int64)
        n = np.asarray(batch.column("n_tokens"), dtype=np.int64)
        start = c - n
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": batch.column("n_tokens"),
                "start_offset": pa.array(start, pa.int64()),
                "first_pack": pa.array(start // context_len, pa.int64()),
                "last_pack": pa.array((c - 1) // context_len, pa.int64()),
            }
        )

    return cum.map_batches(layout, batch_format="pyarrow")
