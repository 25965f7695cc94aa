"""Bucketed equi-joins over Ray Data, all on one exchange.

:func:`co_partition` is the only place the two sides of a keyed join meet.
Each side's rows are tagged with a side marker and a HASH BUCKET of their
int64 key, padded with typed nulls for the other side's columns, and
unioned; ONE ``groupby(bucket).map_groups`` shuffle co-locates them, and
every bucket is split back into its two sides and handed to the caller's
``resolve``.  :func:`hash_join`, :func:`anti_join`, :func:`attach_payload`,
``suffix.repeated_substrings``' prefix attach and the co-partitioned as-of
join in ``pipelines.streaming`` are each one resolve over it.  The shuffle
is Ray Data's stable sort-based one, not the experimental ``Dataset.join``
operator (whose per-partition aggregator actors over-subscribe small
clusters and choke on schema-less empty partitions).

The grouping key is a hash bucket of the join key, not the key itself:
grouping on the raw key would invoke a per-group Python callback once per
key, the maximum-overhead shape for a corpus-sized key domain.  Each
callback resolves a whole bucket of keys with vectorized numpy
(:func:`sorted_lookup` for the ≤1-row-per-key lookup side, a repeat/tile
index construction for the general cartesian), so per-group overhead is
amortised over ~|rows|/width rows.

Layout is not part of any operator's API.  The one width rule: a
single-pass exchange is :data:`SHUFFLE_BUCKETS` wide; an operator that
knows its row count (the iterative graph, suffix and component rounds)
uses :func:`adaptive_buckets` of it and keeps its state in
:func:`state_blocks` blocks.  No result depends on either.

Null keys follow SQL: a null key matches nothing, not even another null.
``co_partition`` gives each side's null-key rows a bucket of their own, so
a resolve only ever sees them beside an empty other side: inner joins and
``attach_payload`` drop them, ``left``/``full`` joins keep them unmatched,
and ``anti_join`` keeps them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_BUCKET = "__join_bucket"
_FROM_RIGHT = "__join_from_right"

# the width of every single-pass bucketed exchange
SHUFFLE_BUCKETS = 64


def state_blocks(n_rows: int) -> int:
    """Block count for an iterative operator's ``n_rows``-row state
    (≈2M rows per block, 1 to 512), pinned every round by
    :func:`~go_htmldate_ray.stages.blocks.rebase`."""
    return max(1, min(512, n_rows // 2_000_000 + 1))


def adaptive_buckets(n_rows: int) -> int:
    """Shuffle width for the keyed joins of an operator over ``n_rows``
    rows: ~500k rows per bucket, floor 8, cap 256 (a 97-node host graph
    must not pay 64 near-empty join tasks per exchange per round), and
    never fewer buckets than :func:`state_blocks` blocks."""
    return max(8, min(256, n_rows // 500_000 + 8), state_blocks(n_rows))


def _bucket_of(keys: pa.ChunkedArray | pa.Array, n_buckets: int) -> pa.Array:
    # splitmix-style mix (in uint64, wrapping) so adjacent ids spread
    k = np.asarray(keys, dtype=np.int64).astype(np.uint64)
    k ^= k >> np.uint64(33)
    k *= np.uint64(0xFF51AFD7ED558CCD)
    return pa.array((k % np.uint64(n_buckets)).astype(np.int64), pa.int64())


def sorted_lookup(sorted_keys: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    """Find each of ``values`` in the ascending ``sorted_keys``: returns
    the ``searchsorted`` position clipped to a valid index, and the mask
    of values found there.  Index ``sorted_keys`` (or an array aligned
    with it) only at ``pos[hit]``; an empty ``sorted_keys`` finds
    nothing."""
    values = np.asarray(values)
    if not len(sorted_keys):
        return np.zeros(len(values), dtype=np.int64), np.zeros(len(values), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, values), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == values


def _int64(tbl: pa.Table, col: str) -> np.ndarray:
    """A key column as int64 numpy (nulls read as 0: a resolve only meets
    null keys beside an empty other side, where they match nothing)."""
    return np.asarray(pc.fill_null(tbl.column(col).cast(pa.int64()), 0), dtype=np.int64)


def _fields(ds, key: str) -> list[tuple[str, pa.DataType]]:
    schema = ds.schema()
    if schema is None:
        return [(key, pa.int64())]
    return list(zip(schema.names, schema.types))


def co_partition(left, right, left_key: str, right_key: str, resolve, *, n_buckets: int):
    """Co-locate ``left`` and ``right`` by a hash bucket of their int64
    keys in ONE shuffle and return ``resolve(lrows, rrows)`` over every
    bucket.

    ``lrows`` and ``rrows`` are the bucket's rows of each side, as Arrow
    tables with that side's own column names and types; either may have
    no rows, and a side whose dataset has no schema (no rows and no
    typed block, as a ``map_batches`` over empty input leaves it) arrives
    as an empty table holding only its key column.  ``resolve`` returns
    an Arrow table (one schema for every bucket); the result is the
    Dataset of those tables, in no particular row order.  Rows with a
    null key go to a bucket of their own side, so a null key never meets
    a row of the other side.

    Both sides' schemas are read up front (``Dataset.schema()``): pass
    materialized or cheaply-read datasets, or that read re-runs their
    lineage.
    """
    lfields, rfields = _fields(left, left_key), _fields(right, right_key)
    lnames, rnames = [n for n, _ in lfields], [n for n, _ in rfields]
    tagged = [f"l.{n}" for n in lnames] + [f"r.{n}" for n in rnames] + [_BUCKET, _FROM_RIGHT]

    def tagger(key: str, from_right: bool):
        own, other = (rfields, lfields) if from_right else (lfields, rfields)
        null_bucket = n_buckets + from_right

        def tag(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key_col = batch.column(key).cast(pa.int64())
            bucket = pc.if_else(
                pc.is_null(key_col),
                null_bucket,
                _bucket_of(pc.fill_null(key_col, 0), n_buckets),
            )
            # own columns ship uncast: one dataset's blocks may disagree on
            # a type (an all-null block is null-typed), and the shuffle's
            # concat unifies them
            cols = [batch.column(c) for c, _ in own]
            pad = [pa.nulls(n, t) for _, t in other]
            return pa.Table.from_arrays(
                (pad + cols if from_right else cols + pad)
                + [bucket, pa.array(np.full(n, from_right), pa.bool_())],
                names=tagged,
            )

        return tag

    def split(group: pa.Table) -> pa.Table:
        is_right = group.column(_FROM_RIGHT)
        lrows = group.filter(pc.invert(is_right)).select([f"l.{n}" for n in lnames])
        rrows = group.filter(is_right).select([f"r.{n}" for n in rnames])
        return resolve(lrows.rename_columns(lnames), rrows.rename_columns(rnames))

    return (
        left.map_batches(tagger(left_key, False), batch_format="pyarrow")
        .union(right.map_batches(tagger(right_key, True), batch_format="pyarrow"))
        .groupby(_BUCKET)
        .map_groups(split, batch_format="pyarrow")
    )


def attach_payload(
    pairs,
    lookup,
    key_col: str,
    out_col: str,
    carry_cols: dict[str, pa.DataType],
    dedupe: bool = False,
):
    """Inner-join ``lookup``'s payload onto ``pairs``.

    Args:
        pairs: Dataset whose rows reference a key via ``key_col``.
        lookup: Dataset with columns ``key`` (int64) and ``payload``
            (binary) — at most one row per key.
        key_col: column of ``pairs`` naming the lookup key.
        out_col: name for the attached payload column (binary).
        carry_cols: name → Arrow type of the ``pairs`` columns to carry
            through (must include ``key_col``).
        dedupe: drop duplicate carry tuples — rows with identical carry
            values co-locate on the join bucket, so candidate-pair dedup
            piggybacks on this shuffle instead of needing its own
            all-to-all.

    Returns a Dataset with ``carry_cols`` + ``out_col``; pairs whose key
    is null or has no lookup row are dropped (inner semantics).
    """
    names = list(carry_cols)
    # pinned: co_partition reads the projection's schema, which would
    # otherwise re-run the pairs' lineage (a shuffle, for every caller)
    projected = pairs.map_batches(
        lambda b: pa.table({c: b.column(c).cast(carry_cols[c]) for c in names}),
        batch_format="pyarrow",
    ).materialize()

    empty = pa.schema([*carry_cols.items(), (out_col, pa.binary())]).empty_table()

    def resolve(prs: pa.Table, lk_rows: pa.Table) -> pa.Table:
        if not prs.num_rows or not lk_rows.num_rows:
            return empty  # an empty side may hold only its key column
        if dedupe and prs.num_rows > 1:
            # distinct carry tuples (pyarrow hash group-by, no Python loop)
            prs = prs.group_by(names, use_threads=False).aggregate([])
        lk = _int64(lk_rows, "key")
        order = np.argsort(lk, kind="stable")
        pos, hit = sorted_lookup(lk[order], _int64(prs, key_col))
        matched = prs.filter(pa.array(hit)).select(names)
        payload = lk_rows.column("payload").cast(pa.binary())
        return matched.append_column(
            out_col, payload.take(pa.array(order[pos[hit]], pa.int64()))
        )

    return co_partition(
        projected, lookup, key_col, "key", resolve, n_buckets=SHUFFLE_BUCKETS
    )


def hash_join(
    left,
    right,
    *,
    on: str,
    right_on: str | None = None,
    n_buckets: int | None = None,
    how: str = "inner",
):
    """General distributed equi-join over :func:`co_partition`
    (``how="inner"``, ``"left"`` or ``"full"`` — outer modes keep
    unmatched rows with typed nulls in the other side's columns; the
    right key column surfaces as the ``on`` column for right-only rows
    of a full join, mirroring SQL ``USING``/``coalesce`` semantics).
    A null key matches nothing: inner drops it, outer keeps it unmatched.

    Each bucket emits the cartesian product of its left × right rows per
    key, built with vectorized repeat/tile index arrays (no per-key
    Python callback — see module docstring).

    Column layout: all left columns + all right columns except the right
    key (mirrors SQL ``USING``).  Non-key column-name collisions are the
    caller's responsibility.  Skewed keys amplify the within-group
    cartesian — this is an equi-join; pre-aggregate hot keys first.
    ``n_buckets`` defaults to :data:`SHUFFLE_BUCKETS`.
    """
    if how not in ("inner", "left", "full"):
        raise ValueError(f"how must be 'inner', 'left' or 'full', got {how!r}")
    right_on = right_on or on

    left_types = dict(_fields(left, on))
    left_names = list(left_types)
    right_types = {n: t for n, t in _fields(right, right_on) if n != right_on}
    right_names = list(right_types)

    def _left_only(lrows: pa.Table, mask: np.ndarray) -> pa.Table:
        """Unmatched left rows + typed nulls for the right columns."""
        kept = lrows.filter(pa.array(mask))
        cols = {n: kept.column(n) for n in left_names}
        cols.update({n: pa.nulls(kept.num_rows, right_types[n]) for n in right_names})
        return pa.table(cols)

    def _right_only(rrows: pa.Table, mask: np.ndarray) -> pa.Table:
        """Unmatched right rows: nulls for left columns, except the join
        key column, which carries the right key (SQL USING semantics)."""
        kept = rrows.filter(pa.array(mask))
        cols = {
            n: kept.column(right_on).cast(left_types[n])
            if n == on
            else pa.nulls(kept.num_rows, left_types[n])
            for n in left_names
        }
        cols.update({n: kept.column(n) for n in right_names})
        return pa.table(cols)

    def emit_bucket(lrows: pa.Table, rrows: pa.Table) -> pa.Table:
        lk, rk = _int64(lrows, on), _int64(rrows, right_on)
        l_order = np.argsort(lk, kind="stable")
        r_order = np.argsort(rk, kind="stable")
        # per-key run starts/counts on both sorted sides
        lu, l_start, l_cnt = np.unique(lk[l_order], return_index=True, return_counts=True)
        ru, r_start, r_cnt = np.unique(rk[r_order], return_index=True, return_counts=True)
        ri, common = sorted_lookup(ru, lu)
        lc, ls = l_cnt[common], l_start[common]
        rc, rs = r_cnt[ri[common]], r_start[ri[common]]
        # vectorized per-key cartesian: for key k with (lc, rc) rows the
        # output enumerates p = 0..lc*rc-1 as (p // rc, p % rc)
        m = lc * rc
        key_id = np.repeat(np.arange(len(m)), m)
        p = np.arange(int(m.sum())) - np.repeat(np.cumsum(m) - m, m)
        l_idx = pa.array(l_order[ls[key_id] + p // rc[key_id]], pa.int64())
        r_idx = pa.array(r_order[rs[key_id] + p % rc[key_id]], pa.int64())
        cols = {n: lrows.column(n).take(l_idx) for n in left_names}
        cols.update({n: rrows.column(n).take(r_idx) for n in right_names})
        parts = [pa.table(cols)]
        matched = lu[common]
        if how != "inner":
            parts.append(_left_only(lrows, ~sorted_lookup(matched, lk)[1]))
        if how == "full":
            parts.append(_right_only(rrows, ~sorted_lookup(matched, rk)[1]))
        return pa.concat_tables(parts)

    return co_partition(
        left, right, on, right_on, emit_bucket, n_buckets=n_buckets or SHUFFLE_BUCKETS
    )


def anti_join(
    left,
    right,
    *,
    on: str,
    right_on: str | None = None,
):
    """Left ANTI equi-join: left rows whose key has NO match in right —
    the "new since the last snapshot" / incremental-dedup exchange.  A
    null left key matches nothing, so its row is kept (SQL ``ANTI JOIN``).

    One :func:`co_partition` exchange, but the right side ships only its
    key column, locally deduplicated per batch first (``pc.unique``), so
    a heavily-duplicated probe side costs one light int64 row per
    distinct key per block.  Per bucket the resolve is one
    :func:`sorted_lookup` membership test.

    Returns left's columns unchanged.
    """
    right_on = right_on or on
    right_keys = right.map_batches(
        lambda b: pa.table(
            {right_on: pc.unique(b.column(right_on).cast(pa.int64()).combine_chunks())}
        ),
        batch_format="pyarrow",
    )

    def keep_unmatched(lrows: pa.Table, rrows: pa.Table) -> pa.Table:
        _, hit = sorted_lookup(np.unique(_int64(rrows, right_on)), _int64(lrows, on))
        return lrows.filter(pa.array(~hit))

    return co_partition(
        left, right_keys, on, right_on, keep_unmatched, n_buckets=SHUFFLE_BUCKETS
    )


PAIR_CAP = 200  # bucket size above which all-pairs expansion is star-sampled


def _expand_ids(
    ids: np.ndarray, logger, what: str, strict: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """All-pairs (or star-sampled) expansion of one collision cluster's
    sorted distinct ids: the per-run contract of :func:`collision_pairs`,
    which calls it for the runs above ``PAIR_CAP``."""
    g = len(ids)
    if g < 2:
        return None
    if g <= PAIR_CAP:
        ii, jj = np.triu_indices(g, 1)
        return ids[ii], ids[jj]
    if strict:
        raise ValueError(
            f"{what} LSH bucket with {g} members exceeds PAIR_CAP={PAIR_CAP} "
            "in strict (oracle) mode: the exact-enumeration oracle would "
            "diverge from star-sampling — raise PAIR_CAP or use "
            "hot_buckets='sample'"
        )
    logger.warning(
        "%s LSH bucket with %d members star-sampled: emitting %d spanning "
        "pairs instead of %d all-pairs (cluster connectivity preserved)",
        what, g, g - 1, g * (g - 1) // 2,
    )
    return np.full(g - 1, ids[0]), ids[1:]


def sorted_unique_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(x, y)`` pairs sorted by x, then y: what
    ``np.unique(np.stack([x, y], axis=1), axis=0)`` returns, from one
    lexsort and an adjacent-row compare instead of a sort of row
    views."""
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    fresh = np.ones(len(x), dtype=bool)
    fresh[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    return x[fresh], y[fresh]


def collision_pairs(
    group: pa.Table,
    key_col: str,
    id_col: str,
    a_col: str,
    b_col: str,
    logger,
    what: str,
    strict: bool = False,
) -> pa.Table:
    """Candidate pairs ``a < b`` from a HASH BUCKET of LSH band rows.

    The group holds many distinct band keys (the grouping key is
    ``hash(band_key) % n_buckets``, not the band key itself — per-key
    groups would mean one Python callback per mostly-singleton key at
    corpus scale).  One lexsort on (key, id) plus an adjacent-duplicate
    drop turns every band key into a run of sorted distinct ids.  Runs
    of at most ``PAIR_CAP`` ids expand all-pairs without a per-run
    loop: step ``d`` pairs each row ``i`` with row ``i + d`` wherever
    both are in one run, for ``d`` up to the longest such run.  Longer
    runs go through :func:`_expand_ids`, which star-samples or, in
    strict mode, raises.  Row order of the output is unspecified."""
    ks, vs = sorted_unique_pairs(
        np.asarray(group.column(key_col), dtype=np.int64),
        np.asarray(group.column(id_col), dtype=np.int64),
    )
    start = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if len(ks) else ks
    cnt = np.diff(np.r_[start, len(ks)])
    oa: list[np.ndarray] = []
    ob: list[np.ndarray] = []
    for s, c in zip(start[cnt > PAIR_CAP], cnt[cnt > PAIR_CAP]):
        expanded = _expand_ids(vs[s : s + c], logger, what, strict)
        oa.append(expanded[0])
        ob.append(expanded[1])
    small = (cnt >= 2) & (cnt <= PAIR_CAP)
    rows = np.flatnonzero(np.repeat(small, cnt))
    ends = np.repeat((start + cnt)[small], cnt[small])
    d = 1
    while True:
        live = rows + d < ends
        rows, ends = rows[live], ends[live]
        if not len(rows):
            break
        oa.append(vs[rows])
        ob.append(vs[rows + d])
        d += 1
    return pa.table(
        {
            a_col: pa.array(np.concatenate(oa) if oa else [], pa.int64()),
            b_col: pa.array(np.concatenate(ob) if ob else [], pa.int64()),
        }
    )


_CELL = "__range_cell"


def _ts_us(col):
    return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())


def _expand_cells(batch: pa.Table, start_col: str, end_col: str, grid_us: int) -> pa.Table:
    """Replicate each half-open-interval row to every grid cell it
    overlaps (vectorized repeat + segmented iota; empty intervals expand
    to zero cells)."""
    starts = _ts_us(batch.column(start_col)).to_numpy(zero_copy_only=False)
    ends = _ts_us(batch.column(end_col)).to_numpy(zero_copy_only=False)
    first = starts // grid_us
    # last cell of the half-open interval: floor((end-1)/grid); empty
    # intervals ([s, s) or inverted) expand to zero cells — set
    # semantics: an empty span contains no instants and matches nothing
    last = (ends - 1) // grid_us
    counts = np.where(ends > starts, last - first + 1, 0).astype(np.int64)
    idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
    total = int(counts.sum())
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    cells = np.repeat(first, counts) + offs
    out = batch.take(pa.array(idx, pa.int64()))
    return out.append_column(_CELL, pa.array(cells, pa.int64()))


def range_join(
    left,
    right,
    *,
    left_ts: str,
    right_start: str,
    right_end: str,
    grid_us: int,
):
    """Distributed range (interval) join: left rows whose ``left_ts``
    falls inside a right row's half-open ``[right_start, right_end)``.

    The classic grid-bucket reduction of a range join to an equi-join:
    each interval is replicated to every ``grid_us``-wide time cell it
    overlaps (a per-batch vectorized flat expansion — replication factor
    ≈ width/grid + 1), each point row is stamped with its single cell,
    and one :func:`hash_join` on the cell co-locates candidates; the
    exact containment predicate filters the cell-cartesian afterwards.
    All timestamps are compared as int64 epoch-µs (no tz/unit drift).

    Pick ``grid_us`` near the typical interval width: much smaller
    multiplies interval replication, much larger multiplies the
    per-cell cartesian.  Time-skewed points (one hot cell) inherit the
    equi-join's skew caveat — widen the grid or pre-split hot windows.
    Column layout: all left columns + all right columns (the cell key
    is internal and dropped).
    """

    _us = _ts_us

    def stamp_left(batch: pa.Table) -> pa.Table:
        # numpy floor division: matches _expand_cells for pre-epoch
        # (negative) timestamps too — Arrow's divide truncates toward
        # zero, which would stamp cell 0 for ts in (-grid, 0)
        ts = np.asarray(_us(batch.column(left_ts)), dtype=np.int64)
        cell = ts // grid_us
        return batch.append_column(_CELL, pa.array(cell, pa.int64()))

    def expand_right(batch: pa.Table) -> pa.Table:
        return _expand_cells(batch, right_start, right_end, grid_us)

    left_cells = left.map_batches(stamp_left, batch_format="pyarrow")
    right_cells = right.map_batches(expand_right, batch_format="pyarrow")
    joined = hash_join(left_cells, right_cells, on=_CELL)

    def contain(batch: pa.Table) -> pa.Table:
        ts = _us(batch.column(left_ts))
        ok = pc.and_(
            pc.greater_equal(ts, _us(batch.column(right_start))),
            pc.less(ts, _us(batch.column(right_end))),
        )
        return batch.filter(ok).drop_columns([_CELL])

    return joined.map_batches(contain, batch_format="pyarrow")


def interval_overlap_join(
    left,
    right,
    *,
    left_start: str,
    left_end: str,
    right_start: str,
    right_end: str,
    grid_us: int,
):
    """Distributed interval-overlap join: pairs whose half-open spans
    intersect (``l.start < r.end AND r.start < l.end``).

    Both sides expand to their grid cells (:func:`_expand_cells`); one
    bucketed equi-join on the cell generates candidates.  An overlapping
    pair co-occurs in EVERY cell its spans share, so the join emits each
    pair exactly once by keeping only the FIRST shared cell —
    ``cell == max(floor(l.start/g), floor(r.start/g))`` — the standard
    dedup-free reduction (no second distinct shuffle needed).  Pick the
    grid near the typical interval width; replication ≈ width/grid + 1
    per side.
    """

    def contain(batch: pa.Table) -> pa.Table:
        ls = _ts_us(batch.column(left_start))
        le = _ts_us(batch.column(left_end))
        rs = _ts_us(batch.column(right_start))
        re = _ts_us(batch.column(right_end))
        overlap = pc.and_(pc.less(ls, re), pc.less(rs, le))
        # floor division in numpy: Arrow divide truncates toward zero,
        # which would disagree with _expand_cells' flooring for
        # pre-epoch (negative) starts and silently drop those pairs
        ls_np = np.asarray(ls, dtype=np.int64)
        rs_np = np.asarray(rs, dtype=np.int64)
        first_shared = pa.array(
            np.maximum(ls_np // grid_us, rs_np // grid_us), pa.int64()
        )
        once = pc.equal(batch.column(_CELL), first_shared)
        return batch.filter(pc.and_(overlap, once)).drop_columns([_CELL])

    left_cells = left.map_batches(
        lambda b: _expand_cells(b, left_start, left_end, grid_us),
        batch_format="pyarrow",
    )
    right_cells = right.map_batches(
        lambda b: _expand_cells(b, right_start, right_end, grid_us),
        batch_format="pyarrow",
    )
    joined = hash_join(left_cells, right_cells, on=_CELL)
    return joined.map_batches(contain, batch_format="pyarrow")


def skew_join(
    left,
    right,
    *,
    on: str,
    right_on: str | None = None,
    hot_threshold: int = 10_000,
):
    """Skew-aware inner equi-join: keys whose LEFT-side frequency reaches
    ``hot_threshold`` take the broadcast path (their right-side rows are
    ``ray.put`` once and matched inside ``map_batches`` — no shuffle can
    co-locate a mega-key on one task), everything else takes the normal
    bucketed :func:`hash_join`.  The standard hot-key split: without it,
    one key owning 10% of a 10¹⁰-row fact table routes 10⁹ rows through
    ONE join task.

    Assumes the dimension-table shape on the right: few rows per hot key
    (the broadcast side is ``|hot keys| × right-rows-per-key``, and the
    hot-key SET itself is bounded by ``|left| / hot_threshold``, both
    enforced by :func:`~go_htmldate_ray.stages.blocks.light_table`'s
    budget).  Hot right rows are
    collected by a DISTRIBUTED filter pass — only the (bounded)
    survivors plus one count-sentinel row per block reach the driver,
    never the right table itself — and the same pass yields the right
    row total, so no second ``count()`` execution.  Output column layout
    matches :func:`hash_join` (left columns + right columns minus the
    right key); row order is not significant, as with every join here.
    The left lineage is read three times (key counts, hot map, cold map):
    pass a materialized left when it is expensive to recompute.
    """
    import ray
    from ray.data.aggregate import Sum

    from .blocks import light_table

    right_on = right_on or on
    right_names = [n for n in right.schema().names if n != right_on]

    def key_counts(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column(on), dtype=np.int64)
        u, c = np.unique(keys, return_counts=True)
        # light combiner: only keys that could plausibly go hot matter,
        # but partial counts must SUM across blocks, so ship all uniques
        return pa.table(
            {
                "k": pa.array(u, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    counts = (
        left.map_batches(key_counts, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("c"))
    )
    hot_rows = light_table(
        counts.map_batches(
            # vectorized filter: counts has one row per DISTINCT left key —
            # a per-row Python callback here is the max-overhead shape
            lambda b: b.filter(pc.greater_equal(b.column("sum(c)"), hot_threshold)),
            batch_format="pyarrow",
        ),  # ≤ |left| / hot_threshold rows by construction
        pa.schema([("k", pa.int64())]),
    )
    if hot_rows is None:
        raise ValueError(
            "skew_join: the hot keys exceed the broadcast bound; "
            "raise hot_threshold"
        )
    hot_keys = frozenset(hot_rows.column("k").to_pylist())

    if not hot_keys:
        return hash_join(left, right, on=on, right_on=right_on)

    hot_arr = pa.array(sorted(hot_keys), pa.int64())

    probe_fields = list(zip(right.schema().names, right.schema().types))
    _PROBE_N = "__skew_probe_n"

    def probe_hot(batch: pa.Table) -> pa.Table:
        """Distributed hot-row filter: emits the batch's hot rows
        (``_PROBE_N`` = 0) plus ONE count-sentinel row carrying the
        batch's total row count — so the driver learns |right| from the
        same pass that collects the (bounded) broadcast side."""
        hot = batch.filter(pc.is_in(batch.column(right_on), value_set=hot_arr))
        hot = hot.append_column(
            _PROBE_N, pa.array(np.zeros(hot.num_rows, dtype=np.int64), pa.int64())
        )
        if batch.num_rows == 0:
            return hot
        sentinel = pa.table(
            {
                **{n: pa.nulls(1, t) for n, t in probe_fields},
                _PROBE_N: pa.array([batch.num_rows], pa.int64()),
            }
        )
        return pa.concat_tables([hot, sentinel])

    # batch_size=None → whole-block batches: one sentinel row per block
    probe = right.map_batches(probe_hot, batch_format="pyarrow", batch_size=None)
    # a typed table even when the right side is empty (an empty join)
    tbl = light_table(probe, pa.schema(probe_fields + [(_PROBE_N, pa.int64())]))
    if tbl is None:
        raise ValueError(
            "skew_join: the right side's hot-key rows exceed the broadcast "
            "bound — not the dimension shape this broadcast assumes"
        )
    right_total = int(pc.sum(tbl.column(_PROBE_N)).as_py() or 0)
    right_hot_tbl = tbl.filter(pc.equal(tbl.column(_PROBE_N), 0)).drop_columns(
        [_PROBE_N]
    )
    # sorted by key ONCE here, so the per-batch hot path is pure
    # searchsorted — no argsort or table copy per batch
    right_hot_tbl = right_hot_tbl.sort_by(right_on)
    hot_ref = ray.put(right_hot_tbl)

    all_right_hot = right_total == right_hot_tbl.num_rows

    left_cold = left.map_batches(
        lambda b: b.filter(
            pc.invert(pc.is_in(b.column(on), value_set=hot_arr))
        ),
        batch_format="pyarrow",
    )
    right_cold = right.map_batches(
        lambda b: b.filter(
            pc.invert(pc.is_in(b.column(right_on), value_set=hot_arr))
        ),
        batch_format="pyarrow",
    )
    def hot_match(batch: pa.Table) -> pa.Table:
        rt = ray.get(hot_ref)  # already key-sorted
        sel = batch.filter(pc.is_in(batch.column(on), value_set=hot_arr))
        rk_s = np.asarray(rt.column(right_on), dtype=np.int64)
        lk = np.asarray(sel.column(on), dtype=np.int64)
        starts = np.searchsorted(rk_s, lk, side="left")
        stops = np.searchsorted(rk_s, lk, side="right")
        reps = (stops - starts).astype(np.int64)
        left_idx = np.repeat(np.arange(len(lk)), reps)
        # right-row indices: per left row, the contiguous [start, stop) run
        right_idx = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, stops)]
        ) if len(lk) else np.array([], dtype=np.int64)
        out = {
            c: sel.column(c).take(pa.array(left_idx, pa.int64()))
            for c in sel.column_names
        }
        for c in right_names:
            out[c] = rt.column(c).take(pa.array(right_idx, pa.int64()))
        return pa.table(out)

    hot = left.map_batches(hot_match, batch_format="pyarrow")
    if all_right_hot:
        # every right row (possibly zero) is on the broadcast side: the
        # cold inner join is provably empty — skip its barrier entirely
        # (this also sidesteps schema inference on an empty mapped side)
        return hot
    cold = hash_join(left_cold, right_cold, on=on, right_on=right_on)
    return cold.union(hot)
