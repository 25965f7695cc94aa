"""Distributed generalized suffix array by prefix doubling.

The foundation of exact-substring dedup (Lee et al. 2021 build per-shard
suffix arrays; Manber–Myers 1990 is the doubling construction): rank
every suffix of every document — suffix = the document's text from
``pos`` to the document's end — by global string order across the whole
corpus, equal suffixes sharing a dense rank.

Ray-Data-first shape, one round per prefix-length doubling:

- positions are light ``(doc, pos, rank)`` rows (one per character — the
  honest distributed-SA granularity; Lee et al. pay the same);
- ``rank at pos+2^k`` comes from ONE bucketed left
  :func:`~go_htmldate_ray.stages.joins.hash_join` of the state with
  itself on a packed ``doc<<32|pos`` key (out-of-range → 0, which sorts
  before every real rank ≥ 1 — exactly how a proper prefix sorts before
  its extension);
- the (rank, next_rank) pair packs into one int64 (both < 2^31 by
  construction) and re-densifies through ``groupby(pair)`` +
  :func:`~go_htmldate_ray.stages.packing.ordered_cumsum` over the
  DISTINCT pair values (unique integers — cumsum of 1s in pair order IS
  the dense rank) + one join back;
- rounds stop at the fixed point: the distinct-pair count is strictly
  increasing until converged, so an unchanged count proves no future
  round can change anything (equal full suffixes keep equal ranks
  forever — correct for the generalized SA).

Every round rebases the state (materialize → from_arrow_refs) like
``graph.pagerank``, keeping lineage flat across the ~log₂(max suffix
length) rounds (random-ish text converges in ~log_σ(corpus) rounds,
far earlier).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_POS_BITS = 32  # pos < 2^32 per doc; doc_id < 2^31


def _pack_key(doc: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return (doc << _POS_BITS) | pos


def suffix_array(
    ds,
    *,
    doc_col: str = "doc_id",
    text_col: str = "text",
    max_rounds: int = 40,
):
    """→ Dataset (doc_id, pos, srank): dense global rank of each
    document suffix ``text[pos:]`` (0-based ``pos``), equal suffixes
    sharing a rank.  Codepoint order (== UTF-8 byte order == SQL binary
    collation)."""
    import ray.data
    from ray.data.aggregate import Count

    from .blocks import rebase
    from .joins import adaptive_buckets, hash_join, state_blocks
    from .packing import _ordered_cumsum

    def char_rows(batch: pa.Table) -> pa.Table:
        docs_out, poss, ranks = [], [], []
        for doc_id, text in zip(
            batch.column(doc_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            t = text or ""
            if not t:
                continue
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(
                np.int64
            )
            docs_out.append(np.full(len(cp), doc_id, dtype=np.int64))
            poss.append(np.arange(len(cp), dtype=np.int64))
            ranks.append(cp + 1)  # ranks ≥ 1; 0 = past-the-end sentinel
        if not docs_out:
            return pa.table(
                {
                    "doc": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "doc": pa.array(np.concatenate(docs_out), pa.int64()),
                "pos": pa.array(np.concatenate(poss), pa.int64()),
                "rank": pa.array(np.concatenate(ranks), pa.int64()),
            }
        )

    # pin the char-explosion once: count() plus round 1's two join sides
    # otherwise re-run the doc→per-char expansion three times before the
    # loop's own per-round materialize takes over
    state = ds.map_batches(char_rows, batch_format="pyarrow").materialize()
    n_rows = state.count()
    if n_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "srank": pa.array([], pa.int64()),
                }
            )
        )
    if n_rows >= 1 << 30:
        # pair packing is (rank << 32) | next_rank and the join key is
        # (doc << 32) + (pos + offset): dense ranks >= 2^31 or
        # pos + offset >= 2^32 would overflow/alias SILENTLY.  n_rows
        # < 2^30 bounds rank < 2^30 and offset <= 4*max_len < 2^32.
        # Fail loudly; shard the corpus or widen to two-column pairs.
        raise ValueError(
            f"suffix_array packing supports < 2^30 total characters, got {n_rows}"
        )
    n_buckets, n_blocks = adaptive_buckets(n_rows), state_blocks(n_rows)
    state = rebase(state, n_blocks)

    prev_distinct = -1
    offset = 1
    for _ in range(max_rounds):
        def left_rows(batch: pa.Table, offset=offset) -> pa.Table:
            doc = np.asarray(batch.column("doc"), dtype=np.int64)
            pos = np.asarray(batch.column("pos"), dtype=np.int64)
            return pa.table(
                {
                    "tkey": pa.array(_pack_key(doc, pos + offset), pa.int64()),
                    "doc": batch.column("doc"),
                    "pos": batch.column("pos"),
                    "rank": batch.column("rank"),
                }
            )

        def right_rows(batch: pa.Table) -> pa.Table:
            doc = np.asarray(batch.column("doc"), dtype=np.int64)
            pos = np.asarray(batch.column("pos"), dtype=np.int64)
            return pa.table(
                {
                    "gkey": pa.array(_pack_key(doc, pos), pa.int64()),
                    "nrank": batch.column("rank"),
                }
            )

        joined = hash_join(
            state.map_batches(left_rows, batch_format="pyarrow"),
            state.map_batches(right_rows, batch_format="pyarrow"),
            on="tkey",
            right_on="gkey",
            n_buckets=n_buckets,
            how="left",
        )

        def pair_rows(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            r = np.asarray(batch.column("rank"), dtype=np.int64)
            nr = np.asarray(
                pc.fill_null(batch.column("nrank"), 0), dtype=np.int64
            )
            return pa.table(
                {
                    "doc": batch.column("doc"),
                    "pos": batch.column("pos"),
                    "pair": pa.array((r << _POS_BITS) | nr, pa.int64()),
                }
            )

        paired = rebase(joined.map_batches(pair_rows, batch_format="pyarrow"), n_blocks)

        distinct = paired.groupby("pair").aggregate(Count()).materialize()
        ranked = _ordered_cumsum(
            distinct.map_batches(
                lambda b: pa.table(
                    {
                        "pair": b.column("pair"),
                        "one": pa.array(
                            np.ones(b.num_rows, dtype=np.int64)
                        ),
                    }
                ),
                batch_format="pyarrow",
            ),
            "pair",
            "one",
            n_buckets,
        )
        # materialize: ordered_cumsum's internals, the count, and the
        # join-back otherwise each re-execute the full distinct-pair
        # shuffle (~4x the dominant per-round cost)
        ranked = ranked.materialize()
        n_distinct = ranked.count()

        state = rebase(
            hash_join(
                paired,
                ranked.map_batches(
                    lambda b: pa.table(
                        {"jpair": b.column("pair"), "rank": b.column("cum")}
                    ),
                    batch_format="pyarrow",
                ),
                on="pair",
                right_on="jpair",
                n_buckets=n_buckets,
            ).select_columns(["doc", "pos", "rank"]),
            n_blocks,
        )

        if n_distinct == prev_distinct:
            break  # fixed point: no pair split this round, none ever will
        prev_distinct = n_distinct
        offset *= 2

    return state.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc"),
                "pos": b.column("pos"),
                "srank": b.column("rank"),
            }
        ),
        batch_format="pyarrow",
    )


def _rep_rows(batch: pa.Table) -> pa.Table:
    """A rank class's representative row, its packed ``(doc, pos)``
    split back into two columns."""
    dp = np.asarray(batch.column("min(dp)"), dtype=np.int64)
    return pa.table(
        {
            "doc": pa.array(dp >> _POS_BITS, pa.int64()),
            "pos": pa.array(dp & ((1 << _POS_BITS) - 1), pa.int64()),
            "srank": batch.column("srank").cast(pa.int64()),
            "csize": batch.column("count()").cast(pa.int64()),
        }
    )


_PREFIXED = pa.schema(
    [("srank", pa.int64()), ("pref", pa.string()), ("slen", pa.int64()), ("csize", pa.int64())]
)


def _with_prefixes(reps: pa.Table, texts: dict, cap: int) -> pa.Table:
    """``reps`` with each class's capped prefix ``texts[doc][pos:]`` and
    its capped length."""
    if not reps.num_rows:
        return _PREFIXED.empty_table()  # co_partition's side may be key-only
    prefs, lens = [], []
    for d, p in zip(reps.column("doc").to_pylist(), reps.column("pos").to_pylist()):
        t = texts.get(d) or ""
        prefs.append(t[p : p + cap])
        lens.append(min(len(t) - p, cap))
    return pa.table(
        [
            reps.column("srank"),
            pa.array(prefs, pa.string()),
            pa.array(lens, pa.int64()),
            reps.column("csize"),
        ],
        schema=_PREFIXED,
    )


def repeated_substrings(
    ds,
    *,
    doc_col: str = "doc_id",
    text_col: str = "text",
    min_len: int = 20,
    cap: int = 64,
):
    """Longest repeated substrings of the corpus from the suffix array —
    the artifact ExactSubstr dedup thresholds on: every maximal repeat
    of length ≥ ``min_len`` surfaces as the LCP of suffixes adjacent in
    SA order.  Two sources, both class-level (equal suffixes share a
    dense rank, so class adjacency yields the same LCP value set as
    row adjacency):

    - a rank class of size ≥ 2 is an identical suffix appearing twice →
      repeat of its full length;
    - adjacent rank classes r, r+1 → repeat of their common-prefix
      length.

    Lengths and substrings are CAPPED at ``cap`` chars (the dedup
    thresholding never needs more; the capped probe is also what keeps
    the SQL oracle's pairwise comparison bounded).  Output: DISTINCT
    ``(length, substring)`` rows with length ≥ ``min_len``.  A null text
    is an empty document.

    Shape: the ``(doc_id, text)`` projection is materialized once →
    :func:`suffix_array` → one groupby(srank) for class representatives
    (min packed (doc,pos) + class size) → capped prefixes attached to
    the representatives: while the projection fits
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget every
    text ships once via ``ray.put``; above it one
    :func:`~go_htmldate_ray.stages.joins.co_partition` exchange on the
    doc id slices each prefix from the bucket's single copy of its text
    (never one text copy per rep row: a length-L doc can own up to L rep
    classes) → ONE hash_join of rank r onto r+1 → vectorized-per-pair
    LCP → one tiny dedupe groupby.
    """
    import ray
    from ray.data.aggregate import Count, Min

    from .blocks import light_table
    from .joins import SHUFFLE_BUCKETS, co_partition, hash_join

    docs = ds.select_columns([doc_col, text_col]).materialize()
    sa = suffix_array(docs, doc_col=doc_col, text_col=text_col)

    def packed(batch: pa.Table) -> pa.Table:
        doc = np.asarray(batch.column("doc_id"), dtype=np.int64)
        pos = np.asarray(batch.column("pos"), dtype=np.int64)
        return pa.table(
            {
                "srank": batch.column("srank"),
                "dp": pa.array(_pack_key(doc, pos), pa.int64()),
            }
        )

    reps = (
        sa.map_batches(packed, batch_format="pyarrow")
        .groupby("srank")
        .aggregate(Min("dp"), Count())
        .map_batches(_rep_rows, batch_format="pyarrow")
    )

    def texts_of(t: pa.Table) -> dict:
        return dict(zip(t.column(doc_col).to_pylist(), t.column(text_col).to_pylist()))

    text_tbl = light_table(docs, pa.schema([(doc_col, pa.int64()), (text_col, pa.string())]))
    if text_tbl is not None:
        texts_ref = ray.put(texts_of(text_tbl))
        attached = reps.map_batches(
            lambda b: _with_prefixes(b, ray.get(texts_ref), cap), batch_format="pyarrow"
        )
    else:
        # reps pinned: co_partition reads its schema, which would
        # otherwise re-run the suffix-array groupby
        attached = co_partition(
            reps.materialize(),
            docs,
            "doc",
            doc_col,
            lambda r, d: _with_prefixes(r, texts_of(d), cap),
            n_buckets=SHUFFLE_BUCKETS,
        )
    rep_t = attached.materialize()

    shifted = rep_t.map_batches(
        lambda b: pa.table(
            {
                "nrank": pa.array(
                    np.asarray(b.column("srank"), dtype=np.int64) - 1, pa.int64()
                ),
                "npref": b.column("pref"),
            }
        ),
        batch_format="pyarrow",
    )
    adj = hash_join(rep_t, shifted, on="srank", right_on="nrank", how="left")

    def emit(batch: pa.Table) -> pa.Table:
        lens_out, subs = [], []
        for pref, slen, csize, npref in zip(
            batch.column("pref").to_pylist(),
            batch.column("slen").to_pylist(),
            batch.column("csize").to_pylist(),
            batch.column("npref").to_pylist(),
        ):
            if csize >= 2 and slen >= min_len:
                lens_out.append(slen)
                subs.append(pref[:slen])
            if npref:
                k = 0
                m = min(len(pref), len(npref), cap)
                while k < m and pref[k] == npref[k]:
                    k += 1
                if k >= min_len:
                    lens_out.append(k)
                    subs.append(pref[:k])
        return pa.table(
            {
                "length": pa.array(lens_out, pa.int64()),
                "substring": pa.array(subs, pa.string()),
            }
        )

    out = adj.map_batches(emit, batch_format="pyarrow")
    return (
        out.groupby(["length", "substring"])
        .aggregate(Count())
        .select_columns(["length", "substring"])
    )
