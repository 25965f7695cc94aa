"""Distributed keyword search: Okapi BM25 top-k over the corpus.

The text-side counterpart of the embedding ANN operators — "find the k
documents best matching this bag of query terms" — with the same scale
contract: the corpus streams, the driver holds only per-term scalars and
the final k rows.

Shape (two streaming corpus passes, no all-to-all over heavy rows):

1. **Stats + df pass** — one ``map_batches`` emits per-batch partial
   rows: one per query term (df contribution) plus one sentinel row
   carrying (doc-count, word-count) partials; a tiny ``Sum`` groupby
   over ≤ (|terms|+1) × n_blocks light rows yields N, avgdl and every
   df.  The driver receives ≤ |terms|+1 rows.
2. **Scoring pass** — per-term idf values (computed with ``math.log``,
   which is bit-identical to DuckDB's ``ln``; numpy's log differs in
   the last ulp) close over a vectorized scorer; each batch emits its
   local top-k (doc_id, nano) rows, then a sort over ≤ k × n_blocks
   light rows picks the global top k.

Exactness contract: each term's contribution is rounded to integer
**nanos** (``floor(x·1e9 + 0.5)``) before summing, so the per-document
sum is an integer — immune to float summation order — and the SQL
oracle reproduces it bit-for-bit with the same floor expression.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_NANO = 1e9


def _tokens_with_docs(batch: pa.Table) -> tuple[pa.Array, pa.Array]:
    """Vectorized whitespace tokenization: (term, doc_id) flat columns.

    Arrow's ``utf8_split_whitespace`` emits empty strings at leading /
    trailing whitespace (unlike Python ``str.split`` and the SQL
    ``trim + regexp_split`` the oracles use), so empties are filtered.
    """
    toks = pc.utf8_split_whitespace(batch.column("text").combine_chunks())
    flat = pc.list_flatten(toks)
    docs = pc.take(
        batch.column("doc_id").combine_chunks().cast(pa.int64()),
        pc.list_parent_indices(toks),
    )
    keep = pc.not_equal(flat, "")
    return flat.filter(keep), docs.filter(keep)


def build_inverted_index(ds):
    """documents → posting rows (term, doc_id, tf, df) — the classic
    index-build exchange: tf rows are exact after one stateless
    per-batch aggregation (a document lives in exactly one batch, so
    per-batch (term, doc_id) counts are already global), and ONE
    term-hash-bucket shuffle co-locates each term's postings to stamp
    its document frequency.  No row ever carries text heavier than the
    term itself; output streams (proportional to input — index-build
    semantics), never materializes on the driver.

    The bucket key is a stable md5-based hash of the term (Python's
    ``hash()`` is per-process salted), grouped by hash bucket so no
    per-term Python callback ever runs.
    """
    from .cleaning import _hash63_cached
    from .joins import SHUFFLE_BUCKETS, _bucket_of

    def tf_rows(batch: pa.Table) -> pa.Table:
        term, doc = _tokens_with_docs(batch)
        t = pa.table({"term": term, "doc_id": doc}).group_by(
            ["term", "doc_id"]
        ).aggregate([([], "count_all")])
        h = pa.array(
            [_hash63_cached(s) for s in t.column("term").to_pylist()], pa.int64()
        )
        return pa.table(
            {
                "term": t.column("term"),
                "doc_id": t.column("doc_id"),
                "tf": t.column("count_all").cast(pa.int64()),
                "bkt": _bucket_of(h, SHUFFLE_BUCKETS),
            }
        )

    empty = pa.table(
        {
            "term": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
        }
    )

    def stamp_df(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return empty
        terms = np.asarray(group.column("term").to_pylist())
        order = np.lexsort(
            (np.asarray(group.column("doc_id"), dtype=np.int64), terms)
        )
        terms_s = terms[order]
        starts = np.flatnonzero(np.r_[True, terms_s[1:] != terms_s[:-1]])
        counts = np.diff(np.r_[starts, len(terms_s)])
        df = np.repeat(counts, counts)
        idx = pa.array(order, pa.int64())
        return pa.table(
            {
                "term": group.column("term").take(idx),
                "doc_id": group.column("doc_id").take(idx),
                "tf": group.column("tf").take(idx),
                "df": pa.array(df, pa.int64()),
            }
        )

    return (
        ds.map_batches(tf_rows, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(stamp_df, batch_format="pyarrow")
    )


def bm25_topk(
    ds,
    query_terms: tuple[str, ...] | list[str],
    *,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
):
    """documents → top-k (rank, doc_id, score) by Okapi BM25 (the
    ``+1``-inside-the-log idf variant, so scores are always positive).

    Returns a pandas DataFrame of ≤ k rows (bounded by contract — the
    only driver materialization).  Ties break on ascending doc_id.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    terms = list(dict.fromkeys(query_terms))  # dedupe, keep order
    if not terms:
        raise ValueError("query_terms must be non-empty")
    term_set = set(terms)

    # --- pass 1: corpus stats + per-term document frequencies ---------
    def partial_stats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        df_counts = dict.fromkeys(terms, 0)
        n_words = 0
        for t in texts:
            toks = (t or "").split()
            n_words += len(toks)
            for term in term_set.intersection(toks):
                df_counts[term] += 1
        rows_term = [""] + terms
        return pa.table(
            {
                "term": pa.array(rows_term, pa.string()),
                "df": pa.array([0] + [df_counts[t] for t in terms], pa.int64()),
                "n": pa.array([batch.num_rows] + [0] * len(terms), pa.int64()),
                "wl": pa.array([n_words] + [0] * len(terms), pa.int64()),
            }
        )

    stats_rows = (
        ds.map_batches(partial_stats, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df"), Sum("n"), Sum("wl"))
        .take_all()
    )
    n_docs = sum(r["sum(n)"] for r in stats_rows)
    total_words = sum(r["sum(wl)"] for r in stats_rows)
    dfs = {r["term"]: r["sum(df)"] for r in stats_rows if r["term"]}
    if n_docs == 0:
        return pd.DataFrame(
            {
                "rank": pd.array([], dtype="int64"),
                "doc_id": pd.array([], dtype="int64"),
                "score": pd.array([], dtype="float64"),
            }
        )
    avgdl = total_words / n_docs

    # idf via math.log — bit-identical to DuckDB ln (see module doc)
    idfs = {
        t: math.log((n_docs - dfs.get(t, 0) + 0.5) / (dfs.get(t, 0) + 0.5) + 1)
        for t in terms
        if dfs.get(t, 0) > 0
    }
    if not idfs:
        return pd.DataFrame(
            {
                "rank": pd.array([], dtype="int64"),
                "doc_id": pd.array([], dtype="int64"),
                "score": pd.array([], dtype="float64"),
            }
        )
    live_terms = list(idfs)

    # --- pass 2: per-batch scoring + local top-k ----------------------
    def score_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        doc_ids = batch.column("doc_id").to_pylist()
        out_ids, out_nanos = [], []
        for doc_id, t in zip(doc_ids, texts):
            toks = (t or "").split()
            if not toks:
                continue
            tf: dict = {}
            for tok in toks:
                if tok in idfs:
                    tf[tok] = tf.get(tok, 0) + 1
            if not tf:
                continue
            dl = float(len(toks))
            nano = 0
            for term, f in tf.items():
                f = float(f)
                contrib = (
                    idfs[term]
                    * f
                    * (k1 + 1)
                    / (f + k1 * (1 - b + b * dl / avgdl))
                )
                nano += int(np.floor(contrib * _NANO + 0.5))
            out_ids.append(doc_id)
            out_nanos.append(nano)
        if len(out_ids) > k:  # local top-k: ship only k rows per block
            order = np.lexsort((np.asarray(out_ids), -np.asarray(out_nanos)))[:k]
            out_ids = [out_ids[i] for i in order]
            out_nanos = [out_nanos[i] for i in order]
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "nano": pa.array(out_nanos, pa.int64()),
            }
        )

    top = (
        ds.map_batches(score_batch, batch_format="pyarrow")
        .sort(key=["nano", "doc_id"], descending=[True, False])
        .limit(k)
        .take_all()
    )
    return pd.DataFrame(
        {
            "rank": pd.array(range(1, len(top) + 1), dtype="int64"),
            "doc_id": pd.array([r["doc_id"] for r in top], dtype="int64"),
            "score": pd.array([r["nano"] / _NANO for r in top], dtype="float64"),
        }
    )


def boolean_and_search(ds, terms: tuple, *, text_col: str = "text"):
    """Conjunctive (boolean AND) retrieval: documents containing EVERY
    query term, with each doc's summed term frequency — the other half
    of the retrieval story next to :func:`bm25_topk`'s ranked scoring.

    Shape: one stateless pass emits only the query terms' (doc_id,
    term, tf) rows (the filter happens before any shuffle, so the
    exchange is proportional to matching postings, not the corpus) →
    one doc-keyed Count/Sum groupby → keep docs matching all
    ``len(terms)`` distinct terms.  → (doc_id, total_tf).
    """
    from collections import Counter

    from ray.data.aggregate import Count, Sum

    tset = frozenset(terms)
    n_terms = len(tset)

    def postings(batch: pa.Table) -> pa.Table:
        docs, toks, tfs = [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column(text_col).to_pylist()
        ):
            counts = Counter(tok for tok in (t or "").split() if tok in tset)
            for tok, c in counts.items():
                docs.append(d)
                toks.append(tok)
                tfs.append(c)
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "term": pa.array(toks, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(postings, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(), Sum("tf"))
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "total_tf": b.column("sum(tf)").cast(pa.int64()),
            }
        ).filter(pc.equal(b.column("count()").cast(pa.int64()), n_terms)),
        batch_format="pyarrow",
    )
