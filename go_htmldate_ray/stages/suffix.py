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
    n_buckets: int | None = None,
    max_rounds: int = 40,
):
    """→ Dataset (doc_id, pos, srank): dense global rank of each
    document suffix ``text[pos:]`` (0-based ``pos``), equal suffixes
    sharing a rank.  Codepoint order (== UTF-8 byte order == SQL binary
    collation)."""
    import ray.data
    from ray.data.aggregate import Count

    from .blocks import rebase
    from .joins import adaptive_buckets, hash_join
    from .packing import ordered_cumsum

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
    if n_buckets is None:
        n_buckets = adaptive_buckets(n_rows)
    n_blocks = max(1, min(512, n_rows // 2_000_000 + 1))
    state = rebase(state.repartition(n_blocks).materialize())

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

        paired = rebase(
            joined.map_batches(pair_rows, batch_format="pyarrow")
            .repartition(n_blocks)
            .materialize()
        )

        distinct = paired.groupby("pair").aggregate(Count()).materialize()
        ranked = ordered_cumsum(
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
            order_col="pair",
            value_col="one",
            n_buckets=n_buckets,
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
            )
            .select_columns(["doc", "pos", "rank"])
            .repartition(n_blocks)
            .materialize()
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


def _attach_prefixes_broadcast(reps, ds, doc_col, text_col, cap):
    """Oracle-scale prefix attach: every doc text in ONE ``ray.put``."""
    import ray

    texts = {
        r[doc_col]: (r[text_col] or "")
        for r in ds.select_columns([doc_col, text_col]).take_all()
    }
    texts_ref = ray.put(texts)

    def rep_rows(batch: pa.Table) -> pa.Table:
        t = ray.get(texts_ref)
        ranks = batch.column("srank").to_pylist()
        dps = batch.column("min(dp)").to_pylist()
        sizes = batch.column("count()").to_pylist()
        prefs, lens = [], []
        for dp in dps:
            doc, pos = dp >> _POS_BITS, dp & ((1 << _POS_BITS) - 1)
            suf = t[doc][pos : pos + cap]
            prefs.append(suf)
            lens.append(min(len(t[doc]) - pos, cap))
        return pa.table(
            {
                "srank": pa.array(ranks, pa.int64()),
                "pref": pa.array(prefs, pa.string()),
                "slen": pa.array(lens, pa.int64()),
                "csize": pa.array(sizes, pa.int64()),
            }
        )

    return reps.map_batches(rep_rows, batch_format="pyarrow")


def _attach_prefixes_join(reps, ds, doc_col, text_col, cap, n_buckets=64):
    """Corpus-scale prefix attach: rep rows and doc texts co-locate by
    ONE groupby shuffle on a hash bucket of the doc id; each bucket
    holds ~1/n_buckets of the corpus text ONCE and slices every rep
    prefix from that single copy — never a broadcast, and never one
    text copy per rep row (a length-L doc can own up to L rep classes:
    joining the text onto each would be O(L²) bytes)."""
    import pyarrow.compute as pc

    from .joins import _bucket_of

    def tag_reps(batch: pa.Table) -> pa.Table:
        dp = np.asarray(batch.column("min(dp)"), dtype=np.int64)
        doc = dp >> _POS_BITS
        return pa.table(
            {
                "bucket": _bucket_of(pa.array(doc, pa.int64()), n_buckets),
                "doc": pa.array(doc, pa.int64()),
                "pos": pa.array(dp & ((1 << _POS_BITS) - 1), pa.int64()),
                "srank": batch.column("srank").cast(pa.int64()),
                "csize": batch.column("count()").cast(pa.int64()),
                "text": pa.nulls(batch.num_rows, pa.string()),
            }
        )

    def tag_docs(batch: pa.Table) -> pa.Table:
        doc = batch.column(doc_col).cast(pa.int64())
        n = batch.num_rows
        return pa.table(
            {
                "bucket": _bucket_of(doc, n_buckets),
                "doc": doc,
                "pos": pa.nulls(n, pa.int64()),
                "srank": pa.nulls(n, pa.int64()),
                "csize": pa.nulls(n, pa.int64()),
                "text": batch.column(text_col).cast(pa.string()),
            }
        )

    unioned = reps.map_batches(tag_reps, batch_format="pyarrow").union(
        ds.map_batches(tag_docs, batch_format="pyarrow")
    )

    empty = pa.table(
        {
            "srank": pa.array([], pa.int64()),
            "pref": pa.array([], pa.string()),
            "slen": pa.array([], pa.int64()),
            "csize": pa.array([], pa.int64()),
        }
    )

    def resolve(group: pa.Table) -> pa.Table:
        is_doc = pc.is_valid(group.column("text"))
        doc_rows = group.filter(is_doc)
        rep_rows = group.filter(pc.invert(is_doc))
        if rep_rows.num_rows == 0:
            return empty
        texts = dict(
            zip(
                doc_rows.column("doc").to_pylist(),
                doc_rows.column("text").to_pylist(),
            )
        )
        prefs, lens = [], []
        for doc, pos in zip(
            rep_rows.column("doc").to_pylist(), rep_rows.column("pos").to_pylist()
        ):
            t = texts.get(doc) or ""
            prefs.append(t[pos : pos + cap])
            lens.append(min(len(t) - pos, cap))
        return pa.table(
            {
                "srank": rep_rows.column("srank"),
                "pref": pa.array(prefs, pa.string()),
                "slen": pa.array(lens, pa.int64()),
                "csize": rep_rows.column("csize"),
            }
        )

    return unioned.groupby("bucket").map_groups(resolve, batch_format="pyarrow")


def repeated_substrings(
    ds,
    *,
    doc_col: str = "doc_id",
    text_col: str = "text",
    min_len: int = 20,
    cap: int = 64,
    broadcast_doc_limit: int = 100_000,
    prefix_attach: str = "auto",
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
    ``(length, substring)`` rows with length ≥ ``min_len``.

    Shape: :func:`suffix_array` → one groupby(srank) for class
    representatives (min packed (doc,pos) + class size) → capped
    prefixes attached by ``prefix_attach``: ``"broadcast"`` ships every
    doc text once via ``ray.put`` (loudly bounded by
    ``broadcast_doc_limit``), ``"join"`` is the corpus-scale path
    (:func:`_attach_prefixes_join` — doc-bucket co-location, one text
    copy per bucket), ``"auto"`` picks by doc count → ONE hash_join of
    rank r onto r+1 → vectorized-per-pair LCP → one tiny dedupe groupby.
    """
    from ray.data.aggregate import Count, Min

    from .joins import hash_join

    if prefix_attach not in ("auto", "broadcast", "join"):
        raise ValueError(f"unknown prefix_attach {prefix_attach!r}")
    if prefix_attach == "auto":
        prefix_attach = (
            "join" if ds.count() > broadcast_doc_limit else "broadcast"
        )
    elif prefix_attach == "broadcast":
        n_docs = ds.count()
        if n_docs > broadcast_doc_limit:
            raise ValueError(
                f"repeated_substrings broadcasts doc texts; got {n_docs} docs "
                f"> {broadcast_doc_limit} — use prefix_attach='join' at this scale"
            )

    sa = suffix_array(ds, doc_col=doc_col, text_col=text_col)

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
    )

    if prefix_attach == "join":
        rep_t = _attach_prefixes_join(reps, ds, doc_col, text_col, cap).materialize()
    else:
        rep_t = _attach_prefixes_broadcast(
            reps, ds, doc_col, text_col, cap
        ).materialize()

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
