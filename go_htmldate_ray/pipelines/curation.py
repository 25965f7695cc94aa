"""End-to-end corpus curation: the funnel a training-data run actually
executes — quality rules, language ID, and near-duplicate removal
composed over one corpus read, reported per predicted language.

Scale shape (the whole point of the composition):

- The Gopher quality rules, the stopword language ID and the MinHash
  signature are *stateless* per-document kernels, so all three run in
  ONE ``map_batches`` pass over the pruned (doc_id, text) read, whose
  light rows (ids, flags, counts and one byte-packed signature) are
  materialized once — the corpus text is scanned exactly once.
- While that scan fits ``light_table``'s budget, the rest is a numpy
  and pyarrow fold on the driver: LSH pairs → components → drop ids →
  keep flags → one per-language ``group_by`` sum, returned with
  ``from_arrow``.
- Above it the scan's signature view feeds the distributed near-dup
  chain (bucketed LSH, then connected components; see stages/dedup.py
  for its shuffle budget) and its signal view gets the keep flag from
  the sorted drop-id array (``ray.put`` once) while the cluster table
  fits the budget, else from ``keep_from_clusters`` and one bucketed
  ``hash_join`` on doc_id (unique key on both sides: no cartesian
  amplification).  Per-batch per-language partial sums then feed a
  tiny combine — the final merge moves ≤ n_languages × n_blocks rows.
- Either way the near-dup chain is built by one
  :func:`~go_htmldate_ray.stages.dedup.signature_clusters` call.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import read_parquet_clean
from ..stages import text_stage
from ..stages.blocks import light_table
from ..stages.combine import combine_sum_by
from ..stages.dedup import (
    keep_flags,
    keep_from_clusters,
    near_dup_drop_ids,
    signature_clusters,
    signature_payloads,
    signature_view,
)
from ..stages.joins import hash_join

_SCAN_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("pred_lang", pa.string()),
        ("n_words", pa.int64()),
        ("passes", pa.int64()),
        ("payload", pa.binary()),
    ]
)
_SIGNAL_COLS = ["doc_id", "pred_lang", "n_words", "passes"]


def _language_totals(batch: pa.Table) -> pa.Table:
    """(pred_lang, n_docs, n_kept, kept_tokens) sums of signal rows that
    carry a ``keep`` flag: a document is kept when it passes the
    quality rules and keeps its near-dup flag."""
    kept = pc.cast(
        pc.and_(pc.equal(batch.column("passes"), 1), pc.equal(batch.column("keep"), 1)),
        pa.int64(),
    )
    g = pa.table(
        {
            "pred_lang": batch.column("pred_lang"),
            "one": pa.array([1] * batch.num_rows, pa.int64()),
            "kept": kept,
            "kept_tok": pc.multiply(batch.column("n_words"), kept),
        }
    ).group_by("pred_lang").aggregate([("one", "sum"), ("kept", "sum"), ("kept_tok", "sum")])
    return pa.table(
        {
            "pred_lang": g.column("pred_lang"),
            "n_docs": g.column("one_sum").cast(pa.int64()),
            "n_kept": g.column("kept_sum").cast(pa.int64()),
            "kept_tokens": g.column("kept_tok_sum").cast(pa.int64()),
        }
    )


def curated_corpus_stats(
    sf_dir: str,
    *,
    min_words: int = 30,
    max_words: int = 80,
    min_stopword_hits: int = 1,
    hot_buckets: str = "sample",
):
    """documents → (pred_lang, n_docs, n_kept, kept_tokens).

    A document is *kept* when it passes the Gopher quality rules AND is
    its near-dup cluster's representative (or a singleton); kept_tokens
    sums the whitespace word counts of kept docs.  Quality thresholds
    default to the fixture-calibrated values the ``gopher_quality``
    query uses so both outcomes occur at every scale factor.

    One text scan emits ``(doc_id, pred_lang, n_words, passes,
    payload)`` rows (``payload`` is the packed MinHash signature, null
    for blank texts, which join no near-dup pair), materialized once.
    While they fit :func:`~go_htmldate_ray.stages.blocks.light_table`'s
    budget the near-dup chain and the per-language fold run on the
    driver; above it the same rows feed the distributed chain and the
    partial-sum combine (see the module docstring).
    """
    import ray
    import ray.data

    def scan(batch: pa.Table) -> pa.Table:
        q = text_stage.gopher_quality_batch(
            batch,
            min_words=min_words,
            max_words=max_words,
            min_stopword_hits=min_stopword_hits,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "pred_lang": text_stage.lang_id_batch(batch).column("pred_lang"),
                "n_words": q.column("n_words").cast(pa.int64()),
                "passes": q.column("passes").cast(pa.int64()),
                "payload": signature_payloads(batch),
            }
        )

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    scanned = docs.map_batches(scan, batch_format="pyarrow").materialize()
    rows = light_table(scanned, _SCAN_SCHEMA)
    if rows is not None:
        sigs = ray.data.from_arrow(signature_view(rows))
    else:
        sigs = scanned.map_batches(signature_view, batch_format="pyarrow")
    clusters = signature_clusters(sigs, hot_buckets=hot_buckets)
    drops = near_dup_drop_ids(clusters)
    if rows is not None and drops is not None:
        keep = keep_flags(rows.column("doc_id"), drops)
        # pinned: reading a materialized result starts no Ray Data execution
        return ray.data.from_arrow(
            _language_totals(rows.append_column("keep", keep))
        ).materialize()

    signals = scanned.select_columns(_SIGNAL_COLS)
    if drops is None:
        joined = hash_join(signals, keep_from_clusters(signals, clusters), on="doc_id")
    else:
        drops_ref = ray.put(drops)
        joined = signals.map_batches(
            lambda b: b.append_column(
                "keep", keep_flags(b.column("doc_id"), ray.get(drops_ref))
            ),
            batch_format="pyarrow",
        )
    # ≤ a few dozen languages: one merge task beats the sort exchange
    return combine_sum_by(
        joined.map_batches(_language_totals, batch_format="pyarrow"),
        ["pred_lang"],
        ["n_docs", "n_kept", "kept_tokens"],
    )


def curate_to_jsonl(
    sf_dir: str,
    out_dir: str,
    *,
    min_words: int = 15,
    sem_threshold: float = 0.5,
    n_shards: int = 8,
    n_clusters: int = 8,
    backfill: bool = False,
):
    """The full curation funnel as one callable (the CLI ``curate``
    command and ``examples/curate_corpus.py`` both run this): Gopher
    quality rules ∩ exact-dedup representatives ∩ SemDeDup keep set →
    byte-deterministic resumable jsonl.gz shards.

    Scale shape — the same light-flag-row composition as
    :func:`curated_corpus_stats`, never a driver-side id set:

    - each stage emits LIGHT ``(doc_id, q, e, s)`` int64 flag rows
      (quality pass, exact-dup representative, SemDeDup keep);
    - ONE ``groupby(doc_id)`` Max-aggregate folds them into a per-doc
      flag table (~40 B/doc), which is materialized so the heavy
      upstream scans (quality text pass, content hashing, SemDeDup)
      run exactly once even though both the stage counts and the
      export filter consume it;
    - the export filter is the bucketed :func:`hash_join` of the corpus
      onto the kept ids (an inner join on a unique key IS the semi-join)
      — one keyed shuffle of the kept text, no ``is_in`` broadcast and
      no unbounded ``take_all`` anywhere on the path.

    Embedding-id contract (explicit policy): ``vec_id == doc_id``
    positionally identifies a document's embedding row.  A document
    WITHOUT an embedding row has no SemDeDup evidence and **fails** the
    semantic stage (its ``s`` flag never fires) — silently exporting
    unvetted docs would defeat the dedup guarantee.  ``backfill=True``
    closes the coverage gap instead of dropping: missing docs get a
    deterministic feature-hashed text embedding
    (:func:`~go_htmldate_ray.stages.similarity.backfill_embeddings`,
    flagged synthetic) so they enter SemDeDup like any other row; the
    report carries ``n_backfilled`` for auditing.

    Returns the sink report plus the per-stage keep counts.
    """
    from ray.data.aggregate import Max, Sum

    from ..sources.sink import write_jsonl_shards
    from ..stages.dedup import exact_dedup
    from ..stages.joins import hash_join
    from ..stages.similarity import semdedup
    from ..stages.text_stage import gopher_quality_batch

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet")

    n_backfilled = 0
    if backfill:
        from ..stages.similarity import backfill_embeddings

        # vec_id==doc_id contract ⇒ emb ids ⊆ doc ids, so the miss count
        # is the row-count difference (parquet-metadata cheap)
        n_backfilled = max(0, docs.count() - emb.count())
        if n_backfilled:
            emb = backfill_embeddings(docs, emb)

    def _flag_table(ids: pa.ChunkedArray | pa.Array, which: str, vals=None) -> pa.Table:
        n = len(ids)
        zero = pa.array([0] * n, pa.int64())
        cols = {"doc_id": pc.cast(ids, pa.int64()), "q": zero, "e": zero, "s": zero}
        cols[which] = pc.cast(vals, pa.int64()) if vals is not None else pa.array(
            [1] * n, pa.int64()
        )
        return pa.table(cols)

    def quality_flags(batch: pa.Table) -> pa.Table:
        q = gopher_quality_batch(
            batch, min_words=min_words, min_stopword_hits=1
        )
        return _flag_table(q.column("doc_id"), "q", q.column("passes"))

    def exact_flags(batch: pa.Table) -> pa.Table:
        # exact_dedup emits one (doc_id, n_dups) row per distinct text,
        # doc_id = the class representative
        return _flag_table(batch.column("doc_id"), "e")

    def sem_flags(batch: pa.Table) -> pa.Table:
        return _flag_table(batch.column("vec_id"), "s", batch.column("keep"))

    flags = (
        docs.map_batches(quality_flags, batch_format="pyarrow")
        .union(
            exact_dedup(docs).map_batches(exact_flags, batch_format="pyarrow")
        )
        .union(
            semdedup(emb, n_clusters=n_clusters, threshold=sem_threshold).map_batches(
                sem_flags, batch_format="pyarrow"
            )
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        q = batch.column("max(q)").combine_chunks()
        e = batch.column("max(e)").combine_chunks()
        s = batch.column("max(s)").combine_chunks()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "q": q,
                "e": e,
                "s": s,
                "keep": pc.multiply(pc.multiply(q, e), s),
            }
        )

    per_doc = (
        flags.groupby("doc_id")
        .aggregate(Max("q"), Max("e"), Max("s"))
        .map_batches(finalize, batch_format="pyarrow")
        .materialize()  # light rows: heavy upstream scans run once
    )

    totals = per_doc.aggregate(Sum("q"), Sum("e"), Sum("s"), Sum("keep"))

    kept_ids = per_doc.map_batches(
        lambda b: pa.table(
            {"doc_id": b.filter(pc.equal(b.column("keep"), 1)).column("doc_id")}
        ),
        batch_format="pyarrow",
    )

    report = write_jsonl_shards(
        hash_join(docs, kept_ids, on="doc_id"),
        out_dir,
        n_shards=n_shards,
    )
    report["n_quality"] = int(totals["sum(q)"] or 0)
    report["n_exact"] = int(totals["sum(e)"] or 0)
    report["n_semdedup"] = int(totals["sum(s)"] or 0)
    report["n_kept"] = int(totals["sum(keep)"] or 0)
    report["n_backfilled"] = n_backfilled
    return report


def split_contamination(
    ds,
    *,
    fractions: tuple[float, float] = (0.8, 0.1),
    seed: int = 11,
    **lsh_kwargs,
):
    """Near-duplicate contamination audit across a train/val/test split:
    → (split_a, split_b, n_pairs) — how many MinHash near-dup pairs
    straddle split boundaries under the per-row
    :func:`~go_htmldate_ray.stages.sampling.dataset_split` rule.  An
    off-diagonal (train, test) count > 0 is exactly the eval-leakage a
    per-row split permits and :func:`~go_htmldate_ray.stages.sampling.
    grouped_split` prevents — this is the measurement that motivates
    switching.

    Shape: the banded LSH pair pipeline (its exchanges dominate), then a
    stateless per-batch label map (the split is a pure md5 function of
    doc_id — no join to attach it) and a tiny combine over ≤ 9 label
    pairs."""
    from ..stages.combine import combine_sum_by
    from ..stages.dedup import minhash_lsh_pairs
    from ..stages.sampling import _HALF_RANGE, _keep_hash

    t_train = int(fractions[0] * _HALF_RANGE)
    t_val = int((fractions[0] + fractions[1]) * _HALF_RANGE)

    def label(i: int) -> str:
        u = _keep_hash(seed, i)
        return "train" if u < t_train else "val" if u < t_val else "test"

    pairs = minhash_lsh_pairs(ds, **lsh_kwargs)

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for a, b in zip(
            batch.column("doc_a").to_pylist(), batch.column("doc_b").to_pylist()
        ):
            counts[(label(a), label(b))] += 1
        ka = [k[0] for k in counts]
        kb = [k[1] for k in counts]
        return pa.table(
            {
                "split_a": pa.array(ka, pa.string()),
                "split_b": pa.array(kb, pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return combine_sum_by(
        pairs.map_batches(partial, batch_format="pyarrow"),
        ["split_a", "split_b"],
        ["n"],
    ).map_batches(
        lambda b: pa.table(
            {
                "split_a": b.column("split_a"),
                "split_b": b.column("split_b"),
                "n_pairs": b.column("n").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
