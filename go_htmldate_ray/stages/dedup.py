"""Deduplication operators for web-scale corpora.

Every operator is expressed Ray-Data-first:

- **exact**: per-batch content hashing (the cheap partial step) followed by
  a single hash-keyed ``groupby`` — the only shuffle, keyed the same way a
  100 TB run would hash-partition.
- **MinHash+LSH**: each batch is signed into one flat (n, num_perm)
  int64 matrix (permutation parameters cached once per process) and
  packed to one byte payload per document straight from the matrix
  buffer.  Pairs come from :func:`banded_lsh_pairs`, the one banded-LSH
  pair operator (also behind ``similarity.embedding_dup_pairs_lsh`` and
  :func:`near_dup_vs_snapshot`): while the packed table fits
  :func:`~.blocks.light_table`'s budget, banding, candidate pairs, pair
  dedupe and verification are one numpy pass on the driver; above it
  banding emits only light ``(band_key, id)`` rows through the bucket
  shuffle (the payloads do NOT ride the band expansion), candidate
  pairs come from one bucket groupby (hot buckets star-sampled +
  logged, never silently dropped on either path), and verification
  joins the candidate pairs back to the payloads — two lookup-joins
  sized by the candidate count, not the corpus.
- **SimHash**: vectorized 64-bit signatures per batch with a per-process
  token-hash cache, no shuffle.
- **token-set Jaccard (sample)**: exact small-sample pair scoring against
  a broadcast token-set table (``ray.put`` once, read per task).

The MinHash arithmetic is deliberately overflow-free (31-bit shingle
hashes, 31-bit permutation coefficients, products < 2^62) so a SQL oracle
can recompute the exact same signatures in plain BIGINT math — see
``__ray_entry__.oracle_sql()['minhash_dedup_pairs']``.
"""

from __future__ import annotations

import hashlib
import logging
import re
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)

_MERSENNE = (1 << 61) - 1
_HASH_MASK = (1 << 31) - 1


def text_hash_batch(batch: pa.Table) -> pa.Table:
    """Append an md5-based int64 content hash (exact-dedup partial step)."""
    texts = batch.column("text").to_pylist()
    hashes = [
        int.from_bytes(hashlib.md5((t or "").encode("utf-8")).digest()[:8], "big") >> 1
        for t in texts
    ]
    return batch.append_column("text_hash", pa.array(hashes, pa.int64()))


def exact_dedup(ds):
    """documents → (doc_id, n_dups): first (min doc_id) per distinct text.

    Shape: map_batches(hash) → groupby(text_hash) agg — one shuffle on a
    uniform 64-bit key, no skew."""
    hashed = ds.map_batches(text_hash_batch, batch_format="pyarrow")
    agg = hashed.groupby("text_hash").aggregate(
        *_min_count_aggs()
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("min(doc_id)"),
                "n_dups": b.column("count()"),
            }
        ),
        batch_format="pyarrow",
    )


def _min_count_aggs():
    from ray.data.aggregate import Count, Min

    return Count(), Min("doc_id")


def new_docs_vs_snapshot(ds, *, snapshot_max_id: int = 100):
    """Incremental crawl dedup: documents with ``doc_id >=
    snapshot_max_id`` ("today's crawl") whose exact text content does
    not appear among ``doc_id < snapshot_max_id`` ("yesterday's
    snapshot").  Returns (doc_id,) sorted by the anti-join's bucket
    co-location (driver compares order-insensitively).

    Shape: one stateless content-hash pass per side, then the bucketed
    :func:`~go_htmldate_ray.stages.joins.anti_join` — a single light-row
    shuffle; the snapshot side ships one int64 per distinct content per
    block."""
    from .joins import anti_join

    # pin the content-hash rows once: the today/snapshot branches below
    # otherwise each re-execute the scan AND the full-text md5 pass
    hashed = ds.map_batches(text_hash_batch, batch_format="pyarrow").materialize()

    def today(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch.column("doc_id"), snapshot_max_id))
        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "text_hash": t.column("text_hash"),
            }
        )

    def snapshot(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less(batch.column("doc_id"), snapshot_max_id))
        return pa.table({"text_hash": t.column("text_hash")})

    new = anti_join(
        hashed.map_batches(today, batch_format="pyarrow"),
        hashed.map_batches(snapshot, batch_format="pyarrow"),
        on="text_hash",
    )
    return new.select_columns(["doc_id"])


def dup_ngrams(ds, *, n: int = 5, min_docs: int = 2):
    """Memorization / near-dup diagnostic: word ``n``-grams that occur in
    at least ``min_docs`` distinct documents → (ngram_hash, n_docs).

    Shape: per-batch pass emits one light (int64 hash) row per distinct
    (n-gram, document) pair — a document lives in exactly one batch, so
    the pairs are globally unique and a plain ``Count`` groupby equals
    COUNT(DISTINCT doc) — then one shuffle over those light rows and a
    vectorized filter.  The n-gram text itself never enters the
    exchange; the hash is the md5-based int63 shared with the SQL
    oracle (``_hash63``).
    """
    from ray.data.aggregate import Count

    from .cleaning import _hash63

    def gram_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        hashes: list[int] = []
        for t in texts:
            toks = (t or "").split()
            if len(toks) < n:
                continue
            grams = {
                " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
            }
            hashes.extend(_hash63(g) for g in grams)
        return pa.table({"ngram_hash": pa.array(hashes, pa.int64())})

    counted = (
        ds.map_batches(gram_rows, batch_format="pyarrow")
        .groupby("ngram_hash")
        .aggregate(Count())
    )

    def keep_dups(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch.column("count()"), min_docs))
        return pa.table(
            {
                "ngram_hash": t.column("ngram_hash"),
                "n_docs": t.column("count()").cast(pa.int64()),
            }
        )

    return counted.map_batches(keep_dups, batch_format="pyarrow")


# --- MinHash + LSH -----------------------------------------------------------

def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Distinct 31-bit md5 hashes of the k-token shingles of ``text``
    (documents shorter than k tokens fall back to one whole-text shingle)."""
    toks = text.split()
    if len(toks) < k:
        items = [" ".join(toks)] if toks else []
    else:
        items = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    out = {
        int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big") & _HASH_MASK
        for s in items
    }
    return np.fromiter(out, dtype=np.int64, count=len(out))


class MinHasher:
    """Actor-pool stage: 3-token-shingle MinHash signatures.

    Permutation parameters are derived from a fixed seed once per actor
    (``__init__``), batches are processed in ``__call__``.  All values stay
    below 2^31 so products fit comfortably in signed 64-bit — the exact
    computation is reproducible in BIGINT SQL (the DuckDB oracle).
    """

    def __init__(self, num_perm: int = 128, shingle_size: int = 3, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.shingle_size = shingle_size
        self.a = rng.randint(1, 1 << 31, size=num_perm).astype(np.int64)
        self.b = rng.randint(0, 1 << 31, size=num_perm).astype(np.int64)

    def signature(self, text: str) -> np.ndarray:
        sh = shingle_hashes(text, self.shingle_size)
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.int64)
        # (a*x + b) mod p for all perms x shingles, min over shingles;
        # a,x < 2^31 so a*x+b < 2^62+2^31 — exact in int64, no wraparound.
        prod = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
        return prod.min(axis=1)

    def signatures(self, texts: list) -> np.ndarray:
        """(len(texts), num_perm) int64 matrix of :meth:`signature` rows
        (a ``None`` text signs as the empty text)."""
        mat = np.empty((len(texts), self.num_perm), dtype=np.int64)
        for i, t in enumerate(texts):
            mat[i] = self.signature(t or "")
        return mat

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = self.signatures(batch.column("text").to_pylist())
        offsets = np.arange(0, mat.size + 1, self.num_perm, dtype=np.int32)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "signature": pa.ListArray.from_arrays(offsets, mat.ravel()),
            }
        )


# Odd 64-bit multipliers of the band-key mix (golden ratio; murmur3 fmix64)
_BAND_SEED = np.uint64(0x9E3779B97F4A7C15)
_BAND_MUL = np.uint64(0xFF51AFD7ED558CCD)


def _band_keys(mat: np.ndarray, num_bands: int, rows_per_band: int) -> np.ndarray:
    """(n, num_bands) non-negative int64 LSH band keys of an (n, num_perm)
    signature matrix: a wrapping uint64 xor-multiply-xorshift mix of the
    band index and the band's ``rows_per_band`` words, shifted right one
    bit (as :func:`~.joins._bucket_of` mixes ids).  Equal ``(band,
    chunk)`` always give equal keys; distinct ones collide with
    probability ~2^-63, and a collision only adds a candidate pair that
    verification then scores."""
    n = mat.shape[0]
    chunks = (
        np.ascontiguousarray(mat[:, : num_bands * rows_per_band], dtype=np.int64)
        .view(np.uint64)
        .reshape(n, num_bands, rows_per_band)
    )
    h = np.tile((np.arange(num_bands, dtype=np.uint64) + np.uint64(1)) * _BAND_SEED, (n, 1))
    for j in range(rows_per_band):
        h ^= chunks[:, :, j]
        h *= _BAND_MUL
        h ^= h >> np.uint64(29)
    h ^= h >> np.uint64(33)
    h *= _BAND_MUL
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(1)).view(np.int64)


# (key, payload) rows: an int64 id and its vector packed as raw numpy bytes
_PAYLOAD_SCHEMA = pa.schema([("key", pa.int64()), ("payload", pa.binary())])


def _pack_rows(mat: np.ndarray, valid: np.ndarray | None = None) -> pa.Array:
    """``binary`` array holding each row of the 2-d ``mat`` as its raw
    bytes, built from the matrix buffer as one fixed-width array (no
    per-row objects); rows where the boolean ``valid`` is False are
    null."""
    mat = np.ascontiguousarray(mat)
    bitmap = None if valid is None else pa.py_buffer(np.packbits(valid, bitorder="little"))
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(mat.shape[1] * mat.itemsize), len(mat), [bitmap, pa.py_buffer(mat)]
    ).cast(pa.binary())


def signature_payloads(batch: pa.Table, num_perm: int = 128) -> pa.Array:
    """One nullable byte-packed MinHash signature per ``text`` row of
    ``batch``: the shared sign+pack step of every minhash consumer
    (pairs, clusters, the snapshot probe, the curation scan).
    Task-pool friendly: hasher state (256 ints) comes from a per-process
    cache, beating actor-pool spin-up.  Texts with no shingles
    (empty/whitespace text) get null: their all-zero signatures would
    pair every empty doc with est 1.0, and the SQL oracles exclude them
    the same way (WHERE trim(text) != '')."""
    text = batch.column("text").cast(pa.string())
    nonblank = pc.fill_null(pc.not_equal(pc.utf8_trim_whitespace(text), ""), False)
    valid = np.asarray(nonblank, dtype=bool)
    mat = np.zeros((batch.num_rows, num_perm), dtype=np.int64)
    mat[valid] = _cached_minhasher(num_perm).signatures(text.filter(nonblank).to_pylist())
    return _pack_rows(mat, valid)


def _signature_rows(batch: pa.Table, num_perm: int) -> pa.Table:
    """(key, payload) signature rows of the non-blank texts of a
    (doc_id, text) batch (:func:`signature_payloads`, nulls dropped)."""
    return signature_view(
        pa.table(
            {"doc_id": batch.column("doc_id"), "payload": signature_payloads(batch, num_perm)}
        )
    )


def signature_view(batch: pa.Table) -> pa.Table:
    """(key, payload) rows of a (doc_id, payload) table whose payload is
    :func:`signature_payloads`' nullable column: the input of
    :func:`signature_lsh_pairs` and :func:`signature_clusters`."""
    rows = pa.table({"key": batch.column("doc_id"), "payload": batch.column("payload")})
    return rows.filter(pc.is_valid(rows.column("payload")))


def _rows_matrix(col, dtype) -> np.ndarray:
    """(n, width) matrix of a binary column whose values all have one
    width — one buffer join, no per-row decode."""
    if len(col) == 0:
        return np.zeros((0, 0), dtype=dtype)
    return np.frombuffer(b"".join(col.to_pylist()), dtype=dtype).reshape(len(col), -1)


def _payload_matrix(tbl: pa.Table, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(sorted ids, row-aligned matrix) from a ``_PAYLOAD_SCHEMA`` table
    whose payloads all have one width."""
    ids = tbl.column("key").to_numpy()
    order = np.argsort(ids)
    return ids[order], _rows_matrix(tbl.column("payload"), dtype)[order]


def _band_rows(batch: pa.Table, dtype, band_keys) -> pa.Table:
    """Light (band_key, id, shuffle_bucket) rows of a (key, payload)
    batch, one per row and band: the payload itself stays out of the
    bucket shuffle (a 128-word signature per band row would be 16× the
    exchange)."""
    from .joins import SHUFFLE_BUCKETS, _bucket_of

    keys = band_keys(_rows_matrix(batch.column("payload"), dtype))
    band_key = pa.array(keys.ravel(), pa.int64())
    return pa.table(
        {
            "band_key": band_key,
            "id": pa.array(np.repeat(batch.column("key").to_numpy(), keys.shape[1]), pa.int64()),
            "shuffle_bucket": _bucket_of(band_key, SHUFFLE_BUCKETS),
        }
    )


def _kept_pairs(
    a: np.ndarray, b: np.ndarray, val: np.ndarray, threshold: float, names, digits
) -> pa.Table:
    """The ``names`` = (a, b, score) rows of the scored candidate pairs
    with ``val >= threshold``; with ``digits``, each kept score is then
    rounded to that many places by Python ``round``."""
    keep = val >= threshold
    kept = val[keep] if digits is None else [round(v, digits) for v in val[keep].tolist()]
    a_col, b_col, val_col = names
    return pa.table(
        {
            a_col: pa.array(a[keep], pa.int64()),
            b_col: pa.array(b[keep], pa.int64()),
            val_col: pa.array(kept, pa.float64()),
        }
    )


# candidate pairs scored per verification slice (bounds the gathered
# row matrices at 2 x 64k rows)
_VERIFY_SLICE = 1 << 16


def light_lsh_pairs(ids: np.ndarray, keys: np.ndarray, score, what: str, strict: bool):
    """The light branch of :func:`banded_lsh_pairs`, as one pass on the
    driver over a gathered table → scored candidate arrays (a, b, val).

    ``keys`` holds the (n, n_bands) band keys of the rows of the sorted
    unique ``ids``.  One :func:`~.joins.collision_pairs` over every band
    row gives the candidates, under the same per-band-key PAIR_CAP
    star-sampling and strict raise as the bucketed scale path; a pair
    that collides in several bands is kept once
    (:func:`~.joins.sorted_unique_pairs`); ``score(ia, ib)`` rates pairs
    by row position.
    """
    from .joins import collision_pairs, sorted_unique_pairs

    band_rows = pa.table(
        {
            "band_key": pa.array(keys.ravel(), pa.int64()),
            "id": pa.array(np.repeat(ids, keys.shape[1]), pa.int64()),
        }
    )
    cand = collision_pairs(band_rows, "band_key", "id", "a", "b", logger, what, strict=strict)
    a, b = sorted_unique_pairs(cand.column("a").to_numpy(), cand.column("b").to_numpy())
    ia = np.searchsorted(ids, a)
    ib = np.searchsorted(ids, b)
    val = np.zeros(len(a))
    for i in range(0, len(a), _VERIFY_SLICE):
        val[i : i + _VERIFY_SLICE] = score(
            ia[i : i + _VERIFY_SLICE], ib[i : i + _VERIFY_SLICE]
        )
    return a, b, val


def banded_lsh_pairs(
    rows,
    dtype,
    band_keys,
    score,
    threshold: float,
    names: tuple[str, str, str],
    what: str,
    strict: bool,
    digits: int | None = None,
):
    """The banded-LSH pair operator behind every near-dup pair query:
    (key, payload) rows → (a, b, score) pairs ``a < b`` whose candidates
    share a band key and whose ``score >= threshold``.

    ``rows`` hold an int64 ``key`` and its vector packed as raw ``dtype``
    bytes (one width).  ``band_keys`` maps an (n, d) matrix to its
    (n, n_bands) int64 band keys; ``score(ma, mb)`` rates row-aligned
    pairs of vectors.  ``names`` are the output columns, ``what`` labels
    the hot-bucket warning, ``strict`` raises on a band key above
    ``joins.PAIR_CAP`` instead of star-sampling it, and ``digits`` rounds
    the kept scores (:func:`_kept_pairs`).

    Hybrid: while the packed table fits
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget, banding,
    candidate pairs, pair dedupe and scoring are one numpy pass on the
    driver (:func:`light_lsh_pairs`), returned materialized, so reading
    it starts no Ray Data execution.  Above it each row emits light band
    rows (:func:`_band_rows`) through one bucket shuffle into
    :func:`~.joins.collision_pairs`, two hash-partitioned
    :func:`~.joins.attach_payload` lookup-joins bring both vectors to
    each candidate, and one map scores them: the 100 TB path, where no
    single node holds the vectors.
    """
    import ray.data

    from .blocks import light_table
    from .joins import attach_payload, collision_pairs

    # consumed three times on the scale path (banding + both lookup-joins):
    # pin the rows once instead of recomputing them per consumer
    rows = rows.materialize()
    tbl = light_table(rows, _PAYLOAD_SCHEMA)
    if tbl is not None:
        ids, mat = _payload_matrix(tbl, dtype)
        a, b, val = light_lsh_pairs(
            ids, band_keys(mat), lambda ia, ib: score(mat[ia], mat[ib]), what, strict
        )
        return ray.data.from_arrow(
            _kept_pairs(a, b, val, threshold, names, digits)
        ).materialize()

    a_col, b_col, _ = names
    candidates = (
        rows.map_batches(lambda t: _band_rows(t, dtype, band_keys), batch_format="pyarrow")
        .groupby("shuffle_bucket")
        .map_groups(
            lambda g: collision_pairs(
                g, "band_key", "id", a_col, b_col, logger, what, strict=strict
            ),
            batch_format="pyarrow",
        )
    )
    # A pair can surface from several bands: duplicates share a, so they
    # co-locate on the first lookup-join's key and dedupe there — no
    # separate dedupe shuffle.
    pair_cols = {a_col: pa.int64(), b_col: pa.int64()}
    with_a = attach_payload(
        candidates, rows, key_col=a_col, out_col="payload_a", carry_cols=pair_cols, dedupe=True
    )
    with_b = attach_payload(
        with_a,
        rows,
        key_col=b_col,
        out_col="payload_b",
        carry_cols={**pair_cols, "payload_a": pa.binary()},
    )

    def verify(batch: pa.Table) -> pa.Table:
        val = (
            score(
                _rows_matrix(batch.column("payload_a"), dtype),
                _rows_matrix(batch.column("payload_b"), dtype),
            )
            if batch.num_rows
            else np.zeros(0)
        )
        return _kept_pairs(
            batch.column(a_col).to_numpy(), batch.column(b_col).to_numpy(),
            val, threshold, names, digits,
        )

    return with_b.map_batches(verify, batch_format="pyarrow")


def minhash_lsh_pairs(
    ds,
    *,
    num_perm: int = 128,
    num_bands: int = 16,
    threshold: float = 0.8,
    hot_buckets: str = "sample",
):
    """documents → near-duplicate pairs (doc_a, doc_b, est_jaccard):
    shingle → minhash → light band rows → bucket groupby → candidate
    pairs → signature verification → estimate filter.

    est_jaccard is the fraction of agreeing signature components — the
    standard unbiased MinHash estimate of shingle-set Jaccard.

    The documents are signed once (:func:`_signature_rows`) and the
    pinned signature rows go to :func:`signature_lsh_pairs`.

    ``hot_buckets``: "sample" (default) star-samples buckets above
    ``joins.PAIR_CAP`` with a warning; "error" raises instead — the mode
    oracle runs use, since the SQL oracle enumerates every collision
    pair."""
    return signature_lsh_pairs(
        _signed(ds, num_perm),
        num_perm=num_perm,
        num_bands=num_bands,
        threshold=threshold,
        hot_buckets=hot_buckets,
    )


def _signed(ds, num_perm: int):
    """documents → materialized (key, payload) signature rows."""
    return ds.map_batches(
        lambda b: _signature_rows(b, num_perm), batch_format="pyarrow"
    ).materialize()


def signature_lsh_pairs(
    sigs,
    *,
    num_perm: int = 128,
    num_bands: int = 16,
    threshold: float = 0.8,
    hot_buckets: str = "sample",
):
    """(key, payload) signature rows (:func:`signature_view`) →
    near-duplicate pairs (doc_a, doc_b, est_jaccard), as
    :func:`minhash_lsh_pairs` but starting after the signing scan:
    :func:`banded_lsh_pairs` over :func:`_band_keys` bands, scored by
    the fraction of agreeing signature words."""
    rows_per_band = num_perm // num_bands
    return banded_lsh_pairs(
        sigs,
        np.int64,
        lambda mat: _band_keys(mat, num_bands, rows_per_band),
        lambda ma, mb: (ma == mb).mean(axis=1),
        threshold,
        ("doc_a", "doc_b", "est_jaccard"),
        "MinHash",
        hot_buckets == "error",
    )


def near_dup_clusters(
    ds,
    *,
    num_perm: int = 128,
    num_bands: int = 16,
    threshold: float = 0.8,
    hot_buckets: str = "sample",
    max_iters: int = 25,
):
    """documents → (doc_id, cluster_rep): connected components over the
    MinHash near-duplicate pair graph — the cluster-level dedup a
    training pipeline actually applies (keep ``cluster_rep``, drop the
    rest).  Docs in no pair are singletons and not emitted.

    The documents are signed once and the signature rows go to
    :func:`signature_clusters`: LSH pairs (:func:`signature_lsh_pairs`),
    then :func:`connected_components`, each with its own light/scale
    hybrid.
    """
    return signature_clusters(
        _signed(ds, num_perm),
        num_perm=num_perm,
        num_bands=num_bands,
        threshold=threshold,
        hot_buckets=hot_buckets,
        max_iters=max_iters,
    )


def signature_clusters(
    sigs,
    *,
    num_perm: int = 128,
    num_bands: int = 16,
    threshold: float = 0.8,
    hot_buckets: str = "sample",
    max_iters: int = 25,
):
    """(key, payload) signature rows → (doc_id, cluster_rep), as
    :func:`near_dup_clusters` but starting after the signing scan, so a
    caller that signs inside its own text scan (``curated_corpus_stats``)
    builds the near-dup chain with one call.  A typed-empty DataFrame
    when no pair survives verification."""
    pairs = signature_lsh_pairs(
        sigs,
        num_perm=num_perm,
        num_bands=num_bands,
        threshold=threshold,
        hot_buckets=hot_buckets,
    )
    return connected_components(pairs, max_iters=max_iters)


def _cc_labels(u: np.ndarray, v: np.ndarray) -> pa.Table:
    """In-memory min-label propagation with pointer jumping over the
    symmetric edge list ``(u, v)`` — identical fixed point (label = min
    node id in component) to the distributed rounds, all numpy."""
    uniq, u_idx = np.unique(u, return_inverse=True)
    v_idx = np.searchsorted(uniq, v)  # v ⊆ u by symmetry
    lab = uniq.copy()
    while True:
        new = lab.copy()
        np.minimum.at(new, u_idx, lab[v_idx])
        new = new[np.searchsorted(uniq, new)]  # pointer jump
        if np.array_equal(new, lab):
            break
        lab = new
    return pa.table(
        {
            "doc_id": pa.array(uniq, pa.int64()),
            "cluster_rep": pa.array(lab, pa.int64()),
        }
    )


def connected_components(
    pairs, a_col: str = "doc_a", b_col: str = "doc_b", *, max_iters: int = 25
):
    """(a, b) pair Dataset → (doc_id, cluster_rep) component labels, or
    a typed-empty DataFrame when there are no pairs.

    Hybrid: a pair table within
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget is
    gathered as is and solved in numpy on the driver (symmetric edges,
    then :func:`_cc_labels`, same min-label fixed point) and returned
    materialized — no Ray Data execution beyond materializing ``pairs``,
    not even to read the labels, where each distributed
    round would pay 2 joins + groupby + materialize of fixed latency (a
    97-node host graph must not cost 15 s of scheduling).

    Larger graphs run distributed min-label propagation: every node
    starts labelled with itself; each round joins labels onto the
    symmetric edge list (hash-bucketed equi-join) and takes the per-node
    Min of (own label, neighbour labels), then pointer doubling.  Labels
    only decrease, so the global label sum is a monotone convergence
    witness — the driver compares one scalar aggregate per round, never
    the label table.
    """
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Min, Sum

    from .blocks import light_table, rebase
    from .joins import adaptive_buckets, hash_join, state_blocks

    pairs = pairs.materialize()
    if pairs.count() == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "cluster_rep": pd.Series([], dtype="int64"),
            }
        )
    small = light_table(pairs, pa.schema([(a_col, pa.int64()), (b_col, pa.int64())]))
    if small is not None:
        a = small.column(a_col).to_numpy()
        b = small.column(b_col).to_numpy()
        return ray.data.from_arrow(
            _cc_labels(np.concatenate([a, b]), np.concatenate([b, a]))
        ).materialize()

    def to_edges(b: pa.Table) -> pa.Table:
        a = pc.cast(b.column(a_col), pa.int64()).combine_chunks()
        bb = pc.cast(b.column(b_col), pa.int64()).combine_chunks()
        return pa.table(
            {"u": pa.concat_arrays([a, bb]), "v": pa.concat_arrays([bb, a])}
        )

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    def self_label(b: pa.Table) -> pa.Table:
        return pa.table({"node": b.column("u"), "label": b.column("u")})

    labels = (
        edges.map_batches(self_label, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label"))
        .map_batches(
            lambda b: pa.table(
                {"node": b.column("node"), "label": b.column("min(label)")}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    # the node set is fixed across rounds, and so is the layout
    n_nodes = labels.count()
    n_blocks, n_buckets = state_blocks(n_nodes), adaptive_buckets(n_nodes)
    labels = rebase(labels, n_blocks)
    prev_sum = labels.aggregate(Sum("label"))["sum(label)"]

    for _ in range(max_iters):
        # (1) neighbour min: labels join the symmetric edge list, each
        # node takes Min(own, neighbours)
        nb = hash_join(edges, labels, on="u", right_on="node", n_buckets=n_buckets)
        cand = nb.map_batches(
            lambda b: pa.table({"node": b.column("v"), "label": b.column("label")}),
            batch_format="pyarrow",
        )
        mins = rebase(
            labels.union(cand)
            .groupby("node")
            .aggregate(Min("label"))
            .map_batches(
                lambda b: pa.table(
                    {"node": b.column("node"), "label": b.column("min(label)")}
                ),
                batch_format="pyarrow",
            ),
            n_blocks,
        )
        # (2) pointer doubling: label ← label[label].  label[x] only ever
        # decreases and roots satisfy label[r] == r, so the self-join
        # always matches and jumping compresses chains in O(log diameter)
        # rounds instead of O(diameter).
        right = mins.map_batches(
            lambda b: pa.table(
                {"node2": b.column("node"), "label2": b.column("label")}
            ),
            batch_format="pyarrow",
        )
        labels = rebase(
            hash_join(
                mins, right, on="label", right_on="node2", n_buckets=n_buckets
            ).map_batches(
                lambda b: pa.table(
                    {"node": b.column("node"), "label": b.column("label2")}
                ),
                batch_format="pyarrow",
            ),
            n_blocks,
        )
        cur_sum = labels.aggregate(Sum("label"))["sum(label)"]
        if cur_sum == prev_sum:  # labels are monotone non-increasing
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("node"), "cluster_rep": b.column("label")}
        ),
        batch_format="pyarrow",
    )


_CLUSTER_SCHEMA = pa.schema([("doc_id", pa.int64()), ("cluster_rep", pa.int64())])


def near_dup_drop_ids(clusters) -> np.ndarray | None:
    """Sorted int64 ids of the near-dup cluster members that are not their
    cluster's representative (``doc_id != cluster_rep``), gathered on the
    driver while the :func:`near_dup_clusters` table fits
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget; ``None``
    above it, where callers keep their distributed path over the same
    ``clusters``."""
    import pandas as pd

    from .blocks import light_table

    if isinstance(clusters, pd.DataFrame):  # typed-empty: no pairs at all
        return np.zeros(0, dtype=np.int64)
    tbl = light_table(clusters, _CLUSTER_SCHEMA)
    if tbl is None:
        return None
    doc = tbl.column("doc_id").to_numpy()
    return np.unique(doc[doc != tbl.column("cluster_rep").to_numpy()])


def keep_flags(doc_ids, drops: np.ndarray) -> pa.Array:
    """int64 keep flag per id: 0 where the id is in the sorted ``drops``
    array (:func:`near_dup_drop_ids`), else 1."""
    from .joins import sorted_lookup

    _, hit = sorted_lookup(drops, np.asarray(pc.cast(doc_ids, pa.int64()), dtype=np.int64))
    return pa.array((~hit).astype(np.int64), pa.int64())


def near_dup_keep(
    ds,
    *,
    num_perm: int = 128,
    num_bands: int = 16,
    threshold: float = 0.8,
    hot_buckets: str = "sample",
    max_iters: int = 25,
):
    """documents → (doc_id, keep): the dedup *action* — ``keep = 0``
    exactly for near-dup cluster members that are not their cluster's
    min-id representative; every other document (singletons included)
    keeps 1.

    Hybrid on the cluster table: while it fits
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget, the
    sorted drop-id array (:func:`near_dup_drop_ids`) is ``ray.put`` once
    and one ``map_batches`` over the doc ids marks the flags.  Above it
    the corpus side contributes (doc_id, 0) light rows, the cluster side
    (doc_id, 1) drop rows, and ONE Max-aggregate groupby over int64 rows
    resolves the flag — no broadcast of a drop set that can be a large
    fraction of the corpus at high dup rates, and no join."""
    clusters = near_dup_clusters(
        ds,
        num_perm=num_perm,
        num_bands=num_bands,
        threshold=threshold,
        hot_buckets=hot_buckets,
        max_iters=max_iters,
    )
    drops = near_dup_drop_ids(clusters)
    if drops is None:
        return keep_from_clusters(ds, clusters)

    import ray

    drops_ref = ray.put(drops)
    return ds.select_columns(["doc_id"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id").cast(pa.int64()),
                "keep": keep_flags(b.column("doc_id"), ray.get(drops_ref)),
            }
        ),
        batch_format="pyarrow",
    )


def keep_from_clusters(ds, clusters):
    """Scale path of :func:`near_dup_keep`: (doc_id, keep) from the
    documents and their cluster table by a light-row union + Max
    groupby."""
    import pandas as pd
    from ray.data.aggregate import Max

    base = ds.select_columns(["doc_id"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id").cast(pa.int64()),
                "drop": pa.array(np.zeros(b.num_rows, dtype=np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    if isinstance(clusters, pd.DataFrame):  # typed-empty: no pairs at all
        unioned = base
    else:
        drops = clusters.map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b.column("doc_id").cast(pa.int64()),
                    "drop": pc.cast(
                        pc.not_equal(b.column("doc_id"), b.column("cluster_rep")),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        unioned = base.union(drops)
    return (
        unioned.groupby("doc_id")
        .aggregate(Max("drop"))
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "keep": pc.subtract(
                        pa.scalar(1, pa.int64()),
                        b.column("max(drop)").cast(pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )


# --- SimHash -----------------------------------------------------------------

_MINHASHER_CACHE: dict[int, "MinHasher"] = {}


def _cached_minhasher(num_perm: int) -> "MinHasher":
    mh = _MINHASHER_CACHE.get(num_perm)
    if mh is None:
        mh = _MINHASHER_CACHE[num_perm] = MinHasher(num_perm=num_perm)
    return mh


# Per-process token→hash cache: tokens repeat massively in natural text,
# so each worker md5-hashes a token once, ever.
_TOKEN_CACHE: dict[str, int] = {}
_TOKEN_CACHE_CAP = 1 << 20


def _token_hash(tok: str) -> int:
    h = _TOKEN_CACHE.get(tok)
    if h is None:
        h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")
        if len(_TOKEN_CACHE) < _TOKEN_CACHE_CAP:
            _TOKEN_CACHE[tok] = h
    return h


def simhash_batch(batch: pa.Table) -> pa.Table:
    """doc_id, simhash (hex string of the 64-bit token-unigram SimHash).

    Bit convention (replicated by the SQL oracle): bit i of the result is
    set iff sum over tokens of (2*((md5_u64(tok) >> i) & 1) - 1) > 0,
    where md5_u64 is the big-endian first 8 bytes of the token's md5.
    Vectorized: unique tokens + counts per doc, cached token hashes,
    one numpy bit-unpack + weighted sum per doc."""
    texts = batch.column("text").to_pylist()
    shifts = np.arange(64, dtype=np.uint64)
    weights = (np.uint64(1) << shifts).astype(np.uint64)
    out = []
    for t in texts:
        toks = (t or "").split()
        if not toks:
            out.append("0" * 16)
            continue
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        hvals = np.fromiter(
            (_token_hash(u) for u in uniq), dtype=np.uint64, count=len(uniq)
        )
        bits = ((hvals[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        acc = ((2 * bits - 1) * counts[:, None]).sum(axis=0)
        val = int(weights[acc > 0].sum())
        out.append(f"{val:016x}")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "simhash": pa.array(out, pa.string()),
        }
    )


# --- exact n-gram Jaccard over a bounded sample ------------------------------

def _token_shingles(text: str, n: int) -> frozenset:
    """Distinct n-token shingle strings (short docs fall back to one
    whole-text shingle) — the one shingling rule the sample-pair
    detectors (:func:`ngram_jaccard_pairs`, :func:`containment_pairs`)
    and their SQL oracles share."""
    toks = (text or "").split()
    if len(toks) < n:
        return frozenset([" ".join(toks)]) if toks else frozenset()
    return frozenset(" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1))


def ngram_jaccard_pairs(ds, *, n: int = 3, max_doc_id: int = 200, min_jaccard: float = 0.2):
    """Exact distinct n-gram (token shingle) Jaccard for all pairs with
    doc_id below ``max_doc_id`` — the n-gram counterpart of
    :func:`token_jaccard_pairs`, the ground truth the MinHash estimate
    approximates.  Same broadcast shape: shingle sets are ``ray.put``
    once, pair scoring streams."""
    import ray
    import ray.data
    import pyarrow.compute as pc

    sample = ds.map_batches(
        lambda b: b.filter(pc.less(b.column("doc_id"), max_doc_id)),
        batch_format="pyarrow",
    )
    rows = sample.select_columns(["doc_id", "text"]).take_all()

    sets = {r["doc_id"]: _token_shingles(r["text"], n) for r in rows}
    sets_ref = ray.put(sets)
    ids = sorted(sets)
    pair_list = [{"doc_a": a, "doc_b": b} for a, b in combinations(ids, 2)]

    def score(batch: pa.Table) -> pa.Table:
        table = ray.get(sets_ref)
        oa, ob, oj = [], [], []
        for a, b in zip(
            batch.column("doc_a").to_pylist(), batch.column("doc_b").to_pylist()
        ):
            sa, sb = table[a], table[b]
            union = len(sa | sb)
            j = (len(sa & sb) / union) if union else 0.0
            if j >= min_jaccard:
                oa.append(a)
                ob.append(b)
                oj.append(round(j, 6))
        return pa.table(
            {
                "doc_a": pa.array(oa, pa.int64()),
                "doc_b": pa.array(ob, pa.int64()),
                "jaccard": pa.array(oj, pa.float64()),
            }
        )

    return ray.data.from_items(pair_list).map_batches(
        score, batch_format="pyarrow", batch_size=4096
    )


# --- exact token-set Jaccard over a bounded sample ---------------------------

def token_jaccard_pairs(ds, *, max_doc_id: int = 200, min_jaccard: float = 0.5):
    """Exact distinct-token-set Jaccard for all pairs with doc_id below
    ``max_doc_id``; the token-set table is broadcast via ``ray.put`` once
    and read inside each scoring task."""
    import ray
    import pyarrow.compute as pc

    sample = ds.map_batches(
        lambda b: b.filter(pc.less(b.column("doc_id"), max_doc_id)),
        batch_format="pyarrow",
    )
    rows = sample.select_columns(["doc_id", "text"]).take_all()
    sets = {r["doc_id"]: frozenset((r["text"] or "").split()) for r in rows}
    sets_ref = ray.put(sets)
    ids = sorted(sets)
    pair_list = [{"doc_a": a, "doc_b": b} for a, b in combinations(ids, 2)]

    def score(batch: pa.Table) -> pa.Table:
        table = ray.get(sets_ref)
        a_ids = batch.column("doc_a").to_pylist()
        b_ids = batch.column("doc_b").to_pylist()
        oa, ob, oj = [], [], []
        for a, b in zip(a_ids, b_ids):
            sa, sb = table[a], table[b]
            union = len(sa | sb)
            j = (len(sa & sb) / union) if union else 0.0
            if j >= min_jaccard:
                oa.append(a)
                ob.append(b)
                oj.append(round(j, 6))
        return pa.table(
            {
                "doc_a": pa.array(oa, pa.int64()),
                "doc_b": pa.array(ob, pa.int64()),
                "jaccard": pa.array(oj, pa.float64()),
            }
        )

    import ray.data

    pairs = ray.data.from_items(pair_list)
    return pairs.map_batches(score, batch_format="pyarrow", batch_size=4096)


_GHOST_OFFSET = 10_000_000  # prev-only (deleted) synthetic page ids


def snapshot_diff(ds):
    """Incremental-recrawl delta: page status across two crawl snapshots
    → (doc_id, status) with status ∈ new / changed / unchanged / gone.

    The previous snapshot is derived deterministically from the current
    corpus (so an oracle can re-derive it in SQL): ids with
    ``doc_id % 17 == 3`` are absent from prev (→ *new*), ids with
    ``doc_id % 10 == 0`` carried different text (→ *changed*), and ids
    with ``doc_id % 23 == 5`` additionally existed as a prev-only ghost
    page ``doc_id + 10^7`` (→ *gone*).

    Shape: one content-hash pass per side, one bucketed FULL-outer
    :func:`~go_htmldate_ray.stages.joins.hash_join` on doc_id, then a
    stateless classify — the maintenance exchange an incremental crawl
    runs nightly at corpus scale."""
    from .joins import hash_join

    # pin once: current/previous branches otherwise re-run scan + md5
    hashed = ds.map_batches(text_hash_batch, batch_format="pyarrow").materialize()

    def current(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "cur_hash": batch.column("text_hash"),
            }
        )

    def previous(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        hashes = np.asarray(batch.column("text_hash"), dtype=np.int64)
        keep = ids % 17 != 3
        pids = ids[keep]
        phash = hashes[keep].copy()
        changed = pids % 10 == 0
        phash[changed] = phash[changed] ^ 1  # any different content hash
        ghosts = ids[ids % 23 == 5] + _GHOST_OFFSET
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([pids, ghosts]), pa.int64()
                ),
                "prev_hash": pa.array(
                    np.concatenate([phash, np.zeros(len(ghosts), np.int64)]),
                    pa.int64(),
                ),
            }
        )

    joined = hash_join(
        hashed.map_batches(current, batch_format="pyarrow"),
        hashed.map_batches(previous, batch_format="pyarrow"),
        on="doc_id",
        how="full",
    )

    def classify(batch: pa.Table) -> pa.Table:
        cur = batch.column("cur_hash")
        prev = batch.column("prev_hash")
        new = pc.is_null(prev)
        gone = pc.is_null(cur)
        changed = pc.and_kleene(
            pc.and_kleene(pc.invert(new), pc.invert(gone)),
            pc.not_equal(cur, prev),
        )
        status = pc.if_else(
            new,
            pa.scalar("new"),
            pc.if_else(
                gone,
                pa.scalar("gone"),
                pc.if_else(changed, pa.scalar("changed"), pa.scalar("unchanged")),
            ),
        )
        return pa.table(
            {"doc_id": batch.column("doc_id"), "status": status}
        )

    return joined.map_batches(classify, batch_format="pyarrow")


def remove_dup_spans(
    ds,
    *,
    n: int = 5,
    min_docs: int = 2,
):
    """Exact duplicated-substring removal at word n-gram granularity
    (the ExactSubstr cleaning of Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better", with n-gram anchors
    instead of suffix arrays): any word n-gram occurring in at least
    ``min_docs`` distinct documents is removed from EVERY document — a
    token survives iff no duplicated n-gram covers it.

    Output: ``(doc_id, n_tokens, n_removed, clean_text)`` where
    ``clean_text`` joins surviving tokens with single spaces (the
    operator is whitespace-normalizing by contract, like the tokenizer
    feeding it).

    Shape: stage 1 is :func:`dup_ngrams` (light hash rows → one Count
    groupby).  Stage 2 removes spans along one of two paths:

    - broadcast (the dup set fits
      :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget): the
      sorted dup-hash array ships once via ``ray.put`` (numpy →
      zero-copy from plasma) and ONE ``map_batches`` pass rebuilds every
      document — ``np.searchsorted`` membership, difference-array cumsum
      for the covered mask, no further shuffle.
    - join (scale path): per-position ``(ngram_hash, doc_id, pos)``
      light rows hash-join the dup set (the one unavoidable
      token-count-sized exchange — the same cost ExactSubstr pays),
      covered starts group per doc (group size = dup grams in that doc,
      not doc length), and a left join re-attaches text so untouched
      documents pass through unchanged.

    Both paths are pytest-equivalent on planted fixtures.
    """
    import ray
    from ray.data.aggregate import Count

    from .blocks import light_table
    from .cleaning import _hash63_cached
    from .joins import hash_join, sorted_lookup

    # materialize once so the size decision and the chosen path reuse
    # the same blocks instead of recomputing detection twice
    dup = dup_ngrams(ds, n=n, min_docs=min_docs).materialize()

    def gram_hash_array(toks: list[str]) -> np.ndarray:
        m = len(toks) - n + 1
        if m <= 0:
            return np.empty(0, dtype=np.int64)
        return np.fromiter(
            (_hash63_cached(" ".join(toks[i : i + n])) for i in range(m)),
            dtype=np.int64,
            count=m,
        )

    def rebuild(toks: list[str], dup_starts: np.ndarray):
        """(n_tokens, n_removed, clean_text) after dropping every token
        covered by a duplicated gram starting at one of dup_starts."""
        n_toks = len(toks)
        if n_toks == 0:
            return 0, 0, ""
        if dup_starts.size == 0:
            return n_toks, 0, " ".join(toks)
        diff = np.zeros(n_toks + 1, dtype=np.int64)
        np.add.at(diff, dup_starts, 1)
        np.add.at(diff, np.minimum(dup_starts + n, n_toks), -1)
        covered = np.cumsum(diff[:-1]) > 0
        kept = [t for t, c in zip(toks, covered) if not c]
        return n_toks, int(covered.sum()), " ".join(kept)

    def out_table(ids, rows) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array([r[0] for r in rows], pa.int64()),
                "n_removed": pa.array([r[1] for r in rows], pa.int64()),
                "clean_text": pa.array([r[2] for r in rows], pa.string()),
            }
        )

    small = light_table(dup, pa.schema([("ngram_hash", pa.int64())]))
    if small is not None:
        dup_ref = ray.put(np.sort(small.column("ngram_hash").to_numpy()))

        def clean_batch(batch: pa.Table) -> pa.Table:
            dups = ray.get(dup_ref)
            ids = batch.column("doc_id").to_pylist()
            rows = []
            for t in batch.column("text").to_pylist():
                toks = (t or "").split()
                starts = np.flatnonzero(sorted_lookup(dups, gram_hash_array(toks))[1])
                rows.append(rebuild(toks, starts))
            return out_table(ids, rows)

        return ds.map_batches(clean_batch, batch_format="pyarrow")

    # join mode: per-position light rows x dup set
    def pos_rows(batch: pa.Table) -> pa.Table:
        ids_out, hs, ps = [], [], []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            gh = gram_hash_array((t or "").split())
            if gh.size:
                ids_out.extend([doc_id] * gh.size)
                hs.extend(gh.tolist())
                ps.extend(range(gh.size))
        return pa.table(
            {
                "ngram_hash": pa.array(hs, pa.int64()),
                "pdoc": pa.array(ids_out, pa.int64()),
                "pos": pa.array(ps, pa.int64()),
            }
        )

    covered = hash_join(
        ds.map_batches(pos_rows, batch_format="pyarrow"),
        dup.map_batches(
            lambda b: pa.table({"dh": b.column("ngram_hash")}),
            batch_format="pyarrow",
        ),
        on="ngram_hash",
        right_on="dh",
    )

    def pack_starts(group: pa.Table) -> pa.Table:
        return pa.table(
            {
                "gdoc": pa.array([group.column("pdoc")[0].as_py()], pa.int64()),
                "starts": pa.array(
                    [sorted(group.column("pos").to_pylist())],
                    pa.list_(pa.int64()),
                ),
            }
        )

    grouped = covered.groupby("pdoc").map_groups(pack_starts, batch_format="pyarrow")
    attached = hash_join(
        ds.select_columns(["doc_id", "text"]),
        grouped,
        on="doc_id",
        right_on="gdoc",
        how="left",
    )

    def clean_joined(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        rows = []
        for t, starts in zip(
            batch.column("text").to_pylist(), batch.column("starts").to_pylist()
        ):
            toks = (t or "").split()
            arr = (
                np.asarray(starts, dtype=np.int64)
                if starts
                else np.empty(0, dtype=np.int64)
            )
            rows.append(rebuild(toks, arr))
        return out_table(ids, rows)

    return attached.map_batches(clean_joined, batch_format="pyarrow")


def url_aliases(ds, *, url_col: str = "url", content_col: str = "content"):
    """DUST-style URL-alias detection (Bar-Yossef et al. 2007, "Do Not
    Crawl in the DUST"): different URLs serving identical content —
    mirrors, session-id/tracking-parameter variants — become
    ``alias → canonical`` rewrite rules a frontier applies BEFORE
    scheduling, so every alias family costs one fetch instead of many.

    Canonical = lexicographically smallest URL of the family (a pure,
    order-free rule both sides recompute).  Output:
    ``(canonical_url, alias_url)`` — one row per non-canonical member.

    Shape: light ``(content_hash, url)`` rows (md5-int63, the SQL-shared
    hash) → ONE keyed groupby → per-family emission; group size = family
    size (alias count), never corpus size, and singleton families emit
    nothing.  A pathological mega-family (one page mirrored millions of
    times) still emits linear rows — it IS the answer — but sorts inside
    one group; cap with star-sampling if that ever matters.
    """
    from .cleaning import _hash63

    def hash_rows(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        contents = batch.column(content_col).to_pylist()
        return pa.table(
            {
                "h": pa.array(
                    [_hash63(c or "") for c in contents], pa.int64()
                ),
                "url": pa.array(urls, pa.string()),
            }
        )

    def emit_family(group: pa.Table) -> pa.Table:
        urls = sorted(group.column("url").to_pylist())
        if len(urls) < 2:
            return pa.table(
                {
                    "canonical_url": pa.array([], pa.string()),
                    "alias_url": pa.array([], pa.string()),
                }
            )
        return pa.table(
            {
                "canonical_url": pa.array(
                    [urls[0]] * (len(urls) - 1), pa.string()
                ),
                "alias_url": pa.array(urls[1:], pa.string()),
            }
        )

    return (
        ds.map_batches(hash_rows, batch_format="pyarrow")
        .groupby("h")
        .map_groups(emit_family, batch_format="pyarrow")
    )


def near_dup_vs_snapshot(
    ds,
    *,
    snapshot_max_id: int = 100,
    num_perm: int = 128,
    num_bands: int = 16,
    threshold: float = 0.7,
):
    """Incremental near-dup filter: MinHash-LSH pairs between NEW docs
    (``doc_id >= snapshot_max_id``, "today's crawl") and SNAPSHOT docs
    (``doc_id < snapshot_max_id``) — :func:`new_docs_vs_snapshot` lifted
    from exact-hash to near-duplicate sensitivity.

    → (new_doc, old_doc, est_jaccard) with estimate ≥ threshold: the
    :func:`signature_lsh_pairs` pairs of the signed documents that cross
    the boundary (``doc_a < snapshot_max_id <= doc_b``), renamed to
    ``new_doc = doc_b``, ``old_doc = doc_a``.  Hot band keys are
    star-sampled above ``joins.PAIR_CAP`` with its warning, as in
    :func:`minhash_lsh_pairs`' default mode; empty-text docs are dropped
    on both sides exactly as there.
    """
    pairs = signature_lsh_pairs(
        _signed(ds, num_perm), num_perm=num_perm, num_bands=num_bands, threshold=threshold
    )

    def cross(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.and_(
                pc.less(batch.column("doc_a"), snapshot_max_id),
                pc.greater_equal(batch.column("doc_b"), snapshot_max_id),
            )
        )
        return pa.table(
            {
                "new_doc": t.column("doc_b"),
                "old_doc": t.column("doc_a"),
                "est_jaccard": t.column("est_jaccard"),
            }
        )

    return pairs.map_batches(cross, batch_format="pyarrow")


def containment_pairs(
    ds, *, n: int = 3, max_doc_id: int = 200, min_containment_ppm: int = 500_000
):
    """Asymmetric n-gram containment C(src→dst) = |S(src)∩S(dst)| /
    |S(src)| — Broder's containment, the quote/subset detector the
    symmetric Jaccard misses: a short document quoted inside a long one
    scores near 1 where resemblance stays low.  Exact integer
    parts-per-million over ORDERED pairs (src != dst) of the bounded
    ``doc_id < max_doc_id`` sample — the same explicit O(sample²)
    broadcast contract as :func:`ngram_jaccard_pairs`.
    → (src_doc, dst_doc, containment_ppm)."""
    import ray
    import ray.data

    sample = ds.map_batches(
        lambda b: b.filter(pc.less(b.column("doc_id"), max_doc_id)),
        batch_format="pyarrow",
    )
    rows = sample.select_columns(["doc_id", "text"]).take_all()

    sets = {r["doc_id"]: _token_shingles(r["text"], n) for r in rows}
    sets_ref = ray.put(sets)
    ids = sorted(sets)
    pair_list = [
        {"src_doc": a, "dst_doc": b} for a in ids for b in ids if a != b
    ]

    def score(batch: pa.Table) -> pa.Table:
        table = ray.get(sets_ref)
        os_, od, op = [], [], []
        for a, b in zip(
            batch.column("src_doc").to_pylist(), batch.column("dst_doc").to_pylist()
        ):
            sa, sb = table[a], table[b]
            if not sa:
                continue
            ppm = len(sa & sb) * 1_000_000 // len(sa)
            if ppm >= min_containment_ppm:
                os_.append(a)
                od.append(b)
                op.append(ppm)
        return pa.table(
            {
                "src_doc": pa.array(os_, pa.int64()),
                "dst_doc": pa.array(od, pa.int64()),
                "containment_ppm": pa.array(op, pa.int64()),
            }
        )

    return ray.data.from_items(pair_list).map_batches(
        score, batch_format="pyarrow"
    )


# --- SpotSigs near-dup (Theobald, Siddharth, Paepcke, SIGIR 2008) ------------

SPOTSIG_ANTECEDENTS = ("the", "a")


def _spot_signatures(
    text: str, *, antecedents=SPOTSIG_ANTECEDENTS, chain: int = 2
) -> set[str]:
    """The document's spot-signature set: for every stopword-antecedent
    occurrence, the chain of the next ``chain`` non-antecedent tokens
    (anchors with fewer than ``chain`` followers are dropped).  Spot
    signatures skip boilerplate by construction — navigation and
    template text is stopword-poor, body prose is stopword-rich.

    O(n * chain): one backward pass precomputes, for every position,
    the index of the first non-antecedent token at-or-after it, so each
    anchor reads its ``chain``-token tail by pointer hops instead of
    re-scanning the remaining token list (which made stopword-dense
    100k-token docs quadratic).

    Tokenization is the explicit ASCII-whitespace class (not
    ``str.split``) so the SQL oracle's RE2 split matches bit-for-bit on
    multi-space / newline / tab text."""
    toks = [t for t in re.split(r"[ \t\n\r\f\v]+", text or "") if t]
    ante = set(antecedents)
    n = len(toks)
    # nxt[i] = smallest j >= i with toks[j] not an antecedent; n if none
    nxt = [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        nxt[i] = i if toks[i] not in ante else nxt[i + 1]
    sigs: set[str] = set()
    for i, t in enumerate(toks):
        if t in ante:
            tail = []
            j = nxt[i + 1] if i + 1 <= n else n
            while j < n and len(tail) < chain:
                tail.append(toks[j])
                j = nxt[j + 1]
            if len(tail) == chain:
                sigs.add(" ".join(tail))
    return sigs


def spotsigs_pairs(
    ds,
    *,
    antecedents=SPOTSIG_ANTECEDENTS,
    chain: int = 2,
    min_df: int = 2,
    max_df: int = 4,
    threshold_ppm: int = 500_000,
    max_candidate_docs: int = 100_000,
):
    """documents → (doc_a, doc_b, n_shared, jaccard_ppm): SpotSigs
    near-duplicate pairs — candidates are generated ONLY from RARE
    signatures (``min_df <= df <= max_df``, the paper's inverted-index
    pruning: a signature shared by half the corpus identifies nothing),
    then verified by EXACT Jaccard over each pair's FULL signature sets
    in integer ppm (``n_shared * 10^6 >= threshold * union``), so the
    SQL oracle matches bit-for-bit.

    Shape: one stateless signature pass (light (sig63, doc) rows +
    per-doc set sizes) → ONE groupby on the signature-hash bucket with a
    vectorized per-bucket resolve (lexsort + run boundaries; runs
    outside the df window are dropped BEFORE pair expansion; expansion
    is the cocitation repeat/offset arithmetic) → Sum groupby on packed
    pair keys → verify: the candidate docs' full signature rows
    self-join per bucket (bounded by ``max_candidate_docs``, enforced
    LOUDLY) → sizes attach → integer Jaccard filter.
    """
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from .cleaning import _hash63_cached
    from .joins import SHUFFLE_BUCKETS, _bucket_of

    def sig_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        # pairs are packed (a << 32) | b — ids outside [0, 2^32) would
        # silently merge unrelated pairs, so reject them loudly (same
        # convention as the max_out_degree/max_candidate_docs bounds)
        for d in ids:
            if not 0 <= int(d) < (1 << 32):
                raise ValueError(
                    f"spotsigs_pairs: doc_id {d} outside [0, 2^32) — "
                    "packed pair keys require 32-bit non-negative ids"
                )
        out_d, out_h = [], []
        sizes_d, sizes_n = [], []
        for d, t in zip(ids, texts):
            sigs = _spot_signatures(t, antecedents=antecedents, chain=chain)
            sizes_d.append(d)
            sizes_n.append(len(sigs))
            for sg in sigs:
                out_d.append(d)
                out_h.append(_hash63_cached(sg))
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "sig": pa.array(out_h, pa.int64()),
            }
        )

    def size_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "sdoc": pa.array(ids, pa.int64()),
                "sz": pa.array(
                    [
                        len(
                            _spot_signatures(
                                t, antecedents=antecedents, chain=chain
                            )
                        )
                        for t in texts
                    ],
                    pa.int64(),
                ),
            }
        )

    base = ds.select_columns(["doc_id", "text"]).materialize()
    rows = (
        base.map_batches(sig_rows, batch_format="pyarrow")
        .map_batches(
            lambda b: b.append_column(
                "bkt", _bucket_of(b.column("sig"), SHUFFLE_BUCKETS)
            ),
            batch_format="pyarrow",
        )
        .materialize()  # consumed by candidates AND verify below
    )

    def expand_rare(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"pair": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
        )
        if group.num_rows == 0:
            return empty
        sig = np.asarray(group.column("sig"), dtype=np.int64)
        doc = np.asarray(group.column("doc_id"), dtype=np.int64)
        order = np.lexsort((doc, sig))
        sig, doc = sig[order], doc[order]
        starts = np.flatnonzero(np.r_[True, sig[1:] != sig[:-1]])
        lens = np.diff(np.r_[starts, len(sig)])
        keep = (lens >= min_df) & (lens <= max_df)
        pairs = []
        for s0, ln in zip(starts[keep], lens[keep]):
            d = doc[s0 : s0 + ln]
            ai, bi = np.triu_indices(ln, k=1)
            pairs.append((d[ai].astype(np.int64) << 32) | d[bi])
        if not pairs:
            return empty
        packed = np.concatenate(pairs)
        uniq, counts = np.unique(packed, return_counts=True)
        return pa.table(
            {
                "pair": pa.array(uniq, pa.int64()),
                "n": pa.array(np.ones(len(uniq), dtype=np.int64)),
            }
        )

    candidates = (
        rows.groupby("bkt")
        .map_groups(expand_rare, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("n"))
        .map_batches(
            lambda b: pa.table({"pair": b.column("pair")}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    pair_keys = set()
    cand_docs = set()
    for row in candidates.take_all():  # bounded: rare-sig pairs only
        p = int(row["pair"])
        pair_keys.add(p)
        cand_docs.add(p >> 32)
        cand_docs.add(p & 0xFFFFFFFF)
    if len(cand_docs) > max_candidate_docs:
        raise ValueError(
            f"spotsigs_pairs: {len(cand_docs)} candidate docs exceed the "
            f"max_candidate_docs={max_candidate_docs} bound — raise the "
            "bound or tighten min_df/max_df"
        )
    cand_ref = ray.put(cand_docs)
    pair_ref = ray.put(pair_keys)

    # verify: full signature rows of candidate docs, self-joined per
    # bucket — exact shared-signature counts over the FULL sets
    def filter_cand(b: pa.Table) -> pa.Table:
        cd = ray.get(cand_ref)
        mask = pa.array(
            [int(x) in cd for x in b.column("doc_id").to_pylist()]
        )
        return b.filter(mask)

    def full_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {"pair": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
        )
        if group.num_rows == 0:
            return empty
        pk = ray.get(pair_ref)
        sig = np.asarray(group.column("sig"), dtype=np.int64)
        doc = np.asarray(group.column("doc_id"), dtype=np.int64)
        order = np.lexsort((doc, sig))
        sig, doc = sig[order], doc[order]
        starts = np.flatnonzero(np.r_[True, sig[1:] != sig[:-1]])
        lens = np.diff(np.r_[starts, len(sig)])
        pairs = []
        for s0, ln in zip(starts, lens):
            if ln < 2:
                continue
            d = doc[s0 : s0 + ln]
            ai, bi = np.triu_indices(ln, k=1)
            pairs.append((d[ai].astype(np.int64) << 32) | d[bi])
        if not pairs:
            return empty
        packed = np.concatenate(pairs)
        packed = packed[np.isin(packed, np.fromiter(pk, np.int64))] if pk else packed[:0]
        if len(packed) == 0:
            return empty
        uniq, counts = np.unique(packed, return_counts=True)
        return pa.table(
            {
                "pair": pa.array(uniq, pa.int64()),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    shared = (
        rows.map_batches(filter_cand, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(full_pairs, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("n"))
    )

    def filter_cand_sizes(b: pa.Table) -> pa.Table:
        cd = ray.get(cand_ref)
        mask = pa.array([int(x) in cd for x in b.column("sdoc").to_pylist()])
        return b.filter(mask)

    sizes = {
        int(r["sdoc"]): int(r["sz"])
        for r in base.map_batches(size_rows, batch_format="pyarrow")
        .map_batches(filter_cand_sizes, batch_format="pyarrow")
        .take_all()
    }  # ≤ candidate docs — bounded above
    size_ref = ray.put(sizes)

    def finalize(b: pa.Table) -> pa.Table:
        sz = ray.get(size_ref)
        pair = np.asarray(b.column("pair"), dtype=np.int64)
        n = np.asarray(b.column("sum(n)"), dtype=np.int64)
        da = pair >> 32
        db = pair & 0xFFFFFFFF
        union = np.array(
            [sz[int(a)] + sz[int(x)] for a, x in zip(da, db)], dtype=np.int64
        ) - n
        keep = n * 1_000_000 >= threshold_ppm * union
        jac = np.zeros(len(n), dtype=np.int64)
        nz = union > 0
        jac[nz] = (n[nz] * 1_000_000) // union[nz]
        t = pa.table(
            {
                "doc_a": pa.array(da, pa.int64()),
                "doc_b": pa.array(db, pa.int64()),
                "n_shared": pa.array(n, pa.int64()),
                "jaccard_ppm": pa.array(jac, pa.int64()),
            }
        )
        return t.filter(pa.array(keep))

    return shared.map_batches(finalize, batch_format="pyarrow")
