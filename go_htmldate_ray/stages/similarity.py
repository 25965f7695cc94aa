"""Similarity search over embedding columns.

- ``brute_force_topk``: baseline exact cosine top-k — a numpy matmul per
  batch against a broadcast query matrix (``ray.put`` once, read per task),
  partial top-k inside each batch, then one tiny groupby to merge partials.
  This is the canonical scale shape: the corpus streams, only
  ``n_queries × k × n_blocks`` candidate rows ever shuffle.
- ``lsh_topk``: random-hyperplane LSH variant — the scale path that
  restricts scoring to colliding buckets (multi-probe over Hamming-1
  neighbors of the query bucket).
- ``embedding_dup_pairs``: EXACT all-pairs cosine ≥ threshold in
  distributed block-pair form — the driver holds only block references,
  every chunk×chunk tile is scored by its own task.  Exact all-pairs is
  inherently O(N²) compute, so this is the *oracle baseline*; the 100 TB
  path is :func:`embedding_dup_pairs_lsh`.
- ``embedding_dup_pairs_lsh``: banded hyperplane-LSH near-dup pairs —
  the unit-norm vectors go to ``dedup.banded_lsh_pairs``, the pair
  operator the MinHash queries share: light (band key, vec_id) rows
  through the only shuffle, candidate pairs from bucket groups (hot
  buckets star-sampled, never silently dropped), exact cosine
  verification via two lookup-joins back to the vectors; below
  ``light_table``'s budget, one numpy pass on the driver instead.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)


def _list_matrix(col: pa.ChunkedArray | pa.Array, dtype=np.float64) -> np.ndarray:
    """(n, dim) matrix from a list<float>/fixed_size_list column without a
    per-row Python loop (values buffer → reshape)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    vals = col.flatten().to_numpy(zero_copy_only=False).astype(dtype, copy=False)
    return vals.reshape(n, -1)


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    """``mat`` with each row scaled to unit L2 norm (zero rows stay zero)."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _normalize_batch(batch: pa.Table) -> pa.Table:
    """(vec_id, embedding) → (vec_id, embedding) with unit-norm float64
    list embeddings.  Variable list (not fixed-size) so empty blocks
    carry the SAME type as populated ones — a fixed_size_list would need
    a width an empty batch can't know, splitting the dataset schema."""
    mat = _unit_rows(_list_matrix(batch.column("embedding")))
    offsets = pa.array(np.arange(batch.num_rows + 1, dtype=np.int32) * mat.shape[1])
    emb = pa.ListArray.from_arrays(
        offsets, pa.array(mat.ravel(), pa.float64())
    )
    return pa.table({"vec_id": batch.column("vec_id"), "embedding": emb})


def _query_matrix(ds, query_ids: list[int]):
    id_set = pa.array(sorted(set(query_ids)), pa.int64())
    rows = (
        ds.map_batches(
            lambda b: b.filter(pc.is_in(b.column("vec_id"), value_set=id_set)),
            batch_format="pyarrow",
        )
        .select_columns(["vec_id", "embedding"])
        .take_all()  # small side by construction: len(query_ids) rows
    )
    rows.sort(key=lambda r: r["vec_id"])
    ids = [r["vec_id"] for r in rows]
    mat = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return ids, mat


def _partial_topk_batch(batch: pa.Table, qids, qmat_ref, k: int) -> pa.Table:
    import ray

    qmat = ray.get(qmat_ref) if not isinstance(qmat_ref, np.ndarray) else qmat_ref
    vec_ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
    emb = _unit_rows(_list_matrix(batch.column("embedding")))

    cos = qmat @ emb.T  # (n_queries, batch)
    out_q, out_n, out_c = [], [], []
    for qi, qid in enumerate(qids):
        row = cos[qi]
        mask = vec_ids != qid
        cand_ids = vec_ids[mask]
        cand_cos = row[mask]
        if len(cand_ids) > k:
            sel = np.argpartition(-cand_cos, k)[:k]
            cand_ids, cand_cos = cand_ids[sel], cand_cos[sel]
        out_q.extend([qid] * len(cand_ids))
        out_n.extend(cand_ids.tolist())
        out_c.extend(cand_cos.tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "cosine": pa.array(out_c, pa.float64()),
        }
    )


def _merge_topk(group: pa.Table, k: int) -> pa.Table:
    qid = group.column("query_id")[0].as_py()
    n = group.column("neighbor_id").to_pylist()
    c = group.column("cosine").to_pylist()
    order = sorted(range(len(n)), key=lambda i: (-c[i], n[i]))[:k]
    return pa.table(
        {
            "query_id": pa.array([qid] * len(order), pa.int64()),
            "neighbor_id": pa.array([n[i] for i in order], pa.int64()),
            "rank": pa.array(range(1, len(order) + 1), pa.int64()),
        }
    )


def brute_force_topk(ds, query_ids: list[int], k: int = 5):
    """embeddings → (query_id, neighbor_id, rank): exact cosine top-k."""
    import ray

    qids, qmat = _query_matrix(ds, query_ids)
    qmat_ref = ray.put(qmat)
    partials = ds.map_batches(
        lambda b: _partial_topk_batch(b, qids, qmat_ref, k),
        batch_format="pyarrow",
        batch_size=1024,
    )
    return partials.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


# --- LSH top-k ---------------------------------------------------------------

def lsh_topk(ds, query_ids: list[int], k: int = 5, n_planes: int = 12):
    """Approximate cosine top-k: score only rows whose LSH bucket is within
    Hamming distance 1 of the query's bucket (multi-probe).  The bucket
    is the one band of a ``BandedHasher(n_bands=1,
    planes_per_band=n_planes)``."""
    import ray

    qids, qmat = _query_matrix(ds, query_ids)
    dim = qmat.shape[1]
    q_buckets = _cached_banded_hasher(1, n_planes, dim).buckets(qmat)[:, 0]
    probe_sets = []
    for b in q_buckets:
        probes = {int(b)}
        probes.update(int(b) ^ (1 << p) for p in range(n_planes))
        probe_sets.append(probes)
    wanted = pa.array(sorted(set().union(*probe_sets)), pa.int64())

    def bucket_and_filter(b: pa.Table) -> pa.Table:
        # Task-pool stage: plane state is seed-deterministic and cheap,
        # rebuilt once per worker process via the module cache.
        emb = _list_matrix(b.column("embedding"))
        bucket = _cached_banded_hasher(1, n_planes, dim).buckets(emb)[:, 0]
        return b.filter(pc.is_in(pa.array(bucket, pa.int64()), value_set=wanted))

    bucketed = ds.map_batches(bucket_and_filter, batch_format="pyarrow")

    qmat_ref = ray.put(qmat)
    partials = bucketed.map_batches(
        lambda b: _partial_topk_batch(b, qids, qmat_ref, k),
        batch_format="pyarrow",
        batch_size=1024,
    )
    return partials.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


# --- exact all-pairs near-dup (oracle baseline) ------------------------------

_CHUNK_ROWS = 4096  # embedding_dup_pairs' rows per chunk


def embedding_dup_pairs(ds, *, threshold: float = 0.4):
    """Embedding-cosine near-duplicate pairs: (vec_a, vec_b, cosine) for all
    pairs with cosine ≥ threshold, vec_a < vec_b — EXACT, in distributed
    block-pair form.

    Pass 1 streams the (vec_id, unit-norm embedding) projection into
    object-store blocks of ~``_CHUNK_ROWS`` rows; the driver keeps only the
    block *references* (``to_arrow_refs`` — no ``ray.get``, no
    ``take_all``).  Pass 2 fans one task out per block pair (i ≤ j); each
    task pulls exactly two blocks zero-copy from the object store, matmuls
    the tile, and emits only its above-threshold pairs.

    Exact all-pairs is inherently O(N²) score compute — that is the
    semantics the DuckDB oracle checks.  At corpus scale use
    :func:`embedding_dup_pairs_lsh`, which prunes the tile space with
    banded hyperplane LSH and verifies candidates exactly.
    """
    import ray
    import ray.data

    n = ds.count()
    n_chunks = max(1, -(-n // _CHUNK_ROWS))
    norm = (
        ds.select_columns(["vec_id", "embedding"])
        .map_batches(_normalize_batch, batch_format="pyarrow")
        .repartition(n_chunks)
    )
    refs = norm.to_arrow_refs()  # block refs only; blocks stay in the store
    refs_handle = ray.put(refs)

    tiles = ray.data.from_items(
        [
            {"ci": i, "cj": j}
            for i in range(len(refs))
            for j in range(i, len(refs))
        ]
    )

    def score_tile(batch: pa.Table) -> pa.Table:
        all_refs = ray.get(refs_handle)
        oa, ob, oc = [], [], []
        for ci, cj in zip(
            batch.column("ci").to_pylist(), batch.column("cj").to_pylist()
        ):
            ta = ray.get(all_refs[ci])
            ids_a = np.asarray(ta.column("vec_id").to_pylist(), dtype=np.int64)
            mat_a = _list_matrix(ta.column("embedding"))
            if ci == cj:
                ids_b, mat_b = ids_a, mat_a
            else:
                tb = ray.get(all_refs[cj])
                ids_b = np.asarray(tb.column("vec_id").to_pylist(), dtype=np.int64)
                mat_b = _list_matrix(tb.column("embedding"))
            if not mat_a.size or not mat_b.size:
                continue
            cos = mat_a @ mat_b.T
            ii, jj = np.nonzero(cos >= threshold)
            for i, j in zip(ii, jj):
                a, b = int(ids_a[i]), int(ids_b[j])
                if ci == cj:
                    # diagonal tile: every unordered pair appears in both
                    # orders (plus the self pair) — keep one orientation
                    if a >= b:
                        continue
                else:
                    # cross tile: each unordered pair appears exactly once;
                    # ids may straddle chunk order, so orient explicitly
                    if a == b:
                        continue
                    if a > b:
                        a, b = b, a
                oa.append(a)
                ob.append(b)
                oc.append(round(float(cos[i, j]), 6))
        return pa.table(
            {
                "vec_a": pa.array(oa, pa.int64()),
                "vec_b": pa.array(ob, pa.int64()),
                "cosine": pa.array(oc, pa.float64()),
            }
        )

    return tiles.map_batches(score_tile, batch_format="pyarrow", batch_size=4)


# --- banded-LSH near-dup pairs (the 100 TB path) -----------------------------

class BandedHasher:
    """Banded random-hyperplane bucketing: one bucket key per vector and
    band from ``n_bands × planes_per_band`` planes, drawn from a fixed
    seed on first use (dim taken from the first matrix, so the driver
    never peeks at the data)."""

    def __init__(self, n_bands: int = 16, planes_per_band: int = 8, seed: int = 42):
        self.n_bands = n_bands
        self.r = planes_per_band
        self.seed = seed
        self.planes: np.ndarray | None = None

    def buckets(self, mat: np.ndarray) -> np.ndarray:
        """(n, n_bands) int64 bucket keys of an (n, dim) matrix, unique
        per band."""
        # No renormalization: hyperplane sign hashing is scale-invariant.
        if self.planes is None or self.planes.shape[1] != mat.shape[1]:
            rng = np.random.RandomState(self.seed)
            self.planes = rng.standard_normal((self.n_bands * self.r, mat.shape[1]))
        signs = (mat @ self.planes.T) > 0  # (n, n_bands*r)
        n = signs.shape[0]
        bits = signs.reshape(n, self.n_bands, self.r)
        weights = 1 << np.arange(self.r)
        codes = (bits * weights).sum(axis=2).astype(np.int64)  # (n, n_bands)
        band_idx = np.arange(self.n_bands, dtype=np.int64)
        return (band_idx[None, :] << self.r) | codes


_BANDED_CACHE: dict[tuple, "BandedHasher"] = {}


def _cached_banded_hasher(n_bands: int, planes_per_band: int, dim: int) -> "BandedHasher":
    # dim is part of the key: planes are dimension-bound and must not be
    # reused across embedding tables of different width.
    key = (n_bands, planes_per_band, dim)
    h = _BANDED_CACHE.get(key)
    if h is None:
        h = _BANDED_CACHE[key] = BandedHasher(
            n_bands=n_bands, planes_per_band=planes_per_band
        )
    return h


def embedding_dup_pairs_lsh(
    ds,
    *,
    threshold: float = 0.9,
    n_bands: int = 16,
    planes_per_band: int = 8,
    hot_buckets: str = "sample",
):
    """Banded hyperplane-LSH near-duplicate pairs with exact verification —
    the sub-quadratic scale path for high-similarity thresholds.

    Shape: one map normalizes and packs the vectors, then
    :func:`~go_htmldate_ray.stages.dedup.banded_lsh_pairs` bands them
    with :class:`BandedHasher` and scores candidates by their dot
    product: light (bucket, vec_id) rows → one bucket-key shuffle →
    candidate pairs per bucket (hot buckets star-sampled + logged) →
    pair dedup → two lookup-joins back to the unit-norm vectors → exact
    cosine filter, or one numpy pass on the driver while the packed
    table fits :func:`~go_htmldate_ray.stages.blocks.light_table`'s
    budget.  Only candidate pairs (≪ N²) are ever scored.  The kept
    cosines are rounded to 6 places after the threshold test.

    Recall for a pair at cosine c is 1-(1-p^r)^b with p = 1-arccos(c)/π:
    the defaults (r=8, b=16) give ≈0.996 at c=0.9 — pick the banding for
    the threshold; thresholds near 0.4 need the exact tile scorer
    (:func:`embedding_dup_pairs`).

    ``hot_buckets``: "sample" (default) star-samples buckets above
    ``joins.PAIR_CAP`` with a warning; "error" raises instead — used by
    oracle runs so a divergence from the exact-enumeration SQL surfaces
    loudly rather than as a hash mismatch.
    """
    from .dedup import _pack_rows, banded_lsh_pairs

    def unit_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch.column("vec_id"),
                "payload": _pack_rows(_unit_rows(_list_matrix(batch.column("embedding")))),
            }
        )

    # the unit-norm vectors as raw float64 bytes: banded, gathered or
    # looked up by the pair operator
    rows = ds.select_columns(["vec_id", "embedding"]).map_batches(
        unit_rows, batch_format="pyarrow"
    )
    return banded_lsh_pairs(
        rows,
        np.float64,
        lambda mat: _cached_banded_hasher(n_bands, planes_per_band, mat.shape[1]).buckets(mat),
        lambda ma, mb: (ma * mb).sum(axis=1),
        threshold,
        ("vec_a", "vec_b", "cosine"),
        "embedding",
        hot_buckets == "error",
        digits=6,
    )


# --- k-NN graph construction --------------------------------------------------

def knn_graph(
    ds,
    *,
    k: int = 3,
    n_bands: int = 8,
    planes_per_band: int = 6,
    hot_buckets: str = "sample",
):
    """Corpus→corpus approximate k-NN graph: (vec_id, neighbor_id, rank)
    — every vector's top-``k`` LSH-candidate neighbors by (cosine desc,
    neighbor asc).  The seed step of graph-based dedup clustering and
    NN-descent-style index builds.

    Shape: reuses :func:`embedding_dup_pairs_lsh` with ``threshold=-1``
    (k-NN needs every candidate pair scored, not a similarity cut), then
    symmetric expansion to directional edges and one HASH-BUCKETED
    groupby with a vectorized per-vector lexsort rank inside each bucket
    (never one Python group per vec_id) — light (qid, nid, cosine)
    triples only; no stage ever holds the embedding table.  Ranking uses the rounded
    (6 dp) cosine with neighbor-id tie-break so the SQL oracle's
    row_number() reproduces it exactly.  Neighbor lists are LSH-candidate
    top-k, NOT exact top-k — recall rises with n_bands like the dup-pair
    banding math."""
    pairs = embedding_dup_pairs_lsh(
        ds,
        threshold=-1.0,
        n_bands=n_bands,
        planes_per_band=planes_per_band,
        hot_buckets=hot_buckets,
    )

    def expand(batch: pa.Table) -> pa.Table:
        a = batch.column("vec_a")
        b = batch.column("vec_b")
        c = batch.column("cosine")
        return pa.table(
            {
                "vec_id": pa.concat_arrays(
                    [a.combine_chunks(), b.combine_chunks()]
                ),
                "neighbor_id": pa.concat_arrays(
                    [b.combine_chunks(), a.combine_chunks()]
                ),
                "cosine": pa.concat_arrays(
                    [c.combine_chunks(), c.combine_chunks()]
                ),
            }
        )

    # Per-key groups would mean one Python callback per vec_id (billions
    # of tiny groups at corpus scale) — group on a hash bucket instead
    # and rank every vector inside the bucket with one vectorized
    # lexsort (the sampling.cap_per_group shape).
    def bucket(batch: pa.Table) -> pa.Table:
        from .joins import SHUFFLE_BUCKETS, _bucket_of

        return batch.append_column(
            "__bkt", _bucket_of(batch.column("vec_id"), SHUFFLE_BUCKETS)
        )

    def topk_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        vid = np.asarray(group.column("vec_id"), dtype=np.int64)
        nid = np.asarray(group.column("neighbor_id"), dtype=np.int64)
        cos = np.asarray(group.column("cosine"), dtype=np.float64)
        order = np.lexsort((nid, -cos, vid))
        v_s = vid[order]
        starts = np.flatnonzero(np.r_[True, v_s[1:] != v_s[:-1]])
        rank = np.arange(len(v_s)) - np.repeat(
            starts, np.diff(np.r_[starts, len(v_s)])
        )
        keep = rank < k
        sel = order[keep]
        return pa.table(
            {
                "vec_id": pa.array(vid[sel], pa.int64()),
                "neighbor_id": pa.array(nid[sel], pa.int64()),
                "rank": pa.array(rank[keep] + 1, pa.int64()),
            }
        )

    return (
        pairs.map_batches(expand, batch_format="pyarrow")
        .map_batches(bucket, batch_format="pyarrow")
        .groupby("__bkt")
        .map_groups(topk_bucket, batch_format="pyarrow")
    )


# --- IVF (inverted-file) ANN -------------------------------------------------

def kmeans_centroids(mat: np.ndarray, n_centroids: int, iters: int = 5) -> np.ndarray:
    """Deterministic Lloyd's k-means (fixed-seed init, cosine assignment)
    over a sample matrix — a pure function of (sample, n_centroids), so
    the DuckDB oracle can recompute the exact centroid literals from the
    same sample rows."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat = mat / norms
    rng = np.random.RandomState(42)
    centroids = mat[rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)]
    for _ in range(iters):
        assign = (mat @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    centroids[c] = v / nv
    return centroids


def _ivf_centroids(ds, n_centroids: int, sample_rows: int = 2048, iters: int = 5):
    """Deterministic k-means over a bounded id-range sample (driver-side
    small side: ≤ sample_rows vectors).  Fixed seed init + vec_id-sorted
    sample → identical centroids on every run and every worker."""
    import pyarrow.compute as pc

    sample = (
        ds.map_batches(
            lambda b: b.filter(pc.less(b.column("vec_id"), sample_rows)),
            batch_format="pyarrow",
        )
        .select_columns(["vec_id", "embedding"])
        .take_all()
    )
    if not sample:
        # vec_ids sparse or offset (e.g. a shard holding ids ≥ sample_rows):
        # fall back to the first blocks, still deterministic for a given
        # dataset layout.
        sample = ds.select_columns(["vec_id", "embedding"]).limit(sample_rows).take_all()
    if not sample:
        raise ValueError("ivf_topk: embeddings dataset is empty")
    # take_all() order follows streaming-executor block completion, which
    # is NOT deterministic — sort by vec_id so the k-means init (and thus
    # every centroid) is a pure function of the data + seed.
    sample.sort(key=lambda r: r["vec_id"])
    mat = np.asarray([r["embedding"] for r in sample], dtype=np.float64)
    return kmeans_centroids(mat, n_centroids, iters)


def ivf_topk(
    ds,
    query_ids: list[int],
    k: int = 5,
    *,
    n_centroids: int = 16,
    n_probe: int = 4,
):
    """IVF-bucketed approximate cosine top-k — the inverted-file scale
    path: vectors partition by nearest centroid (one assignment matmul
    per batch against the broadcast centroid matrix), each query scores
    only the ``n_probe`` closest cells.  ``n_probe == n_centroids``
    degenerates to exact search (the configuration the driver oracle
    verifies); the recall/probe tradeoff is covered by pytest."""
    import ray

    qids, qmat = _query_matrix(ds, query_ids)
    centroids = _ivf_centroids(ds, n_centroids)
    q_cells = np.argsort(-(qmat @ centroids.T), axis=1)[:, :n_probe]
    probed = pa.array(sorted({int(c) for row in q_cells for c in row}), pa.int64())
    cent_ref = ray.put(centroids)

    def assign_and_filter(batch: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        mat = _list_matrix(batch.column("embedding"))
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cells = ((mat / norms) @ cents.T).argmax(axis=1).astype(np.int64)
        out = batch.append_column("cell", pa.array(cells, pa.int64()))
        return out.filter(pc.is_in(out.column("cell"), value_set=probed))

    qmat_ref = ray.put(qmat)
    partials = ds.map_batches(assign_and_filter, batch_format="pyarrow").map_batches(
        lambda b: _partial_topk_batch(b, qids, qmat_ref, k),
        batch_format="pyarrow",
        batch_size=1024,
    )
    return partials.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


# --- distributed k-means ------------------------------------------------------


def _lloyd_step(ds, cents: np.ndarray, round_decimals: int) -> np.ndarray:
    """One distributed Lloyd iteration: per-batch partial (cell, count,
    vector-sum) rows — K x n_blocks tiny rows to the driver, never the
    vectors — combined into mean -> renormalize -> round.  Rounding to a
    fixed decimal grid makes the refined centroids reproducible across
    summation orders (engine block order vs the SQL oracle's scan order).
    Empty cells keep their previous centroid."""
    import ray

    k, dim = cents.shape
    cent_ref = ray.put(cents)

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        mat = _list_matrix(batch.column("embedding"))
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = mat / norms
        # assign on RAW vectors (norm-invariant in exact math) so the
        # arithmetic matches the SQL oracle's list_inner_product(v.e, cv)
        # bit-for-bit at the ulp level; only the mean uses unit vectors
        assign = (mat @ c.T).argmax(axis=1)
        cells, counts, sums = [], [], []
        for cell in np.unique(assign):
            members = unit[assign == cell]
            cells.append(int(cell))
            counts.append(len(members))
            sums.append(members.sum(axis=0).tobytes())
        return pa.table(
            {
                "cell": pa.array(cells, pa.int64()),
                "cnt": pa.array(counts, pa.int64()),
                "vsum": pa.array(sums, pa.binary()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    new = cents.copy()
    acc = np.zeros((k, dim), dtype=np.float64)
    n = np.zeros(k, dtype=np.int64)
    # total-order sort key: take_all block order is nondeterministic, and
    # float addition is order-sensitive — (cell, cnt, bytes) makes the
    # combine bit-reproducible run to run
    for r in sorted(rows, key=lambda r: (r["cell"], r["cnt"], r["vsum"])):
        acc[r["cell"]] += np.frombuffer(r["vsum"], dtype=np.float64)
        n[r["cell"]] += r["cnt"]
    for c in range(k):
        if n[c]:
            v = acc[c] / n[c]
            nv = np.linalg.norm(v)
            if nv > 0:
                new[c] = v / nv
    return np.round(new, round_decimals)


def _refined_centroids(
    ds, n_clusters: int, refine_iters: int, sample_rows: int, round_decimals: int
) -> np.ndarray:
    """Shared centroid trainer for :func:`kmeans_assign` and
    :func:`semdedup`: deterministic bounded-sample init + distributed
    Lloyd steps, rounded to the fixed grid the SQL replays — one code
    path so the two operators (and their oracles) cannot drift."""
    cents = np.round(_ivf_centroids(ds, n_clusters, sample_rows), round_decimals)
    for _ in range(refine_iters):
        cents = _lloyd_step(ds, cents, round_decimals)
    return cents


def kmeans_assign(
    ds,
    *,
    n_clusters: int = 8,
    refine_iters: int = 2,
    sample_rows: int = 2048,
    round_decimals: int = 6,
):
    """embeddings → (vec_id, cluster): spherical k-means over the full
    dataset.  Init = the deterministic bounded-sample centroids (the IVF
    shared-constant pattern), then ``refine_iters`` distributed Lloyd
    iterations (:func:`_lloyd_step` — partial sums per batch, a K-row
    combine on the driver, full data never materialized), then one
    assignment pass.  Assignment is argmax centroid dot product (ties →
    lowest cluster id), norm-invariant, so the SQL oracle can replay
    every iteration from the literal init centroids."""
    import ray

    cents = _refined_centroids(ds, n_clusters, refine_iters, sample_rows, round_decimals)
    cent_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        mat = _list_matrix(batch.column("embedding"))
        cells = (mat @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cluster": pa.array(cells, pa.int64()),
            }
        )

    return ds.select_columns(["vec_id", "embedding"]).map_batches(
        assign, batch_format="pyarrow"
    )


# --- product quantization (PQ) -----------------------------------------------


def _l2_kmeans(mat: np.ndarray, n_codes: int, iters: int = 5) -> np.ndarray:
    """Deterministic Euclidean Lloyd's over a sub-vector sample (fixed
    seed, argmin ties → lowest code) — the per-subspace PQ trainer."""
    rng = np.random.RandomState(7)
    cents = mat[rng.choice(len(mat), size=min(n_codes, len(mat)), replace=False)].copy()
    for _ in range(iters):
        d2 = ((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for c in range(len(cents)):
            members = mat[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return cents


def pq_codebooks(
    ds, *, m: int = 4, n_codes: int = 16, sample_rows: int = 2048, iters: int = 5
) -> np.ndarray:
    """Train PQ codebooks (Jégou et al., TPAMI 2011): the bounded
    vec_id-sorted sample (the IVF sampling discipline) is L2-normalized,
    split into ``m`` contiguous subspaces, and each subspace gets its
    own deterministic k-means codebook → array (m, n_codes, dim/m).
    Pure function of (data, seed): the SQL oracle reuses the trained
    books as literals, like the IVF centroid pattern."""
    sample = (
        ds.map_batches(
            lambda b: b.filter(pc.less(b.column("vec_id"), sample_rows)),
            batch_format="pyarrow",
        )
        .select_columns(["vec_id", "embedding"])
        .take_all()
    )
    if not sample:
        sample = ds.select_columns(["vec_id", "embedding"]).limit(sample_rows).take_all()
    if not sample:
        raise ValueError("pq_codebooks: embeddings dataset is empty")
    sample.sort(key=lambda r: r["vec_id"])
    mat = np.asarray([r["embedding"] for r in sample], dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat /= norms
    dim = mat.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    return np.stack(
        [_l2_kmeans(mat[:, s * dsub : (s + 1) * dsub], n_codes, iters) for s in range(m)]
    )


def _pq_encode(emb: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Normalized vectors → (n, m) code matrix (argmin L2 per subspace,
    ties → lowest code)."""
    m, n_codes, dsub = books.shape
    codes = np.empty((len(emb), m), dtype=np.int64)
    for s in range(m):
        xs = emb[:, s * dsub : (s + 1) * dsub]
        d2 = (
            (xs * xs).sum(axis=1, keepdims=True)
            - 2.0 * (xs @ books[s].T)
            + (books[s] * books[s]).sum(axis=1)[None, :]
        )
        codes[:, s] = d2.argmin(axis=1)
    return codes


def pq_topk(ds, query_ids: list[int], k: int = 5, *, m: int = 4, n_codes: int = 16):
    """PQ-compressed approximate cosine top-k (asymmetric distance
    computation): each vector is stored as ``m`` sub-codes; a query
    scores a candidate as the sum of per-subspace ``q_s · codebook``
    lookup-table entries — the memory-bound scan reads m bytes per
    vector instead of the full float row.

    Scores round to 9 decimals before ranking (identical-code vectors
    tie exactly; sub-nano float-order noise collapses into the
    vec_id tie-break), making the ranking SQL-recomputable from the
    trained codebook literals.  Exact-recall behavior is covered by
    pytest against brute force."""
    import ray

    qids, qmat = _query_matrix(ds, query_ids)
    books = pq_codebooks(ds, m=m, n_codes=n_codes)
    mm, _, dsub = books.shape
    # per-query lookup tables: luts[q, s, code] = q_s · books[s, code]
    luts = np.stack(
        [qmat[:, s * dsub : (s + 1) * dsub] @ books[s].T for s in range(mm)], axis=1
    )
    ref = ray.put((books, luts))

    def encode_and_score(batch: pa.Table) -> pa.Table:
        books_l, luts_l = ray.get(ref)
        vec_ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        emb = _list_matrix(batch.column("embedding"))
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        codes = _pq_encode(emb / norms, books_l)
        out_q, out_n, out_c = [], [], []
        for qi, qid in enumerate(qids):
            # fixed s-order accumulation (matches the oracle's rounding)
            score = np.zeros(len(vec_ids))
            for s in range(books_l.shape[0]):
                score = score + luts_l[qi, s][codes[:, s]]
            score = np.round(score, 9)
            mask = vec_ids != qid
            cand_ids, cand_s = vec_ids[mask], score[mask]
            if len(cand_ids) > k:
                # quantized scores tie OFTEN (same code = same score):
                # the k-boundary cut must tie-break by id deterministically
                # or the partial drops different tied candidates than the
                # oracle's ORDER BY score DESC, id ASC
                sel = np.lexsort((cand_ids, -cand_s))[:k]
                cand_ids, cand_s = cand_ids[sel], cand_s[sel]
            out_q.extend([qid] * len(cand_ids))
            out_n.extend(cand_ids.tolist())
            out_c.extend(cand_s.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )

    partials = ds.map_batches(encode_and_score, batch_format="pyarrow", batch_size=1024)
    return partials.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


# --- SemDeDup: semantic deduplication within k-means clusters ----------------


_TILE_ROWS, _TILE_COLS = 8192, 2048  # semdedup's similarity tile


def semdedup(
    ds,
    *,
    n_clusters: int = 8,
    threshold: float = 0.5,
    refine_iters: int = 2,
    sample_rows: int = 2048,
    round_decimals: int = 6,
):
    """SemDeDup (Abbas et al. 2023): semantic deduplication by clustering
    embeddings with spherical k-means, then dropping every cluster member
    whose cosine similarity to ANY earlier member (vec_id order) of the
    same cluster reaches ``threshold`` — the paper's released keep rule
    (column-max over the strict upper triangle of the per-cluster
    similarity matrix), with the paper's centroid-distance ordering
    replaced by vec_id order so the result is a pure function of the
    data and the DuckDB oracle can replay it exactly.

    embeddings → (vec_id, cluster, keep 0/1), one row per input vector.

    Scale shape: centroids are the deterministic bounded-sample init plus
    ``refine_iters`` distributed Lloyd steps (:func:`_lloyd_step` — K-row
    partials to the driver, vectors never materialized), assignment is
    one broadcast matmul pass, and the within-cluster quadratic pass runs
    per cluster under ``groupby("cluster").map_groups`` with a
    ``_TILE_ROWS × _TILE_COLS`` similarity tiling so no m×m matrix is ever
    allocated.  The O(m²) score count per cluster is the algorithm's
    semantics; at corpus scale the knob is ``n_clusters`` ∝ N (the paper
    uses 110k clusters) so cluster sizes stay bounded — a cluster must
    fit one worker's heap, which is the same partitioning assumption the
    paper's per-cluster GPU pass makes.
    """
    import ray

    cents = _refined_centroids(ds, n_clusters, refine_iters, sample_rows, round_decimals)
    cent_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        mat = _list_matrix(batch.column("embedding"))
        cells = (mat @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cluster": pa.array(cells, pa.int64()),
                "embedding": batch.column("embedding"),
            }
        )

    assigned = ds.select_columns(["vec_id", "embedding"]).map_batches(
        assign, batch_format="pyarrow"
    )

    def within(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column("vec_id").to_pylist(), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        mat = _list_matrix(group.column("embedding"))[np.asarray(order)]
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = mat / norms
        m = len(ids)
        keep = np.ones(m, dtype=np.int64)
        for cstart in range(1, m, _TILE_COLS):
            cstop = min(cstart + _TILE_COLS, m)
            colmax = np.full(cstop - cstart, -1.0)
            cols = np.arange(cstart, cstop)
            for rstart in range(0, cstop, _TILE_ROWS):
                rstop = min(rstart + _TILE_ROWS, cstop)
                sims = unit[rstart:rstop] @ unit[cstart:cstop].T
                mask = np.arange(rstart, rstop)[:, None] >= cols[None, :]
                sims[mask] = -1.0
                colmax = np.maximum(colmax, sims.max(axis=0))
            keep[cstart:cstop] = (colmax < threshold).astype(np.int64)
        cluster = group.column("cluster")[0].as_py() if m else 0
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(np.full(m, cluster, dtype=np.int64), pa.int64()),
                "keep": pa.array(keep, pa.int64()),
            }
        )

    return assigned.groupby("cluster").map_groups(within, batch_format="pyarrow")


# --- margin-based bitext mining (Artetxe & Schwenk 2019) ---------------------


def xling_margin_pairs(
    ds,
    *,
    k: int = 4,
    plant_mod: int = 29,
    plant_res: int = 6,
    offset: int = 5_000_000,
):
    """Margin-based bitext mining (Artetxe & Schwenk 2019): pair each
    "language-B" vector with its best "language-A" neighbor, scored by
    the distance margin ``2·cos(b, a*) − μ_k(b) − μ_k(a*)`` where
    ``μ_k(·)`` is the mean of the vector's top-``k`` cosines against the
    other language — the criterion that separates true translations from
    hubs (a vector close to everything scores a low margin even with a
    high raw cosine).

    Planting: language B = translated twins of A vectors with
    ``vec_id % plant_mod == plant_res`` at ``vec_id + offset``, element
    ``i`` perturbed by ``((vec_id + i) % 7 - 3) · 0.01`` — pure-double
    arithmetic the SQL oracle replays exactly.

    Shape: the B matrix is the broadcast small side (``n/plant_mod``
    rows, bound asserted); ONE pass over A emits per-B rounded-cosine
    top-k partials (6-dp + id tie-breaks, the ANN float-determinism
    convention) → per-B merge groupby → a tiny driver fold over
    ``|B|·k`` rows computes both top-k means and the margins.
    → (src_id, matched_id, margin_micro4), one row per B vector.
    """
    import ray
    import ray.data

    from .blocks import light_table

    def planted_side(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column("vec_id"), dtype=np.int64)
        return b.filter(pa.array(ids % plant_mod == plant_res))

    src = light_table(
        ds.map_batches(planted_side, batch_format="pyarrow"),
        pa.schema([("vec_id", pa.int64()), ("embedding", pa.list_(pa.float64()))]),
    )
    if src is None:
        raise ValueError(
            "xling_margin_pairs: the planted side exceeds the broadcast bound"
        )
    if src.num_rows == 0:  # no planted side: empty typed result, not a crash
        return ray.data.from_arrow(
            pa.table(
                {
                    "src_id": pa.array([], pa.int64()),
                    "matched_id": pa.array([], pa.int64()),
                    "margin_micro4": pa.array([], pa.int64()),
                }
            )
        )
    src = src.sort_by("vec_id")
    src_ids = src.column("vec_id").to_numpy()
    amat = np.asarray(src.column("embedding").to_pylist(), dtype=np.float64)
    dim = amat.shape[1]
    # the planted perturbation (double arithmetic, SQL-replayable)
    shift = ((src_ids[:, None] + np.arange(dim)[None, :]) % 7 - 3) * 0.01
    bmat = amat + shift
    bnorm = np.linalg.norm(bmat, axis=1, keepdims=True)
    bnorm[bnorm == 0] = 1.0
    bunit = bmat / bnorm
    bids = src_ids + offset
    b_ref = ray.put(bunit)

    def partial(batch: pa.Table) -> pa.Table:
        bu = ray.get(b_ref)
        aids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        em = _list_matrix(batch.column("embedding"))
        if em.size == 0:
            return pa.table(
                {
                    "b_id": pa.array([], pa.int64()),
                    "a_id": pa.array([], pa.int64()),
                    "c": pa.array([], pa.float64()),
                }
            )
        norms = np.linalg.norm(em, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cos = np.round(bu @ (em / norms).T, 6)  # (|B|, batch)
        out_b, out_a, out_c = [], [], []
        for bi, bid in enumerate(bids):
            row = cos[bi]
            if len(aids) > k:
                sel = np.lexsort((aids, -row))[:k]
            else:
                sel = np.arange(len(aids))
            out_b.extend([int(bid)] * len(sel))
            out_a.extend(aids[sel].tolist())
            out_c.extend(row[sel].tolist())
        return pa.table(
            {
                "b_id": pa.array(out_b, pa.int64()),
                "a_id": pa.array(out_a, pa.int64()),
                "c": pa.array(out_c, pa.float64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        bid = group.column("b_id")[0].as_py()
        a = np.asarray(group.column("a_id").to_pylist(), dtype=np.int64)
        c = np.asarray(group.column("c").to_pylist(), dtype=np.float64)
        sel = np.lexsort((a, -c))[:k]
        return pa.table(
            {
                "b_id": pa.array([bid] * len(sel), pa.int64()),
                "a_id": pa.array(a[sel], pa.int64()),
                "c": pa.array(c[sel], pa.float64()),
            }
        )

    merged = (
        ds.select_columns(["vec_id", "embedding"])
        .map_batches(partial, batch_format="pyarrow", batch_size=1024)
        .groupby("b_id")
        .map_groups(merge, batch_format="pyarrow")
        .take_all()  # |B| x k light rows — the driver fold's input
    )
    by_b: dict[int, list] = {}
    for r in merged:
        by_b.setdefault(r["b_id"], []).append((r["c"], r["a_id"]))
    # matched-A side: cosines of the matched A vectors against ALL of B
    # (best = highest cosine, LOWEST id on ties — the ANN convention)
    matched = sorted(
        {min(v, key=lambda t: (-t[0], t[1]))[1] for v in by_b.values()}
    )
    _, m_mat = _query_matrix(ds, matched)
    a_cos = np.round(np.asarray(m_mat) @ bunit.T, 6)  # (|matched|, |B|)
    # all remaining arithmetic in exact integer MICRO units: the 6-dp
    # cosines are within an ulp of integers after ×1e6, and float MEANS
    # would diverge from SQL's avg() in the last ulp (pairwise vs
    # sequential summation) — integers cannot
    sum_a_micro = {}
    for mi, aid in enumerate(matched):
        row = a_cos[mi]
        sel = np.lexsort((bids, -row))[:k]
        sum_a_micro[aid] = int(sum(round(c * 1e6) for c in row[sel]))
    out_s, out_m, out_g = [], [], []
    for bid in sorted(by_b):
        entries = sorted(by_b[bid], key=lambda t: (-t[0], t[1]))[:k]
        best_c, best_a = entries[0]
        sum_b_micro = int(sum(round(c * 1e6) for c, _ in entries))
        # k × margin in micro units: 2k·cos(b,a*) − Σtopk(b) − Σtopk(a*)
        out_s.append(bid)
        out_m.append(best_a)
        out_g.append(
            2 * k * int(round(best_c * 1e6))
            - sum_b_micro
            - sum_a_micro[best_a]
        )
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "src_id": pa.array(out_s, pa.int64()),
                "matched_id": pa.array(out_m, pa.int64()),
                "margin_micro4": pa.array(out_g, pa.int64()),
            }
        )
    )


# --- Johnson–Lindenstrauss random projection ---------------------------------


_JL_MATRIX_CACHE: dict[tuple, np.ndarray] = {}


def _cached_jl_matrix(seed: int, out_dim: int, dim: int) -> np.ndarray:
    key = (seed, out_dim, dim)
    m = _JL_MATRIX_CACHE.get(key)
    if m is None:
        m = _JL_MATRIX_CACHE[key] = np.random.RandomState(seed).standard_normal(
            (out_dim, dim)
        )
    return m


def jl_project(ds, *, out_dim: int = 16, seed: int = 11, round_decimals: int = 6):
    """Johnson–Lindenstrauss random projection: embeddings → ``out_dim``
    dimensions through a seeded Gaussian matrix scaled ``1/√out_dim`` —
    the distance-preserving compression that cuts downstream ANN /
    dedup cost 4× here while keeping pairwise cosines within the JL
    distortion bound (pytest-verified; the projection VALUES are
    SQL-exact from the literal matrix).

    ``out_dim`` must be a power of 4 (16, 64, 256, …) so ``√out_dim``
    is a power of two and the ÷√out_dim scale is an exponent shift —
    float-EXACT, which keeps the projection values bit-identical to the
    SQL oracle's literal-matrix replay (a perfect square whose root is
    odd, e.g. 9 → ÷3, would merely share the same inexact double op on
    both sides); outputs round to ``round_decimals`` and flatten to
    (vec_id, dim_id, val) rows for engine-agnostic value comparison.
    Stateless broadcast matmul pass — no shuffle.
    """
    import math

    import ray

    root = math.isqrt(out_dim)
    if root * root != out_dim or root & (root - 1):
        raise ValueError(
            f"out_dim must be a power of 4 (root a power of two), got {out_dim}"
        )

    def project(batch: pa.Table) -> pa.Table:
        mat = _list_matrix(batch.column("embedding"))
        if mat.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "dim_id": pa.array([], pa.int64()),
                    "val": pa.array([], pa.float64()),
                }
            )
        p = _cached_jl_matrix(seed, out_dim, mat.shape[1])
        proj = np.round((mat @ p.T) / root, round_decimals)
        n = len(proj)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, out_dim), pa.int64()),
                "dim_id": pa.array(
                    np.tile(np.arange(out_dim, dtype=np.int64), n), pa.int64()
                ),
                "val": pa.array(proj.ravel(), pa.float64()),
            }
        )

    return ds.select_columns(["vec_id", "embedding"]).map_batches(
        project, batch_format="pyarrow"
    )


def scalar_quantize(ds, *, levels: int = 255):
    """Scalar (int8-range) embedding quantization — the vector-database
    staple that cuts storage/bandwidth 4-8× before ANN: per-DIMENSION
    min/max from one light aggregate pass (64 rows per block), then
    ``q = floor((v - min_d) · levels / (max_d - min_d) + 0.5)`` clipped
    to [0, levels] — explicit half-up floor so the engine's doubles and
    the SQL oracle's round identically (no half-even ambiguity).

    → flattened (vec_id, dim_id, q) int rows; constant dims collapse to
    q = 0.  Two streaming passes, the only shuffle is the 64-key
    min/max groupby.
    """
    import ray
    from ray.data.aggregate import Max, Min

    def dim_rows(batch: pa.Table) -> pa.Table:
        mat = _list_matrix(batch.column("embedding"))
        if mat.size == 0:
            return pa.table(
                {
                    "dim_id": pa.array([], pa.int64()),
                    "lo": pa.array([], pa.float64()),
                    "hi": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "dim_id": pa.array(np.arange(mat.shape[1], dtype=np.int64), pa.int64()),
                "lo": pa.array(mat.min(axis=0), pa.float64()),
                "hi": pa.array(mat.max(axis=0), pa.float64()),
            }
        )

    stats = (
        ds.map_batches(dim_rows, batch_format="pyarrow")
        .groupby("dim_id")
        .aggregate(Min("lo"), Max("hi"))
        .take_all()  # n_dims light rows
    )
    stats.sort(key=lambda r: r["dim_id"])
    lo = np.asarray([r["min(lo)"] for r in stats], dtype=np.float64)
    hi = np.asarray([r["max(hi)"] for r in stats], dtype=np.float64)
    rng_ref = ray.put((lo, hi))

    def quantize(batch: pa.Table) -> pa.Table:
        l, h = ray.get(rng_ref)
        mat = _list_matrix(batch.column("embedding"))
        if mat.size == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "dim_id": pa.array([], pa.int64()),
                    "q": pa.array([], pa.int64()),
                }
            )
        span = h - l
        safe = np.where(span > 0, span, 1.0)
        x = (mat - l) * levels / safe
        q = np.clip(np.floor(x + 0.5), 0, levels).astype(np.int64)
        q = np.where(span > 0, q, 0)
        n = len(q)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, q.shape[1]), pa.int64()),
                "dim_id": pa.array(
                    np.tile(np.arange(q.shape[1], dtype=np.int64), n), pa.int64()
                ),
                "q": pa.array(q.ravel(), pa.int64()),
            }
        )

    return ds.select_columns(["vec_id", "embedding"]).map_batches(
        quantize, batch_format="pyarrow"
    )


# --- Embedding backfill (curation-funnel coverage) ----------------------------


def backfill_embeddings(docs, emb, *, dim: int | None = None, seed: int = 11):
    """Synthesize deterministic embeddings for documents MISSING a row in
    ``emb`` so full-coverage curation runs (pipelines/curation.py's
    vec_id==doc_id contract) never silently drop embedding-less docs.

    Missing docs are found with one :func:`~.joins.anti_join` (docs whose
    doc_id has no vec_id match); each gets a feature-hashed text embedding
    (Weinberger et al. 2009: crc32-bucketed tokens with a ±1 sign hash,
    L2-normalized) in the SAME dimensionality as the real rows, flagged
    ``synthetic=1`` — downstream consumers can audit or re-embed them.

    ``dim`` defaults to the real table's dimensionality, read from ONE
    row (bounded driver op); pass it explicitly when ``emb`` may be
    empty.  Cost ∝ missing rows (the anti-join ships the corpus text
    through one bucketed shuffle; synthesis itself touches only the
    misses).  Returns (vec_id, embedding, synthetic) — real rows ride
    through unchanged with synthetic=0.
    """
    import zlib

    from .joins import anti_join

    if dim is None:
        first = emb.select_columns(["embedding"]).take(1)
        if not first:
            raise ValueError(
                "backfill_embeddings: embedding table is empty — pass dim="
            )
        dim = len(first[0]["embedding"])

    missing = anti_join(
        docs.select_columns(["doc_id", "text"]),
        emb.select_columns(["vec_id"]),
        on="doc_id",
        right_on="vec_id",
    )

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        out = np.zeros((len(ids), dim), dtype=np.float32)
        for i, text in enumerate(batch.column("text").to_pylist()):
            for tok in (text or "").split():
                b = tok.encode("utf-8", "replace")
                h = zlib.crc32(b)
                sign = 1.0 if zlib.crc32(b, seed) & 1 else -1.0
                out[i, h % dim] += sign
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    list(out), pa.list_(pa.float32())
                ),
                "synthetic": pa.array(np.ones(len(ids), np.int64), pa.int64()),
            }
        )

    def passthrough(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": pc.cast(batch.column("vec_id"), pa.int64()),
                "embedding": batch.column("embedding"),
                "synthetic": pa.array([0] * batch.num_rows, pa.int64()),
            }
        )

    return emb.select_columns(["vec_id", "embedding"]).map_batches(
        passthrough, batch_format="pyarrow"
    ).union(missing.map_batches(synth, batch_format="pyarrow"))
