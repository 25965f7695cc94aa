"""Distributed link-graph analytics over the crawl graph.

The crawl tier's graph side: PageRank over a (src, dst) edge dataset —
the canonical iterative Pregel-style exchange.  Per iteration the rank
vector joins the (outdegree-stamped) edge list through the bucketed
:func:`~go_htmldate_ray.stages.joins.hash_join` (one light-row shuffle),
contributions aggregate with one keyed ``Sum`` groupby (second shuffle),
and the dataset is REBASED — ``from_arrow_refs`` over the materialized
blocks with a pinned block count — because a per-round ``materialize``
in a loop otherwise accumulates stats lineage and block-count growth
exponentially (see ``dedup.connected_components``; observed as a driver
hang by round ~6).

Exactness contract: ranks are integers in units of ``total`` (default
10^15) and every transfer is the exact integer expression
``(r * damping_num) // (damping_den * outdeg)``, so sums commute and a
SQL oracle with unrolled iteration CTEs reproduces the result
bit-for-bit.  Dangling-node mass (outdeg 0) is dropped, the common
sparse-implementation variant — the oracle does the same.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64())])


def pagerank(
    nodes,
    edges,
    *,
    iters: int = 5,
    total: int = 10**15,
    damping_num: int = 85,
    damping_den: int = 100,
    seed_col: str | None = None,
    _extra_vectors: list | None = None,
):
    """(nodes: ``id``, edges: ``src``/``dst``) → Dataset (doc_id,
    rank_units) after ``iters`` synchronous power-iteration rounds.

    ``rank_units`` sums to ≤ ``total`` (minus floor losses and dangling
    leakage); divide by ``total`` for the float rank.  Nodes absent from
    every edge still receive the teleport base each round.

    ``seed_col``: optional 0/1 int column on ``nodes`` restricting the
    teleport (and the initial mass) to the seed set — this is TrustRank
    (Gyöngyi, Garcia-Molina, Pedersen, VLDB 2004): trust flows outward
    from hand-vetted seeds, so spam clusters far from any seed decay to
    ~0 while the uniform-teleport PageRank would still fund them.
    Non-seed nodes start at 0 and receive no teleport base, only
    in-edge transfers; the per-seed base divides by the SEED count.
    The extra cost over plain PageRank is one ``sum()`` pass over the
    node set — the iteration loop is unchanged.

    Graphs whose light int64 node and edge rows fit
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget skip the
    per-round bucketed join + keyed-Sum exchanges and replay the SAME
    integer arithmetic in numpy on the driver — bit-exact (pytest parity
    gate), because below that size the synchronous-barrier fixed cost
    dominates every round.  Above the budget the bucketed loop is the
    scale path.
    """
    import ray.data
    from ray.data.aggregate import Sum

    from .blocks import light_table, rebase
    from .joins import adaptive_buckets, hash_join, sorted_lookup, state_blocks

    # Pin the (light, int64) node/edge relations once: count(), the
    # outdegree pass, the fast-path collect and every join round would
    # otherwise RE-EXECUTE the upstream lineage (often a full link
    # extraction) per consumption.  (Re-materializing an already
    # materialized dataset round-trips every block through a task —
    # measured seconds of pure scheduling on many-tiny-block graphs.)
    from ray.data.dataset import MaterializedDataset

    if not isinstance(nodes, MaterializedDataset):
        nodes = nodes.materialize()
    if not isinstance(edges, MaterializedDataset):
        edges = edges.materialize()

    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "rank_units": pa.array([], pa.int64()),
                }
            )
        )
    base = r0 = 0
    if _extra_vectors is None:
        if seed_col is not None:
            n_seeds = int(nodes.sum(seed_col) or 0)
            if n_seeds == 0:
                raise ValueError("pagerank: seed_col given but no seed rows")
            base = (total * (damping_den - damping_num)) // (
                damping_den * n_seeds
            )
            r0 = total // n_seeds
        else:
            base = (total * (damping_den - damping_num)) // (
                damping_den * n_nodes
            )
            r0 = total // n_nodes
    # vectors: list of (column name, base, r0, seed mask col or None).
    # The public pagerank runs ONE vector; spam_mass pushes the uniform
    # AND the seeded vector through the SAME joins/groupbys (one loop,
    # k extra int64 columns — not k× the exchanges).
    vecs = [("c0", base, r0, seed_col)]
    if _extra_vectors:
        vecs = list(_extra_vectors)
    names = [v[0] for v in vecs]

    # Bounded fast path: collect the LIGHT int64 node/edge rows once and
    # replay the identical integer power iteration in numpy — bit-exact
    # vs the distributed loop (parity-gated in pytest), with zero
    # per-round barriers.  Decided before the outdegree join below,
    # which only the distributed loop uses.
    seed_cols = list(dict.fromkeys(v[3] for v in vecs if v[3] is not None))
    nt = light_table(
        nodes, pa.schema([(c, pa.int64()) for c in ["id", *seed_cols]])
    )
    et = None if nt is None else light_table(edges, _EDGE_SCHEMA)
    if et is not None:
        ids = nt.column("id").to_numpy()
        order = np.argsort(ids, kind="stable")
        ids_sorted = ids[order]
        nn = len(ids_sorted)
        src = et.column("src").to_numpy()
        dst = et.column("dst").to_numpy()

        si, si_ok = sorted_lookup(ids_sorted, src)
        di, di_ok = sorted_lookup(ids_sorted, dst)
        # edges from phantom srcs never join a rank row; edges to
        # phantom dsts contribute mass the real-node filter drops
        e_si = si[si_ok]
        e_di = di[si_ok]
        e_di_ok = di_ok[si_ok]
        outdeg = np.bincount(e_si, minlength=nn).astype(np.int64)

        out_cols: dict = {"id": pa.array(ids_sorted, pa.int64())}
        denom = damping_den * outdeg
        for name, vbase, vr0, vseed in vecs:
            if vseed is not None:
                seedm = nt.column(vseed).to_numpy()[order]
                base_vec = vbase * seedm
                r = vr0 * seedm
            else:
                base_vec = np.full(nn, vbase, np.int64)
                r = np.full(nn, vr0, np.int64)
            for _ in range(iters):
                contrib = (r[e_si] * damping_num) // denom[e_si]
                acc = np.zeros(nn, np.int64)
                np.add.at(acc, e_di[e_di_ok], contrib[e_di_ok])
                r = base_vec + acc
            out_cols[name] = pa.array(r, pa.int64())

        tbl = pa.table(out_cols)
        if _extra_vectors:
            return ray.data.from_arrow(tbl)
        return ray.data.from_arrow(
            pa.table(
                {"doc_id": tbl.column("id"), "rank_units": tbl.column("c0")}
            )
        )

    n_buckets, n_blocks = adaptive_buckets(n_nodes), state_blocks(n_nodes)

    # One-time: stamp each edge with its source's outdegree (per-batch
    # partial counts → keyed Sum → bucketed join back onto the edges).
    def edge_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column("src").cast(pa.int64()),
                "dst": batch.column("dst").cast(pa.int64()),
            }
        )

    def partial_deg(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["src"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "dsrc": t.column("src"),
                "part": t.column("count_all").cast(pa.int64()),
            }
        )

    e = edges.map_batches(edge_rows, batch_format="pyarrow")
    deg = (
        e.map_batches(partial_deg, batch_format="pyarrow")
        .groupby("dsrc")
        .aggregate(Sum("part"))
        .map_batches(
            lambda b: pa.table(
                {
                    "dsrc": b.column("dsrc"),
                    "outdeg": b.column("sum(part)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    edges_deg = rebase(
        hash_join(e, deg, on="src", right_on="dsrc", n_buckets=n_buckets), n_blocks
    )

    def node_rows(use_r0: bool, marker: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column("id").cast(pa.int64())
            cols: dict = {"id": ids}
            for name, vbase, vr0, vseed in vecs:
                value = vr0 if use_r0 else vbase
                if vseed is not None:
                    # TrustRank: mass (initial AND per-round teleport)
                    # only on seed rows; non-seeds keep c=0 base rows so
                    # they stay "real" nodes (marker) and can accumulate
                    # in-edge transfers.
                    sd = np.asarray(batch.column(vseed), dtype=np.int64)
                    cols[name] = pa.array(value * sd, pa.int64())
                else:
                    cols[name] = pa.array([value] * len(ids), pa.int64())
            # marker=1 on base rows lets the post-groupby filter drop
            # mass sent to edge dsts OUTSIDE the node set (phantom ids),
            # matching the oracle's LEFT JOIN on real node ids
            cols["b"] = pa.array([marker] * len(ids), pa.int64())
            return pa.table(cols)

        return f

    base_rows = rebase(
        nodes.map_batches(node_rows(False, 1), batch_format="pyarrow"), n_blocks
    )
    ranks = rebase(
        nodes.map_batches(node_rows(True, 1), batch_format="pyarrow").select_columns(
            ["id", *names]
        ),
        n_blocks,
    )

    def contrib(batch: pa.Table) -> pa.Table:
        outdeg = np.asarray(batch.column("outdeg"), dtype=np.int64)
        cols: dict = {"id": batch.column("dst")}
        for name in names:
            r = np.asarray(batch.column(name), dtype=np.int64)
            cols[name] = pa.array(
                (r * damping_num) // (damping_den * outdeg), pa.int64()
            )
        cols["b"] = pa.array(np.zeros(len(outdeg), dtype=np.int64))
        return pa.table(cols)

    def keep_real_nodes(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        real = pc.greater(b.column("sum(b)"), 0)
        cols: dict = {"id": b.column("id").filter(real)}
        for name in names:
            cols[name] = (
                b.column(f"sum({name})").filter(real).cast(pa.int64())
            )
        return pa.table(cols)

    sums = [Sum(name) for name in names] + [Sum("b")]
    for _ in range(iters):
        joined = hash_join(
            edges_deg, ranks, on="src", right_on="id", n_buckets=n_buckets
        )
        contribs = joined.map_batches(contrib, batch_format="pyarrow")
        ranks = rebase(
            base_rows.union(contribs)
            .groupby("id")
            .aggregate(*sums)
            .map_batches(keep_real_nodes, batch_format="pyarrow"),
            n_blocks,
        )

    if _extra_vectors:
        return ranks  # (id, <one column per vector>)
    return ranks.map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("id"), "rank_units": b.column("c0")}
        ),
        batch_format="pyarrow",
    )

def degree_histogram(nodes, edges, *, col: str = "dst"):
    """Link-graph degree distribution: (degree, n_nodes) histogram of
    per-node in-degree (``col="dst"``) or out-degree (``col="src"``),
    including zero-degree nodes.

    Shape: per-batch partial degree counts + zero rows for every node →
    one keyed Sum groupby (full per-node degrees) → a second tiny
    groupby over ≤ max_degree light rows.  Both exchanges move one
    int64 row per node — never an edge payload.
    """
    from ray.data.aggregate import Count, Sum

    def edge_partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by([col]).aggregate([([], "count_all")])
        n = len(t)
        return pa.table(
            {
                "id": t.column(col).cast(pa.int64()),
                "c": t.column("count_all").cast(pa.int64()),
                "b": pa.array([0] * n, pa.int64()),
            }
        )

    def node_zero(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").cast(pa.int64())
        n = len(ids)
        # b=1 marks real node rows; edge endpoints outside the node set
        # (phantom ids) then aggregate to sum(b)=0 and are dropped below
        return pa.table(
            {
                "id": ids,
                "c": pa.array([0] * n, pa.int64()),
                "b": pa.array([1] * n, pa.int64()),
            }
        )

    per_node = (
        edges.map_batches(edge_partial, batch_format="pyarrow")
        .union(nodes.map_batches(node_zero, batch_format="pyarrow"))
        .groupby("id")
        .aggregate(Sum("c"), Sum("b"))
    )

    def real_node_degrees(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        real = pc.greater(b.column("sum(b)"), 0)
        return pa.table(
            {"degree": b.column("sum(c)").filter(real).cast(pa.int64())}
        )

    hist = (
        per_node.map_batches(real_node_degrees, batch_format="pyarrow")
        .groupby("degree")
        .aggregate(Count())
    )
    return hist.map_batches(
        lambda b: pa.table(
            {
                "degree": b.column("degree"),
                "n_nodes": b.column("count()").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def resolve_pointers(
    ds,
    *,
    src: str = "src",
    nxt: str = "next",
    max_chain: int = 16,
):
    """Redirect-chain / pointer resolution by path doubling.

    Input: one row per node of a FUNCTIONAL graph — int64 ``src`` and
    ``nxt`` columns where every ``nxt`` value also appears as a ``src``
    row; a node is terminal iff ``nxt == src`` (a crawler's redirect map
    after url→id hashing, with final pages pointing at themselves).

    Output: ``(src, final, hops)`` — the terminal node each chain
    reaches and its length.  ``ceil(log2(max_chain))`` rounds of the
    bucketed :func:`~go_htmldate_ray.stages.joins.hash_join` square the
    pointer each round (cur ← cur's cur, hops added), so a chain of
    length L ≤ ``max_chain`` settles in log L exchanges instead of the
    L a naive per-hop walk would shuffle — the standard trade for
    resolving 3xx chains over a 10^10-row frontier.  Chains LONGER than
    ``max_chain`` are left at their 2^rounds-th ancestor (hops still
    exact); pick ``max_chain`` at the crawler's redirect-depth cap
    (real crawlers cap at 5-10).

    Each round rebases the state table (materialize → from_arrow_refs)
    exactly like :func:`pagerank`, keeping lineage flat.
    """
    import math

    import pyarrow.compute as pc
    import ray.data

    from .blocks import rebase
    from .joins import adaptive_buckets, hash_join, state_blocks

    n_rows = ds.count()
    if n_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "final": pa.array([], pa.int64()),
                    "hops": pa.array([], pa.int64()),
                }
            )
        )
    n_buckets, n_blocks = adaptive_buckets(n_rows), state_blocks(n_rows)

    def prep(batch: pa.Table) -> pa.Table:
        s = batch.column(src).cast(pa.int64())
        n = batch.column(nxt).cast(pa.int64())
        return pa.table(
            {
                "src": s,
                "cur": n,
                "hops": pc.cast(pc.not_equal(s, n), pa.int64()),
            }
        )

    state = rebase(ds.map_batches(prep, batch_format="pyarrow"), n_blocks)

    def project_right(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "jsrc": batch.column("src"),
                "jcur": batch.column("cur"),
                "jhops": batch.column("hops"),
            }
        )

    def advance(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch.column("src"),
                "cur": batch.column("jcur"),
                "hops": pc.add(
                    batch.column("hops"), batch.column("jhops")
                ).cast(pa.int64()),
            }
        )

    for _ in range(max(1, math.ceil(math.log2(max(2, max_chain))))):
        right = state.map_batches(project_right, batch_format="pyarrow")
        state = rebase(
            hash_join(state, right, on="cur", right_on="jsrc", n_buckets=n_buckets)
            .map_batches(advance, batch_format="pyarrow"),
            n_blocks,
        )

    return state.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("src"),
                "final": b.column("cur"),
                "hops": b.column("hops"),
            }
        ),
        batch_format="pyarrow",
    )


def hits(nodes, edges, *, iters: int = 2, scale_shift: int = 1, base_shift: int = 20):
    """Integer-exact HITS hubs/authorities (Kleinberg 1999, "Authoritative
    sources in a hyperlinked environment") over a (src, dst) edge set:

        a'(v) = (Σ_{u→v} h(u))  >> scale_shift
        h'(u) = (Σ_{u→v} a'(v)) >> scale_shift

    from h₀ = 2^base_shift units per node.  The per-half-round shift
    replaces float L1 normalization; size it to ~log₂(mean degree) so
    magnitudes stay put (a shift much larger than the degree scale
    floors everything to 0 within a round or two — measured).  Every
    transfer is an exact int64 expression, sums commute, and an
    unrolled-CTE SQL oracle reproduces the result bit-for-bit (same
    design as :func:`pagerank`).  Int64 headroom:
    base_shift + 2·iters·log₂(max_degree / 2^scale_shift) < 63.  Nodes
    with no in-edges (resp. out-edges) score 0 on that axis; phantom
    edge endpoints outside the node set are dropped by the same
    marker-row filter pagerank uses.

    Shape per half-round: ONE bucketed hash_join (rank rows onto edges)
    + ONE keyed Sum groupby, with the state rebased
    (materialize → from_arrow_refs) so lineage stays flat across
    rounds.  Output: (doc_id, hub_units, auth_units).
    """
    import ray.data
    from ray.data.aggregate import Sum

    from .blocks import light_table, rebase
    from .joins import adaptive_buckets, hash_join, sorted_lookup, state_blocks

    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    # pin the light inputs once (see pagerank) and take the bounded
    # single-task fast path for small graphs — bit-exact parity gated
    from ray.data.dataset import MaterializedDataset

    if not isinstance(nodes, MaterializedDataset):
        nodes = nodes.materialize()
    if not isinstance(edges, MaterializedDataset):
        edges = edges.materialize()

    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "hub_units": pa.array([], pa.int64()),
                    "auth_units": pa.array([], pa.int64()),
                }
            )
        )

    nt = light_table(nodes, pa.schema([("id", pa.int64())]))
    et = None if nt is None else light_table(edges, _EDGE_SCHEMA)
    if et is not None:
        ids_sorted = np.sort(nt.column("id").to_numpy(), kind="stable")
        nn = len(ids_sorted)
        src = et.column("src").to_numpy()
        dst = et.column("dst").to_numpy()

        si, si_ok = sorted_lookup(ids_sorted, src)
        di, di_ok = sorted_lookup(ids_sorted, dst)
        # only edges with BOTH endpoints in the node set move mass:
        # phantom-src edges never join a rank row, phantom-dst mass is
        # dropped by the marker filter — identical to the loop below
        m = si_ok & di_ok
        es, ed = si[m], di[m]

        hvec = np.full(nn, 1 << base_shift, np.int64)
        avec = np.zeros(nn, np.int64)
        for _ in range(iters):
            avec = np.zeros(nn, np.int64)
            np.add.at(avec, ed, hvec[es])
            avec >>= scale_shift
            hvec = np.zeros(nn, np.int64)
            np.add.at(hvec, es, avec[ed])
            hvec >>= scale_shift
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids_sorted, pa.int64()),
                    "hub_units": pa.array(hvec, pa.int64()),
                    "auth_units": pa.array(avec, pa.int64()),
                }
            )
        )

    n_buckets, n_blocks = adaptive_buckets(n_nodes), state_blocks(n_nodes)
    base = 1 << base_shift

    e = rebase(
        edges.map_batches(
            lambda b: pa.table(
                {
                    "src": b.column("src").cast(pa.int64()),
                    "dst": b.column("dst").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        n_blocks,
    )

    def const_rows(value: int, marker: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column("id").cast(pa.int64())
            n = len(ids)
            return pa.table(
                {
                    "id": ids,
                    "c": pa.array([value] * n, pa.int64()),
                    "b": pa.array([marker] * n, pa.int64()),
                }
            )

        return f

    zeros = rebase(nodes.map_batches(const_rows(0, 1), batch_format="pyarrow"), n_blocks)
    h = rebase(
        nodes.map_batches(const_rows(base, 1), batch_format="pyarrow").select_columns(
            ["id", "c"]
        ),
        n_blocks,
    )

    def filter_shift(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        real = pc.greater(b.column("sum(b)"), 0)
        c = np.asarray(b.column("sum(c)").filter(real), dtype=np.int64)
        return pa.table(
            {
                "id": b.column("id").filter(real),
                "c": pa.array(c >> scale_shift, pa.int64()),
            }
        )

    def half_round(vec, key_in: str, key_out: str):
        joined = hash_join(e, vec, on=key_in, right_on="id", n_buckets=n_buckets)
        contribs = joined.map_batches(
            lambda b: pa.table(
                {
                    "id": b.column(key_out),
                    "c": b.column("c"),
                    "b": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
        return rebase(
            zeros.union(contribs)
            .groupby("id")
            .aggregate(Sum("c"), Sum("b"))
            .map_batches(filter_shift, batch_format="pyarrow"),
            n_blocks,
        )

    a = None
    for _ in range(iters):
        a = half_round(h, "src", "dst")
        h = half_round(a, "dst", "src")

    merged = hash_join(
        h.map_batches(
            lambda b: pa.table({"id": b.column("id"), "hub_units": b.column("c")}),
            batch_format="pyarrow",
        ),
        a.map_batches(
            lambda b: pa.table({"aid": b.column("id"), "auth_units": b.column("c")}),
            batch_format="pyarrow",
        ),
        on="id",
        right_on="aid",
        n_buckets=n_buckets,
    )
    return merged.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("id"),
                "hub_units": b.column("hub_units"),
                "auth_units": b.column("auth_units"),
            }
        ),
        batch_format="pyarrow",
    )


def _host_id64(host: str) -> int:
    """Stable 63-bit node id for a host string: top 64 bits of md5,
    shifted right one bit so the value fits signed int64 on both the
    engine and DuckDB sides (the simhash oracle's id scheme).  Injective
    in practice — at 10^8 hosts the birthday collision odds are ~3e-4,
    and a collision can only merge two components, never crash."""
    import hashlib

    return int(hashlib.md5(host.encode("utf-8")).hexdigest()[:16], 16) >> 1


def _host_ids(hosts: list[str]) -> list[int]:
    """Per-batch memoized :func:`_host_id64` over a host column — the
    shared loop of ``string_connected_components`` and
    ``cocitation_pairs`` (Zipf-hot hosts hash once per batch)."""
    cache: dict[str, int] = {}
    out = []
    for h in hosts:
        v = cache.get(h)
        if v is None:
            v = cache[h] = _host_id64(h)
        out.append(v)
    return out


def string_connected_components(
    edges,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    max_iters: int = 25,
):
    """(src, dst) string-edge Dataset → (host, component) labels:
    connected components over an undirected string-keyed graph (host
    linkage, mirror clusters, spam farms).

    Reuses the int64 min-label propagation of
    :func:`~go_htmldate_ray.stages.dedup.connected_components` by
    mapping each host to :func:`_host_id64`; the component label is the
    minimum node id in the component, surfaced as that node's host
    string (``component``).  Exchange budget: the id→host mapping is a
    per-batch-distinct partial → one Min groupby over the HOST set
    (≪ edges), plus the CC rounds' light-pair joins; nothing touches
    the driver.
    """
    import ray.data

    from .dedup import connected_components
    from .joins import hash_join

    def to_id_pairs(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": pa.array(
                    _host_ids(b.column(src_col).to_pylist()), pa.int64()
                ),
                "doc_b": pa.array(
                    _host_ids(b.column(dst_col).to_pylist()), pa.int64()
                ),
            }
        )

    def to_mapping(b: pa.Table) -> pa.Table:
        hosts = sorted(
            set(b.column(src_col).to_pylist())
            | set(b.column(dst_col).to_pylist())
        )
        return pa.table(
            {
                "node_id": pa.array([_host_id64(h) for h in hosts], pa.int64()),
                "host": pa.array(hosts, pa.string()),
            }
        )

    from ray.data.aggregate import Min

    # The edge table is consumed THREE times below (pairs, mapping,
    # rep_host) — materialize once so an expensive upstream lineage
    # (e.g. a full-corpus page parse) doesn't re-execute per consumer.
    # Edges are light (src, dst[, weight]) rows by contract.
    edges = edges.materialize()

    pairs = edges.map_batches(to_id_pairs, batch_format="pyarrow")
    labels = connected_components(pairs, max_iters=max_iters)
    if not hasattr(labels, "map_batches"):  # typed-empty DataFrame
        import pandas as pd

        return pd.DataFrame(
            {
                "host": pd.Series([], dtype="string"),
                "component": pd.Series([], dtype="string"),
            }
        )
    # mapping feeds two joins (with_host, rep_host) — materialize the
    # n_hosts-row table once for the same reason as edges above.
    mapping = (
        edges.map_batches(to_mapping, batch_format="pyarrow")
        .groupby("node_id")
        .aggregate(Min("host"))
        .map_batches(
            lambda b: pa.table(
                {"node_id": b.column("node_id"), "host": b.column("min(host)")}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    # labels: (doc_id=node id, cluster_rep=min node id in component)
    with_host = hash_join(
        labels.map_batches(
            lambda b: pa.table(
                {
                    "node_id": b.column("doc_id"),
                    "rep_id": b.column("cluster_rep"),
                }
            ),
            batch_format="pyarrow",
        ),
        mapping,
        on="node_id",
    )
    rep_host = mapping.map_batches(
        lambda b: pa.table(
            {"rep_id": b.column("node_id"), "component": b.column("host")}
        ),
        batch_format="pyarrow",
    )
    out = hash_join(with_host, rep_host, on="rep_id")
    return out.map_batches(
        lambda b: pa.table(
            {"host": b.column("host"), "component": b.column("component")}
        ),
        batch_format="pyarrow",
    )


def cocitation_pairs(
    edges,
    *,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    min_common: int = 3,
    max_out_degree: int = 4096,
):
    """Co-citation over a DISTINCT (src, dst) edge set: pairs of targets
    linked from the same source, scored by how many sources they share —
    the classic related-domain / link-farm signal (Small 1973; used for
    "related:" queries and spam-cluster seeds).

    Output: ``(host_a, host_b, n_common)`` with ``host_a < host_b`` and
    ``n_common >= min_common``.

    Shape: hash-bucket by ``src`` (each source's out-list must be
    co-located — ONE groupby), then a fully vectorized per-bucket pass:
    lexsort by (src, dst), per-src run boundaries, pair expansion via
    repeat/offset index arithmetic, partial pair counts via one
    ``np.unique``; a final small Sum groupby over the surviving pair
    rows.  The per-src cartesian is quadratic in out-degree, so
    ``max_out_degree`` is enforced LOUDLY (raise, not truncate) — at
    web scale cap hub pages first (drop or sample out-lists above the
    cap) exactly like skew_join's hot-key bound.

    Caller contract: ``edges`` rows must be distinct (src, dst) pairs
    (e.g. the output of ``host_link_edges``, already a groupby).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .joins import SHUFFLE_BUCKETS

    def tag(b: pa.Table) -> pa.Table:
        ids = _host_ids(b.column(src_col).to_pylist())
        return pa.table(
            {
                "bucket": pa.array([i % SHUFFLE_BUCKETS for i in ids], pa.int64()),
                "src": b.column(src_col),
                "dst": b.column(dst_col),
            }
        )

    def expand(group: pa.Table) -> pa.Table:
        src = np.asarray(group.column("src").to_pylist(), dtype=object)
        dst = np.asarray(group.column("dst").to_pylist(), dtype=object)
        n = len(src)
        if n == 0:
            return pa.table(
                {
                    "host_a": pa.array([], pa.string()),
                    "host_b": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        # factorize hosts to codes so all pair work is integer
        all_hosts, codes = np.unique(
            np.concatenate([src, dst]), return_inverse=True
        )
        s_code, d_code = codes[:n], codes[n:]
        order = np.lexsort((d_code, s_code))
        s_sorted, d_sorted = s_code[order], d_code[order]
        # per-src runs
        starts = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
        lens = np.diff(np.r_[starts, n])
        worst = int(lens.max())
        if worst > max_out_degree:
            raise ValueError(
                f"cocitation_pairs: source out-degree {worst} exceeds "
                f"max_out_degree={max_out_degree}; cap hub out-lists "
                "upstream (drop or sample) before pairing"
            )
        # all (i < j) index pairs within each run, vectorized:
        # for a run of length L starting at s the pairs are
        # (s+a, s+b) for 0 <= a < b < L.
        L = lens
        pair_counts = L * (L - 1) // 2
        total = int(pair_counts.sum())
        if total == 0:
            return pa.table(
                {
                    "host_a": pa.array([], pa.string()),
                    "host_b": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        # integer-only pair expansion: element at within-run position p
        # pairs (as the larger index) with each of the p elements before
        # it, so repeat every element p times as 'j' and enumerate
        # 0..p-1 as the local 'i' offset from its run start.
        run_starts_per_elem = np.repeat(starts, lens)
        p = np.arange(n) - run_starts_per_elem  # within-run position
        j_idx = np.repeat(np.arange(n), p)
        a_local = np.arange(total) - np.repeat(np.cumsum(p) - p, p)
        i_idx = run_starts_per_elem[j_idx] + a_local
        ca, cb = d_sorted[i_idx], d_sorted[j_idx]
        # unordered pair: smaller HOST STRING first (codes are sorted
        # by np.unique, so code order == lexicographic host order)
        lo = np.minimum(ca, cb)
        hi = np.maximum(ca, cb)
        keep = lo != hi  # self-pairs impossible on distinct edges, but cheap
        lo, hi = lo[keep], hi[keep]
        K = len(all_hosts)
        pair_key = lo.astype(np.int64) * K + hi
        uniq, counts = np.unique(pair_key, return_counts=True)
        return pa.table(
            {
                "host_a": pa.array(all_hosts[uniq // K].tolist(), pa.string()),
                "host_b": pa.array(all_hosts[uniq % K].tolist(), pa.string()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    partial = (
        edges.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(expand, batch_format="pyarrow")
    )
    agg = partial.groupby(["host_a", "host_b"]).aggregate(Sum("n"))
    return agg.map_batches(
        lambda b: pa.table(
            {
                "host_a": b.column("host_a"),
                "host_b": b.column("host_b"),
                "n_common": b.column("sum(n)").cast(pa.int64()),
            }
        ).filter(pc.field("n_common") >= min_common),
        batch_format="pyarrow",
    )


def spam_mass(
    nodes,
    edges,
    *,
    seed_col: str = "is_seed",
    iters: int = 3,
    total: int = 10**15,
):
    """Link-spam mass estimation (Gyöngyi, Berkhin, Garcia-Molina,
    Pedersen, VLDB 2006): the fraction of a node's PageRank that does
    NOT come from the trusted core.  Computes the uniform AND the
    teleport-restricted (TrustRank) rank vector and emits per node
    ``spam_mass_permille = (pr - tr) * 1000 // pr`` — numpy FLOOR
    division; per-mille, not nano, because both ranks are bounded by
    ``total`` (10^15) so the ×1000 product stays inside int64 for any
    graph.  (DuckDB's ``//`` truncates toward zero, so the SQL oracle
    subtracts the positive mod first — see the oracle comment.)  High
    spam mass = the node's rank is funded almost entirely by untrusted
    links — the paper's demotion signal.

    Exchange budget: ONE pagerank loop — both rank vectors (uniform and
    seed-restricted) ride the SAME per-round join + Sum groupby as two
    int64 columns, so the dual run costs one extra column, not 2x the
    exchanges, and no final join is needed (the rows already carry both
    units).  Output: (doc_id, pr_units, tr_units, spam_mass_permille).
    """
    n_nodes = nodes.count()
    n_seeds = int(nodes.sum(seed_col) or 0)
    if n_seeds == 0:
        raise ValueError("spam_mass: no seed rows")
    joined = pagerank(
        nodes,
        edges,
        iters=iters,
        total=total,
        _extra_vectors=[
            ("pr_units", (total * 15) // (100 * n_nodes), total // n_nodes, None),
            ("tr_units", (total * 15) // (100 * n_seeds), total // n_seeds, seed_col),
        ],
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("id"),
                "pr_units": b.column("pr_units"),
                "tr_units": b.column("tr_units"),
            }
        ),
        batch_format="pyarrow",
    )

    def finalize(batch: pa.Table) -> pa.Table:
        p = np.asarray(batch.column("pr_units"), dtype=np.int64)
        t = np.asarray(batch.column("tr_units"), dtype=np.int64)
        mass = np.zeros(len(p), dtype=np.int64)
        nz = p > 0
        mass[nz] = ((p[nz] - t[nz]) * 1000) // p[nz]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pr_units": batch.column("pr_units"),
                "tr_units": batch.column("tr_units"),
                "spam_mass_permille": pa.array(mass, pa.int64()),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")
