"""Hierarchical URL-path statistics for crawl budgeting.

``hot_path_subtrees`` finds, per host, the DEEPEST path prefixes whose
subtree URL count still reaches a threshold — the hierarchical-heavy-
hitter frontier ("which directories are the actual hot spots"), the
signal a crawler uses to budget per path subtree instead of per host
(a calendar subtree can dwarf the rest of its site; see
``crawl_trap_hosts`` for the adversarial version of the same idea).

Prefix lattice: every directory prefix of the path (each ending in
``/``) plus the full path as its own leaf.  A prefix is reported iff
its subtree count ≥ threshold AND no strictly deeper prefix of the
same host also reaches the threshold (maximal depth — the frontier of
the θ-heavy forest).  Because directory prefixes end in ``/``, string
prefix containment between candidates coincides with lattice ancestry,
which is what both the engine's small-side check and the SQL oracle
exploit.  (Full-path LEAVES don't carry the trailing ``/``, so a leaf
that is a string-prefix of a sibling path — ``/a/1`` vs ``/a/12`` —
would read as its ancestor; both engine and oracle share this
convention, which is exact whenever leaf names aren't prefixes of each
other, e.g. paths with file extensions.)
"""

from __future__ import annotations

import pyarrow as pa


def path_prefixes(path: str) -> list[str]:
    """Directory prefixes (each with a trailing ``/``) plus the full
    path: ``/a/b/c.html`` → ``['/', '/a/', '/a/b/', '/a/b/c.html']``."""
    if not path.startswith("/"):
        path = "/" + path
    segs = path.split("/")  # ['', 'a', 'b', 'c.html']
    out = ["/".join(segs[:i]) + "/" for i in range(1, len(segs))]
    if path != "/" and not path.endswith("/"):
        out.append(path)
    return out


def hot_path_subtrees(ds, *, host_col: str = "host", path_col: str = "path", threshold: int = 4):
    """(host, path) rows → (host, prefix, n_urls): the deepest per-host
    path prefixes whose subtree count reaches ``threshold``.

    Shape: per-batch (host, prefix) count partials (≤ depth rows per
    URL) → ONE Sum groupby on light pairs → the candidate set
    (count ≥ threshold, ≤ n_urls·max_depth/threshold rows — each URL
    contributes one count to every ancestor, so depth multiplies the
    bound; enforced loudly below) → maximal-depth filter by sorted
    lexicographic-successor ancestry within each host (descendants of a
    prefix are contiguous after it in sorted order, so one successor
    check suffices — O(C log C), never O(C²)).
    """
    from collections import Counter

    from ray.data.aggregate import Sum

    from .blocks import light_table

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for h, p in zip(
            batch.column(host_col).to_pylist(), batch.column(path_col).to_pylist()
        ):
            if h is None or p is None:
                continue
            for pref in path_prefixes(p):
                counts[(h, pref)] += 1
        return pa.table(
            {
                "host": pa.array([k[0] for k in counts], pa.string()),
                "prefix": pa.array([k[1] for k in counts], pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["host", "prefix"])
        .aggregate(Sum("n"))
    )
    import pyarrow.compute as pc

    candidates = agg.map_batches(
        lambda b: pa.table(
            {
                "host": b.column("host"),
                "prefix": b.column("prefix"),
                "n_urls": b.column("sum(n)").cast(pa.int64()),
            }
        ).filter(pc.greater_equal(pc.field("n_urls"), threshold)),
        batch_format="pyarrow",
    )
    # candidate set is the bounded driver small side: resolve maximality
    tbl = light_table(
        candidates,
        pa.schema(
            [("host", pa.string()), ("prefix", pa.string()), ("n_urls", pa.int64())]
        ),
    )
    if tbl is None:
        raise ValueError(
            "hot_path_subtrees: the candidates exceed the driver bound; "
            "raise threshold"
        )
    rows = tbl.to_pylist()
    by_host: dict[str, list[dict]] = {}
    for r in rows:
        by_host.setdefault(r["host"], []).append(r)
    out_h, out_p, out_n = [], [], []
    for h, cands in sorted(by_host.items()):
        cands.sort(key=lambda c: c["prefix"])
        for i, c in enumerate(cands):
            p = c["prefix"]
            # a descendant candidate would sort immediately after p:
            # one successor check replaces the O(C²) any() scan
            nxt = cands[i + 1]["prefix"] if i + 1 < len(cands) else None
            if nxt is not None and nxt.startswith(p):
                continue  # a deeper candidate exists — not maximal
            out_h.append(h)
            out_p.append(p)
            out_n.append(c["n_urls"])
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array(out_h, pa.string()),
                "prefix": pa.array(out_p, pa.string()),
                "n_urls": pa.array(out_n, pa.int64()),
            }
        )
    )
