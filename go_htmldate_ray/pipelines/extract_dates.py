"""Flagship pipeline: pages → publication dates.

``read_parquet(documents) → synthesize pages → map_batches(HtmldateExtractor
actor pool) → (date columns)``.  Streaming end to end: no stage
materialises the corpus; the extract stage is the CPU-bound hot spot and
is sized with an actor pool.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.pages import read_pages
from ..stages.extract_stage import HtmldateExtractor


def _url_hosts(url_col):
    """Vectorized scheme://<host> extraction (one RE2 pass, zero Python
    per row) — the single authority-parsing rule shared by every
    host-keyed pipeline here (RFC 3986 scheme, no trailing-slash
    requirement)."""
    return pc.struct_field(
        pc.extract_regex(
            url_col, r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<host>[^/?#]*)"
        ),
        "host",
    )


def extract_dates(
    sf_dir: str,
    *,
    skip_extensive_search: bool = True,
    concurrency=(1, 8),
):
    """Dataset of (doc_id, url, date_str, ...) for the sf dir's pages."""
    pages = read_pages(sf_dir)
    extracted = pages.map_batches(
        HtmldateExtractor,
        fn_constructor_kwargs={
            "use_original_date": True,
            "skip_extensive_search": skip_extensive_search,
        },
        batch_format="pyarrow",
        batch_size=64,
        concurrency=concurrency,
        num_cpus=1,
        # deterministic stage + resumable outputs: fail fast to the retry
        # layer instead of actor restart (restart with object-store ctor
        # args is unreliable anyway — ray#53727 — and logs an error)
        max_restarts=0,
    )
    return extracted.select_columns(["doc_id", "url", "date_str"])


def url_dates(sf_dir: str):
    """Vectorized URL-date fast path: a single ``pyarrow.compute``
    regex over the url column — no DOM, no Python loop (the M1 stage,
    extractors.go:50-69, as a pure Arrow kernel)."""
    pages = read_pages(sf_dir)

    def extract(batch: pa.Table) -> pa.Table:
        urls = pc.cast(batch.column("url"), pa.string())
        m = pc.extract_regex(
            urls, r"[^0-9](?P<y>199[0-9]|20[0-3][0-9])[/_-](?P<m>[0-1]?[0-9])[/_-](?P<d>[0-3]?[0-9])(?:[^0-9]|$)"
        )
        y = pc.struct_field(m, "y")
        mo = pc.struct_field(m, "m")
        d = pc.struct_field(m, "d")
        pad2 = lambda a: pc.utf8_lpad(a, 2, "0")
        date = pc.binary_join_element_wise(y, pad2(mo), pad2(d), "-")
        # '' instead of null for no-date rows: null representations differ
        # across engines and would break the order-insensitive value hash.
        date = pc.fill_null(date, "")
        return pa.table({"doc_id": batch.column("doc_id"), "url_date": date})

    return pages.map_batches(extract, batch_format="pyarrow")


def date_year_histogram(sf_dir: str, *, skip_extensive_search: bool = True):
    """Corpus temporal profile: extracted publication dates → per-year
    page counts (the freshness histogram a crawl operator watches).

    Partial count combiner inside ``map_batches`` (≤ n_distinct_years
    rows per block — a few dozen) → one tiny ``Sum`` groupby; undated
    pages are dropped, never counted as a year."""
    from ray.data.aggregate import Sum

    ds = extract_dates(sf_dir, skip_extensive_search=skip_extensive_search)

    def partial(batch: pa.Table) -> pa.Table:
        dates = pc.fill_null(pc.cast(batch.column("date_str"), pa.string()), "")
        years = pc.utf8_slice_codeunits(dates, 0, 4)
        years = years.filter(pc.not_equal(years, ""))
        vc = pc.value_counts(years.combine_chunks() if isinstance(years, pa.ChunkedArray) else years)
        return pa.table(
            {
                "year": vc.field("values"),
                "n": vc.field("counts").cast(pa.int64()),
            }
        )

    from ..stages.combine import combine_sum_by

    # ≤ a few dozen distinct years: one merge task beats the sort exchange
    return combine_sum_by(
        ds.map_batches(partial, batch_format="pyarrow"), ["year"], ["n"]
    ).map_batches(
        lambda b: pa.table(
            {
                "year": b.column("year"),
                "n_pages": b.column("n").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def host_page_counts(sf_dir: str):
    """Per-host page counts — the crawl-stats groupby (shuffle key: host)."""
    pages = read_pages(sf_dir)

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": _url_hosts(batch.column("url")),
                "doc_id": batch.column("doc_id"),
            }
        )

    counts = pages.map_batches(add_host, batch_format="pyarrow").groupby("host").count()
    return counts.map_batches(
        lambda b: pa.table({"host": b.column("host"), "n_pages": b.column("count()")}),
        batch_format="pyarrow",
    )


def url_components(sf_dir: str):
    """Structural URL decomposition — scheme / host / path / depth /
    filename per page, entirely as ``pyarrow.compute`` kernels (one
    RE2 extract + substring arithmetic, zero Python per row).  The
    canonical pre-step of host-level sampling, path-prefix filters and
    sitemap diffing over a Common-Crawl-style frontier."""
    pages = read_pages(sf_dir)

    def split(batch: pa.Table) -> pa.Table:
        urls = pc.cast(batch.column("url"), pa.string())
        m = pc.extract_regex(
            urls,
            r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[^/?#]*)(?P<path>[^?#]*)",
        )
        scheme = pc.fill_null(pc.struct_field(m, "scheme"), "")
        host = pc.fill_null(pc.struct_field(m, "host"), "")
        path = pc.fill_null(pc.struct_field(m, "path"), "")
        depth = pc.count_substring(path, "/").cast(pa.int64())
        # filename = path after the last '/'; '' when path is empty
        fname = pc.fill_null(
            pc.struct_field(pc.extract_regex(path, r"/(?P<f>[^/]*)$"), "f"), ""
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "scheme": scheme,
                "host": host,
                "path": path,
                "path_depth": depth,
                "filename": fname,
            }
        )

    return pages.map_batches(split, batch_format="pyarrow")


def warc_extract_dates(sf_dir: str, *, shard_dir: str | None = None):
    """End-to-end Common-Crawl shape: WARC shards → parse → date extract.

    The synthetic page space is materialized once as gzip'd WARC shards
    (cached under /tmp keyed by sf dir + row count — rebuilt only when
    the fixture changes), then read back through the real container
    path: ``read_binary_files`` → per-shard WARC parse → doc_id
    recovered from the URL (CC records carry no foreign ids) →
    actor-pool extractor.  Output matches :func:`extract_dates`, so the
    same SQL oracle verifies the whole container round-trip."""
    from ..sources.warc import read_warc

    if shard_dir is None:
        shard_dir = _warc_shard_cache(sf_dir)
    else:
        _build_shards(sf_dir, shard_dir)

    pages = read_warc(shard_dir)

    def add_doc_id(batch: pa.Table) -> pa.Table:
        ids = pc.struct_field(
            pc.extract_regex(batch.column("url"), r"(?P<id>[0-9]+)\.html$"), "id"
        )
        return batch.append_column("doc_id", pc.cast(ids, pa.int64()))

    extracted = pages.map_batches(add_doc_id, batch_format="pyarrow").map_batches(
        HtmldateExtractor,
        fn_constructor_kwargs={
            "use_original_date": True,
            "skip_extensive_search": True,
        },
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 8),
        num_cpus=1,
        max_restarts=0,
    )
    return extracted.select_columns(["doc_id", "url", "date_str"])


def host_staleness(sf_dir: str):
    """Recrawl prioritization signal: per-host page count + total
    capture-vs-publication age.  The table a recrawl scheduler sorts by
    (stalest hosts first) when allocating the next crawl budget.

    Shape: extractor actor pool (warc_ts rides through) → per-batch
    partial ``(host, n, sum_age)`` rows — ≤ n_distinct_hosts per block —
    → one tiny Sum groupby.  Ages are exact integer day-numbers, so the
    oracle is pure integer SQL (no float-average representation drift)."""
    from ray.data.aggregate import Sum

    pages = read_pages(sf_dir)
    extracted = pages.map_batches(
        HtmldateExtractor,
        fn_constructor_kwargs={
            "use_original_date": True,
            "skip_extensive_search": True,
        },
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 8),
        num_cpus=1,
        max_restarts=0,
    )

    _DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        hosts = pc.fill_null(_url_hosts(batch.column("url")), "")
        pub = pc.strptime(
            pc.cast(batch.column("date_str"), pa.string()),
            format="%Y-%m-%d",
            unit="us",
            error_is_null=True,
        )
        pub_us = pc.cast(pub, pa.int64()).to_numpy(zero_copy_only=False)
        warc_us = pc.cast(
            pc.cast(batch.column("warc_ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        age = warc_us // _DAY_US - pub_us // _DAY_US
        t = pa.table(
            {"host": hosts, "age": pa.array(age, pa.int64())}
        )
        # per-block combine: one row per distinct host in this batch
        idx = pc.sort_indices(t, sort_keys=[("host", "ascending")])
        t = t.take(idx)
        h = t.column("host").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(
            np.concatenate(([True], h[1:] != h[:-1])) if len(h) else np.array([], bool)
        )
        bounds = np.append(starts, len(h))
        ages = t.column("age").to_numpy(zero_copy_only=False)
        sums = np.add.reduceat(ages, starts) if len(h) else np.array([], np.int64)
        return pa.table(
            {
                "host": pa.array([h[i] for i in starts], pa.string()),
                "n": pa.array(bounds[1:] - starts, pa.int64()),
                "sum_age": pa.array(sums, pa.int64()),
            }
        )

    return (
        extracted.map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("n"), Sum("sum_age"))
        .map_batches(
            lambda b: pa.table(
                {
                    "host": b.column("host"),
                    "n_pages": b.column("sum(n)").cast(pa.int64()),
                    "sum_age_days": b.column("sum(sum_age)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _build_shards(sf_dir: str, shard_dir: str) -> None:
    """Synthesize WARC shards into shard_dir unless the completion
    marker is present (a crashed partial synth lacks the marker and is
    overwritten shard-by-shard — names are deterministic)."""
    import os

    from ..sources.pages import count_documents
    from ..sources.warc import synthesize_warc_shards

    done_marker = os.path.join(shard_dir, ".complete")
    if os.path.exists(done_marker):
        return
    n_docs = count_documents(sf_dir)
    manifest = synthesize_warc_shards(sf_dir, shard_dir)
    n_written = int(pc.sum(manifest.column("n_records")).as_py() or 0)
    if n_written != n_docs:
        raise RuntimeError(f"warc synth wrote {n_written} records, expected {n_docs}")
    with open(done_marker, "w") as f:
        f.write(str(n_docs))


def _warc_shard_cache(sf_dir: str) -> str:
    """Shared /tmp shard cache used by the WARC queries (built once)."""
    import os

    from ..sources.pages import count_documents

    n_docs = count_documents(sf_dir)
    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    shard_dir = f"/tmp/ghr-warc-{tag}-{n_docs}"
    _build_shards(sf_dir, shard_dir)
    return shard_dir


def warc_random_access_dates(sf_dir: str, *, max_doc_id: int = 20):
    """CDX-indexed random access: build the ``(url, shard, offset,
    length)`` index distributedly, select the target records, and fetch
    each ONE by seek+bounded-read — no shard scan — then extract its
    date.  The per-record path a link-following service (or a targeted
    recrawl) uses against a WARC archive; verified against the same SQL
    oracle as the full-scan pipeline, restricted to the same ids."""
    import os

    from ..sources.warc import cdx_index, read_warc_record

    shard_dir = _warc_shard_cache(sf_dir)
    index = cdx_index(shard_dir)

    def pick(batch: pa.Table) -> pa.Table:
        ids = pc.cast(
            pc.struct_field(
                pc.extract_regex(batch.column("url"), r"(?P<id>[0-9]+)\.html$"), "id"
            ),
            pa.int64(),
        )
        batch = batch.append_column("doc_id", ids)
        return batch.filter(pc.less(ids, max_doc_id))

    def fetch(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for shard, off, length in zip(
            batch.column("shard").to_pylist(),
            batch.column("offset").to_pylist(),
            batch.column("length").to_pylist(),
        ):
            rec = read_warc_record(os.path.join(shard_dir, shard), off, length)
            urls.append(rec[0] if rec else "")
            htmls.append(rec[2] if rec else b"")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    extracted = (
        index.map_batches(pick, batch_format="pyarrow")
        .map_batches(fetch, batch_format="pyarrow")
        .map_batches(
            HtmldateExtractor,
            fn_constructor_kwargs={
                "use_original_date": True,
                "skip_extensive_search": True,
            },
            batch_format="pyarrow",
            batch_size=64,
            concurrency=(1, 4),
            num_cpus=1,
            max_restarts=0,
        )
    )
    return extracted.select_columns(["doc_id", "url", "date_str"])


def page_staleness(sf_dir: str, *, skip_extensive_search: bool = True):
    """Capture-time freshness: days between each page's WARC capture
    timestamp and its extracted publication date — the signal a recrawl
    scheduler ranks hosts by.  Negative = published after capture.

    The extractor stage passes the pages schema through, so warc_ts
    rides along; the age arithmetic is integer day-numbers (epoch-µs
    floor-divided), exactly the DATE-subtraction the SQL oracle runs."""
    pages = read_pages(sf_dir)
    extracted = pages.map_batches(
        HtmldateExtractor,
        fn_constructor_kwargs={
            "use_original_date": True,
            "skip_extensive_search": skip_extensive_search,
        },
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 8),
        num_cpus=1,
        max_restarts=0,
    )

    _DAY_US = 86_400_000_000

    def age(batch: pa.Table) -> pa.Table:
        pub = pc.strptime(
            pc.cast(batch.column("date_str"), pa.string()),
            format="%Y-%m-%d",
            unit="us",
            error_is_null=True,
        )
        pub_us = pc.cast(pub, pa.int64()).to_numpy(zero_copy_only=False)
        warc_us = pc.cast(
            pc.cast(batch.column("warc_ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        age_days = warc_us // _DAY_US - pub_us // _DAY_US
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "age_days": pa.array(age_days, pa.int64()),
            }
        )

    return extracted.map_batches(age, batch_format="pyarrow")


def host_link_edges(sf_dir: str):
    """Host-level connectivity graph from REAL page parses: each page's
    ``<a href>`` anchors are extracted from its DOM (the same tokenizer
    the cascade uses, not the id formula) and aggregated into
    (src_host, dst_host, n_links) edges — the input a host-level
    PageRank or spam-cluster analysis consumes.

    Shape: parse + per-batch pair-count partials (≤ distinct host pairs
    per block) → one small Sum groupby."""
    from collections import Counter

    from ray.data.aggregate import Sum

    from .. import dom
    from ..state.urls import host_of

    pages = read_pages(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        urls = batch.column("url").to_pylist()
        for url, html in zip(urls, batch.column("html").to_pylist()):
            # host_of (urlsplit hostname) lowercases — the SAME host
            # identity the frontier / politeness / host_page_counts use;
            # a local regex would split Site5 vs site5 into two edges
            src = host_of(url or "")
            tree = dom.parse_html(html or b"")
            for el in tree.iter_elements():
                if el.tag == "a":
                    href = el.attr("href")
                    if href:
                        dst = host_of(href)
                        if dst:
                            counts[(src, dst)] += 1
        if not counts:
            return pa.table(
                {
                    "src_host": pa.array([], pa.string()),
                    "dst_host": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        srcs, dsts = zip(*counts.keys())
        return pa.table(
            {
                "src_host": pa.array(list(srcs), pa.string()),
                "dst_host": pa.array(list(dsts), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        pages.map_batches(partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n"))
        .map_batches(
            lambda b: pa.table(
                {
                    "src_host": b.column("src_host"),
                    "dst_host": b.column("dst_host"),
                    "n_links": b.column("sum(n)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def anchor_text_summary(sf_dir: str):
    """Per-target anchor-text aggregation from REAL page parses — the
    classic web-index signal (anchor text describes the *target* page
    better than the page itself; every large-scale indexer aggregates
    it per URL before ranking).

    For every ``<a href>`` in the corpus emit ``(dst_url, anchor_text)``
    and aggregate per target URL:

      ``n_inlinks``       total anchors pointing at the URL
      ``n_anchor_texts``  distinct anchor strings used for it
      ``top_anchor``      most-frequent anchor text (ties broken by the
                          lexicographically smallest string), i.e. the
                          title a search index would surface

    Shape: parse → per-batch ``(dst, anchor)`` Counter partials (counts
    pre-combined per block, so a mega-inlinked homepage collapses to one
    row per distinct anchor per block) → ONE ``groupby(dst, anchor)``
    Sum → per-dst finalize.  The finalize groups carry one row per
    *distinct anchor string*, not per inlink, so group size is bounded
    by anchor vocabulary (small in practice) even for the hottest URL;
    an adversarial URL with millions of distinct anchors would need the
    same star-sampling cap the LSH buckets use (documented, not needed
    here).
    """
    return anchor_summary_from_pages(read_pages(sf_dir))


def anchor_summary_from_pages(pages):
    """Core of :func:`anchor_text_summary` over any pages Dataset with
    an ``html`` binary column (tested directly on constructed pages)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    from .. import dom

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for html in batch.column("html").to_pylist():
            tree = dom.parse_html(html or b"")
            for el in tree.iter_elements():
                if el.tag == "a":
                    href = el.attr("href")
                    if href:
                        # single-space-normalized anchor text: the DOM
                        # text_content of the <a> element
                        txt = " ".join(el.text_content().split())
                        counts[(href, txt)] += 1
        if not counts:
            return pa.table(
                {
                    "dst_url": pa.array([], pa.string()),
                    "anchor_text": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        dsts, txts = zip(*counts.keys())
        return pa.table(
            {
                "dst_url": pa.array(list(dsts), pa.string()),
                "anchor_text": pa.array(list(txts), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def finalize(group: pa.Table) -> pa.Table:
        dst = group.column("dst_url")[0].as_py()
        anchors = group.column("anchor_text").to_pylist()
        ns = group.column("sum(n)").to_pylist()
        top = min(zip(anchors, ns), key=lambda p: (-p[1], p[0]))[0]
        return pa.table(
            {
                "dst_url": pa.array([dst], pa.string()),
                "n_inlinks": pa.array([int(sum(ns))], pa.int64()),
                "n_anchor_texts": pa.array([len(anchors)], pa.int64()),
                "top_anchor": pa.array([top], pa.string()),
            }
        )

    return (
        pages.map_batches(partial, batch_format="pyarrow")
        .groupby(["dst_url", "anchor_text"])
        .aggregate(Sum("n"))
        .groupby("dst_url")
        .map_groups(finalize, batch_format="pyarrow")
    )


def redirect_resolution(sf_dir: str):
    """Redirect-chain resolution over a synthesized per-URL redirect
    map: every URL whose ``doc_id % 8 != 0`` 301-redirects to
    ``doc_id - 1`` (chains up to 7 hops ending at multiples of 8; final
    pages map to themselves).  Output per URL: the final URL its chain
    lands on and the exact hop count — what a crawler folds into its
    frontier before fetch so chain members collapse to one fetch.

    Shape: synthesize the (id, url, next_id) map per batch → int64
    path-doubling resolution (:func:`~go_htmldate_ray.stages.graph.
    resolve_pointers`, log₂(chain) bucketed join rounds) → two more
    hash joins re-attaching the source and final URL strings from the
    map itself (ids travel through every exchange; URL strings only on
    the last joins).  A map within
    :func:`~go_htmldate_ray.stages.blocks.light_table`'s budget skips
    both joins: the id→url table broadcasts once and attaches via one
    searchsorted pass (the same hybrid small side the dedup verify
    stages use).
    """
    from ..sources.io import read_parquet_clean
    from ..sources.pages import page_url
    from ..stages.blocks import light_table
    from ..stages.graph import resolve_pointers
    from ..stages.joins import hash_join, sorted_lookup

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def make_map(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "page_url": pa.array([page_url(i) for i in ids], pa.string()),
                "next_id": pa.array(
                    [i - 1 if i % 8 != 0 else i for i in ids], pa.int64()
                ),
            }
        )

    # materialize the map once: resolve_pointers (count + prep), the
    # broadcast collect, and both join sides otherwise re-execute the
    # parquet read + URL synthesis lineage up to 4x per call
    rmap = docs.map_batches(make_map, batch_format="pyarrow").materialize()
    resolved = resolve_pointers(
        rmap.select_columns(["id", "next_id"]),
        src="id",
        nxt="next_id",
        max_chain=8,
    )
    pairs = light_table(
        rmap, pa.schema([("id", pa.int64()), ("page_url", pa.string())])
    )
    if pairs is not None:
        # broadcast re-attach: the id->url map ships once (sorted-id
        # numpy + object array via ray.put) and BOTH url columns attach
        # in one searchsorted pass — two barrier joins saved; the join
        # path below is the scale route
        import numpy as np
        import ray

        ids_sorted = pairs.column("id").to_numpy()
        order = np.argsort(ids_sorted)
        ids_sorted = ids_sorted[order]
        urls_arr = np.array(pairs.column("page_url").to_pylist(), dtype=object)[order]
        map_ref = ray.put((ids_sorted, urls_arr))

        def attach(batch: pa.Table) -> pa.Table:
            ids_s, urls_s = ray.get(map_ref)
            si, sok = sorted_lookup(ids_s, np.asarray(batch.column("src"), dtype=np.int64))
            fi, fok = sorted_lookup(ids_s, np.asarray(batch.column("final"), dtype=np.int64))
            # ids absent from the map drop, matching the inner-join
            # scale path (instead of silently attaching a neighbor URL)
            ok = sok & fok
            return pa.table(
                {
                    "url": pa.array(urls_s[si[ok]], pa.string()),
                    "final_url": pa.array(urls_s[fi[ok]], pa.string()),
                    "hops": batch.column("hops").filter(pa.array(ok)),
                }
            )

        return resolved.map_batches(attach, batch_format="pyarrow")

    from ..sources.pages import count_documents
    from ..stages.joins import adaptive_buckets

    n_buckets = adaptive_buckets(count_documents(sf_dir))
    with_src = hash_join(
        resolved,
        rmap.select_columns(["id", "page_url"]).map_batches(
            lambda b: pa.table({"mid": b.column("id"), "url": b.column("page_url")}),
            batch_format="pyarrow",
        ),
        on="src",
        right_on="mid",
        n_buckets=n_buckets,
    )
    with_final = hash_join(
        with_src,
        rmap.select_columns(["id", "page_url"]).map_batches(
            lambda b: pa.table(
                {"fid": b.column("id"), "final_url": b.column("page_url")}
            ),
            batch_format="pyarrow",
        ),
        on="final",
        right_on="fid",
        n_buckets=n_buckets,
    )
    return with_final.select_columns(["url", "final_url", "hops"])


def crawl_budget_allocation(sf_dir: str, *, budget: int = 1000):
    """Per-wave fetch-budget apportionment over the synthesized
    frontier: vectorized host extraction (the host_page_counts regex)
    → :func:`~go_htmldate_ray.stages.sampling.budget_allocation`
    (cumulative rounding; allocations sum to exactly ``budget``)."""
    from ..stages.sampling import budget_allocation

    pages = read_pages(sf_dir)

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": _url_hosts(batch.column("url"))})

    return budget_allocation(
        pages.map_batches(add_host, batch_format="pyarrow"), budget=budget
    )


def url_alias_map(sf_dir: str):
    """DUST-style alias→canonical URL map over the synthesized frontier
    (:func:`~go_htmldate_ray.stages.dedup.url_aliases`).

    Planting: the natural corpus has NO exact-duplicate texts, so an
    unplanted oracle would be vacuous (0 rows proves only the
    no-false-positive side).  Every doc with ``doc_id % 41 == 3``
    therefore serves the shared mirror body ``'mirror family
    <doc_id % 3>'`` instead of its own text — deterministic pure-integer
    planting the SQL oracle recomputes exactly, the same convention
    ``normalize_text`` uses for decomposed characters."""
    from ..sources.io import read_parquet_clean
    from ..sources.pages import page_url
    from ..stages.dedup import url_aliases

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def content_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "url": pa.array([page_url(i) for i in ids], pa.string()),
                "content": pa.array(
                    [
                        f"mirror family {i % 3}" if i % 41 == 3 else (t or "")
                        for i, t in zip(ids, texts)
                    ],
                    pa.string(),
                ),
            }
        )

    return url_aliases(docs.map_batches(content_rows, batch_format="pyarrow"))


def host_change_rates(sf_dir: str):
    """Change-based recrawl scheduling signal (the complement of the
    age-based :func:`host_staleness`): per host, how much of its tracked
    page set changed between the two crawl snapshots
    :func:`~go_htmldate_ray.stages.dedup.snapshot_diff` compares —
    ``change_rate_ppm = n_changed * 10^6 // n_tracked`` (exact integer
    parts-per-million; a Cho–Garcia-Molina-style revisit policy orders
    hosts by this).  Tracked = pages present in BOTH snapshots
    (status changed/unchanged); new and gone pages carry no change
    evidence and are excluded.

    Shape: the real snapshot_diff pipeline (content-hash FULL-outer
    join + classify) → stateless host attach → per-batch (host, n,
    n_changed) partials → ONE keyed Sum groupby → exact ppm map.
    """
    from ray.data.aggregate import Sum

    from ..sources.io import read_parquet_clean
    from ..sources.pages import page_host
    from ..stages.dedup import snapshot_diff

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    statuses = snapshot_diff(docs)

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        n: Counter = Counter()
        ch: Counter = Counter()
        for doc_id, status in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("status").to_pylist(),
        ):
            if status not in ("changed", "unchanged"):
                continue
            host = page_host(doc_id)
            n[host] += 1
            if status == "changed":
                ch[host] += 1
        hosts = sorted(n)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "n": pa.array([n[h] for h in hosts], pa.int64()),
                "nch": pa.array([ch.get(h, 0) for h in hosts], pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        import numpy as np

        n = np.asarray(batch.column("sum(n)"), dtype=np.int64)
        nch = np.asarray(batch.column("sum(nch)"), dtype=np.int64)
        return pa.table(
            {
                "host": batch.column("host"),
                "n_tracked": pa.array(n, pa.int64()),
                "n_changed": pa.array(nch, pa.int64()),
                "change_rate_ppm": pa.array(
                    nch * 1_000_000 // n, pa.int64()
                ),
            }
        )

    return (
        statuses.map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("n"), Sum("nch"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def charset_audit(sf_dir: str):
    """Distributed charset-detection audit: what encoding the parser's
    sniffing (BOM → meta-charset → utf-8 → latin-1;
    :func:`~go_htmldate_ray.dom.decode_with_info`) actually uses per
    page — the ingest-hygiene report a CC-scale crawl runs before
    trusting its text column.

    Planting (the corpus is all-utf-8, so unplanted the audit is
    vacuous): by ``doc_id % 13`` — 1 → windows-1252-declared page with
    a 0xE9 byte, 2 → UTF-8 BOM, 3 → iso-8859-1-declared, 4 → UNDECLARED
    non-UTF-8 bytes (exercises the latin-1 fallback), else the standard
    synthesized page (meta charset="utf-8").  Detection runs the REAL
    sniffing code on real bytes; only the page bytes are synthetic.
    """
    from .. import dom
    from ..sources.io import read_parquet_clean
    from ..sources.pages import build_page_html, count_documents

    n_docs = count_documents(sf_dir)
    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def raw_page(doc_id: int, text: str, lang: str) -> bytes:
        v = doc_id % 13
        if v == 1:
            return (
                b'<html><head><meta charset="windows-1252"/></head>'
                b"<body>caf\xe9 " + str(doc_id).encode() + b"</body></html>"
            )
        if v == 2:
            return b"\xef\xbb\xbf<html><body>bom page " + str(doc_id).encode() + b"</body></html>"
        if v == 3:
            return (
                b'<html><head><meta charset="iso-8859-1"/></head>'
                b"<body>na\xefve " + str(doc_id).encode() + b"</body></html>"
            )
        if v == 4:
            return b"<html><body>undeclared caf\xe9 " + str(doc_id).encode() + b"</body></html>"
        return build_page_html(doc_id, text or "", lang or "en", n_docs)

    def audit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        decl, used, bom = [], [], []
        for i, t, lg in zip(ids, texts, langs):
            _, u, d, b = dom.decode_with_info(raw_page(i, t, lg))
            decl.append(d)
            used.append(u)
            bom.append(b)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "declared_charset": pa.array(decl, pa.string()),
                "used_charset": pa.array(used, pa.string()),
                "has_bom": pa.array(bom, pa.bool_()),
            }
        )

    return docs.map_batches(audit, batch_format="pyarrow")


def bloom_seen_audit(sf_dir: str, *, m_bits: int = 1024, k: int = 4):
    """Bloom-filter URL-seen membership audit over the synthesized
    frontier (:mod:`~go_htmldate_ray.state.bloom` — the commutative
    OR-monoid half of the north rule's URL-seen state; the exact,
    wave-ordered half is the crawl's driver-side sorted array in
    :mod:`~go_htmldate_ray.state.seen_filter`).

    Build side = URLs with ``doc_id % 3 != 0`` ("visited" on a prior
    crawl); probe side = the whole frontier.  The filter is deliberately
    UNDERSIZED (1024 bits for ~333 keys at sf0.01, fill ≈ 0.73) so the
    audit exercises both answer classes: Bloom false positives are the
    operator's defining behavior, and a right-sized filter over this
    fixture would report zero and prove only the no-false-negative side.

    Shape: pruned single-column read → per-block bitmap partials (one
    fixed-size row per block, keys never leave their block) → tiny
    driver OR (m_bits/8 bytes x n_blocks) → broadcast probe.  At 10^10
    keys the bitmap is GiB-sized: same flow, with the combine as a tree
    of ORs and the probe resolving a ``ray.put`` ref once per worker.
    """
    from ..sources.io import read_parquet_clean
    from ..sources.pages import page_url
    from ..state import bloom

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def url_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "url": pa.array([page_url(i) for i in ids], pa.string()),
            }
        )

    urls = docs.map_batches(url_rows, batch_format="pyarrow")

    def build_partial(batch: pa.Table) -> pa.Table:
        mask = batch.column("doc_id").to_numpy() % 3 != 0
        seen = batch.filter(pa.array(mask))
        return bloom.partial_bitmap_batch(seen, key_column="url", m_bits=m_bits, k=k)

    # one m_bits/8-byte row PER BLOCK, not per key
    partials = urls.map_batches(build_partial, batch_format="pyarrow").take_all()
    filt = bloom.combine_bitmaps(partials, m_bits=m_bits, k=k)
    words = filt.words  # sub-KiB here; ray.put + per-worker resolve at scale

    def probe(batch: pa.Table) -> pa.Table:
        f = bloom.BloomFilter(m_bits, k)
        f.words = words
        ids = batch.column("doc_id").to_numpy()
        hashes = bloom.hash_keys(batch.column("url").to_pylist())
        maybe = f.contains_hashes(hashes)
        is_seen = (ids % 3) != 0
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "maybe_seen": pa.array(maybe, pa.bool_()),
                "is_seen": pa.array(is_seen, pa.bool_()),
                "false_positive": pa.array(maybe & ~is_seen, pa.bool_()),
            }
        )

    return urls.map_batches(probe, batch_format="pyarrow")


def _psl_fixture_hosts(ids: list[int]) -> list[str]:
    """Deterministic doc_id → host map hitting every publicsuffix.org
    algorithm branch (mirrored literally in the SQL oracles)."""
    hosts = []
    for i in ids:
        v = i % 8
        if v == 0:
            hosts.append(f"www.paper{i % 11}.co.uk")
        elif v == 1:
            hosts.append(f"news{i % 11}.com")
        elif v == 2:
            hosts.append(f"user{i % 11}.github.io")
        elif v == 3:
            hosts.append(f"shop{i % 11}.com.au")
        elif v == 4:
            hosts.append(f"a{i % 5}.b{i % 3}.ck")
        elif v == 5:
            hosts.append("github.io" if i % 16 == 5 else "www.ck")
        elif v == 6:
            hosts.append(f"archive.m{i % 11}.edu.cn")
        else:
            hosts.append(f"site{i % 11}.example.org")
    return hosts


def registrable_domains(sf_dir: str):
    """Registrable-domain extraction (publicsuffix.org algorithm,
    :func:`~go_htmldate_ray.state.urls.split_registrable`) — the key
    per-domain crawl state should group on instead of raw host.

    The natural corpus hosts are all ``siteN.example.org`` (one
    registrable domain — a degenerate fixture), so hosts are synthesized
    deterministically from ``doc_id`` to hit every algorithm branch:
    multi-label exact rules (co.uk, com.au, edu.cn), private-registry
    rules (github.io), wildcard ``*.ck``, the exception ``!www.ck``,
    host == public suffix (NULL registrable), and the implicit ``*``
    default.  Pure-integer derivation, recomputed exactly by the SQL
    oracle.  Stateless vectorized batch map — no shuffle."""
    from ..sources.io import read_parquet_clean
    from ..state.urls import registrable_domain_batch

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hosts = _psl_fixture_hosts(ids)
        sufs, regs = registrable_domain_batch(hosts)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "host": pa.array(hosts, pa.string()),
                "public_suffix": pa.array(sufs, pa.string()),
                # '' not NULL for host == suffix: null representations
                # differ across engines and break the driver value hash
                "registrable_domain": pa.array(
                    [r or "" for r in regs], pa.string()
                ),
            }
        )

    return docs.map_batches(rows, batch_format="pyarrow")


def domain_page_counts(sf_dir: str):
    """Per-REGISTRABLE-DOMAIN page counts over the PSL host fixture —
    the aggregation granularity per-domain politeness and quota state
    should use (``a.blog.x.co.uk`` and ``b.blog.x.co.uk`` are one
    administrative site).  Composition: :func:`registrable_domains` →
    per-batch count partials → one tiny Sum groupby (cardinality =
    distinct domains, far below distinct hosts)."""
    from ray.data.aggregate import Sum

    ds = registrable_domains(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        reg = batch.column("registrable_domain").to_pylist()
        suf = batch.column("public_suffix").to_pylist()
        from collections import Counter

        # suffix-only hosts (registrable == '') group under the suffix
        # itself: they are still one fetch target
        c = Counter(r or s for r, s in zip(reg, suf))
        keys = sorted(c)
        return pa.table(
            {
                "domain": pa.array(keys, pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(Sum("n"))
        .map_batches(
            lambda b: pa.table(
                {
                    "domain": b.column("domain"),
                    "n_pages": b.column("sum(n)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def domain_quality_rollup(sf_dir: str):
    """Per-registrable-domain curation rollup — the table a corpus
    curator ranks sites by: (domain, n_docs, total_tokens, total_chars,
    n_en_docs).

    Composition over ONE reused partitioning key: PSL domain extraction
    (:func:`_psl_fixture_hosts` + the publicsuffix algorithm), whitespace
    token counts, codepoint lengths and the stopword lang-ID all computed
    in a single text pass, pre-aggregated per batch by domain (combiner:
    rows per batch ≤ distinct domains), then one tiny Sum groupby.  At
    100 TB the shuffle moves n_domains × n_blocks light rows — never a
    document."""
    from ray.data.aggregate import Sum

    from ..sources.io import read_parquet_clean
    from ..stages.text_stage import lang_id_batch
    from ..state.urls import registrable_domain_batch

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        hosts = _psl_fixture_hosts(ids)
        sufs, regs = registrable_domain_batch(hosts)
        langs = lang_id_batch(batch).column("pred_lang").to_pylist()
        acc: dict[str, list[int]] = {}
        for suf, reg, t, lang in zip(sufs, regs, texts, langs):
            dom = reg or suf  # suffix-only hosts group under the suffix
            a = acc.setdefault(dom, [0, 0, 0, 0])
            a[0] += 1
            a[1] += len((t or "").split())
            a[2] += len(t or "")
            a[3] += int(lang == "en")
        keys = sorted(acc)
        return pa.table(
            {
                "domain": pa.array(keys, pa.string()),
                "n": pa.array([acc[k][0] for k in keys], pa.int64()),
                "toks": pa.array([acc[k][1] for k in keys], pa.int64()),
                "chars": pa.array([acc[k][2] for k in keys], pa.int64()),
                "en": pa.array([acc[k][3] for k in keys], pa.int64()),
            }
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(Sum("n"), Sum("toks"), Sum("chars"), Sum("en"))
        .map_batches(
            lambda b: pa.table(
                {
                    "domain": b.column("domain"),
                    "n_docs": b.column("sum(n)").cast(pa.int64()),
                    "total_tokens": b.column("sum(toks)").cast(pa.int64()),
                    "total_chars": b.column("sum(chars)").cast(pa.int64()),
                    "n_en_docs": b.column("sum(en)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def recrawl_intervals(sf_dir: str, *, max_interval: int = 32):
    """Change-based revisit schedule (Cho & Garcia-Molina, "Effective
    page refresh policies for web crawlers", TODS 2003 — revisit MORE
    often what changes more): per host,

        interval_waves = clamp(10^6 // max(change_rate_ppm, 1) // 16,
                               1, max_interval)

    i.e. a host where every tracked page changed (10^6 ppm) is revisited
    every wave; one with a ~6% change rate every 16 waves-worth scaled,
    capped at ``max_interval``.  Exact integer arithmetic on top of the
    real :func:`host_change_rates` pipeline (snapshot FULL-outer diff →
    per-host ppm) — a stateless map over its ≤n_hosts rows."""
    rates = host_change_rates(sf_dir)

    def schedule(batch: pa.Table) -> pa.Table:
        import numpy as np

        ppm = np.asarray(batch.column("change_rate_ppm"), dtype=np.int64)
        iv = 1_000_000 // np.maximum(ppm, 1) // 16
        iv = np.clip(iv, 1, max_interval)
        return pa.table(
            {
                "host": batch.column("host"),
                "change_rate_ppm": batch.column("change_rate_ppm"),
                "interval_waves": pa.array(iv, pa.int64()),
            }
        )

    return rates.map_batches(schedule, batch_format="pyarrow")


def crawl_trap_hosts(sf_dir: str, *, extra: int = 12, ratio: int = 10):
    """Crawl-trap detection (calendar / session-id URL explosions): per
    host, discovered-URL count vs distinct URL *template* count (every
    digit run collapsed to '0'); a host is flagged when
    ``n_urls >= ratio * n_templates`` — the trap signature of a few path
    shapes generating unbounded URL variants, the reason real crawlers
    budget per-template rather than trusting URL uniqueness.

    Planting: hosts with index % 13 == 5 serve ``extra`` additional
    ``/cal/{doc}/{k}`` variants per page (pure-integer truth the SQL
    oracle replays); other hosts have only their article/date URLs, so
    the flag separates cleanly at the default ratio.

    Shape: stateless URL synthesis → vectorized digit collapse
    (``pyarrow.compute.replace_substring_regex``) → per-batch
    (host, template, count) Arrow group_by combiner → groupby(host,
    template) Sum → groupby(host) Sum+Count → integer rule map.  Every
    shuffled row is a light triple; raw URLs never leave the first pass.
    """
    from ray.data.aggregate import Count, Sum

    from ..sources.io import read_parquet_clean
    from ..sources.pages import N_HOSTS, page_host, page_url

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        hosts, urls = [], []
        for i in batch.column("doc_id").to_pylist():
            h = page_host(i)
            hosts.append(h)
            urls.append(page_url(i))
            if (i % N_HOSTS) % 13 == 5:
                for k in range(extra):
                    hosts.append(h)
                    urls.append(f"https://{h}/cal/{i}/{k}")
        tpl = pc.replace_substring_regex(
            pa.array(urls, pa.string()), pattern="[0-9]+", replacement="0"
        )
        return (
            pa.table({"host": pa.array(hosts, pa.string()), "template": tpl})
            .group_by(["host", "template"])
            .aggregate([([], "count_all")])
        )

    per_tpl = (
        docs.map_batches(synth, batch_format="pyarrow")
        .groupby(["host", "template"])
        .aggregate(Sum("count_all"))
    )
    agg = per_tpl.groupby("host").aggregate(Sum("sum(count_all)"), Count())

    def finish(b: pa.Table) -> pa.Table:
        n_urls = b.column("sum(sum(count_all))").cast(pa.int64())
        n_tpl = b.column("count()").cast(pa.int64())
        trap = pc.cast(
            pc.greater_equal(n_urls, pc.multiply(n_tpl, ratio)), pa.int64()
        )
        return pa.table(
            {
                "host": b.column("host"),
                "n_urls": n_urls,
                "n_templates": n_tpl,
                "trap": trap,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def shard_rendezvous(sf_dir: str, *, n_before: int = 8, n_after: int = 9):
    """Rendezvous (highest-random-weight) shard assignment for the URL
    frontier, evaluated across a cluster resize: every URL is owned by
    ``argmax over shards of md5(shard ':' url)``, so growing ``n_before``
    → ``n_after`` shards moves ONLY the URLs whose new-shard weight wins
    (≈ 1/n_after of the frontier), and every moved URL lands on a NEW
    shard — the minimal-disruption property that keeps a 100 TB seen-set
    resharding from re-shipping everything (contrast ``hash % n``, which
    moves ≈ 1 - 1/n of all keys).

    documents → (doc_id, shard_before, shard_after, moved 0/1); the SQL
    oracle recomputes both argmaxes from the same md5 integers.
    Stateless vectorized batch map — no shuffle at all; at scale this IS
    the partitioner other stages key on.
    """
    import hashlib

    from ..sources.io import read_parquet_clean
    from ..sources.pages import page_url

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def weight(shard: int, url: str) -> int:
        return int.from_bytes(
            hashlib.md5(f"{shard}:{url}".encode("utf-8")).digest()[:8], "big"
        )

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        before, after, moved = [], [], []
        n_all = max(n_before, n_after)  # shrink resizes need both ranges
        for i in ids:
            url = page_url(i)
            # ties are impossible in practice (64-bit md5 collisions) but
            # break to the lowest shard id, matching the oracle's sort
            w = [weight(s, url) for s in range(n_all)]
            b = max(range(n_before), key=lambda s: (w[s], -s))
            a = max(range(n_after), key=lambda s: (w[s], -s))
            before.append(b)
            after.append(a)
            moved.append(int(a != b))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shard_before": pa.array(before, pa.int64()),
                "shard_after": pa.array(after, pa.int64()),
                "moved": pa.array(moved, pa.int64()),
            }
        )

    return docs.map_batches(assign, batch_format="pyarrow")


_LANG_MARKER_RE = None  # compiled lazily; module import stays cheap


def _lang_marker_re():
    global _LANG_MARKER_RE
    if _LANG_MARKER_RE is None:
        import re

        # path SEGMENTS that are bare ISO-639-1-ish language markers
        # (optionally with a region tag, e.g. /en-us/) — the STRAND
        # normalization; host names and query strings are untouched
        _LANG_MARKER_RE = re.compile(
            r"/(?:en|de|fr|es|it|nl|pl|pt|ru|tr|ja|zh|ar|cs|sv|da|ro|hu)"
            r"(?:-[a-z]{2})?(?=/)"
        )
    return _LANG_MARKER_RE


def strip_lang_markers(url: str) -> str:
    """Remove language-marker path segments (``/de/``, ``/en-us/`` …)
    from a URL's PATH — the STRAND URL-template normalization that makes
    mirrored-language page URLs collide on one template key."""
    scheme_end = url.find("://")
    path_start = url.find("/", scheme_end + 3) if scheme_end >= 0 else 0
    if path_start < 0:
        return url
    return url[:path_start] + _lang_marker_re().sub("", url[path_start:])


def insert_lang_marker(url: str, lang: str) -> str:
    """Inverse fixture helper: serve the ``lang`` mirror of ``url`` by
    inserting a ``/{lang}/`` segment at the start of the path."""
    scheme_end = url.find("://")
    path_start = url.find("/", scheme_end + 3) if scheme_end >= 0 else 0
    if path_start < 0:
        return f"{url}/{lang}/"
    return f"{url[:path_start]}/{lang}{url[path_start:]}"


def bitext_candidates(sf_dir: str, *, max_ratio: int = 2):
    """STRAND-style parallel-page (bitext) candidate mining: pages whose
    URLs differ only by a language marker are paired by joining on the
    marker-stripped URL template, then filtered by the classic token-
    length ratio test (``len_a <= 2*len_b`` and vice versa) — the
    URL-matching + length-filter core of Resnik & Smith's STRAND, the
    way crawl-derived translation corpora are seeded.

    The template key is :func:`strip_lang_markers` applied to EACH
    side's own URL — the de side serves a real ``/de/``-segment mirror
    URL and the stripping (not fixture knowledge) is what makes the two
    sides collide, so the operator works on genuinely mirrored URLs.

    Planting: docs with ``doc_id % 23 == 4`` (excluding the date-path
    URL variant ``doc_id % 4 == 2``) serve a ``/de/`` mirror whose token
    count differs by ``doc_id % 3 - 1`` tokens; pure-integer truth the
    SQL oracle replays, and every planted pair passes the ratio test
    (natural fixture texts are far longer than 1 token).

    Shape: stateless URL/template/length synthesis → the general
    distributed :func:`~go_htmldate_ray.stages.joins.hash_join` on the
    template key (one keyed bucket shuffle; templates are unique per
    page pair, so no cartesian amplification) → vectorized ratio filter.
    documents → (en_doc, de_doc, host, n_tokens_en, n_tokens_de).
    """
    from ..sources.io import read_parquet_clean
    from ..sources.pages import page_host, page_url
    from ..stages.joins import hash_join

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _tmpl_hash(url: str) -> int:
        # the join key must be int64 for hash_join; md5>>1 of the
        # marker-stripped template (the text_hash_batch convention)
        import hashlib

        return (
            int.from_bytes(hashlib.md5(url.encode("utf-8")).digest()[:8], "big")
            >> 1
        )

    def sides(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        side, doc, tmpl, host, ntok = [], [], [], [], []
        for i, t in zip(ids, texts):
            n = len((t or "").split())
            h = page_host(i)
            en_url = page_url(i)
            side.append("en")
            doc.append(i)
            tmpl.append(_tmpl_hash(strip_lang_markers(en_url)))
            host.append(h)
            ntok.append(n)
            if i % 23 == 4 and i % 4 != 2:
                side.append("de")
                doc.append(i)
                # the mirror serves a REAL /de/ path-segment URL; only
                # strip_lang_markers makes it collide with the en side
                tmpl.append(_tmpl_hash(strip_lang_markers(insert_lang_marker(en_url, "de"))))
                host.append(h)
                ntok.append(n + (i % 3) - 1)
        return pa.table(
            {
                "side": pa.array(side, pa.string()),
                "doc_id": pa.array(doc, pa.int64()),
                "template_hash": pa.array(tmpl, pa.int64()),
                "host": pa.array(host, pa.string()),
                "n_tokens": pa.array(ntok, pa.int64()),
            }
        )

    # materialized: both side branches consume this, and re-running the
    # synthesis map (read + tokenize + md5) per branch doubles the most
    # expensive stage
    rows = docs.map_batches(sides, batch_format="pyarrow").materialize()
    en = rows.map_batches(
        lambda b: b.filter(pc.equal(b.column("side"), "en")),
        batch_format="pyarrow",
    ).map_batches(
        lambda b: pa.table(
            {
                "template_hash": b.column("template_hash"),
                "en_doc": b.column("doc_id"),
                "host": b.column("host"),
                "n_tokens_en": b.column("n_tokens"),
            }
        ),
        batch_format="pyarrow",
    )
    de = rows.map_batches(
        lambda b: b.filter(pc.equal(b.column("side"), "de")),
        batch_format="pyarrow",
    ).map_batches(
        lambda b: pa.table(
            {
                "template_hash": b.column("template_hash"),
                "de_doc": b.column("doc_id"),
                "n_tokens_de": b.column("n_tokens"),
            }
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(en, de, on="template_hash")

    def ratio_filter(b: pa.Table) -> pa.Table:
        a = b.column("n_tokens_en")
        d = b.column("n_tokens_de")
        ok = pc.and_(
            pc.less_equal(a, pc.multiply(d, max_ratio)),
            pc.less_equal(d, pc.multiply(a, max_ratio)),
        )
        out = b.filter(ok)
        return pa.table(
            {
                "en_doc": out.column("en_doc"),
                "de_doc": out.column("de_doc"),
                "host": out.column("host"),
                "n_tokens_en": out.column("n_tokens_en"),
                "n_tokens_de": out.column("n_tokens_de"),
            }
        )

    return joined.map_batches(ratio_filter, batch_format="pyarrow")


def reciprocal_links(sf_dir: str):
    """Reciprocal host-link detection (the classic link-farm / link-
    exchange spam signal): host pairs that link to EACH OTHER, with both
    directed counts — SEO collusion shows up as dense mutual linking,
    while organic linking is overwhelmingly one-way.

    Built on the REAL page-parsed edge list (:func:`host_link_edges`):
    each directed edge folds onto its unordered (host_a, host_b)
    orientation, then ONE Sum groupby on the two host columns reassembles
    both directions (collision-free — no hashed pair key — and an
    aggregate, not a per-group callable) and keeps pairs where both
    are present.  → (host_a, host_b, links_ab, links_ba), host_a <
    host_b.
    """
    from ray.data.aggregate import Sum

    edges = host_link_edges(sf_dir)

    def keyed(b: pa.Table) -> pa.Table:
        ha, hb, fwd, bwd = [], [], [], []
        for s, d, c in zip(
            b.column("src_host").to_pylist(),
            b.column("dst_host").to_pylist(),
            b.column("n_links").to_pylist(),
        ):
            if s == d:
                continue  # self-links carry no reciprocity signal
            a, z = (s, d) if s < d else (d, s)
            ha.append(a)
            hb.append(z)
            fwd.append(c if s < d else 0)
            bwd.append(c if s > d else 0)
        return pa.table(
            {
                "host_a": pa.array(ha, pa.string()),
                "host_b": pa.array(hb, pa.string()),
                "fwd": pa.array(fwd, pa.int64()),
                "bwd": pa.array(bwd, pa.int64()),
            }
        )

    # group on the two host columns directly (collision-free; a hashed
    # pair key would silently merge colliding pairs at scale)
    agg = (
        edges.map_batches(keyed, batch_format="pyarrow")
        .groupby(["host_a", "host_b"])
        .aggregate(Sum("fwd"), Sum("bwd"))
    )

    def finish(b: pa.Table) -> pa.Table:
        fwd = b.column("sum(fwd)").cast(pa.int64())
        bwd = b.column("sum(bwd)").cast(pa.int64())
        out = pa.table(
            {
                "host_a": b.column("host_a"),
                "host_b": b.column("host_b"),
                "links_ab": fwd,
                "links_ba": bwd,
            }
        )
        return out.filter(
            pc.and_(
                pc.greater(out.column("links_ab"), 0),
                pc.greater(out.column("links_ba"), 0),
            )
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def link_graph(sf_dir: str):
    """``(nodes, edges, seeded)`` of the synthesized pages' link graph:
    every doc links to its two :func:`~go_htmldate_ray.sources.pages.outlinks`.
    ``nodes`` is ``id``, ``edges`` is ``src``/``dst`` (int64), and
    ``seeded`` is ``nodes`` plus the 0/1 ``is_seed`` column marking the
    ``doc_id % 17 == 0`` trust seeds (the hand-vetted hosts stand-in,
    ~6% of nodes at every sf, so trust decays visibly along the fixture
    ring).  All three are lazy reads of the documents table."""
    import numpy as np

    from ..sources.io import read_parquet_clean
    from ..sources.pages import outlinks

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()

    def nodes(b: pa.Table) -> pa.Table:
        return pa.table({"id": b.column("doc_id").cast(pa.int64())})

    def seeded(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column("doc_id"), dtype=np.int64)
        return pa.table(
            {"id": pa.array(ids), "is_seed": pa.array((ids % 17 == 0).astype(np.int64))}
        )

    def edges(b: pa.Table) -> pa.Table:
        d = np.asarray(b.column("doc_id"), dtype=np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([d, d]), pa.int64()),
                "dst": pa.array(np.concatenate(outlinks(d, n)), pa.int64()),
            }
        )

    return tuple(
        docs.map_batches(f, batch_format="pyarrow") for f in (nodes, edges, seeded)
    )


def link_rank(sf_dir: str, *, iters: int, kind: str = "pagerank"):
    """The :func:`link_graph`'s integer rank vector: ``kind`` is
    ``"pagerank"`` (uniform), ``"trustrank"`` (seeded on ``is_seed``) or
    ``"spam_mass"`` (both, as :func:`~go_htmldate_ray.stages.graph.spam_mass`)."""
    from ..stages import graph

    nodes, edges, seeded = link_graph(sf_dir)
    if kind == "pagerank":
        return graph.pagerank(nodes, edges, iters=iters)
    if kind == "trustrank":
        return graph.pagerank(seeded, edges, iters=iters, seed_col="is_seed")
    if kind == "spam_mass":
        return graph.spam_mass(seeded, edges, seed_col="is_seed", iters=iters)
    raise ValueError(f"unknown link rank kind {kind!r}")


def frontier_priority(
    sf_dir: str,
    *,
    per_host_cap: int = 3,
    budget: int = 100,
    iters: int = 3,
    rank: str = "pagerank",
):
    """Authority-weighted crawl-frontier prioritization: every page
    scores by its HOST's total PageRank mass, a politeness cap keeps at
    most ``per_host_cap`` pages per host (smallest doc_id first), and
    the global ``budget`` takes the top rows by (authority DESC, doc_id
    ASC) — the scheduler policy real crawlers run: fetch authoritative
    sites first, but never let one host monopolize a wave.

    ``rank="trustrank"`` swaps the authority signal for the seeded
    TrustRank vector (doc_id %% 17 seeds) — the anti-spam scheduler
    variant: hosts whose rank is funded only by untrusted links get no
    budget even when their raw PageRank is high (Gyöngyi et al.).

    Shape: integer PageRank (exact nano units, the oracle-replayable
    :func:`~go_htmldate_ray.stages.graph.pagerank`) → per-batch host
    partials → one light Sum groupby → broadcast of the ≤n_hosts
    authority map (small side; a larger host space switches to the
    bucketed hash_join convention) → salted
    :func:`~go_htmldate_ray.stages.sampling.cap_per_group` → sort+limit
    over light (doc_id, host, priority) rows.
    """
    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    from ..sources.io import read_parquet_clean
    from ..sources.pages import N_HOSTS, page_host
    from ..stages.sampling import cap_per_group

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    ranks = link_rank(sf_dir, iters=iters, kind=rank)

    def host_partial(b: pa.Table) -> pa.Table:
        d = np.asarray(b.column("doc_id"), dtype=np.int64)
        r = np.asarray(b.column("rank_units"), dtype=np.int64)
        h = d % N_HOSTS
        hosts, inv = np.unique(h, return_inverse=True)
        # int64 accumulate (np.add.at), not float bincount weights:
        # rank-unit sums must stay exact past 2^53 for any `total`
        sums = np.zeros(len(hosts), dtype=np.int64)
        np.add.at(sums, inv, r)
        return pa.table(
            {
                "host": pa.array([page_host(int(x)) for x in hosts], pa.string()),
                "r": pa.array(sums, pa.int64()),
            }
        )

    host_rank = (
        ranks.map_batches(host_partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("r"))
    )
    hmap = {
        r["host"]: int(r["sum(r)"]) for r in host_rank.take_all()
    }  # ≤ N_HOSTS rows — the broadcast small side
    href = ray.put(hmap)

    def frontier(b: pa.Table) -> pa.Table:
        m = ray.get(href)
        ids = b.column("doc_id").to_pylist()
        hosts = [page_host(i) for i in ids]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "host": pa.array(hosts, pa.string()),
                "priority": pa.array([m.get(h, 0) for h in hosts], pa.int64()),
            }
        )

    capped = cap_per_group(
        docs.map_batches(frontier, batch_format="pyarrow"),
        group_col="host",
        cap=per_host_cap,
        id_col="doc_id",
    )
    return capped.sort(["priority", "doc_id"], descending=[True, False]).limit(budget)


def host_triangles(sf_dir: str):
    """Distributed triangle counting on the undirected host link graph —
    the clustering-coefficient building block (dense mutual-link
    neighborhoods are another link-farm signature; organic host graphs
    are locally sparse).

    Classic two-join shape on ORIENTED edges (a < b, loops dropped,
    deduped by a Min aggregate on the packed pair key): wedges = edges ⋈
    edges on the low endpoint (b < c keeps each wedge once), triangles =
    wedges ⋈ edges on the packed (b, c) closing key — both via the
    bucketed :func:`~go_htmldate_ray.stages.joins.hash_join`, no
    broadcast of the edge set.  Wedge counts are Σ deg(a)²-shaped: at
    scale the standard mitigation (count wedges only at each edge's
    LOWER-degree endpoint) bounds the blowup; the low-id orientation
    used here is its fixture-scale stand-in.  Each triangle credits all
    three hosts; zero-triangle hosts still appear.

    → (host, n_triangles), one row per host.  Engine edges come from
    REAL page parses (:func:`host_link_edges`), the oracle re-derives
    the graph from the link formula — doubling as a parser check.
    """
    from ray.data.aggregate import Min, Sum

    from ..sources.io import read_parquet_clean
    from ..sources.pages import N_HOSTS, page_host

    edges = host_link_edges(sf_dir)

    # anchored fixture-host pattern: a host outside the site<N> scheme
    # must fail LOUDLY below, not silently drop or mis-bucket its edges
    _HOST_RX = r"^site(?P<i>\d+)\.example\.org$"

    def orient(b: pa.Table) -> pa.Table:
        src = pc.cast(
            pc.struct_field(pc.extract_regex(b.column("src_host"), _HOST_RX), "i"),
            pa.int64(),
        )
        dst = pc.cast(
            pc.struct_field(pc.extract_regex(b.column("dst_host"), _HOST_RX), "i"),
            pa.int64(),
        )
        if src.null_count or dst.null_count:
            bad = (
                b.filter(pc.or_(pc.is_null(src), pc.is_null(dst)))
                .column("src_host")
                .to_pylist()[:3]
            )
            raise ValueError(
                f"host_triangles: non-fixture host(s) {bad} — generalize the "
                "node-id mapping before running on arbitrary host graphs"
            )
        lo = pc.min_element_wise(src, dst)
        hi = pc.max_element_wise(src, dst)
        t = pa.table({"a": lo, "b": hi})
        return t.filter(pc.not_equal(t.column("a"), t.column("b")))

    # distinct oriented edges: Min aggregate on the packed key (the
    # reciprocal_links dedupe shape), then unpack
    packed = edges.map_batches(orient, batch_format="pyarrow").map_batches(
        lambda t: pa.table(
            {
                "ekey": pc.add(
                    pc.multiply(t.column("a"), 1 << 32), t.column("b")
                ),
                "a": t.column("a"),
            }
        ),
        batch_format="pyarrow",
    )
    e = (
        packed.groupby("ekey")
        .aggregate(Min("a"))
        .map_batches(
            lambda t: pa.table(
                {
                    "a": t.column("min(a)").cast(pa.int64()),
                    "b": pc.subtract(
                        t.column("ekey"),
                        pc.multiply(t.column("min(a)").cast(pa.int64()), 1 << 32),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()  # consumed by three join sides
    )

    from ..stages.joins import hash_join

    left = e.map_batches(
        lambda t: pa.table({"apex": t.column("a"), "b": t.column("b")}),
        batch_format="pyarrow",
    )
    right = e.map_batches(
        lambda t: pa.table({"apex": t.column("a"), "c": t.column("b")}),
        batch_format="pyarrow",
    )
    wedges = hash_join(left, right, on="apex").map_batches(
        lambda t: t.filter(pc.less(t.column("b"), t.column("c"))),
        batch_format="pyarrow",
    )
    wkeyed = wedges.map_batches(
        lambda t: pa.table(
            {
                "ekey": pc.add(pc.multiply(t.column("b"), 1 << 32), t.column("c")),
                "apex": t.column("apex"),
            }
        ),
        batch_format="pyarrow",
    )
    closing = e.map_batches(
        lambda t: pa.table(
            {
                "ekey": pc.add(pc.multiply(t.column("a"), 1 << 32), t.column("b")),
                "lo": t.column("a"),
                "hi": t.column("b"),
            }
        ),
        batch_format="pyarrow",
    )
    tris = hash_join(wkeyed, closing, on="ekey")

    def credit(b: pa.Table) -> pa.Table:
        import numpy as np

        apex = np.asarray(b.column("apex"), dtype=np.int64)
        lo = np.asarray(b.column("lo"), dtype=np.int64)
        hi = np.asarray(b.column("hi"), dtype=np.int64)
        hosts = np.concatenate([apex, lo, hi])
        u, counts = np.unique(hosts, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    credits = tris.map_batches(credit, batch_format="pyarrow")
    # zero-triangle hosts must still appear
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    def zero_rows(b: pa.Table) -> pa.Table:
        hs = sorted({int(i) % N_HOSTS for i in b.column("doc_id").to_pylist()})
        return pa.table(
            {
                "h": pa.array(hs, pa.int64()),
                "n": pa.array([0] * len(hs), pa.int64()),
            }
        )

    zeros = docs.map_batches(zero_rows, batch_format="pyarrow")
    agg = credits.union(zeros).groupby("h").aggregate(Sum("n"))
    return agg.map_batches(
        lambda b: pa.table(
            {
                "host": pa.array(
                    [page_host(int(x)) for x in b.column("h").to_pylist()],
                    pa.string(),
                ),
                "n_triangles": b.column("sum(n)").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def hot_paths(sf_dir: str, *, threshold: int = 4):
    """Per-host hierarchical hot-path frontier over the synthesized page
    URLs (:func:`~go_htmldate_ray.stages.urlstats.hot_path_subtrees` —
    deepest path prefixes whose subtree count reaches ``threshold``),
    the per-subtree crawl-budgeting signal."""
    from urllib.parse import urlsplit

    from ..sources.io import read_parquet_clean
    from ..sources.pages import page_host, page_url
    from ..stages.urlstats import hot_path_subtrees

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def rows(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.table(
            {
                "host": pa.array([page_host(i) for i in ids], pa.string()),
                "path": pa.array(
                    [urlsplit(page_url(i)).path for i in ids], pa.string()
                ),
            }
        )

    return hot_path_subtrees(
        docs.map_batches(rows, batch_format="pyarrow"), threshold=threshold
    )


def jsonld_summary(sf_dir: str):
    """Structured-data (schema.org JSON-LD) extraction as a standalone
    operator: per page, the number of ``application/ld+json`` blocks,
    the sorted comma-joined ``@type`` values, and the first
    ``datePublished`` — the metadata-harvesting pipeline (knowledge-graph
    seeding, article classification) that shares nothing with the date
    cascade's decision logic but everything with its parse machinery.

    Runs the REAL tokenizer + json parse over every page (the planted
    truth: variant doc_id % 4 == 1 embeds one NewsArticle block, other
    variants none — so the oracle proves both the found and not-found
    sides).  Stateless task-pool batch map, no shuffle.
    """
    pages = read_pages(sf_dir)

    def summarize(batch: pa.Table) -> pa.Table:
        rows = [jsonld_of(h or b"") for h in batch.column("html").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_jsonld": pa.array([r[0] for r in rows], pa.int64()),
                "jsonld_types": pa.array([r[1] for r in rows], pa.string()),
                "date_published": pa.array([r[2] for r in rows], pa.string()),
            }
        )

    return pages.map_batches(summarize, batch_format="pyarrow")


def jsonld_of(html: bytes) -> tuple[int, str, str]:
    """One page's JSON-LD summary: (block count, sorted comma-joined
    @type values, first datePublished).  Malformed JSON counts as a
    block but contributes no fields; non-dict payloads likewise."""
    import json

    from .. import dom

    tree = dom.parse_html(html)
    n = 0
    types: list[str] = []
    date = ""
    for el in tree.iter_elements():
        if el.tag == "script" and el.attr("type").lower() == "application/ld+json":
            n += 1
            try:
                obj = json.loads(el.text_content())
            except (ValueError, RecursionError):
                # RecursionError: pathologically nested payloads (the
                # same guard extract.py's json_search uses)
                continue
            if isinstance(obj, dict):
                t = obj.get("@type")
                if isinstance(t, str):
                    types.append(t)
                if not date and isinstance(obj.get("datePublished"), str):
                    date = obj["datePublished"]
    return n, ",".join(sorted(types)), date


def mirror_hosts(sf_dir: str, *, min_pairs: int = 2, threshold: float = 0.8):
    """Mirror / scraper HOST detection: host pairs connected by at least
    ``min_pairs`` near-duplicate documents — one shared article is
    coincidence, a stack of them is a mirror or a scraper, the host-level
    signal dedup pipelines act on (drop the copier, keep the origin).

    Planting: the natural corpus never gives two near-dup pairs the same
    host pair (73 singletons at sf0.01), so host-index-2 docs are
    mirrored VERBATIM at ids ``3_000_000 + j*97 + 5`` — all landing on
    host index 86 — making (site2, site86) the one concentrated pair the
    threshold must find while every natural singleton must be dropped.

    Shape: the full banded-minhash pair machinery
    (:func:`~go_htmldate_ray.stages.dedup.minhash_lsh_pairs`,
    ``hot_buckets="error"``) → stateless host fold onto unordered
    host pairs → ONE Sum groupby on the two host columns → threshold
    filter.  → (host_a, host_b, n_pairs).
    """
    from ray.data.aggregate import Sum

    from ..sources.io import read_parquet_clean
    from ..sources.pages import N_HOSTS, page_host
    from ..stages.dedup import minhash_lsh_pairs

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def plant_mirrors(b: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(b.column("doc_id"), dtype=np.int64)
        mask = ids % N_HOSTS == 2
        sel_ids = ids[mask]
        mirror = 3_000_000 + ((sel_ids - 2) // N_HOSTS) * N_HOSTS + 5
        return pa.table(
            {
                "doc_id": pa.array(mirror, pa.int64()),
                "text": b.column("text").filter(pa.array(mask)),
            }
        )

    aug = docs.union(docs.map_batches(plant_mirrors, batch_format="pyarrow"))
    pairs = minhash_lsh_pairs(aug, threshold=threshold, hot_buckets="error")

    def hostify(b: pa.Table) -> pa.Table:
        import numpy as np

        a = np.asarray(b.column("doc_a"), dtype=np.int64) % N_HOSTS
        z = np.asarray(b.column("doc_b"), dtype=np.int64) % N_HOSTS
        keep = a != z
        a, z = a[keep], z[keep]
        lo = np.minimum(a, z)
        hi = np.maximum(a, z)
        return pa.table(
            {
                "host_a": pa.array([page_host(int(x)) for x in lo], pa.string()),
                "host_b": pa.array([page_host(int(x)) for x in hi], pa.string()),
                "n": pa.array(np.ones(len(lo), dtype=np.int64), pa.int64()),
            }
        )

    agg = (
        pairs.map_batches(hostify, batch_format="pyarrow")
        .groupby(["host_a", "host_b"])
        .aggregate(Sum("n"))
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "host_a": b.column("host_a"),
                "host_b": b.column("host_b"),
                "n_pairs": b.column("sum(n)").cast(pa.int64()),
            }
        ).filter(pc.greater_equal(pc.field("n_pairs"), min_pairs)),
        batch_format="pyarrow",
    )


def host_components(sf_dir: str, *, min_links: int = 2):
    """Connected components over the STRONG host-link graph: keep edges
    with ``n_links >= min_links`` (and ``src != dst``), then label each
    host with its component via
    :func:`~go_htmldate_ray.stages.graph.string_connected_components`
    (min-label propagation over md5-derived int ids; component surfaced
    as the labelling host's string).  The strong-edge filter is the
    operator's semantics — repeated linkage, not a single stray anchor,
    is what binds hosts into a site cluster — and it is what keeps the
    fixture graph non-trivial (13 components at sf0.01).

    Hosts with no strong edge are absent from the output (singletons),
    matching ``near_dup_clusters``' convention.
    """
    from ..stages.graph import string_connected_components

    edges = host_link_edges(sf_dir).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b.column("n_links"), min_links),
                pc.invert(
                    pc.equal(b.column("src_host"), b.column("dst_host"))
                ),
            )
        ),
        batch_format="pyarrow",
    )
    return string_connected_components(edges)


def host_cocitation(sf_dir: str, *, min_common: int = 3):
    """Co-citation pairs over the REAL host-link graph: hosts that share
    ``>= min_common`` distinct linking hosts (see
    :func:`~go_htmldate_ray.stages.graph.cocitation_pairs`) — the
    related-domain / link-farm candidate list a crawl prioritizer or
    spam classifier consumes.  ``host_link_edges`` output rows are
    already distinct (src, dst), the pairing stage's caller contract.
    """
    from ..stages.graph import cocitation_pairs

    return cocitation_pairs(host_link_edges(sf_dir), min_common=min_common)


def host_bib_coupling(sf_dir: str, *, min_common: int = 3):
    """Bibliographic coupling over the REAL host-link graph: pairs of
    SOURCE hosts that link to ``>= min_common`` common targets — the
    dual of :func:`host_cocitation` (Kessler 1963) and the other half of
    the classic related-site / link-farm signal pair.  Same engine, with
    the grouping role swapped: co-locate each TARGET's in-list, pair the
    sources.
    """
    from ..stages.graph import cocitation_pairs

    return cocitation_pairs(
        host_link_edges(sf_dir),
        src_col="dst_host",
        dst_col="src_host",
        min_common=min_common,
    )


def host_quality_gate(sf_dir: str, *, max_flagged_per_mille: int = 200):
    """Host-level curation gate (RefinedWeb / C4-at-host-granularity):
    roll the per-document badword-rate flag up to the host and keep or
    drop the WHOLE host by its flagged-document rate —
    ``host_keep = n_flagged * 1000 <= n_docs * max_flagged_per_mille``
    (default: drop hosts where > 20%% of documents fail the badword
    gate).  Output: (host, n_docs, n_flagged, host_keep).

    Host assignment is the crawl fixture's ``site{doc_id %% 97}``
    mapping (the same one the link-graph oracles use).  Shape: the
    badword kernel + a per-batch np.bincount partial (rows per batch
    <= 97 distinct hosts) -> ONE tiny Sum groupby -> integer finalize.
    At 100 TB the shuffle moves n_hosts x n_blocks light rows, never a
    document.
    """
    import numpy as np
    from ray.data.aggregate import Sum

    from ..sources.io import read_parquet_clean
    from ..stages.cleaning import badword_batch

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        flags = badword_batch(batch)
        d = np.asarray(flags.column("doc_id"), dtype=np.int64)
        keep = np.asarray(flags.column("keep"), dtype=np.int64)
        uniq, inv = np.unique(d % 97, return_inverse=True)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        flagged = np.bincount(
            inv, weights=(1 - keep), minlength=len(uniq)
        ).astype(np.int64)
        return pa.table(
            {
                "host": pa.array(
                    [f"site{int(h)}.example.org" for h in uniq], pa.string()
                ),
                "n": pa.array(n, pa.int64()),
                "flagged": pa.array(flagged, pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n)").cast(pa.int64())
        f = batch.column("sum(flagged)").cast(pa.int64())
        keep = pc.cast(
            pc.less_equal(
                pc.multiply(f, pa.scalar(1000, pa.int64())),
                pc.multiply(n, pa.scalar(max_flagged_per_mille, pa.int64())),
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "host": batch.column("host"),
                "n_docs": n,
                "n_flagged": f,
                "host_keep": keep,
            }
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("n"), Sum("flagged"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def page_link_stats(sf_dir: str):
    """Per-page outlink statistics from REAL DOM parses — (doc_id,
    n_links, n_external, n_distinct_hosts): the page-level link-spam /
    hub-vs-content signals (a page whose links are overwhelmingly
    external, or that fans out to many distinct hosts, is a directory /
    link-farm candidate; a content page links mostly within its site).

    Shape: one stateless batch map over the page table (parse + count,
    one output row per page), no shuffle — the cheapest possible
    pre-filter before the host-level graph analyses.
    """
    from .. import dom
    from ..state.urls import host_of

    pages = read_pages(sf_dir)

    def stats(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        n_links, n_ext, n_hosts = [], [], []
        for url, html in zip(urls, batch.column("html").to_pylist()):
            src = host_of(url or "")
            total = ext = 0
            hosts = set()
            tree = dom.parse_html(html or b"")
            for el in tree.iter_elements():
                if el.tag == "a":
                    href = el.attr("href")
                    if href:
                        dst = host_of(href)
                        if dst:
                            total += 1
                            hosts.add(dst)
                            if dst != src:
                                ext += 1
            n_links.append(total)
            n_ext.append(ext)
            n_hosts.append(len(hosts))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_links": pa.array(n_links, pa.int64()),
                "n_external": pa.array(n_ext, pa.int64()),
                "n_distinct_hosts": pa.array(n_hosts, pa.int64()),
            }
        )

    return pages.map_batches(stats, batch_format="pyarrow")
