"""URL-frontier crawl scheduler — brand-new design (no reference
counterpart; mandated by the north rule).

The crawl runs as repeated **fetch waves**.  Each wave reads its frontier
file onto the driver and runs, in pyarrow:

    frontier_w.parquet
      → sort on (url_hash, depth, discovered_wave, url) → first per hash   # exact dedup
      → seen-set membership                          # READ-ONLY check
      → robots filter (driver-side rules cache)      # denied rows marked seen
      → per-host rank on (host, [prio,] depth, url)  # politeness budget
      → fetch_now / deferred split
      → fetch_now → CrawlFetcher actor pool          # fetch + date extract + link discovery
      → visited_w.parquet  +  frontier_{w+1}.parquet = deferred ∪ new links

    Seen-set discipline: the frontier check is read-only; a URL becomes
    "seen" only when it is actually handled (fetched, or permanently
    robots-denied).  Politeness-DEFERRED rows stay unmarked, so they
    re-enter the next wave's frontier and are eventually fetched — a
    mark-on-sight check would silently starve every deferral.

The driver sequences waves, owns the seen set and the robots cache, and
checkpoints; the fetches go to a pool of ``CrawlFetcher`` actors, the
only Ray actors a crawl starts.  Politeness is **logical-time**: each
host may fetch at most ``politeness_budget`` URLs per wave, making crawl
ordering a pure function of (seed list, budget) — the determinism the
north rule requires.  Wave state (frontier parquet, seen-set delta,
visited log, lineage manifest) is checkpointed per wave; ``resume=True``
restarts from the latest complete wave.

Scale notes: the frontier lives in parquet between waves and each wave
reads it whole onto the driver, so a frontier file whose uncompressed
row groups exceed :data:`~go_htmldate_ray.stages.blocks.LIGHT_TABLE_BYTES`
(128 MiB) raises ``ValueError`` before it is read.  Each synthetic page
carries two outlinks, so frontiers stay far below that (a few thousand
rows on the largest test web).  The seen set
(:class:`~go_htmldate_ray.state.seen_filter.SeenSet`) is one sorted int64
array on the driver, 8 bytes per URL, bounded by the same budget (about
16.7M URLs).

The fetch slot is pluggable: the sandbox default is a deterministic
synthetic store (pages rebuilt from the documents table); passing
``fetcher_kwargs={"http_base": ...}`` routes every wave's fetches through
the urllib :class:`~go_htmldate_ray.stages.fetch_stage.HttpFetcher`
(exercised against a loopback server in tests/test_http_fetch.py).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.pages import build_page_html, page_url
from ..stages import blocks
from ..state.robots import RobotsCache, allowed
from ..state.seen_filter import SeenSet
from ..state.urls import canonicalize, host_of, url_hash

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.int64()),
        ("host", pa.string()),
        ("depth", pa.int64()),
        ("discovered_wave", pa.int64()),
    ]
)


def _frontier_table(urls, depth, wave) -> pa.Table:
    canon = [canonicalize(u) for u in urls]
    return pa.table(
        {
            "url": pa.array(canon, pa.string()),
            "url_hash": pa.array([url_hash(u) for u in canon], pa.int64()),
            "host": pa.array([host_of(u) for u in canon], pa.string()),
            "depth": pa.array(
                depth if isinstance(depth, list) else [depth] * len(canon), pa.int64()
            ),
            "discovered_wave": pa.array([wave] * len(canon), pa.int64()),
        }
    )


_VISITED_KEYS = ("url", "url_hash", "host", "depth", "discovered_wave", "fetch_rank")


def outlinks(tree) -> list[str]:
    """Canonicalized absolute (``http``-prefixed) anchor hrefs of a
    parsed page, in document order."""
    return [
        canonicalize(href)
        for el in tree.get_elements_by_tag("a")
        if (href := el.attr("href")).startswith("http")
    ]


class CrawlFetcher:
    """Actor-pool fetch+extract stage.

    __init__ loads the synthetic page store (documents text/lang) once per
    actor — the slot where a real fetcher would build HTTP sessions and
    where the extractor's regex state lives.  __call__ "fetches" each URL,
    extracts the publication date and outlinks from the parsed DOM.
    """

    def __init__(
        self,
        sf_dir: str,
        http_base: Optional[str] = None,
        archive_dir: Optional[str] = None,
        **http_kwargs,
    ):
        from ..functions.kernels import Options

        # Optional WARC archiving: every fetch batch is written as one
        # gzip'd WARC shard (the Common-Crawl archiver behavior).  Shard
        # names derive from the batch's min url_hash — a URL is fetched
        # at most once per crawl (seen-set discipline), so names are
        # collision-free across actors and waves without coordination.
        self.archive_dir = archive_dir
        if archive_dir is not None:
            os.makedirs(archive_dir, exist_ok=True)
        self.http = None
        if http_base is not None:
            # Live-HTTP mode: pages are served by an HTTP endpoint that
            # mirrors the synthetic web (url host/path mapped under
            # http_base); the synthetic store is not loaded.
            from ..stages.fetch_stage import HttpFetcher

            self.http = HttpFetcher(**http_kwargs)
            self.http_base = http_base.rstrip("/")
            self.texts = {}
        else:
            t = pq.read_table(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
            )
            self.texts = dict(
                zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist())
            )
            self.langs = dict(
                zip(t.column("doc_id").to_pylist(), t.column("lang").to_pylist())
            )
            self.n_docs = len(self.texts)
        self.opts = Options(use_original_date=True, skip_extensive_search=True).with_defaults()

    def _fetch(self, url: str) -> Optional[tuple[int, bytes]]:
        doc_id = doc_id_of_url(url)
        if doc_id is None:
            return None
        if self.http is not None:
            from urllib.parse import urlsplit

            parts = urlsplit(url)
            body = self.http.fetch(f"{self.http_base}/{parts.hostname}{parts.path}")
            if body is None:
                return None
            return doc_id, body
        if doc_id not in self.texts:
            return None
        html = build_page_html(
            doc_id, self.texts[doc_id] or "", self.langs[doc_id] or "en", self.n_docs
        )
        return doc_id, html

    def _write_archive(self, archived: list[tuple[str, bytes]]) -> None:
        """One gzip'd WARC shard per fetch batch.  The capture timestamp
        is derived from the url hash (clock-free → re-running a wave
        rewrites byte-identical shards, keeping the archive resumable);
        a live-HTTP deployment would stamp the true fetch time here."""
        from datetime import timedelta

        from ..sources.pages import WARC_EPOCH
        from ..sources.warc import write_warc_file

        min_h = min(url_hash(u) for u, _ in archived)
        path = os.path.join(self.archive_dir, f"fetch-{min_h & (2**64 - 1):016x}.warc.gz")
        write_warc_file(
            path,
            (
                (u, WARC_EPOCH + timedelta(seconds=url_hash(u) % 86_400), h)
                for u, h in archived
            ),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .. import dom
        from ..extract import from_document

        urls = batch.column("url").to_pylist()
        doc_ids, dates, links_col = [], [], []
        archived: list[tuple[str, bytes]] = []
        for url in urls:
            fetched = self._fetch(url)
            if fetched is None:
                doc_ids.append(None)
                dates.append(None)
                links_col.append([])
                continue
            doc_id, html = fetched
            if self.archive_dir is not None:
                archived.append((url, html))
            tree = dom.parse_html(html)
            links_col.append(outlinks(tree))
            result = from_document(tree, self.opts)
            doc_ids.append(doc_id)
            dates.append(result.format() or None)
        if archived:
            self._write_archive(archived)
        out = batch.select(
            [c for c in _VISITED_KEYS if c in batch.column_names]
        )
        out = out.append_column("doc_id", pa.array(doc_ids, pa.int64()))
        out = out.append_column("date_str", pa.array(dates, pa.string()))
        out = out.append_column("links", pa.array(links_col, pa.list_(pa.string())))
        return out


def _frontier_rows(path: str) -> int:
    """Row count of a wave's frontier file (0 when absent), read from the
    parquet footer.  The wave reads the whole frontier onto the driver,
    so a frontier whose uncompressed row groups exceed ``LIGHT_TABLE_BYTES``
    raises ``ValueError`` here, before anything is read or fetched."""
    if not os.path.exists(path):
        return 0
    md = pq.ParquetFile(path).metadata
    n_bytes = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    if n_bytes > blocks.LIGHT_TABLE_BYTES:
        raise ValueError(
            f"crawl frontier {path}: {md.num_rows} rows, {n_bytes} uncompressed "
            f"bytes exceed the {blocks.LIGHT_TABLE_BYTES}-byte driver budget"
        )
    return md.num_rows


def doc_id_of_url(url: str) -> Optional[int]:
    tail = url.rsplit("/", 1)[-1]
    for prefix in ("post-", ""):
        if tail.startswith(prefix) and tail.endswith(".html"):
            body = tail[len(prefix) : -5]
            if body.isdigit():
                return int(body)
    return None


def default_seeds(n: int = 10) -> list[str]:
    return [page_url(i) for i in range(n)]


_DEFAULT_RANK_KEYS = ("depth", "url")


def _host_budget(budget: int, delay: float) -> int:
    """Per-host wave budget under a robots Crawl-delay.

    The wave is the discrete token-bucket window: ``budget`` tokens per
    wave at the default 1-request rate; a Crawl-delay of ``d`` seconds
    cuts the refill rate to 1/d, i.e. ``budget // ceil(d)`` fetches per
    wave, floored at 1 so delayed hosts still make progress (a pure
    defer — the reachable set is unchanged, only spread over waves)."""
    if delay and delay > 0:
        return max(1, budget // math.ceil(delay))
    return budget


def crawl(
    sf_dir: str,
    seeds: Optional[list[str]] = None,
    *,
    max_waves: int = 64,
    politeness_budget: int = 4,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    fetch_concurrency: int = 8,
    fetcher_kwargs: Optional[dict] = None,
    priority_fn=None,
    max_depth: Optional[int] = None,
):
    """Run the crawl; returns (visited Dataset, stats dict).

    The visited log has one row per fetched page with its wave, per-host
    fetch rank, extracted date and discovered link count — (wave, host,
    fetch_rank) is the total crawl order.

    ``fetch_concurrency`` is the size of the ``CrawlFetcher`` actor pool,
    capped at one less than the cluster's CPUs.

    ``priority_fn: url -> int`` (optional) ranks each host's frontier
    by (priority, depth, url) instead of (depth, url) — the SURVEY §1.2
    per-host priority-heap knob.  It must be a pure function of the url
    (priority is computed from the url each wave, never checkpointed);
    lower values fetch first.

    ``max_depth`` (optional) is the crawl-trap guard: links that would
    land deeper than it are never emitted into the next frontier (the
    bound is applied at link expansion, so frontier/dedup stats stay
    exact).  The visited set is then exactly the pages whose BFS
    min-depth from the seeds is ≤ max_depth.
    """
    import ray
    import ray.data

    if seeds is None:
        seeds = default_seeds()

    own_ckpt = checkpoint_dir is None
    if own_ckpt:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="crawl-ckpt-")
    os.makedirs(checkpoint_dir, exist_ok=True)

    def frontier_path(wave: int) -> str:
        return os.path.join(checkpoint_dir, f"frontier_{wave}.parquet")

    # Owned by this call: resume rebuilds it from the checkpoint files.
    seen = SeenSet()
    # Live-HTTP mode fetches robots.txt over the same endpoint the page
    # fetcher uses (one request per host, cached for the crawl); the
    # sandbox default is the deterministic synthetic policy.
    _fk = fetcher_kwargs or {}
    robots = RobotsCache(http_base=_fk.get("http_base"), timeout=_fk.get("timeout", 10.0))

    start_wave = 0
    manifest_path = os.path.join(checkpoint_dir, "manifest.json")
    if resume and os.path.exists(manifest_path):
        manifest = json.loads(open(manifest_path).read())
        start_wave = manifest["next_wave"]
        # Rebuild the seen-set state ENTERING start_wave by replaying the
        # per-wave DELTA dumps of all manifested waves (< start_wave).
        # Deltas keep checkpoint I/O proportional to wave size, not total
        # crawl size, and make wave replay idempotent: a crash between a
        # wave's delta write and its manifest update leaves that wave's
        # delta unreferenced, so the replayed wave starts from pre-wave
        # state instead of seeing its own URLs as duplicates.  Robots
        # state replays the same way, but robots is a cache (hosts
        # missing after replay are simply re-resolved), so unlike the
        # seen set a missing robots delta needs no loud failure.
        for w in range(start_wave):
            dp = os.path.join(checkpoint_dir, f"seen_delta_{w}.json")
            if not os.path.exists(dp):
                # the checkpoint is incomplete: fail loudly rather than
                # re-fetch silently
                raise FileNotFoundError(f"crawl checkpoint missing {dp}")
            seen.load_deltas(json.loads(open(dp).read()))
            rp = os.path.join(checkpoint_dir, f"robots_delta_{w}.json")
            if os.path.exists(rp):
                delta = json.loads(open(rp).read())
                robots.load(
                    {h: [tuple(r) for r in rules] for h, rules in delta["rules"].items()},
                    delta["delays"],
                )
    else:
        pq.write_table(_frontier_table(seeds, 0, 0), frontier_path(0))

    stats = {"waves": 0, "fetched": 0, "robots_denied": 0, "dedup_dropped": 0}
    lineage: list[dict] = []

    # Per-phase wall-clock accumulators (seconds, summed across waves) —
    # the wave fixed-cost profile.  Cheap (a perf_counter pair per phase
    # per wave) and always on, so a slow crawl bench can be read directly
    # from stats["phase_seconds"] instead of re-instrumenting.
    phase_seconds: dict[str, float] = {}
    stats["phase_seconds"] = phase_seconds

    def _tick(key: str, t0: float) -> float:
        now = time.perf_counter()
        phase_seconds[key] = phase_seconds.get(key, 0.0) + (now - t0)
        return now

    _EMPTY_VISITED = pa.table(
        {
            "url": pa.array([], pa.string()),
            "url_hash": pa.array([], pa.int64()),
            "host": pa.array([], pa.string()),
            "depth": pa.array([], pa.int64()),
            "discovered_wave": pa.array([], pa.int64()),
            "fetch_rank": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "date_str": pa.array([], pa.string()),
            "links": pa.array([], pa.list_(pa.string())),
        }
    )

    fetch_pool: list = []

    def fetch(tbl: pa.Table) -> pa.Table:
        """Fetch through a persistent actor pool (created once, reused
        across waves — actor startup amortised)."""
        if tbl.num_rows == 0:
            return _EMPTY_VISITED
        if not fetch_pool:
            remote_cls = ray.remote(num_cpus=1)(CrawlFetcher)
            # Never request more 1-CPU actors than the cluster can start:
            # futures on unschedulable actors would block forever.
            avail = int(ray.cluster_resources().get("CPU", 2))
            n_actors = max(1, min(fetch_concurrency, avail - 1))
            fetch_pool.extend(
                remote_cls.remote(sf_dir, **(fetcher_kwargs or {}))
                for _ in range(n_actors)
            )
        # Fixed 64-row slices: an A/B sweep (floors 8/16/64, warm pool,
        # quiet box) showed per-future dispatch overhead outweighs the
        # extra actor parallelism smaller slices buy — fetch-phase wall
        # time was lowest at 64 (2.0-2.5s vs 2.8-3.1s at 8/16 for the
        # sf0.1 crawl bench).  Per-page extract is ~0.5ms, so a 64-row
        # slice amortizes the ~ms dispatch cost to <3%.
        futs = [
            fetch_pool[(i // 64) % len(fetch_pool)].__call__.remote(tbl.slice(i, 64))
            for i in range(0, tbl.num_rows, 64)
        ]
        return pa.concat_tables(ray.get(futs))

    def run_wave(t: pa.Table) -> tuple[pa.Table, pa.Table]:
        """One wave over the frontier table ``t``: dedup → seen → robots →
        politeness → fetch.  Returns (visited rows, deferred frontier rows)."""
        tp = time.perf_counter()
        idx = pa.compute.sort_indices(
            t,
            sort_keys=[
                ("url_hash", "ascending"),
                ("depth", "ascending"),
                ("discovered_wave", "ascending"),
                ("url", "ascending"),
            ],
        )
        t = t.take(idx)
        hashes = t.column("url_hash").to_pylist()
        keep = [i for i, h in enumerate(hashes) if i == 0 or h != hashes[i - 1]]
        stats["dedup_dropped"] += t.num_rows - len(keep)
        t = t.take(pa.array(keep, pa.int64()))
        tp = _tick("dedup", tp)

        # READ-ONLY membership check; marking happens only for handled
        # rows (denied / fetched) so politeness-deferred rows survive to
        # the next wave instead of being dropped as "seen but unfetched".
        t = t.filter(pa.array(~seen.contains(t.column("url_hash"))))
        tp = _tick("seen", tp)

        hosts = t.column("host").to_pylist()
        rules = robots.get_rules(sorted(set(hosts)))
        keep_r = []
        for url, host in zip(t.column("url").to_pylist(), hosts):
            path = url.split(host, 1)[-1] if host else "/"
            keep_r.append(allowed(path, rules.get(host, [])))
        stats["robots_denied"] += keep_r.count(False)
        keep_arr = pa.array(keep_r, pa.bool_())
        # robots verdicts are permanent: mark denied rows seen
        seen.add(t.filter(pa.compute.invert(keep_arr)).column("url_hash"))
        t = t.filter(keep_arr)
        tp = _tick("robots", tp)

        if priority_fn is not None:
            t = t.append_column(
                "prio",
                pa.array(
                    [priority_fn(u) for u in t.column("url").to_pylist()],
                    pa.int64(),
                ),
            )
        rank_cols = ("prio",) * (priority_fn is not None) + _DEFAULT_RANK_KEYS
        idx = pa.compute.sort_indices(
            t,
            sort_keys=[("host", "ascending")]
            + [(k, "ascending") for k in rank_cols],
        )
        t = t.take(idx)
        if priority_fn is not None:
            t = t.drop_columns(["prio"])
        hosts = t.column("host").to_pylist()
        delays = robots.get_delays(sorted(set(hosts)))
        ranks, defer = [], []
        prev, r = None, 0
        for h in hosts:
            r = r + 1 if h == prev else 0
            prev = h
            ranks.append(r)
            defer.append(r >= _host_budget(politeness_budget, delays.get(h, 0.0)))
        t = t.append_column("fetch_rank", pa.array(ranks, pa.int64()))
        defer_arr = pa.array(defer, pa.bool_())
        fetch_now = t.filter(pa.compute.invert(defer_arr))
        deferred = t.filter(defer_arr).select(FRONTIER_SCHEMA.names)
        # only rows actually fetched become "seen"
        seen.add(fetch_now.column("url_hash"))
        tp = _tick("politeness", tp)
        visited_tbl = fetch(fetch_now)
        _tick("fetch", tp)
        return visited_tbl, deferred

    # Every output of a wave is one file rewritten whole, so re-running a
    # wave whose outputs a crashed attempt left behind (manifest not yet
    # updated) overwrites them instead of adding to them.
    next_wave = start_wave
    for wave in range(start_wave, max_waves):
        n_frontier = _frontier_rows(frontier_path(wave))
        if n_frontier == 0:
            break
        visited_tbl, deferred = run_wave(pq.read_table(frontier_path(wave)))
        tw = time.perf_counter()
        visited_tbl = visited_tbl.append_column(
            "wave", pa.array([wave] * visited_tbl.num_rows, pa.int64())
        )
        pq.write_table(
            visited_tbl.drop_columns(["links"]),
            os.path.join(checkpoint_dir, f"visited_{wave}.parquet"),
        )

        # Next frontier: deferred ∪ discovered links
        links: list[str] = []
        parent_depths: list[int] = []
        for d, chunk in zip(
            visited_tbl.column("depth").to_pylist(),
            visited_tbl.column("links").to_pylist(),
        ):
            if max_depth is not None and d + 1 > max_depth:
                continue  # crawl-trap guard: never emitted
            links.extend(chunk)
            parent_depths.extend([d + 1] * len(chunk))
        next_frontier = pa.concat_tables(
            [deferred, _frontier_table(links, parent_depths, wave + 1)]
        )
        pq.write_table(next_frontier, frontier_path(wave + 1))
        n_fetched = visited_tbl.num_rows
        _tick("links_io", tw)

        # Checkpoint: per-wave seen DELTA + robots + manifest (atomic
        # rename).  Only the keys this wave added are written — I/O per
        # wave ∝ wave size; resume replays the deltas of manifested waves.
        tw = time.perf_counter()
        open(
            os.path.join(checkpoint_dir, f"seen_delta_{wave}.json"), "w"
        ).write(json.dumps(seen.drain_deltas()))
        # robots checkpoint is a per-wave DELTA too (hosts first resolved
        # this wave): re-serializing the FULL rules table every wave is
        # O(total hosts) I/O at a fixed point in every wave — wrong shape
        # for a 10^10-URL frontier.  Resume replays the deltas; a missing
        # robots delta is safe, robots is a cache and unresolved hosts
        # simply re-fetch.
        open(
            os.path.join(checkpoint_dir, f"robots_delta_{wave}.json"), "w"
        ).write(json.dumps(robots.drain_delta()))
        lineage.append(
            {
                "wave": wave,
                "frontier_rows": n_frontier,
                "fetched": n_fetched,
                "next_frontier_rows": next_frontier.num_rows,
            }
        )
        tmp = manifest_path + ".tmp"
        open(tmp, "w").write(json.dumps({"next_wave": wave + 1, "lineage": lineage}))
        os.replace(tmp, manifest_path)
        next_wave = wave + 1
        _tick("checkpoint", tw)

        stats["waves"] += 1
        stats["fetched"] += n_fetched

    for actor in fetch_pool:  # release the pool's CPU reservations
        ray.kill(actor)
    fetch_pool.clear()

    # Visited log: one file per completed wave (files a crashed attempt
    # wrote for later waves are not part of this crawl).
    visited_files = [
        p
        for w in range(next_wave)
        if os.path.exists(p := os.path.join(checkpoint_dir, f"visited_{w}.parquet"))
    ]
    if visited_files:
        visited = ray.data.read_parquet(
            visited_files,
            columns=[
                "url",
                "host",
                "depth",
                "discovered_wave",
                "fetch_rank",
                "doc_id",
                "date_str",
                "wave",
            ],
        )
    else:
        visited = ray.data.from_arrow(
            pa.table({"url": pa.array([], pa.string())})
        )
    stats["seen_total"] = seen.total()
    stats["checkpoint_dir"] = checkpoint_dir
    return visited, stats


def crawl_wave_counts(sf_dir: str):
    """Crawl-ordering evidence: pages fetched per wave.

    With a non-binding politeness budget a URL is fetched in the wave
    equal to its BFS depth from the seed set, so the per-wave counts are
    independently recomputable in SQL by a depth-tracking recursive CTE
    (min depth per reachable, robots-allowed node → GROUP BY depth).
    This pins the *ordering* half of the north rule (the reachable-set
    query pins membership)."""
    visited, stats = crawl(sf_dir, politeness_budget=1000, max_waves=64)
    from ..stages.combine import combine_sum_by

    def partial(b: pa.Table) -> pa.Table:
        t = b.group_by("wave").aggregate([([], "count_all")])
        return pa.table(
            {
                "wave": t.column("wave"),
                "n": t.column("count_all").cast(pa.int64()),
            }
        )

    # ≤ max_waves keys: per-block partial counts + one merge task
    # replace the full-row sort shuffle the generic groupby.count pays
    out = (
        combine_sum_by(
            visited.map_batches(partial, batch_format="pyarrow"),
            ["wave"],
            ["n"],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "wave": b.column("wave"),
                    "n_fetched": b.column("n").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        .materialize()
    )
    shutil.rmtree(stats["checkpoint_dir"], ignore_errors=True)
    return out


def crawl_reachable(sf_dir: str):
    """Oracle-checkable crawl: converged visited set → (doc_id, url).

    With enough waves the visited set equals the robots-respecting
    reachable set of the deterministic link graph — independently
    recomputable in SQL with a recursive CTE (see __ray_entry__)."""
    visited, stats = crawl(sf_dir, politeness_budget=1000, max_waves=64)
    # Materialise the (small) result before dropping its backing checkpoint.
    out = visited.select_columns(["doc_id", "url"]).materialize()
    shutil.rmtree(stats["checkpoint_dir"], ignore_errors=True)
    return out
