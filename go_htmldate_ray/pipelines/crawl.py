"""URL-frontier crawl scheduler — brand-new Ray-Data design (no reference
counterpart; mandated by the north rule).

The crawl runs as repeated **fetch waves** over a frontier Dataset:

    frontier_w (parquet)
      → combiner + Min-aggregate on url_hash         # exact within-wave dedup
      → map_batches(seen-set membership)             # READ-ONLY semi-join
      → map_batches(robots filter, cached rules)     # denied rows handled
      → salted (host, salt) precut → host rank       # politeness, skew-split
      → fetch_now / deferred split
      → fetch_now.map_batches(CrawlFetcher actors)   # fetch + date extract + link discovery
      → visited_w.parquet  +  frontier_{w+1} = deferred ∪ new links
      → driver merges the wave's handled url_hashes into the seen set

    Seen-set discipline: the frontier check is read-only; a URL becomes
    "seen" only when it is actually handled (fetched, or permanently
    robots-denied).  Politeness-DEFERRED rows stay unmarked, so they
    re-enter the next wave's frontier and are eventually fetched — a
    mark-on-sight check would silently starve every deferral.

Every stage is a Dataset transform; the driver only sequences waves,
owns the seen set and checkpoints.  Politeness is **logical-time**: each
host may fetch at most ``politeness_budget`` URLs per wave, making crawl
ordering a pure function of (seed list, budget) — the determinism the
north rule requires.  Wave state (frontier parquet, seen-set delta,
visited log, lineage manifest) is checkpointed per wave; ``resume=True``
restarts from the latest complete wave.

Scale notes: the frontier lives in parquet between waves (never
materialised on the driver); hot hosts are bounded by the budget itself
(a host contributes ≤ budget fetches/wave regardless of frontier skew);
the within-wave dedup shuffle keys on the uniform url_hash.  The seen set
(:class:`~go_htmldate_ray.state.seen_filter.SeenSet`) is one sorted int64
array on the driver, 8 bytes per URL, bounded by ``LIGHT_TABLE_BYTES``
(128 MiB, about 16.7M URLs); a crawl past that raises ``ValueError``.
The sharded actor pool it replaces held each key as a Python int in a
set, about 75 bytes per key (a 36-byte int plus its set slot), so on one
node the same memory held far fewer URLs than this array does.

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

from ..sources.pages import build_page_html, count_documents, page_url
from ..state.robots import allowed
from ..state.seen_filter import SeenSet, member
from ..state.urls import canonicalize, host_of, host_of_canonical_batch, url_hash

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
            links = []
            for el in tree.iter_elements():
                if el.tag == "a":
                    href = el.attr("href")
                    if href.startswith("http"):
                        links.append(canonicalize(href))
            result = from_document(tree, self.opts)
            doc_ids.append(doc_id)
            dates.append(result.format() or None)
            links_col.append(links)
        if archived:
            self._write_archive(archived)
        # url_hash rides along (when the frontier slice has it) so the
        # dataset wave reads its fetched hashes back from the visited log
        out = batch.select(
            [c for c in _VISITED_KEYS if c in batch.column_names]
        )
        out = out.append_column("doc_id", pa.array(doc_ids, pa.int64()))
        out = out.append_column("date_str", pa.array(dates, pa.string()))
        out = out.append_column("links", pa.array(links_col, pa.list_(pa.string())))
        return out


class WaveStatsCounter:
    """Tiny zero-CPU counter actor: distributed stages report per-batch
    drop counts, and the url_hashes of robots-denied rows, here instead
    of shipping whole partitions to the driver.

    Batch reports are keyed by a content-derived batch id and OVERWRITE:
    a Ray task/actor retry re-reporting the same batch replaces its
    previous entry instead of double-counting (batches are disjoint
    url_hash sets after dedup, so ids are collision-free)."""

    def __init__(self):
        self.keyed: dict[str, dict[str, int]] = {}
        self.denied: dict[str, list[int]] = {}

    def add_keyed(self, key: str, denied=(), **kv) -> None:
        self.keyed[key] = {k: int(v) for k, v in kv.items()}
        self.denied[key] = list(denied)

    def get(self) -> dict:
        out: dict[str, int] = {}
        for kv in self.keyed.values():
            for k, v in kv.items():
                out[k] = out.get(k, 0) + v
        return out

    def denied_hashes(self) -> list[int]:
        return [h for hs in self.denied.values() for h in hs]

    def reset(self) -> None:
        self.keyed = {}
        self.denied = {}


class RobotsFilterStage:
    """Actor-pool stage: drops rows the seen-set semi-join flagged as
    already handled (``is_new == False``) and robots-disallowed rows.

    Rules are pulled from the shared :class:`RobotsCache` actor only for
    hosts this actor hasn't cached yet — the per-actor cache makes the
    robots lookup a small-side join without any driver-side host
    collection.  DENIED rows' url_hashes go to the wave stats counter with
    the batch's drop counts, and the driver marks them seen after the wave
    (a robots verdict is deterministic — re-discovering the URL must not
    re-run the check every wave); rows merely *deferred* by politeness
    downstream stay unmarked so later waves fetch them."""

    def __init__(self, robots_handle, stats_handle, politeness_budget=None):
        self.robots = robots_handle
        self.stats = stats_handle
        self.politeness_budget = politeness_budget
        self.cache: dict[str, list] = {}
        self.delays: dict[str, float] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        n_in = batch.num_rows
        t = batch.filter(batch.column("is_new")).drop_columns(["is_new"])
        hosts = t.column("host").to_pylist()
        missing = sorted({h for h in hosts if h not in self.cache})
        if missing:
            self.cache.update(ray.get(self.robots.get_rules.remote(missing)))
            self.delays.update(ray.get(self.robots.get_delays.remote(missing)))
        keep = []
        for url, host in zip(t.column("url").to_pylist(), hosts):
            path = url.split(host, 1)[-1] if host else "/"
            keep.append(allowed(path, self.cache.get(host, [])))
        keep_arr = pa.array(keep, pa.bool_())
        out = t.filter(keep_arr)
        if self.politeness_budget is not None:
            # Crawl-delay → per-host wave budget, stamped as a column so
            # the downstream politeness groupby needs no actor lookup
            out = out.append_column(
                "host_budget",
                pa.array(
                    [
                        _host_budget(
                            self.politeness_budget, self.delays.get(h, 0.0)
                        )
                        for h in out.column("host").to_pylist()
                    ],
                    pa.int64(),
                ),
            )
        # Blocking on the counter keeps the post-materialize stats read
        # exact; the cost is one tiny RPC per multi-thousand-row batch,
        # negligible next to the robots matching above.  The report key is
        # derived from the batch's url_hash content, so a task retry
        # re-reporting the same batch overwrites rather than accumulates.
        import hashlib

        batch_key = hashlib.md5(
            b"".join(h.to_bytes(8, "big") for h in batch.column("url_hash").to_pylist())
        ).hexdigest()
        ray.get(
            self.stats.add_keyed.remote(
                batch_key,
                denied=t.filter(pa.compute.invert(keep_arr))
                .column("url_hash")
                .to_pylist(),
                deduped_in=n_in,
                not_new=n_in - t.num_rows,
                robots_denied=t.num_rows - out.num_rows,
            )
        )
        return out


def _count_parquet(path: str) -> int:
    """Row count of a parquet file OR directory (0 if absent/empty) —
    metadata only, nothing is read onto the driver."""
    import pyarrow.dataset as pads

    if not os.path.exists(path):
        return 0
    try:
        return pads.dataset(path, format="parquet").count_rows()
    except (OSError, pa.ArrowInvalid):
        return 0


def _clear_wave_outputs(checkpoint_dir: str, wave: int) -> None:
    """Remove any outputs a previous (crashed, unmanifested) attempt at
    this wave left behind — visited_{wave} file/dir and the next
    frontier file/dir — so wave execution is idempotent under resume."""
    for path in (
        os.path.join(checkpoint_dir, f"visited_{wave}.parquet"),
        os.path.join(checkpoint_dir, f"visited_{wave}"),
        os.path.join(checkpoint_dir, f"frontier_{wave + 1}.parquet"),
        os.path.join(checkpoint_dir, f"frontier_{wave + 1}"),
        os.path.join(checkpoint_dir, f"seen_delta_{wave}.json"),
        os.path.join(checkpoint_dir, f"robots_delta_{wave}.json"),
    ):
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif os.path.exists(path):
            os.remove(path)


def _frontier_location(checkpoint_dir: str, wave: int) -> Optional[str]:
    """The frontier for a wave is a single parquet file (driver-side small
    path) or a directory of parquet parts (dataset path)."""
    f = os.path.join(checkpoint_dir, f"frontier_{wave}.parquet")
    if os.path.exists(f):
        return f
    d = os.path.join(checkpoint_dir, f"frontier_{wave}")
    if os.path.isdir(d):
        return d
    return None


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


# Within-wave dedup keeps the (depth, discovered_wave, url)-minimal row
# per url_hash.  That tuple order is encoded as ONE fixed-width sortable
# string so the shuffle can be a plain ``Min`` aggregate — no per-group
# Python callable on a 10^10-row frontier of mostly size-1 groups.
_PACK_WIDTH = 10  # zero-padded digits for depth / discovered_wave (< 10^10)


def _pack_rows(depths, waves, urls) -> list[str]:
    return [
        f"{d:0{_PACK_WIDTH}d}|{w:0{_PACK_WIDTH}d}|{u}"
        for d, w, u in zip(depths, waves, urls)
    ]


def _prededup_block(batch: pa.Table) -> pa.Table:
    """Per-block dedup combiner: keep the packed-minimal row per url_hash
    within this block, emitting light (url_hash, packed) rows — the
    shuffle ships two columns, and the Min aggregate does the cross-block
    merge with no per-group task."""
    import numpy as np

    # all-Arrow pack (lpad/cast/join kernels — this combiner sees every
    # frontier row every wave); scalar _pack_rows keeps the same layout
    # for the tests and the seed path
    pad = lambda col: pa.compute.utf8_lpad(
        pa.compute.cast(col, pa.string()), _PACK_WIDTH, "0"
    )
    packed = pa.compute.binary_join_element_wise(
        pad(batch.column("depth")),
        pad(batch.column("discovered_wave")),
        pa.compute.cast(batch.column("url"), pa.string()),
        "|",
    )
    t = pa.table({"url_hash": batch.column("url_hash"), "packed": packed})
    order = pa.compute.sort_indices(
        t, sort_keys=[("url_hash", "ascending"), ("packed", "ascending")]
    )
    t = t.take(order)
    hashes = t.column("url_hash").to_numpy()
    keep = np.empty(len(hashes), dtype=bool)
    if len(hashes):
        keep[0] = True
        np.not_equal(hashes[1:], hashes[:-1], out=keep[1:])
    return t.filter(pa.array(keep))


def _unpack_frontier(batch: pa.Table) -> pa.Table:
    """(url_hash, min(packed)) → full frontier schema (host recomputed
    from the url — cheaper than shipping it through the shuffle).

    All-Arrow unpack: the pack layout is fixed-width, so depth/wave are
    scalar-offset codeunit slices + casts, and the host is the
    vectorized canonical-authority kernel — this runs over the ENTIRE
    deduped frontier every wave, so no Python per row."""
    import pyarrow.compute as pc

    packs = batch.column("min(packed)")
    if isinstance(packs, pa.ChunkedArray):
        packs = packs.combine_chunks()
    depths = pc.cast(pc.utf8_slice_codeunits(packs, 0, _PACK_WIDTH), pa.int64())
    waves = pc.cast(
        pc.utf8_slice_codeunits(packs, _PACK_WIDTH + 1, 2 * _PACK_WIDTH + 1),
        pa.int64(),
    )
    urls = pc.utf8_slice_codeunits(packs, 2 * _PACK_WIDTH + 2, 2**31 - 1)
    return pa.table(
        {
            "url": urls,
            "url_hash": batch.column("url_hash"),
            "host": host_of_canonical_batch(urls),
            "depth": depths,
            "discovered_wave": waves,
        }
    )


_POLITENESS_SALT = 16  # sub-groups per host in the politeness shuffle


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


def _group_budget(g: pa.Table, budget: int) -> int:
    """Effective budget for one host's group: the stamped host_budget
    column when the robots stage attached one (constant per host)."""
    if "host_budget" in g.column_names and g.num_rows:
        return min(budget, g.column("host_budget")[0].as_py())
    return budget


def _politeness_precut(
    group: pa.Table, budget: int, keys: tuple = _DEFAULT_RANK_KEYS
) -> pa.Table:
    """Phase 1 of the salted politeness shuffle: within one (host, salt)
    sub-group, only the first ``budget`` rows by the rank keys (default
    (depth, url); (prio, depth, url) when a priority_fn is set) can
    possibly make the host's global top-``budget`` — flag them as
    candidates and defer the rest immediately.  A host owning half the
    frontier is split across ``_POLITENESS_SALT`` groups, so no single
    map_groups task ever receives a mega-host's whole shard (SURVEY
    §4.2 skew splitting)."""
    budget = _group_budget(group, budget)
    order = pa.compute.sort_indices(
        group, sort_keys=[(k, "ascending") for k in keys]
    )
    g = group.take(order).drop_columns(["salt"])
    n = g.num_rows
    return g.append_column(
        "candidate", pa.array([i < budget for i in range(n)], pa.bool_())
    )


def _politeness_rank(
    group: pa.Table, budget: int, keys: tuple = _DEFAULT_RANK_KEYS
) -> pa.Table:
    budget = _group_budget(group, budget)
    order = pa.compute.sort_indices(
        group, sort_keys=[(k, "ascending") for k in keys]
    )
    g = group.take(order)
    if "host_budget" in g.column_names:
        g = g.drop_columns(["host_budget"])
    n = g.num_rows
    ranks = list(range(n))
    defer = [r >= budget for r in ranks]
    g = g.append_column("fetch_rank", pa.array(ranks, pa.int64()))
    return g.append_column("deferred", pa.array(defer, pa.bool_()))


def crawl(
    sf_dir: str,
    seeds: Optional[list[str]] = None,
    *,
    max_waves: int = 64,
    politeness_budget: int = 4,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    fetch_concurrency=(1, 8),
    small_wave_threshold: int = 100_000,
    fetcher_kwargs: Optional[dict] = None,
    priority_fn=None,
    max_depth: Optional[int] = None,
):
    """Run the crawl; returns (visited Dataset, stats dict).

    The visited log has one row per fetched page with its wave, per-host
    fetch rank, extracted date and discovered link count — (wave, host,
    fetch_rank) is the total crawl order.

    ``priority_fn: url -> int`` (optional) ranks each host's frontier
    by (priority, depth, url) instead of (depth, url) — the SURVEY §1.2
    per-host priority-heap knob.  It must be a pure function of the url
    (priority is recomputed after shuffles, never shipped through the
    dedup exchange); lower values fetch first.

    ``max_depth`` (optional) is the crawl-trap guard: links that would
    land deeper than it are never emitted into the next frontier (the
    bound is applied at link expansion, so frontier/dedup stats stay
    exact).  The visited set is then exactly the pages whose BFS
    min-depth from the seeds is ≤ max_depth.
    """
    import ray
    import ray.data

    from ..state.robots import RobotsCache

    if seeds is None:
        seeds = default_seeds()

    own_ckpt = checkpoint_dir is None
    if own_ckpt:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="crawl-ckpt-")
    os.makedirs(checkpoint_dir, exist_ok=True)

    # Owned by this call: resume rebuilds it from the checkpoint files.
    seen = SeenSet()
    # Live-HTTP mode fetches robots.txt over the same endpoint the page
    # fetcher uses (one request per host, cached in the actor); the
    # sandbox default is the deterministic synthetic policy.
    _fk = fetcher_kwargs or {}
    robots = RobotsCache.remote(
        http_base=_fk.get("http_base"),
        timeout=_fk.get("timeout", 10.0),
    )

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
        # state instead of seeing its own URLs as duplicates.
        # Legacy checkpoint layout (one full seen.json dump, no deltas for
        # its waves): load the full dump FIRST, then replay whichever
        # per-wave deltas exist — a legacy checkpoint resumed under the
        # delta code writes deltas for its new waves without rewriting
        # seen.json, so a second resume must apply BOTH or already-visited
        # URLs pass the seen check again (duplicate fetches).
        delta0 = os.path.join(checkpoint_dir, "seen_delta_0.json")
        legacy = os.path.join(checkpoint_dir, "seen.json")
        legacy_loaded = False
        if not os.path.exists(delta0) and os.path.exists(legacy):
            seen.load(json.loads(open(legacy).read()))
            legacy_loaded = True
        for w in range(start_wave):
            dp = os.path.join(checkpoint_dir, f"seen_delta_{w}.json")
            if os.path.exists(dp):
                seen.load_deltas(json.loads(open(dp).read()))
            elif not legacy_loaded:
                # no LOADED legacy dump covering this wave (a stale
                # seen.json merely lying next to a delta-0 checkpoint
                # does not count) → the checkpoint is incomplete; fail
                # loudly rather than re-fetch silently
                raise FileNotFoundError(
                    f"crawl checkpoint missing {dp} (and no legacy seen.json loaded)"
                )
        # Robots state: legacy full dump (if present) first, then the
        # per-wave deltas of manifested waves.  Robots is a cache —
        # hosts missing after replay are simply re-resolved — so unlike
        # the seen set a gap here never needs a loud failure.
        robots_full = os.path.join(checkpoint_dir, "robots.json")
        if os.path.exists(robots_full):
            robots_ckpt = json.loads(open(robots_full).read())
            if "rules" in robots_ckpt and "delays" in robots_ckpt:
                rules_map, delays_map = robots_ckpt["rules"], robots_ckpt["delays"]
            else:  # legacy layout: a bare host → rules dict, no delays
                rules_map, delays_map = robots_ckpt, None
            ray.get(
                robots.load.remote(
                    {h: [tuple(r) for r in rules] for h, rules in rules_map.items()},
                    delays_map,
                )
            )
        for w in range(start_wave):
            rp = os.path.join(checkpoint_dir, f"robots_delta_{w}.json")
            if os.path.exists(rp):
                delta = json.loads(open(rp).read())
                ray.get(
                    robots.load.remote(
                        {
                            h: [tuple(r) for r in rules]
                            for h, rules in delta["rules"].items()
                        },
                        delta["delays"],
                    )
                )
    else:
        pq.write_table(
            _frontier_table(seeds, 0, 0),
            os.path.join(checkpoint_dir, "frontier_0.parquet"),
        )

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

    def local_fetch(tbl: pa.Table) -> pa.Table:
        """Small-wave fetch through a persistent actor pool (created once,
        reused across waves — actor startup amortised)."""
        if tbl.num_rows == 0:
            return _EMPTY_VISITED
        if not fetch_pool:
            remote_cls = ray.remote(num_cpus=1)(CrawlFetcher)
            want = (
                fetch_concurrency[1]
                if isinstance(fetch_concurrency, tuple)
                else fetch_concurrency
            )
            # Never request more 1-CPU actors than the cluster can start:
            # futures on unschedulable actors would block forever.
            avail = int(ray.cluster_resources().get("CPU", 2))
            n_actors = max(1, min(want, avail - 1))
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

    def run_wave_local(t: pa.Table) -> tuple[pa.Table, list[pa.Table]]:
        """Driver-side wave ops for small frontiers: the same dedup → seen →
        robots → politeness semantics, pure pyarrow, no cluster shuffles."""
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
        rules = ray.get(robots.get_rules.remote(sorted(set(hosts))))
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
        delays = ray.get(robots.get_delays.remote(sorted(set(hosts))))
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
        deferred_tbl = t.filter(defer_arr).drop_columns(["fetch_rank"])
        # only rows actually fetched become "seen"
        seen.add(fetch_now.column("url_hash"))
        tp = _tick("politeness", tp)
        out = local_fetch(fetch_now), [deferred_tbl.select(FRONTIER_SCHEMA.names)]
        _tick("fetch", tp)
        return out

    # Anonymous per-crawl actor, started by the first dataset-path wave
    # (driver-side waves count in this process): stats are reset every
    # wave, so there is no cross-call state to name — and a named
    # get_if_exists handle races with the previous call's actor being torn
    # down (refcount death).
    wave_stats = None

    def run_wave_dataset(frontier_path: str, wave: int) -> tuple[int, int]:
        """Full Ray-Data wave — the large-frontier path.  The frontier
        streams through dedup (url_hash shuffle) → seen-set semi-join →
        robots actor-pool filter → politeness (host shuffle), and the
        fetch/deferred/link outputs are written as partitioned parquet by
        the workers themselves.  The driver sees row counts (parquet
        metadata), the stats counter, and the wave's handled url_hashes,
        which it merges into the seen set after the wave.

        The semi-join tests membership against the seen set as it was at
        wave start (one ``ray.put`` per wave).  That gives exactly the
        flags of marking while the wave runs: after the within-wave dedup
        the batches hold disjoint url_hash sets, so no batch can see a
        hash another batch of the same wave handles."""
        nonlocal wave_stats
        if wave_stats is None:
            wave_stats = ray.remote(num_cpus=0)(WaveStatsCounter).remote()
        ray.get(wave_stats.reset.remote())
        # Idempotent wave restart: Ray's write_parquet APPENDS part files,
        # so outputs of a crashed, unmanifested attempt at this wave must
        # be cleared before re-running (otherwise resume doubles them).
        _clear_wave_outputs(checkpoint_dir, wave)
        from ray.data.aggregate import Min

        frontier = ray.data.read_parquet(frontier_path)
        # Within-wave dedup: per-block combiner → Min aggregate on the
        # packed sort key → unpack.  Groups are mostly size 1, so an
        # aggregate (no per-group Python task) is the right shape.
        deduped = (
            frontier.map_batches(_prededup_block, batch_format="pyarrow")
            .groupby("url_hash")
            .aggregate(Min("packed"))
            .map_batches(_unpack_frontier, batch_format="pyarrow")
        )
        keys_ref = ray.put(seen.keys)

        def check_new(batch: pa.Table) -> pa.Table:
            """READ-ONLY semi-join against the wave-start seen set.
            Marking happens after the wave and only for rows actually
            handled (fetched or robots-denied): a row politeness defers
            must NOT be marked, or the next wave would drop it unfetched."""
            fresh = ~member(ray.get(keys_ref), batch.column("url_hash"))
            return batch.append_column("is_new", pa.array(fresh))

        checked = deduped.map_batches(check_new, batch_format="pyarrow")
        allowed_ds = checked.map_batches(
            RobotsFilterStage,
            fn_constructor_kwargs={
                "robots_handle": robots,
                "stats_handle": wave_stats,
                "politeness_budget": politeness_budget,
            },
            batch_format="pyarrow",
            concurrency=(1, 4),
            num_cpus=0.5,
            max_restarts=0,  # wave is idempotent + checkpointed: fail fast
        )

        def add_salt(b: pa.Table) -> pa.Table:
            import numpy as np

            salt = b.column("url_hash").to_numpy() % _POLITENESS_SALT
            b = b.append_column("salt", pa.array(salt, pa.int64()))
            if priority_fn is not None:
                # priority is a pure function of the url, so it is
                # stamped here (post-dedup) rather than shipped through
                # the url_hash exchange
                b = b.append_column(
                    "prio",
                    pa.array(
                        [priority_fn(u) for u in b.column("url").to_pylist()],
                        pa.int64(),
                    ),
                )
            return b

        rank_keys = (
            ("prio",) + _DEFAULT_RANK_KEYS
            if priority_fn is not None
            else _DEFAULT_RANK_KEYS
        )

        # Politeness phase 1 — salted (host, salt) grouping bounds every
        # group to ~1/S of a hot host's frontier shard; each sub-group
        # keeps only its first `budget` rows as candidates.  Materialized
        # because two branches consume it (the candidates and the
        # overflow), so the upstream dedup, semi-join and robots stages
        # run once per wave.
        pre = (
            allowed_ds.map_batches(add_salt, batch_format="pyarrow")
            .groupby(["host", "salt"])
            .map_groups(
                lambda g: _politeness_precut(g, politeness_budget, rank_keys),
                batch_format="pyarrow",
            )
            .materialize()
        )

        def cand_batch(b: pa.Table) -> pa.Table:
            return b.filter(b.column("candidate")).drop_columns(["candidate"])

        def overflow_batch(b: pa.Table) -> pa.Table:
            return b.filter(pa.compute.invert(b.column("candidate"))).select(
                FRONTIER_SCHEMA.names
            )

        # Phase 2 — rank the surviving ≤ S×budget rows per host.  Tiny
        # second grouping; materialized because the fetch-now and
        # deferred branches both consume it.
        ranked = (
            pre.map_batches(cand_batch, batch_format="pyarrow")
            .groupby("host")
            .map_groups(
                lambda g: _politeness_rank(g, politeness_budget, rank_keys),
                batch_format="pyarrow",
            )
            .materialize()
        )

        visited_dir = os.path.join(checkpoint_dir, f"visited_{wave}")
        next_dir = os.path.join(checkpoint_dir, f"frontier_{wave + 1}")
        os.makedirs(next_dir, exist_ok=True)

        def now_batch(b: pa.Table) -> pa.Table:
            return b.filter(pa.compute.invert(b.column("deferred"))).drop_columns(
                ["deferred"]
            )

        def deferred_batch(b: pa.Table) -> pa.Table:
            return b.filter(b.column("deferred")).select(FRONTIER_SCHEMA.names)

        fetched = (
            ranked.map_batches(now_batch, batch_format="pyarrow")
            .map_batches(
                CrawlFetcher,
                fn_constructor_kwargs={"sf_dir": sf_dir, **(fetcher_kwargs or {})},
                batch_format="pyarrow",
                batch_size=64,
                concurrency=fetch_concurrency,
                num_cpus=1,
                max_restarts=0,  # wave is idempotent + checkpointed: fail fast
            )
            .map_batches(
                lambda b: b.append_column(
                    "wave", pa.array([wave] * b.num_rows, pa.int64())
                ),
                batch_format="pyarrow",
            )
        )
        fetched.write_parquet(visited_dir)
        ranked.map_batches(deferred_batch, batch_format="pyarrow").write_parquet(
            os.path.join(next_dir, "deferred")
        )
        # politeness phase-1 overflow (beyond budget within a sub-group):
        # deferred without ever entering the host-ranking shuffle
        pre.map_batches(overflow_batch, batch_format="pyarrow").write_parquet(
            os.path.join(next_dir, "deferred_overflow")
        )

        n_fetched = _count_parquet(visited_dir)
        if n_fetched:
            # Link expansion: a batch flat-map over the just-written
            # visited log (its parquet round-trip doubles as the lineage
            # checkpoint) — no driver-side list concatenation.
            def expand(b: pa.Table) -> pa.Table:
                urls: list[str] = []
                depths: list[int] = []
                for d, chunk in zip(
                    b.column("depth").to_pylist(), b.column("links").to_pylist()
                ):
                    if max_depth is not None and d + 1 > max_depth:
                        continue  # crawl-trap guard: never emitted
                    urls.extend(chunk)
                    depths.extend([d + 1] * len(chunk))
                return _frontier_table(urls, depths, wave + 1)

            ray.data.read_parquet(visited_dir, columns=["depth", "links"]).map_batches(
                expand, batch_format="pyarrow"
            ).write_parquet(os.path.join(next_dir, "links"))

        # The wave's handled rows become seen: fetched ones from the
        # visited log, robots-denied ones from the stats reports.
        if n_fetched:
            seen.add(pq.read_table(visited_dir, columns=["url_hash"]).column("url_hash"))
        seen.add(ray.get(wave_stats.denied_hashes.remote()))
        s = ray.get(wave_stats.get.remote())
        stats["robots_denied"] += s.get("robots_denied", 0)
        stats["dedup_dropped"] += _count_parquet(frontier_path) - s.get(
            "deduped_in", 0
        )
        return n_fetched, _count_parquet(next_dir)

    for wave in range(start_wave, max_waves):
        frontier_path = _frontier_location(checkpoint_dir, wave)
        n_frontier = _count_parquet(frontier_path) if frontier_path else 0
        if n_frontier == 0:
            break
        if n_frontier <= small_wave_threshold:
            # Driver-side fast path: identical semantics, pure pyarrow —
            # appropriate when a wave fits trivially in one process.
            # (Clear any stale dataset-path part dirs from a crashed
            # attempt first — the final visited glob reads both layouts.)
            _clear_wave_outputs(checkpoint_dir, wave)
            visited_tbl, deferred_parts = run_wave_local(pq.read_table(frontier_path))
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
            link_tbl = _frontier_table(links, parent_depths, wave + 1) if links else None
            next_parts = [p for p in deferred_parts if p.num_rows] + (
                [link_tbl] if link_tbl is not None else []
            )
            next_frontier = (
                pa.concat_tables([p.select(FRONTIER_SCHEMA.names) for p in next_parts])
                if next_parts
                else pa.table({f.name: pa.array([], f.type) for f in FRONTIER_SCHEMA})
            )
            pq.write_table(
                next_frontier,
                os.path.join(checkpoint_dir, f"frontier_{wave + 1}.parquet"),
            )
            n_fetched = visited_tbl.num_rows
            _tick("links_io", tw)
        else:
            tw = time.perf_counter()
            n_fetched, _ = run_wave_dataset(frontier_path, wave)
            _tick("dataset_wave", tw)

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
        # for a 10^10-URL frontier.  Resume replays deltas (plus a legacy
        # full robots.json if present); a missing robots delta is safe,
        # robots is a cache and unresolved hosts simply re-fetch.
        open(
            os.path.join(checkpoint_dir, f"robots_delta_{wave}.json"), "w"
        ).write(json.dumps(ray.get(robots.drain_delta.remote())))
        lineage.append(
            {
                "wave": wave,
                "frontier_rows": n_frontier,
                "fetched": n_fetched,
                "next_frontier_rows": _count_parquet(
                    _frontier_location(checkpoint_dir, wave + 1) or ""
                ),
            }
        )
        tmp = manifest_path + ".tmp"
        open(tmp, "w").write(json.dumps({"next_wave": wave + 1, "lineage": lineage}))
        os.replace(tmp, manifest_path)
        _tick("checkpoint", tw)

        stats["waves"] += 1
        stats["fetched"] += n_fetched

    for actor in fetch_pool:  # release the pool's CPU reservations
        ray.kill(actor)
    fetch_pool.clear()

    import glob

    # Visited log: single parquet files (small-wave path) and/or parquet
    # part directories (dataset path); unify on the common column set.
    visited_files = sorted(glob.glob(os.path.join(checkpoint_dir, "visited_*.parquet")))
    for d in sorted(glob.glob(os.path.join(checkpoint_dir, "visited_*"))):
        if os.path.isdir(d):
            visited_files.extend(
                sorted(glob.glob(os.path.join(d, "*.parquet")))
            )
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
