"""Calibration: each layer of the engine timed on its own.

Runs in every traced run, after the workload's passes, on a fixed input
(the same for every run seed), so a per-layer number moves only when the
layer or the box changes.  Every call goes through a public function of the
layer's module; nothing is traced inside the engine.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs

CALIBRATION_SEED = 7919
CALIBRATION_DOCS = 500
DEEP_PER_KIND = 4
REPEATS = 5

# Cascade stages the calibration pages are known to end in; each is emitted
# as extract.stage_hits.<stage> and extract.stage_ms.<stage>.
STAGES = ("url", "meta", "json-ld", "time-element", "abbr", "date-selector",
          "free-text", "search-page", "none")
CRAWL_PHASES = ("dedup", "seen", "robots", "politeness", "fetch", "links_io", "checkpoint")


def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _median_time(fn, repeats: int = REPEATS) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(repeats))


def _pct(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _consume(ds) -> int:
    return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow", batch_size=None))


def _identity(batch: pa.Table) -> pa.Table:
    return batch


class Calibration:
    """Fixed calibration inputs, staged under ``wdir``."""

    def __init__(self, wdir: str):
        from go_htmldate_ray.sources.pages import synthesize_pages_batch

        self.wdir = wdir
        self.docs = inputs.make_documents(CALIBRATION_SEED, CALIBRATION_DOCS)
        self.docs_path = inputs.write_documents(wdir, self.docs)
        self.shallow = synthesize_pages_batch(
            self.docs.select(["doc_id", "text", "lang"]), self.docs.num_rows
        ).select(["doc_id", "url", "html"])
        self.pages_path = os.path.join(wdir, "pages.parquet")
        pq.write_table(self.shallow, self.pages_path, row_group_size=100)
        self.deep, _ = inputs.make_deep_pages(CALIBRATION_SEED, self.docs, DEEP_PER_KIND)

    # -- Ray Data execution ------------------------------------------------

    def ray_data(self) -> dict:
        import ray.data

        from go_htmldate_ray.sources.io import read_parquet_clean

        def read():
            return read_parquet_clean(self.pages_path, columns=["doc_id", "url", "html"])

        return {
            "ray_data.empty_exec_s": _median_time(
                lambda: _consume(ray.data.range(1, override_num_blocks=1).map_batches(_identity))
            ),
            "sources.read_s": _median_time(lambda: _consume(read())),
            "ray_data.identity_map_s": _median_time(
                lambda: _consume(read().map_batches(_identity, batch_format="pyarrow", batch_size=64))
            ),
            "ray_data.repartition_s": _median_time(lambda: _consume(read().repartition(8))),
            "ray_data.materialize_s": _median_time(lambda: read().materialize()),
        }

    # -- DOM parse and the extraction cascade, in process -------------------

    def _pages(self):
        fast = [(u, h, False) for u, h in zip(self.shallow.column("url").to_pylist(),
                                                self.shallow.column("html").to_pylist())]
        deep = [(u, h, True) for u, h in zip(self.deep.column("url").to_pylist(),
                                               self.deep.column("html").to_pylist())]
        return fast + deep

    def dom(self) -> dict:
        from go_htmldate_ray import dom

        times, total_bytes = [], 0
        for _ in range(2):
            for _url, html, _deep in self._pages():
                dt, _ = _timed(dom.parse_html, html)
                times.append(dt)
                total_bytes += len(html)
        return {
            "dom.parse_ms_p50": statistics.median(times) * 1e3,
            "dom.parse_ms_p99": _pct(times, 99) * 1e3,
            "dom.parse_mb_per_s": total_bytes / sum(times) / 1e6,
        }

    def extract(self) -> dict:
        from dataclasses import replace

        from go_htmldate_ray.extract import from_html

        from .workloads import _options

        times: list[float] = []
        deep_s = 0.0
        hits = {s: 0 for s in STAGES}
        stage_s = {s: 0.0 for s in STAGES}
        for url, html, deep in self._pages():
            opts = replace(_options(deep), url=url)
            dt, res = _timed(from_html, html, opts)
            stage = (res.src_stage or "none") if res.date_time is not None else "none"
            times.append(dt)
            deep_s += dt if deep else 0.0
            hits[stage] = hits.get(stage, 0) + 1
            stage_s[stage] = stage_s.get(stage, 0.0) + dt
        out = {
            "extract.doc_ms_p50": statistics.median(times) * 1e3,
            "extract.doc_ms_p99": _pct(times, 99) * 1e3,
            "extract.pages_per_s_1thread": len(times) / sum(times),
        }
        for s in STAGES:
            out[f"extract.stage_hits.{s}"] = hits[s]
            out[f"extract.stage_ms.{s}"] = stage_s[s] * 1e3
        self.deep_kernel_s = deep_s / self.deep.num_rows
        return out

    def extract_stage(self) -> dict:
        """``extract_batch`` on 64-page batches against the same pages run
        one by one through the kernel it wraps."""
        from dataclasses import replace

        from go_htmldate_ray.extract import from_html
        from go_htmldate_ray.functions.kernels import extract_url_date
        from go_htmldate_ray.stages.extract_stage import extract_batch

        from .workloads import _options

        opts = _options(False)
        batch_times: list[float] = []
        for _ in range(REPEATS):
            for i in range(0, self.shallow.num_rows, 64):
                batch_times.append(_timed(extract_batch, self.shallow.slice(i, 64), opts)[0])
        doc_s = 0.0
        for url, html in zip(self.shallow.column("url").to_pylist(), self.shallow.column("html").to_pylist()):
            t0 = time.perf_counter()
            if extract_url_date(url, opts) is None:
                from_html(html, replace(opts, url=url))
            doc_s += time.perf_counter() - t0
        batch_s = sum(batch_times) / REPEATS
        self.shallow_kernel_s = doc_s / self.shallow.num_rows
        return {
            "extract_stage.batch_ms_p50": statistics.median(batch_times) * 1e3,
            "extract_stage.batch_ms_p99": _pct(batch_times, 99) * 1e3,
            "extract_stage.overhead_share": (batch_s - doc_s) / batch_s,
        }

    # -- crawl scheduler, seen set, URL and robots kernels, fetch ------------

    def crawl(self) -> dict:
        from go_htmldate_ray.pipelines.crawl import crawl

        ckpt = os.path.join(self.wdir, "ckpt")
        shutil.rmtree(ckpt, ignore_errors=True)
        seeds = [inputs.page_url(i) for i in inputs.crawl_seed_ids(CALIBRATION_SEED, CALIBRATION_DOCS)]
        t0 = time.perf_counter()
        visited, stats = crawl(self.wdir, seeds, politeness_budget=4, checkpoint_dir=ckpt)
        visited.count()
        wall = time.perf_counter() - t0
        shutil.rmtree(ckpt, ignore_errors=True)
        out = {f"crawl.phase.{p}_s": stats["phase_seconds"].get(p, 0.0) for p in CRAWL_PHASES}
        for k in ("waves", "fetched", "robots_denied", "dedup_dropped"):
            out[f"crawl.{k}"] = stats[k]
        out["crawl.s_per_wave"] = wall / max(1, stats["waves"])
        return out

    def state(self) -> dict:
        from go_htmldate_ray.state.robots import allowed, parse_robots, synthetic_robots_txt
        from go_htmldate_ray.state.seen_filter import SeenSet
        from go_htmldate_ray.state.urls import canonicalize, url_hash

        rng = random.Random(CALIBRATION_SEED)
        urls = [inputs.page_url(rng.randrange(10**6)) + "?ref=a/../b" for _ in range(1000)]
        canon = [canonicalize(u) for u in urls]
        paths = [u.split(".org", 1)[1] for u in canon]
        rules = parse_robots(synthetic_robots_txt("site13.example.org"))
        out = {
            "state.canonicalize_us": _median_time(lambda: [canonicalize(u) for u in urls]) * 1e3,
            "state.url_hash_us": _median_time(lambda: [url_hash(u) for u in canon]) * 1e3,
            "state.robots_allowed_us": _median_time(lambda: [allowed(p, rules) for p in paths]) * 1e3,
        }
        seen = SeenSet(n_shards=8)
        keys = [url_hash(u) for u in canon]
        seen.contains(keys[:8])  # actors up before timing
        add_s, contains_s = [], []
        for r in range(REPEATS):
            batch = [k ^ r for k in keys]
            add_s.append(_timed(seen.check_and_add, batch)[0])
            contains_s.append(_timed(seen.contains, batch)[0])
        out["state.seen_add_ms"] = statistics.median(add_s) * 1e3
        out["state.seen_contains_ms"] = statistics.median(contains_s) * 1e3
        return out

    def fetch(self) -> dict:
        from go_htmldate_ray.pipelines.crawl import CrawlFetcher

        from .workloads import fetch_batch

        fetcher = CrawlFetcher(self.wdir)
        n = 64
        urls = [inputs.page_url(i) for i in range(CALIBRATION_DOCS)]
        times = []
        for i in range(0, CALIBRATION_DOCS - n + 1, n):
            times.append(_timed(fetcher, fetch_batch(urls[i : i + n]))[0])
        self.fetch_url_s = statistics.median(times) / n
        return {"fetch.slice_ms_p50": statistics.median(times) * 1e3}

    # -- curation: text signals, MinHash/LSH, near-dup keep, joins ----------

    def curation(self) -> dict:
        from go_htmldate_ray.sources.io import read_parquet_clean
        from go_htmldate_ray.stages import text_stage
        from go_htmldate_ray.stages.dedup import MinHasher, minhash_lsh_pairs, near_dup_keep
        from go_htmldate_ray.stages.joins import hash_join

        n = self.docs.num_rows
        text = self.docs.select(["doc_id", "text"])
        gopher_s = _median_time(lambda: text_stage.gopher_quality_batch(text, min_words=30, max_words=80, min_stopword_hits=1))
        lang_s = _median_time(lambda: text_stage.lang_id_batch(text))
        sig_s = _median_time(lambda: MinHasher()(text), repeats=3)
        self.curate_kernel_s = (gopher_s + lang_s + sig_s) / n

        def docs():
            return read_parquet_clean(self.docs_path, columns=["doc_id", "text"])

        pairs_s, pairs = _timed(lambda: minhash_lsh_pairs(docs(), hot_buckets="error").take_all())
        keep_s, _ = _timed(lambda: near_dup_keep(docs(), hot_buckets="error").take_all())
        left = docs().map_batches(
            lambda b: text_stage.gopher_quality_batch(b).select(["doc_id", "n_words"]),
            batch_format="pyarrow",
        ).materialize()
        right = near_dup_keep(docs(), hot_buckets="error").materialize()
        join_s = _median_time(lambda: _consume(hash_join(left, right, on="doc_id")), repeats=3)
        return {
            "text_stage.gopher_ms_per_doc": gopher_s / n * 1e3,
            "dedup.minhash_sig_ms_per_doc": sig_s / n * 1e3,
            "dedup.minhash_lsh_pairs_s": pairs_s,
            "dedup.pairs": len(pairs),
            "dedup.near_dup_keep_s": keep_s,
            "joins.hash_join_s": join_s,
        }

    def run(self) -> dict:
        out: dict = {}
        for probe in (self.ray_data, self.dom, self.extract, self.extract_stage,
                      self.crawl, self.state, self.fetch, self.curation):
            out.update(probe())
        return out

    def kernel_s_per_item(self, workload: str) -> float:
        """In-process, single-thread kernel seconds per page or document."""
        return {
            "extract_shallow": self.shallow_kernel_s,
            "extract_deep": self.deep_kernel_s,
            "crawl": self.fetch_url_s,
            "curate": self.curate_kernel_s,
        }[workload]
