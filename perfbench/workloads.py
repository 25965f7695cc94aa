"""The four workloads: what each stages, runs per pass, and checks.

Each workload loads a different layer of the engine:

- ``extract_shallow``: ~1 KB synthetic pages in fast mode; Ray Data
  execution, batching and Arrow<->Python conversion dominate.
- ``extract_deep``: ~19 KB pages in extensive mode with one planted date or
  none; the DOM parse and the extraction cascade dominate.
- ``crawl``: the wave scheduler over a 5,000-page synthetic web; seen-set
  RPCs and the fetch actor dominate.
- ``curate``: quality rules, language ID and MinHash near-dup removal over
  plain text; exchanges, materializations and joins dominate.

A pass returns ``(rows, n_items)``: the output rows the check compares with
the expected answer, and how many pages or documents the pass processed.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs
from .tracing import Tracer

# Warm-up passes run on the first documents only: enough to start the
# workers and load the engine's modules, short enough to repeat in set-up.
WARM_DOCS = 200

_OPTIONS: dict[bool, object] = {}


def _options(extensive: bool):
    from go_htmldate_ray.functions.kernels import Options

    if extensive not in _OPTIONS:
        _OPTIONS[extensive] = Options(
            use_original_date=True, skip_extensive_search=not extensive
        ).with_defaults()
    return _OPTIONS[extensive]


def extract_fast(batch: pa.Table) -> pa.Table:
    from go_htmldate_ray.stages.extract_stage import extract_batch

    return extract_batch(batch, _options(False)).select(["doc_id", "date_str"])


def extract_extensive(batch: pa.Table) -> pa.Table:
    from go_htmldate_ray.stages.extract_stage import extract_batch

    return extract_batch(batch, _options(True)).select(["doc_id", "date_str"])


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def _read_json(path: str):
    with open(path) as f:
        return json.load(f)


class ExtractWorkload:
    item = "pages"

    def __init__(self, name: str, extensive: bool):
        self.name = name
        self.extensive = extensive
        self.fn = extract_extensive if extensive else extract_fast

    def stage(self, wdir: str, seed: int, scale: float) -> None:
        docs = inputs.make_documents(seed, inputs.n_docs_for(scale))
        if self.extensive:
            per_kind = max(1, round(200 * scale))
            pages, expected = inputs.make_deep_pages(seed, docs, per_kind)
            warm = pages.slice(0, len(inputs.DEEP_KINDS))
        else:
            from go_htmldate_ray.sources.pages import synthesize_pages_batch

            pages = synthesize_pages_batch(
                docs.select(["doc_id", "text", "lang"]), docs.num_rows
            ).select(["doc_id", "url", "html"])
            expected = {i: inputs.shallow_expected(i) for i in range(pages.num_rows)}
            warm = pages.slice(0, 64)
        pq.write_table(pages, os.path.join(wdir, "pages.parquet"), row_group_size=500)
        pq.write_table(warm, os.path.join(wdir, "warm.parquet"))
        _write_json(os.path.join(wdir, "expected.json"), expected)

    def load(self, wdir: str) -> None:
        self.path = os.path.join(wdir, "pages.parquet")
        self.warm_path = os.path.join(wdir, "warm.parquet")
        self.expected = {int(k): v for k, v in _read_json(os.path.join(wdir, "expected.json")).items()}

    def _run(self, path: str, tracer):
        from go_htmldate_ray.sources.io import read_parquet_clean

        with tracer.span("sources.read_parquet_clean"):
            ds = read_parquet_clean(path, columns=["doc_id", "url", "html"]).map_batches(
                self.fn, batch_format="pyarrow", batch_size=64
            )
        rows: list[list] = []
        with tracer.span("ray_data.execute"):
            for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
                rows.extend(zip(b.column("doc_id").to_pylist(), b.column("date_str").to_pylist()))
        self.last_dataset = ds
        return rows, len(rows)

    def warmup(self) -> None:
        self._run(self.warm_path, Tracer(False))

    def run_pass(self, tracer):
        return self._run(self.path, tracer)

    def check(self, rows) -> tuple[int, int]:
        got = dict(rows)
        failed = sum(1 for k, v in self.expected.items() if got.get(k, "missing") != v)
        failed += len(rows) - len(got) + len(set(got) - set(self.expected))
        return len(self.expected), failed


def fetch_batch(urls: list[str]) -> pa.Table:
    """A frontier slice as the crawl's fetch actor receives it."""
    zeros = pa.array([0] * len(urls), pa.int64())
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
        "depth": zeros,
        "discovered_wave": zeros,
        "fetch_rank": zeros,
    })


class CrawlWorkload:
    name = "crawl"
    item = "pages"
    budget = 4

    def stage(self, wdir: str, seed: int, scale: float) -> None:
        n = inputs.n_docs_for(scale)
        docs = inputs.make_documents(seed, n)
        path = inputs.write_documents(wdir, docs)
        os.makedirs(os.path.join(wdir, "warm"), exist_ok=True)
        inputs.write_documents(os.path.join(wdir, "warm"), docs.slice(0, min(n, WARM_DOCS)))
        seed_ids = inputs.crawl_seed_ids(seed, n)
        _write_json(os.path.join(wdir, "seeds.json"), [inputs.page_url(i) for i in seed_ids])
        _write_json(os.path.join(wdir, "expected.json"), inputs.crawl_oracle(path, seed_ids))

    def load(self, wdir: str) -> None:
        self.wdir = wdir
        self.seeds = _read_json(os.path.join(wdir, "seeds.json"))
        self.expected = {tuple(r) for r in _read_json(os.path.join(wdir, "expected.json"))}

    def _crawl(self, sf_dir: str, seeds: list[str], tracer):
        from go_htmldate_ray.pipelines.crawl import crawl

        ckpt = os.path.join(self.wdir, "ckpt")
        shutil.rmtree(ckpt, ignore_errors=True)
        try:
            with tracer.span("pipelines.crawl.crawl"):
                visited, stats = crawl(
                    sf_dir, seeds, politeness_budget=self.budget, checkpoint_dir=ckpt
                )
                for phase, s in stats["phase_seconds"].items():
                    tracer.add_child(f"crawl.phase.{phase}", s)
            with tracer.span("ray_data.consume"):
                rows = [
                    (r["doc_id"], r["url"])
                    for r in visited.select_columns(["doc_id", "url"]).take_all()
                ]
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        self.last_stats = stats
        return rows, stats["fetched"]

    def warmup(self) -> None:
        # A crawl starts fresh actors on every call, so a whole warm-up crawl
        # would warm nothing the next one reuses; fetch the warm pages once
        # through a fetch actor instead (engine imports, first extraction).
        import ray

        from go_htmldate_ray.pipelines.crawl import CrawlFetcher

        batch = fetch_batch([inputs.page_url(i) for i in range(WARM_DOCS)])
        fetcher = ray.remote(num_cpus=1)(CrawlFetcher).remote(os.path.join(self.wdir, "warm"))
        ray.get(fetcher.__call__.remote(batch))
        ray.kill(fetcher)

    def run_pass(self, tracer):
        return self._crawl(self.wdir, self.seeds, tracer)

    def check(self, rows) -> tuple[int, int]:
        got = set(rows)
        failed = len(got ^ self.expected) + len(rows) - len(got)
        return len(got | self.expected), failed


class CurateWorkload:
    name = "curate"
    item = "docs"

    def stage(self, wdir: str, seed: int, scale: float) -> None:
        from go_htmldate_ray.stages.text_stage import _LANG_PROFILES

        docs = inputs.make_documents(seed, inputs.n_docs_for(scale))
        inputs.write_documents(wdir, docs)
        os.makedirs(os.path.join(wdir, "warm"), exist_ok=True)
        inputs.write_documents(os.path.join(wdir, "warm"), docs.slice(0, min(docs.num_rows, WARM_DOCS)))
        _write_json(os.path.join(wdir, "expected.json"), inputs.curate_oracle(docs, _LANG_PROFILES))

    def load(self, wdir: str) -> None:
        self.wdir = wdir
        self.expected = {r[0]: tuple(r[1:]) for r in _read_json(os.path.join(wdir, "expected.json"))}
        self.n_docs = sum(v[0] for v in self.expected.values())

    def _curate(self, sf_dir: str, tracer):
        from go_htmldate_ray.pipelines.curation import curated_corpus_stats

        with tracer.span("pipelines.curation.curated_corpus_stats"):
            # "error": a hot LSH bucket must fail the run, not be sampled
            ds = curated_corpus_stats(sf_dir, hot_buckets="error")
        with tracer.span("ray_data.execute"):
            rows = [
                (r["pred_lang"], r["n_docs"], r["n_kept"], r["kept_tokens"])
                for r in ds.take_all()
            ]
        self.last_dataset = ds
        return rows, sum(r[1] for r in rows)

    def warmup(self) -> None:
        self._curate(os.path.join(self.wdir, "warm"), Tracer(False))

    def run_pass(self, tracer):
        return self._curate(self.wdir, tracer)

    def check(self, rows) -> tuple[int, int]:
        got = {r[0]: tuple(r[1:]) for r in rows}
        failed = 0
        for lang in set(got) | set(self.expected):
            if got.get(lang) != self.expected.get(lang):
                failed += max(got.get(lang, (0,))[0], self.expected.get(lang, (0,))[0])
        return self.n_docs, min(failed, self.n_docs)


WORKLOADS = {
    "extract_shallow": lambda: ExtractWorkload("extract_shallow", extensive=False),
    "extract_deep": lambda: ExtractWorkload("extract_deep", extensive=True),
    "crawl": CrawlWorkload,
    "curate": CurateWorkload,
}
