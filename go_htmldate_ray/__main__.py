"""CLI entry point (mirrors the reference's cmd surface, SURVEY.md §2.9).

Usage:
    python -m go_htmldate_ray extract FILE [--original] [--fast] [--time]
    python -m go_htmldate_ray pipeline SF_DIR OUT_DIR [--extensive]
    python -m go_htmldate_ray dedup SF_DIR OUT_DIR [--mode exact|pairs|clusters]
    python -m go_htmldate_ray search SF_DIR TERM [TERM...] [--k N]
    python -m go_htmldate_ray curate SF_DIR OUT_DIR [--min-words N]
                                     [--sem-threshold T] [--n-shards N]
    python -m go_htmldate_ray crawl SF_DIR [--budget N] [--max-waves N]
                                    [--checkpoint DIR] [--resume]

``extract`` runs the per-document extractor on a local HTML file and
prints the date (cmd/go-htmldate/main.go:82-138 equivalent).
``pipeline`` runs the flagship Ray pipeline over an sf dir and writes
resumable partitioned parquet.  ``crawl`` runs the frontier scheduler.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="go_htmldate_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_extract = sub.add_parser("extract", help="extract date from one HTML file")
    p_extract.add_argument("file")
    p_extract.add_argument("--original", action="store_true", help="prefer original (publication) date")
    p_extract.add_argument("--fast", action="store_true", help="skip extensive search")
    p_extract.add_argument("--time", action="store_true", help="extract time of day too")
    p_extract.add_argument("--url", default="", help="URL hint for the document")
    p_extract.add_argument("--format", default="%Y-%m-%d", help="strftime output format")
    p_extract.add_argument("--min-date", default=None, help="earliest acceptable date (YYYY-MM-DD)")
    p_extract.add_argument("--max-date", default=None, help="latest acceptable date (YYYY-MM-DD)")

    p_pipe = sub.add_parser("pipeline", help="run the flagship extraction pipeline")
    p_pipe.add_argument("sf_dir")
    p_pipe.add_argument("out_dir")
    p_pipe.add_argument("--extensive", action="store_true")
    p_pipe.add_argument("--no-resume", action="store_true")

    p_dedup = sub.add_parser("dedup", help="near-duplicate analysis over a documents table")
    p_dedup.add_argument("sf_dir")
    p_dedup.add_argument("out_dir")
    p_dedup.add_argument(
        "--mode", choices=["exact", "pairs", "clusters"], default="clusters",
        help="exact = distinct-text groups; pairs = minhash near-dup pairs; "
        "clusters = connected-component labels",
    )
    p_dedup.add_argument("--threshold", type=float, default=0.8)

    p_search = sub.add_parser("search", help="BM25 keyword search over a documents table")
    p_search.add_argument("sf_dir")
    p_search.add_argument("terms", nargs="+", help="query terms")
    p_search.add_argument("--k", type=int, default=10)

    p_curate = sub.add_parser(
        "curate",
        help="quality-filter + exact/semantic dedup + jsonl.gz export",
    )
    p_curate.add_argument("sf_dir")
    p_curate.add_argument("out_dir")
    p_curate.add_argument("--min-words", type=int, default=15)
    p_curate.add_argument("--sem-threshold", type=float, default=0.5)
    p_curate.add_argument("--n-shards", type=int, default=8)
    p_curate.add_argument(
        "--backfill",
        action="store_true",
        help="synthesize feature-hashed embeddings for docs missing a "
        "row (flagged synthetic) instead of fail-closed dropping them",
    )

    p_crawl = sub.add_parser("crawl", help="run the frontier crawl scheduler")
    p_crawl.add_argument("sf_dir")
    p_crawl.add_argument("--budget", type=int, default=4)
    p_crawl.add_argument("--max-waves", type=int, default=64)
    p_crawl.add_argument("--checkpoint", default=None)
    p_crawl.add_argument("--resume", action="store_true")
    p_crawl.add_argument("--max-depth", type=int, default=None)

    args = parser.parse_args(argv)

    if args.cmd == "extract":
        from datetime import datetime, timezone

        from . import Options, from_html

        parse_d = lambda s: (
            datetime.strptime(s, "%Y-%m-%d").replace(tzinfo=timezone.utc) if s else None
        )
        raw = open(args.file, "rb").read()
        res = from_html(
            raw,
            Options(
                use_original_date=args.original,
                skip_extensive_search=args.fast,
                extract_time=args.time,
                url=args.url,
                min_date=parse_d(args.min_date),
                max_date=parse_d(args.max_date),
            ),
        )
        if res.date_time is None:
            print("no date found", file=sys.stderr)
            return 1
        print(res.date_time.isoformat() if args.time else res.date_time.strftime(args.format))
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, log_to_driver=False)

    if args.cmd == "pipeline":
        from .pipelines.extract_dates import extract_dates
        from .sources.sink import write_partitioned

        ds = extract_dates(args.sf_dir, skip_extensive_search=not args.extensive)
        report = write_partitioned(ds, args.out_dir, resume=not args.no_resume)
        print(json.dumps(report))
        return 0

    if args.cmd == "dedup":
        import pandas as pd
        import ray.data

        from .sources.io import read_parquet_clean
        from .stages import dedup as dd

        docs = read_parquet_clean(f"{args.sf_dir}/documents.parquet")
        if args.mode == "exact":
            out = dd.exact_dedup(docs)
        elif args.mode == "pairs":
            out = dd.minhash_lsh_pairs(docs, threshold=args.threshold)
        else:
            out = dd.near_dup_clusters(docs, threshold=args.threshold)
        if isinstance(out, pd.DataFrame):  # typed-empty clusters result
            out = ray.data.from_pandas(out)
        out.write_parquet(args.out_dir)
        import pyarrow.dataset as pads

        print(json.dumps({
            "mode": args.mode,
            "rows": pads.dataset(args.out_dir, format="parquet").count_rows(),
            "out": args.out_dir,
        }))
        return 0

    if args.cmd == "search":
        from .sources.io import read_parquet_clean
        from .stages.search import bm25_topk

        docs = read_parquet_clean(
            f"{args.sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        df = bm25_topk(docs, args.terms, k=args.k)
        print(df.to_json(orient="records"))
        return 0

    if args.cmd == "curate":
        from .pipelines.curation import curate_to_jsonl

        report = curate_to_jsonl(
            args.sf_dir,
            args.out_dir,
            min_words=args.min_words,
            sem_threshold=args.sem_threshold,
            n_shards=args.n_shards,
            backfill=args.backfill,
        )
        print(json.dumps(report))
        return 0

    if args.cmd == "crawl":
        from .pipelines.crawl import crawl

        visited, stats = crawl(
            args.sf_dir,
            politeness_budget=args.budget,
            max_waves=args.max_waves,
            checkpoint_dir=args.checkpoint,
            resume=args.resume,
            max_depth=args.max_depth,
        )
        stats["visited"] = visited.count()
        if args.checkpoint is None:  # the crawl's own temp checkpoint
            import shutil

            shutil.rmtree(stats.pop("checkpoint_dir"), ignore_errors=True)
        print(json.dumps(stats))
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
