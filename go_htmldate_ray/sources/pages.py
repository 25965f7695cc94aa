"""Deterministic synthetic Common-Crawl-style pages source.

``BASELINE.json`` ``input_hint`` fixes the engine's input table shape:
``(url string, warc_ts timestamp, html binary, text string, lang string)``.
No such table ships in the test data, so this module synthesises it
deterministically from the ``documents`` table of an sf dir (seeded purely
by ``doc_id`` — same rows at any scale factor, no RNG, no clock).

Each page embeds its publication date through one of four mechanisms the
extraction cascade covers (meta tag, JSON-LD, URL path, <time> element),
chosen by ``doc_id % 4``.  The embedded date is pure integer arithmetic on
``doc_id`` so a DuckDB oracle can recompute it independently:

    date = DATE '2000-01-01' + ((doc_id * 7919) % 9000) days     (SQL)

Pages also carry two deterministic outlinks forming a link graph for the
crawl scheduler.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

import pyarrow as pa

EPOCH = date(2000, 1, 1)
WARC_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
DATE_MOD = 9000
DATE_MUL = 7919
N_HOSTS = 97

# SQL fragment mirroring page_date(), for oracle queries.
PAGE_DATE_SQL = "(DATE '2000-01-01' + INTERVAL (({id} * 7919) % 9000) DAY)"


def page_date(doc_id: int) -> date:
    return EPOCH + timedelta(days=(doc_id * DATE_MUL) % DATE_MOD)


def page_host(doc_id: int) -> str:
    return f"site{doc_id % N_HOSTS}.example.org"


def page_url(doc_id: int) -> str:
    d = page_date(doc_id)
    if doc_id % 4 == 2:  # URL-date variant
        return f"https://{page_host(doc_id)}/{d.year:04d}/{d.month:02d}/{d.day:02d}/post-{doc_id}.html"
    return f"https://{page_host(doc_id)}/article/{doc_id}.html"


def outlinks(doc_id: int, n_docs: int) -> list[int]:
    return [(doc_id * 13 + 1) % n_docs, (doc_id * 29 + 7) % n_docs]


def build_page_html(doc_id: int, text: str, lang: str, n_docs: int) -> bytes:
    d = page_date(doc_id)
    iso = f"{d.isoformat()}T{doc_id % 24:02d}:{doc_id % 60:02d}:00+00:00"
    variant = doc_id % 4

    head_date = ""
    body_date = ""
    if variant == 0:
        head_date = f'<meta property="article:published_time" content="{iso}"/>'
    elif variant == 1:
        head_date = (
            '<script type="application/ld+json">'
            f'{{"@type":"NewsArticle","datePublished":"{iso}",'
            f'"headline":"doc {doc_id}"}}</script>'
        )
    elif variant == 3:
        body_date = f'<time datetime="{d.isoformat()}" class="entry-date">{d.isoformat()}</time>'
    # variant 2 carries the date in the URL path only.

    links = "".join(
        f'<a href="{page_url(t)}">related {t}</a> ' for t in outlinks(doc_id, n_docs)
    )
    paragraphs = "".join(f"<p>{chunk}</p>" for chunk in _chunks(text, 400))
    html = (
        f'<html lang="{lang}"><head><meta charset="utf-8"/>'
        f"<title>Document {doc_id}</title>"
        f'<link rel="canonical" href="{page_url(doc_id)}"/>'
        f"{head_date}</head>"
        f"<body><article><h1>Document {doc_id}</h1>{body_date}"
        f"{paragraphs}</article><footer>{links}</footer></body></html>"
    )
    return html.encode("utf-8")


def _chunks(s: str, n: int):
    if not s:
        return [""]
    return [s[i : i + n] for i in range(0, len(s), n)]


def synthesize_pages_batch(batch: pa.Table, n_docs: int) -> pa.Table:
    """documents batch (doc_id, text, lang) → pages batch (input_hint schema)."""
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()

    urls, tss, htmls = [], [], []
    for doc_id, text, lang in zip(doc_ids, texts, langs):
        urls.append(page_url(doc_id))
        tss.append(WARC_EPOCH + timedelta(seconds=doc_id))
        htmls.append(build_page_html(doc_id, text or "", lang or "en", n_docs))

    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us", tz="UTC")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def count_documents(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows


def read_pages(sf_dir: str):
    """Lazy pages Dataset for an sf dir: read documents → synthesize.

    Column-pruned at the read (only doc_id/text/lang leave storage); the
    synthesis runs as a streamed batch transform, so pages never
    materialise fully.
    """
    from .io import read_parquet_clean

    n_docs = count_documents(sf_dir)
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang"],
    )
    return ds.map_batches(
        lambda b: synthesize_pages_batch(b, n_docs),
        batch_format="pyarrow",
        batch_size=256,
    )
