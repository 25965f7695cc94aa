"""Seeded workload inputs and the independent answers they are checked against.

Everything here is a pure function of (seed, scale).  Inputs are staged once
per (workload, seed, scale) under the work directory and reused by later runs
with the same seed; the expected answers are computed here, without calling
the engine, and stored next to the inputs.

Document text mimics the synthetic ``documents`` table the engine's tests use:
a 30-word vocabulary, 10-100 words per document, five languages, and 5% of the
documents planted as near-duplicates (another document's text plus " dup").
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from datetime import date, timedelta

import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
LANGS = [("en", 41), ("zh", 15), ("es", 15), ("fr", 15), ("de", 14)]
DUP_SHARE = 0.05

# One "sf" unit is 50,000 documents, so sf0.1 is the 5,000-document corpus.
DOCS_PER_SF = 50_000


def n_docs_for(scale: float) -> int:
    return max(50, int(round(DOCS_PER_SF * scale)))


def work_dir(root: str, workload: str, seed: int, scale: float) -> str:
    return os.path.join(root, ".perfbench_work", f"{workload}-s{seed}-sf{scale:g}")


# --------------------------------------------------------------------------
# documents


def make_documents(seed: int, n: int) -> pa.Table:
    rng = random.Random(f"docs:{seed}")
    langs = [l for l, w in LANGS for _ in range(w)]
    texts: list[str] = []
    for i in range(n):
        if i > 10 and rng.random() < DUP_SHARE:
            texts.append(texts[rng.randrange(i)] + " dup")
        else:
            texts.append(" ".join(rng.choice(VOCAB) for _ in range(rng.randint(10, 100))))
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([rng.choice(langs) for _ in range(n)], pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def write_documents(dirpath: str, docs: pa.Table) -> str:
    path = os.path.join(dirpath, "documents.parquet")
    pq.write_table(docs, path, row_group_size=1000)
    return path


# --------------------------------------------------------------------------
# shallow pages: the engine's own synthetic page source, dated by doc_id


def shallow_expected(doc_id: int) -> str:
    """The date every synthetic page embeds: 2000-01-01 + (id*7919 % 9000)
    days (the SQL contract documented in the engine's page source)."""
    return (date(2000, 1, 1) + timedelta(days=(doc_id * 7919) % 9000)).isoformat()


# --------------------------------------------------------------------------
# deep pages: long pages with one planted date (or none)

DEEP_KINDS = (
    "abbr",
    "date_selector",
    "free_text_de",
    "free_text_en",
    "late_time",
    "copyright",
    "none",
)
_EN_MONTHS = (
    "January February March April May June July August September October "
    "November December"
).split()
_DE_MONTHS = (
    "Januar Februar März April Mai Juni Juli August September Oktober "
    "November Dezember"
).split()


def _deep_page(kind: str, d: date, paragraphs: list[str], title: str) -> tuple[bytes, str | None]:
    iso = d.isoformat()
    en = f"{_EN_MONTHS[d.month - 1]} {d.day}, {d.year}"
    top = late = ""
    foot = "<p>Contact the newsroom team</p>"
    expected: str | None = iso
    if kind == "abbr":
        top = f'<abbr class="published" title="{iso}">{d.day} {_EN_MONTHS[d.month - 1]} {d.year}</abbr>'
    elif kind == "date_selector":
        top = f'<div class="byline"><span class="date">{iso}</span></div>'
    elif kind == "free_text_de":
        top = f'<p class="note">Veröffentlicht am {d.day}. {_DE_MONTHS[d.month - 1]} {d.year} von der Redaktion</p>'
    elif kind == "free_text_en":
        top = f'<p class="note">This story was first written on {en} by the team</p>'
    elif kind == "late_time":
        late = f'<p>updated <time datetime="{iso}">{en}</time></p>'
    elif kind == "copyright":
        # a copyright year dates the page to January 1st of that year
        foot = f"<p>© {d.year} Example Media Group. All rights reserved.</p>"
        expected = f"{d.year:04d}-01-01"
    else:
        expected = None
    nav = "".join(f'<li><a href="/section/{w}">{w.title()}</a></li>' for w in VOCAB[:14])
    js = ("var config = {theme: 'dark', menu: ['" + "','".join(VOCAB) + "'], lazy: true};") * 3
    body = "".join(f"<p>{p}</p>" for p in paragraphs)
    html = (
        f'<!DOCTYPE html><html lang="en"><head><meta charset="utf-8"><title>{title}</title>'
        f'<script>{js}</script><link rel="stylesheet" href="/static/site.css"></head><body>'
        f"<header><nav><ul>{nav}</ul></nav></header>"
        f'<div class="main"><article><h1>{title}</h1>{top}{body}{late}</article>'
        f"<aside><ul>{nav}</ul></aside></div><footer>{foot}</footer>"
        f"<script>{js}</script></body></html>"
    )
    return html.encode("utf-8"), expected


def make_deep_pages(seed: int, docs: pa.Table, per_kind: int) -> tuple[pa.Table, dict[int, str | None]]:
    """``per_kind`` pages of each planted position, shuffled by the seed.
    Every seed has the same mix of cheap and expensive pages, and each
    position gets the same spread of 20 to 80 paragraphs, so the work per
    pass does not depend on the seed."""
    rng = random.Random(f"deep:{seed}")
    texts = docs.column("text").to_pylist()
    layout = [
        (k, 20 + 60 * j // max(1, per_kind - 1)) for k in DEEP_KINDS for j in range(per_kind)
    ]
    rng.shuffle(layout)
    ids, urls, htmls, expected = [], [], [], {}
    for doc_id, (kind, n_paragraphs) in enumerate(layout):
        d = date(2001, 1, 1) + timedelta(days=rng.randrange(23 * 365))
        paragraphs = [rng.choice(texts) for _ in range(n_paragraphs)]
        title = " ".join(rng.choice(VOCAB) for _ in range(8))
        html, exp = _deep_page(kind, d, paragraphs, title)
        ids.append(doc_id)
        urls.append(f"https://press.example.net/story/{'-'.join(title.split()[:3])}.html")
        htmls.append(html)
        expected[doc_id] = exp
    table = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "html": pa.array(htmls, pa.binary()),
        }
    )
    return table, expected


# --------------------------------------------------------------------------
# crawl: seeds and the reachable-set oracle (DuckDB recursive CTE)

N_HOSTS = 97


def page_url(doc_id: int) -> str:
    host = f"site{doc_id % N_HOSTS}.example.org"
    if doc_id % 4 == 2:
        d = date(2000, 1, 1) + timedelta(days=(doc_id * 7919) % 9000)
        return f"https://{host}/{d.year:04d}/{d.month:02d}/{d.day:02d}/post-{doc_id}.html"
    return f"https://{host}/article/{doc_id}.html"


def crawl_seed_ids(seed: int, n_docs: int, n_seeds: int = 10) -> list[int]:
    return sorted(random.Random(f"crawl:{seed}").sample(range(n_docs), n_seeds))


# Reachable set of the synthetic link graph (doc d links to (13d+1)%N and
# (29d+7)%N) from the seed pages, skipping pages robots.txt disallows
# (hosts with index % 13 == 0 disallow /article/, i.e. doc_id % 4 != 2).
_CRAWL_SQL = """
WITH RECURSIVE n(n) AS (SELECT count(*) FROM documents),
edges AS (
    SELECT doc_id, (doc_id * 13 + 1) % (SELECT n FROM n) AS target FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 29 + 7) % (SELECT n FROM n) AS target FROM documents
),
reach(id) AS (
    SELECT id FROM seeds WHERE NOT ((id % 97) % 13 = 0 AND id % 4 != 2)
    UNION
    SELECT e.target FROM reach r JOIN edges e ON e.doc_id = r.id
    WHERE NOT ((e.target % 97) % 13 = 0 AND e.target % 4 != 2)
)
SELECT id AS doc_id,
       CASE WHEN id % 4 = 2 THEN
           'https://site' || (id % 97) || '.example.org/' ||
           strftime(DATE '2000-01-01' + ((id * 7919) % 9000)::INTEGER, '%Y/%m/%d') ||
           '/post-' || id || '.html'
       ELSE 'https://site' || (id % 97) || '.example.org/article/' || id || '.html'
       END AS url
FROM reach
"""


def crawl_oracle(docs_path: str, seed_ids: list[int]) -> list[list]:
    import duckdb

    con = duckdb.connect()
    try:
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{docs_path}')")
        con.execute("CREATE TABLE seeds(id BIGINT)")
        con.executemany("INSERT INTO seeds VALUES (?)", [[i] for i in seed_ids])
        rows = con.execute(_CRAWL_SQL + " ORDER BY doc_id").fetchall()
    finally:
        con.close()
    return [[int(d), u] for d, u in rows]


# --------------------------------------------------------------------------
# curation oracle: Gopher rules + stopword language ID + MinHash near-dup
# keep, recomputed in plain Python/numpy from the documents' text.

_STOPWORDS = {"the", "be", "to", "of", "and", "that", "have", "with"}
_BULLET = re.compile(r"^\s*[-*•]")
_ELLIPSIS = re.compile(r"\.\.\.\s*$")
_ALPHA = re.compile(r"[A-Za-z]")


def _gopher(text: str) -> tuple[int, bool]:
    toks = text.strip(" ").split()
    n = len(toks)
    lines = text.split("\n")
    if n == 0:
        return 0, False
    mean_len = round(sum(len(w) for w in toks) / n, 6)
    frac_alpha = round(sum(1 for w in toks if _ALPHA.search(w)) / n, 6)
    stop_hits = len({w.lower() for w in toks} & _STOPWORDS)
    symbol = round((text.count("#") + (len(text) - len(text.replace("...", ""))) / 3) / n, 6)
    bullets = round(sum(1 for l in lines if _BULLET.search(l)) / len(lines), 6)
    ellipsis = round(sum(1 for l in lines if _ELLIPSIS.search(l)) / len(lines), 6)
    passes = (
        30 <= n <= 80
        and 3.0 <= mean_len <= 10.0
        and symbol <= 0.1
        and bullets <= 0.9
        and ellipsis <= 0.3
        and frac_alpha >= 0.8
        and stop_hits >= 1
    )
    return n, passes


def _lang(text: str, profiles: dict[str, set[str]]) -> str:
    toks = text.strip(" ").lower().split()
    best, best_hits = "und", 0
    for lang, words in profiles.items():
        hits = sum(1 for t in toks if t in words)
        if hits > best_hits:
            best, best_hits = lang, hits
    return best


def _near_dup_drop(texts: list[str], num_perm: int = 128, num_bands: int = 16,
                   threshold: float = 0.8) -> set[int]:
    """Doc ids that lose their near-dup cluster to a smaller id."""
    import numpy as np

    rng = np.random.RandomState(42)
    a = rng.randint(1, 1 << 31, size=num_perm).astype(np.uint64)
    b = rng.randint(0, 1 << 31, size=num_perm).astype(np.uint64)
    m = np.uint64((1 << 61) - 1)
    rows = num_perm // num_bands
    sigs: dict[int, np.ndarray] = {}
    for doc_id, text in enumerate(texts):
        toks = text.strip(" ").split()
        if not toks:
            continue
        shingles = {" ".join(toks)} if len(toks) < 3 else {
            " ".join(toks[i : i + 3]) for i in range(len(toks) - 2)
        }
        h = np.array(
            [int(hashlib.md5(s.encode()).hexdigest()[:16], 16) & 0x7FFFFFFF for s in shingles],
            dtype=np.uint64,
        )
        sigs[doc_id] = ((h[:, None] * a[None, :] + b[None, :]) % m).min(axis=0)
    buckets: dict[tuple, list[int]] = {}
    for doc_id, sig in sigs.items():
        for band in range(num_bands):
            key = (band, sig[band * rows : (band + 1) * rows].tobytes())
            buckets.setdefault(key, []).append(doc_id)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    seen_pairs = set()
    for members in buckets.values():
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                pair = (min(x, y), max(x, y))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if (sigs[x] == sigs[y]).sum() / num_perm >= threshold:
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        parent[max(rx, ry)] = min(rx, ry)
    return {x for x in parent if find(x) != x}


def curate_oracle(docs: pa.Table, profiles: dict[str, set[str]]) -> list[list]:
    texts = docs.column("text").to_pylist()
    dropped = _near_dup_drop(texts)
    rows: dict[str, list[int]] = {}
    for doc_id, text in enumerate(texts):
        n_words, passes = _gopher(text)
        r = rows.setdefault(_lang(text, profiles), [0, 0, 0])
        r[0] += 1
        if passes and doc_id not in dropped:
            r[1] += 1
            r[2] += n_words
    return sorted([lang, *v] for lang, v in rows.items())


# --------------------------------------------------------------------------


def digest(rows) -> str:
    """Order-insensitive digest of output rows, for byte-identity checks."""
    lines = sorted(json.dumps(r, sort_keys=True, default=str) for r in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
