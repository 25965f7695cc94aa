"""Corpus-cleaning operators: passage-level dedup, PII redaction, and
test-set decontamination.

These are the CCNet/Gopher-style hygiene passes of a web-scale
training-data pipeline, expressed Ray-Data-first:

* :func:`paragraph_dedup_stats` — exact passage-level dedup (CCNet keeps
  the globally-first occurrence of every normalized paragraph).  The
  shuffle moves one light row per passage occurrence into its hash
  *bucket*; the keep decision is a vectorized lexsort + run-boundary
  scan inside the bucket — no join and no per-key Python callbacks.
* :func:`pii_redact_batch` — vectorized regex scrub of emails, phone
  numbers and IPv4 addresses (compiled once per process).
* :func:`decontaminate` — flags documents sharing any token n-gram with
  a blocklist corpus (the "did the benchmark leak into the training
  set" check).  The blocklist is built once, broadcast via ``ray.put``,
  and probed per batch — never re-shipped and never shuffled.

At 100 TB: passage rows are (hash, packed int64) pairs — a few dozen
bytes per paragraph; the winner table is one row per *distinct*
paragraph.  The blocklist (a benchmark suite) is small by definition —
at larger sizes swap the gram strings for 63-bit hashes (same keep
semantics, collision odds ~2^-40 at 10^7 grams).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# packed key = doc_id * 2^20 + para_idx  (supports 2^20 paragraphs/doc)
_PARA_SHIFT = 20


def _hash63(s: str) -> int:
    """First 8 md5 bytes >> 1 — non-negative int64, shared with the SQL
    oracle's ('0x'||substr(md5(s),1,16))::UBIGINT >> 1."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big") >> 1


# Per-process memo for Zipfian inputs (vocabulary terms, group values):
# each worker md5-hashes a repeated string once, ever.
_HASH63_CACHE: dict[str, int] = {}
_HASH63_CACHE_CAP = 1 << 20


def _hash63_cached(s: str) -> int:
    h = _HASH63_CACHE.get(s)
    if h is None:
        h = _hash63(s)
        if len(_HASH63_CACHE) < _HASH63_CACHE_CAP:
            _HASH63_CACHE[s] = h
    return h


def split_paragraphs(text: str, *, mode: str = "newline", chunk_tokens: int = 10):
    """Passage list of a document.

    ``newline``: split on blank-line boundaries (real web text).
    ``chunk``: non-overlapping ``chunk_tokens``-token windows (corpora
    without newlines, e.g. the synthetic fixture); the trailing partial
    window is kept.
    """
    if mode == "newline":
        return [p.strip() for p in re.split(r"\n\s*\n", text or "") if p.strip()]
    if mode == "chunk":
        toks = (text or "").split()
        return [
            " ".join(toks[i : i + chunk_tokens])
            for i in range(0, len(toks), chunk_tokens)
        ]
    raise ValueError(f"unknown paragraph mode: {mode}")


def paragraph_dedup_stats(ds, *, mode: str = "chunk", chunk_tokens: int = 10):
    """documents → (doc_id, n_paras, n_dup_paras).

    A paragraph occurrence is a *duplicate* iff an identical normalized
    paragraph occurs earlier in the corpus order (doc_id, then position)
    — exactly CCNet's keep-first rule.  Plan: flat-map light passage
    rows → ONE groupby on hash *buckets* (a bucket holds every
    occurrence of its hashes, so first-occurrence marking is a
    vectorized lexsort + run-boundary scan — never a per-hash Python
    group) → per-doc count aggregate.  Two shuffles, both on light rows.
    """
    from ray.data.aggregate import Sum, Count

    from .joins import SHUFFLE_BUCKETS, _bucket_of

    def passage_rows(batch: pa.Table) -> pa.Table:
        doc_ids, hashes, packed = [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for i, p in enumerate(
                split_paragraphs(t, mode=mode, chunk_tokens=chunk_tokens)
            ):
                if i >= 1 << _PARA_SHIFT:
                    # fail loudly rather than let the OR bleed into the
                    # doc_id bits and silently mis-order keep-first
                    raise ValueError(
                        f"doc {d} has >= 2^{_PARA_SHIFT} passages; raise "
                        "chunk_tokens or _PARA_SHIFT"
                    )
                doc_ids.append(d)
                hashes.append(_hash63(p))
                packed.append((d << _PARA_SHIFT) | i)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "h": pa.array(hashes, pa.int64()),
                "packed": pa.array(packed, pa.int64()),
            }
        )

    rows = (
        ds.select_columns(["doc_id", "text"])
        .map_batches(passage_rows, batch_format="pyarrow")
        .map_batches(
            lambda b: b.append_column("bkt", _bucket_of(b.column("h"), SHUFFLE_BUCKETS)),
            batch_format="pyarrow",
        )
    )

    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "dup": pa.array([], pa.int64())}
    )

    def mark_bucket(group: pa.Table) -> pa.Table:
        """All occurrences of a hash co-locate here: sort by (h, packed),
        the first of each h-run is the keeper, the rest are dups."""
        if group.num_rows == 0:
            return empty
        h = np.asarray(group.column("h"), dtype=np.int64)
        packed = np.asarray(group.column("packed"), dtype=np.int64)
        order = np.lexsort((packed, h))
        h_s = h[order]
        first = np.r_[True, h_s[1:] != h_s[:-1]]
        dup = np.empty_like(first)
        dup[order] = ~first
        return pa.table(
            {
                "doc_id": group.column("doc_id"),
                "dup": pa.array(dup.astype(np.int64), pa.int64()),
            }
        )

    per_doc = (
        rows.groupby("bkt")
        .map_groups(mark_bucket, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(), Sum("dup"))
    )
    return per_doc.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_paras": b.column("count()").cast(pa.int64()),
                "n_dup_paras": b.column("sum(dup)").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# --- PII redaction -----------------------------------------------------------

# Patterns chosen to have identical semantics in Python re and DuckDB's
# RE2 (no backrefs / lookaround): email, international-ish phone, IPv4.
# re.ASCII pins Python's \b to RE2's ASCII-only word boundary — without
# it 'café10.0.0.1' redacts under RE2 but not under Unicode-\b Python.
_PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\+[0-9]{1,3}[- ][0-9]{3}[- ][0-9]{4}", "<PHONE>"),
    (r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b", "<IP>"),
]
_PII_COMPILED = [(re.compile(p, re.ASCII), r) for p, r in _PII_PATTERNS]


def pii_redact_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_redacted, redacted_fp — scrub PII spans, count them, and
    fingerprint the redacted text (md5 first 16 hex) so the oracle can
    verify the exact output bytes without shipping full texts around."""
    doc_ids = batch.column("doc_id")
    texts = batch.column("text").to_pylist()
    counts, fps = [], []
    for t in texts:
        t = t or ""
        n = 0
        for pat, repl in _PII_COMPILED:
            t, k = pat.subn(repl, t)
            n += k
        counts.append(n)
        fps.append(hashlib.md5(t.encode("utf-8")).hexdigest()[:16])
    return pa.table(
        {
            "doc_id": doc_ids,
            "n_redacted": pa.array(counts, pa.int64()),
            "redacted_fp": pa.array(fps, pa.string()),
        }
    )


# --- decontamination ---------------------------------------------------------


def _doc_ngrams(text: str, n: int) -> set[str]:
    """Distinct space-joined token n-grams; a document shorter than n
    tokens contributes its whole text as one gram (mirrors the shingle
    convention of dedup.shingle_hashes and the ngram_jaccard oracle)."""
    toks = (text or "").split()
    if not toks:
        return set()
    if len(toks) < n:
        return {" ".join(toks)}
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


# Per-process broadcast cache (ADVICE r02: a set is not zero-copy, so
# resolve the object ref once per worker process, not once per batch).
_BL_CACHE: dict[str, frozenset] = {}


def _cached_blocklist(ref) -> frozenset:
    import ray

    key = ref.hex()
    got = _BL_CACHE.get(key)
    if got is None:
        _BL_CACHE.clear()  # one live blocklist per worker is plenty
        got = _BL_CACHE[key] = ray.get(ref)
    return got


def decontaminate(ds, *, blocklist_max_id: int = 20, n: int = 5):
    """documents → (doc_id, n_hits, contaminated).

    Blocklist = the n-gram set of docs with ``doc_id < blocklist_max_id``
    (standing in for a benchmark test set).  The blocklist is collected
    once (bounded small side by contract — a benchmark suite, not the
    corpus), broadcast with ``ray.put``, and probed per batch with set
    intersections; the corpus side streams, no shuffle at all.
    """
    import ray

    bl_rows = (
        ds.select_columns(["doc_id", "text"])
        .map_batches(
            lambda b: b.filter(pc.less(b.column("doc_id"), blocklist_max_id)),
            batch_format="pyarrow",
        )
        .take_all()
    )
    blocklist: set[str] = set()
    for r in bl_rows:
        blocklist |= _doc_ngrams(r["text"], n)
    bl_ref = ray.put(frozenset(blocklist))

    def probe(batch: pa.Table) -> pa.Table:
        bl = _cached_blocklist(bl_ref)
        hits = [
            len(_doc_ngrams(t, n) & bl) for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_hits": pa.array(hits, pa.int64()),
                "contaminated": pa.array([h > 0 for h in hits], pa.bool_()),
            }
        )

    return ds.select_columns(["doc_id", "text"]).map_batches(
        probe, batch_format="pyarrow"
    )


def nfc_normalize_batch(batch: pa.Table) -> pa.Table:
    """Unicode NFC normalization audit: doc_id, was_nfc (text already
    composed), n_chars_norm, norm_md5 (md5 of the normalized UTF-8).

    The md5 column makes the full normalized text hash-comparable
    without shipping it; stateless batch map (unicodedata's NFC is the
    same composition DuckDB's nfc_normalize applies, so the oracle can
    recompute all three columns exactly)."""
    import hashlib
    import unicodedata

    doc_ids = batch.column("doc_id")
    texts = batch.column("text").to_pylist()
    was_nfc, n_chars, md5s = [], [], []
    for t in texts:
        t = t or ""
        norm = unicodedata.normalize("NFC", t)
        was_nfc.append(norm == t)
        n_chars.append(len(norm))
        md5s.append(hashlib.md5(norm.encode("utf-8")).hexdigest())
    return pa.table(
        {
            "doc_id": doc_ids,
            "was_nfc": pa.array(was_nfc, pa.bool_()),
            "n_chars_norm": pa.array(n_chars, pa.int64()),
            "norm_md5": pa.array(md5s, pa.string()),
        }
    )


# --- mojibake repair (UTF-8-read-as-cp1252 double encoding) ------------------
# The classic web-ingest defect: a page's UTF-8 bytes were decoded as
# cp1252 somewhere upstream, turning 'é' into 'Ã©'.  Repair = re-encode
# the text as cp1252 and decode the bytes as UTF-8; the round trip only
# succeeds (and only changes anything) on genuine mojibake, so plain
# ASCII, correctly-decoded accents ('café' alone fails the inner UTF-8
# decode) and non-cp1252 text (emoji fail the encode) all pass through
# untouched — that asymmetry is the operator's safety property.
def repair_mojibake(text: str) -> tuple[str, bool]:
    """(fixed_text, changed) — one cp1252→utf-8 repair pass."""
    try:
        fixed = text.encode("cp1252").decode("utf-8")
    except (UnicodeEncodeError, UnicodeDecodeError):
        return text, False
    if fixed == text:
        return text, False
    return fixed, True


def mojibake_batch(batch: pa.Table) -> pa.Table:
    """doc_id, changed, n_chars_fixed, fixed_md5 — mojibake repair
    audit columns (md5 verifies the full repaired text)."""
    texts = batch.column("text").to_pylist()
    changed, n_chars, md5s = [], [], []
    for t in texts:
        t = t or ""
        fixed, ch = repair_mojibake(t)
        changed.append(int(ch))
        n_chars.append(len(fixed))
        md5s.append(hashlib.md5(fixed.encode("utf-8")).hexdigest())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "changed": pa.array(changed, pa.int64()),
            "n_chars_fixed": pa.array(n_chars, pa.int64()),
            "fixed_md5": pa.array(md5s, pa.string()),
        }
    )


# Planted encoding classes (doc_id % 5) — (input literal or None for
# the fixture text, expected repaired literal).  Mirrored in the SQL
# oracle, which states the expected outcome per class (planted-truth
# pattern, like charset_audit): mojibake strings repair to their clean
# forms, correct accents and emoji pass through.
MOJIBAKE_CASES: dict[int, tuple[str, str]] = {
    1: ("CafÃ© MÃ¼nchen", "Café München"),
    2: ("naïve café", "naïve café"),
    3: ("Rock â€“ Roll", "Rock – Roll"),
    4: ("emoji \U0001f600 text", "emoji \U0001f600 text"),
}


def plant_mojibake(batch: pa.Table) -> pa.Table:
    """Replace text by the class input for doc_id % 5 in 1..4; class 0
    keeps the (ASCII) fixture text."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    out = []
    for i, t in zip(ids.tolist(), texts):
        case = MOJIBAKE_CASES.get(i % 5)
        out.append(case[0] if case else (t or ""))
    return pa.table(
        {"doc_id": batch.column("doc_id"), "text": pa.array(out, pa.string())}
    )


# --- C4-style line filtering (Raffel et al. 2020 §2.2) -----------------------
# The classic web-text line/document cleaning pass: keep only lines that
# end in terminal punctuation, have >= 3 words, and mention neither
# javascript nor a boilerplate policy phrase; drop whole documents that
# contain "lorem ipsum" or a curly brace, or whose kept text carries
# fewer than `min_sentences` sentence marks.  Rule constants live here;
# the SQL oracle (__ray_entry__._c4_line_sql) is generated from them.
C4_TERMINAL = (".", "!", "?", '"')
C4_LINE_BLOCK = ("javascript", "terms of use", "privacy policy", "cookie policy")
C4_DOC_BLOCK_LOREM = "lorem ipsum"
C4_MIN_LINE_WORDS = 3
C4_MIN_SENTENCES = 5


def _c4_keep_line(line: str) -> bool:
    if not line or line[-1] not in C4_TERMINAL:
        return False
    if len(line.split()) < C4_MIN_LINE_WORDS:
        return False
    low = line.lower()
    return not any(b in low for b in C4_LINE_BLOCK)


def c4_rules_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_lines, n_kept_lines, has_lorem, has_brace, n_sentences,
    keep_doc, kept_md5 — the C4 cleaning signals per document.

    Lines are '\\n' segments, trimmed before the rules; kept text is the
    trimmed kept lines re-joined by '\\n' (md5-compared so the full
    cleaned text is verified without shipping it); n_sentences is the
    '.' count of the kept text (the sentence proxy both sides of the
    oracle share).  Stateless batch map, string ops only."""

    texts = batch.column("text").to_pylist()
    cols = {k: [] for k in (
        "n_lines", "n_kept_lines", "has_lorem", "has_brace",
        "n_sentences", "keep_doc", "kept_md5",
    )}
    for t in texts:
        t = t or ""
        lines = [ln.strip() for ln in t.split("\n")]
        kept = [ln for ln in lines if _c4_keep_line(ln)]
        kt = "\n".join(kept)
        low = t.lower()
        has_lorem = C4_DOC_BLOCK_LOREM in low
        has_brace = "{" in t
        n_sent = kt.count(".")
        cols["n_lines"].append(len(lines))
        cols["n_kept_lines"].append(len(kept))
        cols["has_lorem"].append(int(has_lorem))
        cols["has_brace"].append(int(has_brace))
        cols["n_sentences"].append(n_sent)
        cols["keep_doc"].append(int(
            not has_lorem and not has_brace
            and len(kept) >= 1 and n_sent >= C4_MIN_SENTENCES
        ))
        cols["kept_md5"].append(hashlib.md5(kt.encode("utf-8")).hexdigest())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(cols["n_lines"], pa.int64()),
            "n_kept_lines": pa.array(cols["n_kept_lines"], pa.int64()),
            "has_lorem": pa.array(cols["has_lorem"], pa.int64()),
            "has_brace": pa.array(cols["has_brace"], pa.int64()),
            "n_sentences": pa.array(cols["n_sentences"], pa.int64()),
            "keep_doc": pa.array(cols["keep_doc"], pa.int64()),
            "kept_md5": pa.array(cols["kept_md5"], pa.string()),
        }
    )


# Planted line classes (doc_id % 5 / % 3) so the single-line fixture
# text exercises every rule: kept line, short line, no-terminal line,
# lorem/brace doc drops, javascript/policy line drops, and both
# sentence-count outcomes.  Mirrored literally in the SQL oracle.
_C4_CLASS_LINES = {
    1: "lorem ipsum dolor sit amet.",
    2: "code block { x } here.",
    3: "enable javascript to view this.",
    4: "read our privacy policy today.",
}


def plant_c4_lines(batch: pa.Table) -> pa.Table:
    """Deterministic fixture augmentation for the C4 filter: build a
    multi-line document from character slices of the fixture text plus
    the class lines above (doc_id % 5) and a 5- or 2-sentence tail
    (doc_id % 3)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    out = []
    for i, t in zip(ids.tolist(), texts):
        t = t or ""
        parts = [
            t[:40] + " one.",
            "too short.",
            t[40:70] + " no terminal",
        ]
        cls = i % 5
        if cls in _C4_CLASS_LINES:
            parts.append(_C4_CLASS_LINES[cls])
        parts.append("A. B. C. D. E." if i % 3 == 0 else "A. B.")
        out.append("\n".join(parts))
    return pa.table(
        {"doc_id": batch.column("doc_id"), "text": pa.array(out, pa.string())}
    )


def cdc_dup_chunk_stats(ds, *, mask_bits: int = 6):
    """documents → (chunk_md5, n_occurrences, n_docs) for every
    content-defined chunk occurring more than once corpus-wide — the
    storage-dedup view CDC exists for (identical ~2^mask_bits-char
    spans share a chunk key even when surrounding edits shift offsets).

    Plan: per-batch CDC (:func:`~.text_stage.cdc_chunk_batch`) +
    LOCAL (chunk_md5, doc_id) pre-count via Arrow group_by — so the
    shuffle carries one light row per distinct pair per block, not one
    per chunk occurrence — → groupby pair Sum → groupby chunk_md5
    (Sum = occurrences, Count = distinct docs, exact because pair rows
    are unique after the first aggregate) → stateless dup filter.
    """
    from ray.data.aggregate import Count, Sum

    from .text_stage import cdc_chunk_batch

    def pair_partials(batch: pa.Table) -> pa.Table:
        chunks = cdc_chunk_batch(batch, mask_bits=mask_bits)
        g = chunks.group_by(["chunk_md5", "doc_id"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "chunk_md5": g.column("chunk_md5"),
                "doc_id": g.column("doc_id"),
                "n": g.column("count_all").cast(pa.int64()),
            }
        )

    pairs = (
        ds.select_columns(["doc_id", "text"])
        .map_batches(pair_partials, batch_format="pyarrow")
        .groupby(["chunk_md5", "doc_id"])
        .aggregate(Sum("n"))
    )
    summary = pairs.groupby("chunk_md5").aggregate(Sum("sum(n)"), Count())

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(sum(n))").cast(pa.int64())
        out = pa.table(
            {
                "chunk_md5": batch.column("chunk_md5"),
                "n_occurrences": n,
                "n_docs": batch.column("count()").cast(pa.int64()),
            }
        )
        import pyarrow.compute as _pc

        return out.filter(_pc.greater(out.column("n_occurrences"), 1))

    return summary.map_batches(finalize, batch_format="pyarrow")


# C4's badwords pass (Raffel et al. 2020 §2.2) drops any page containing
# a word from the "List of Dirty, Naughty, Obscene..." blocklist.  The
# fixture blocklist below stands in for that list with two words whose
# fixture frequencies differ by ~30x ("slow" is near-universal, "dup" is
# rare), so both keep branches and the rate arithmetic are exercised at
# every scale factor.  Mirrored literally in the SQL oracle.
BADWORD_FIXTURE_BLOCKLIST = ("slow", "dup")


def badword_batch(
    batch: pa.Table,
    *,
    blocklist: tuple[str, ...] = BADWORD_FIXTURE_BLOCKLIST,
    max_bad_per_mille: int = 50,
) -> pa.Table:
    """doc_id, n_tokens, n_bad, keep — blocklist ("badwords") document
    filter, the C4 cleaning pass generalized to a RATE gate:
    ``keep = n_bad * 1000 <= n_tokens * max_bad_per_mille`` (default 5%%
    bad-token rate; ``max_bad_per_mille=0`` recovers C4's strict
    any-hit drop).

    Fully vectorized — both counts are ONE ``pc.count_substring_regex``
    RE2 kernel over the column (word-boundary alternation for hits,
    ``\\S+`` for tokens), zero Python per row; integer comparison, so
    the SQL oracle (DuckDB RE2 ``regexp_extract_all``) matches exactly.
    """
    text = pc.cast(pc.fill_null(batch.column("text"), ""), pa.string())
    pat = r"\b(?:" + "|".join(re.escape(w) for w in blocklist) + r")\b"
    n_bad = pc.count_substring_regex(text, pat).cast(pa.int64())
    n_tok = pc.count_substring_regex(text, r"\S+").cast(pa.int64())
    keep = pc.cast(
        pc.less_equal(
            pc.multiply(n_bad, pa.scalar(1000, pa.int64())),
            pc.multiply(n_tok, pa.scalar(max_bad_per_mille, pa.int64())),
        ),
        pa.int64(),
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": n_tok,
            "n_bad": n_bad,
            "keep": keep,
        }
    )


def plant_host_template_lines(batch: pa.Table) -> pa.Table:
    """Deterministic fixture augmentation for host-template detection:
    every document gains its host's footer line (100%% of the host's
    docs), even doc_ids gain a nav line (~50%% — the keep threshold's
    boundary case), and the original fixture text stays as line 1 (a
    unique-ish line that must NOT be flagged).  Host assignment is the
    crawl fixture's ``site{doc_id %% 97}`` map.  Mirrored literally in
    the SQL oracle.

    The fixture text is whitespace-normalized (runs of ``[ \\t\\n\\r\\f\\v]``
    collapse to one space, then space-trim) so line 1 is guaranteed
    single-line/single-space — the oracle treats the fixture text as ONE
    line, and an embedded newline or double space would otherwise
    desynchronize engine and oracle."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    out = []
    for i, t in zip(ids, texts):
        h = int(i) % 97
        lines = [re.sub(r"[ \t\n\r\f\v]+", " ", t or "").strip(" ")]
        if int(i) % 2 == 0:
            lines.append(f"home | news | archive | site{h}")
        lines.append(f"copyright site{h}.example.org all rights reserved")
        out.append("\n".join(lines))
    return pa.table(
        {"doc_id": batch.column("doc_id"), "text": pa.array(out, pa.string())}
    )


def host_boilerplate_lines(
    ds,
    *,
    min_docs: int = 3,
    min_per_mille: int = 500,
    host_col: str | None = None,
):
    """documents (doc_id, text; multi-line) → (host, line_md5,
    n_docs_line, n_docs_host, per_mille) for every line occurring in
    ``>= min_per_mille``/1000 of a host's documents (host needs
    ``>= min_docs``) — per-host template/boilerplate removal, the
    within-domain line-dedup pass of CCNet/RefinedWeb-style curation
    (navigation bars, footers, cookie banners repeat on nearly every
    page of a site but nowhere else).

    ``host_col`` names a string host column; ``None`` keeps the crawl
    fixture's ``site{doc_id %% 97}.example.org`` map (the oracle path).

    Shape: per-batch partial — line split/trim/flatten are Arrow
    kernels, per-doc distinct + per-(host, line) counting is numpy
    ``np.unique`` index arithmetic, and md5 runs ONCE per distinct line
    per batch (template lines repeat on nearly every page, so this is
    ~docs_per_host× fewer digests than hashing per occurrence).  Each
    doc's DISTINCT trimmed non-empty lines become (host, md5(line), 1)
    rows plus one (host, '', 1) doc counter row, pre-aggregated within
    the batch, then ONE Sum groupby on (host, line_md5); the finalize
    filters by the exact integer inequality
    ``n_line * 1000 >= n_host * min_per_mille``.  Lines travel as md5
    hashes, never text, so the shuffle moves ~50 bytes + the host
    string per distinct (host, line) per block at any corpus size.
    ``per_mille`` is the floor ratio (n_line * 1000 // n_host).  The
    totals join is keyed on the 63-bit host hash (collision odds are
    ~n²/2⁶⁴ — negligible at any real host count).
    """
    from ray.data.aggregate import Sum

    from .joins import hash_join

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "host": pa.array([], pa.string()),
                "line_md5": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        if host_col is not None:
            hosts_all = np.asarray(
                pc.cast(
                    pc.fill_null(batch.column(host_col), ""), pa.string()
                ).to_pylist(),
                dtype=object,
            )
        else:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            hosts_all = np.asarray(
                [f"site{int(i) % 97}.example.org" for i in ids], dtype=object
            )
        uniq_hosts, hinv = np.unique(hosts_all, return_inverse=True)

        text = pc.cast(pc.fill_null(batch.column("text"), ""), pa.string())
        lines = pc.split_pattern(text, "\n")
        flat = pc.utf8_trim_whitespace(pc.list_flatten(lines))
        parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        keep_mask = pc.not_equal(flat, "")
        flat_np = np.asarray(flat.filter(keep_mask).to_pylist(), dtype=object)
        parent = parent[keep_mask.to_numpy(zero_copy_only=False)].astype(
            np.int64
        )

        out_h: list = list(uniq_hosts)  # doc counter rows first
        out_m: list = [""] * len(uniq_hosts)
        out_n: list = [
            int(c) for c in np.bincount(hinv, minlength=len(uniq_hosts))
        ]
        if len(flat_np):
            uniq_lines, linv = np.unique(flat_np, return_inverse=True)
            md5s = [
                hashlib.md5(s.encode("utf-8")).hexdigest() for s in uniq_lines
            ]
            nl = len(uniq_lines)
            # distinct (doc, line) occurrences, then count per (host, line)
            first = np.unique(parent * nl + linv, return_index=True)[1]
            hl = hinv[parent[first]].astype(np.int64) * nl + linv[first]
            uk, counts = np.unique(hl, return_counts=True)
            out_h.extend(uniq_hosts[uk // nl])
            out_m.extend(md5s[int(k)] for k in uk % nl)
            out_n.extend(int(c) for c in counts)
        return pa.table(
            {
                "host": pa.array(out_h, pa.string()),
                "line_md5": pa.array(out_m, pa.string()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["host", "line_md5"])
        .aggregate(Sum("n"))
        # pin the aggregate ONCE: both the doc-counter and line-row
        # branches below consume it, and without this the lineage
        # (parquet scan + partial + groupby) executes twice — the
        # aggregate rows are far smaller than the input at any scale
        .materialize()
    )

    # Split doc counters ('' key) from line rows INSIDE tasks, then one
    # bucketed int-keyed equi-join on the 63-bit host hash — both sides
    # are light aggregate rows (hash_join buckets on int64 keys).
    def split(want_counter: bool):
        def f(b: pa.Table) -> pa.Table:
            mask = pc.equal(b.column("line_md5"), "")
            if not want_counter:
                mask = pc.invert(mask)
            t = b.filter(mask)
            hkeys = pa.array(
                [_hash63_cached(h) for h in t.column("host").to_pylist()],
                pa.int64(),
            )
            if want_counter:
                return pa.table(
                    {
                        "tkey": hkeys,
                        "n_docs_host": t.column("sum(n)").cast(pa.int64()),
                    }
                )
            return pa.table(
                {
                    "hkey": hkeys,
                    "host": t.column("host"),
                    "line_md5": t.column("line_md5"),
                    "n_docs_line": t.column("sum(n)").cast(pa.int64()),
                }
            )

        return f

    doc_totals = counts.map_batches(split(True), batch_format="pyarrow")
    line_rows = counts.map_batches(split(False), batch_format="pyarrow")
    joined = hash_join(line_rows, doc_totals, on="hkey", right_on="tkey")

    def finalize(batch: pa.Table) -> pa.Table:
        nl = np.asarray(batch.column("n_docs_line"), dtype=np.int64)
        nh = np.asarray(batch.column("n_docs_host"), dtype=np.int64)
        keep = (nh >= min_docs) & (nl * 1000 >= nh * min_per_mille)
        t = pa.table(
            {
                "host": batch.column("host"),
                "line_md5": batch.column("line_md5"),
                "n_docs_line": batch.column("n_docs_line"),
                "n_docs_host": batch.column("n_docs_host"),
                "per_mille": pa.array(
                    (nl * 1000) // np.maximum(nh, 1), pa.int64()
                ),
            }
        )
        return t.filter(pa.array(keep))

    return joined.map_batches(finalize, batch_format="pyarrow")
