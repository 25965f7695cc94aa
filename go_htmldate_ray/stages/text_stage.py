"""Text-analysis stages for large-scale training-data pipelines.

Vectorized batch transforms over the ``documents`` table: token counting,
quality scoring, fingerprinting, and a stopword-profile language
identifier.  All are pure batch functions usable directly in
``ds.map_batches(..., batch_format="pyarrow")``.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def token_count_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens — whitespace token count (str.split semantics)."""
    texts = batch.column("text").to_pylist()
    counts = [len(t.split()) if t else 0 for t in texts]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(counts, pa.int64()),
        }
    )


# GPT-2-style pre-tokenizer pattern, ASCII-literal so Python `re` and
# DuckDB RE2 agree byte-for-byte (contractions, letter runs, digit runs,
# symbol runs — each with an optional leading space — then whitespace).
_BPE_PAT = re.compile(
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
)


def bpe_token_count_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens (whitespace), n_bpe_tokens (GPT-2-style
    pre-tokenizer pieces incl. whitespace runs) — the token-budget
    estimator a training pipeline runs corpus-wide.  Stateless batch
    map; the compiled pattern is module-level (built once per worker).
    """
    texts = batch.column("text").to_pylist()
    ws, bpe = [], []
    for t in texts:
        t = t or ""
        ws.append(len(t.split()))
        bpe.append(len(_BPE_PAT.findall(t)))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(ws, pa.int64()),
            "n_bpe_tokens": pa.array(bpe, pa.int64()),
        }
    )


_PUNCT = set(".,;:!?'\"()[]{}-")
# 256-entry byte lookup: every punct char is ASCII, and ASCII byte values
# never occur inside UTF-8 continuation sequences, so counting punct bytes
# over the raw UTF-8 buffer counts punct *characters* exactly.
_PUNCT_LOOKUP = np.zeros(256, dtype=np.int64)
for _c in _PUNCT:
    _PUNCT_LOOKUP[ord(_c)] = 1
_QUALITY_STOPWORDS = frozenset(
    {"the", "and", "of", "to", "in", "is", "that", "for", "with", "a"}
)


def _punct_counts_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Per-row punctuation-character counts for a string column — one
    vectorized lookup + cumsum over the column's raw UTF-8 buffer
    (zero-copy from Arrow; no per-character Python loop)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.cast(pa.large_string())  # one offsets dtype (int64) for both layouts
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    buffers = col.buffers()
    offsets = np.frombuffer(buffers[1], dtype=np.int64)[col.offset : col.offset + n + 1]
    if buffers[2] is None or len(buffers[2]) == 0:  # all-null / all-empty column
        return np.zeros(n, dtype=np.int64)
    data = np.frombuffer(buffers[2], dtype=np.uint8)
    hits = np.concatenate(([0], np.cumsum(_PUNCT_LOOKUP[data])))
    return hits[offsets[1:]] - hits[offsets[:-1]]


def quality_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_chars_calc, n_tokens, n_uniq_tokens, punct_ratio,
    stopword_ratio — the standard web-text quality signals (length,
    vocabulary, punctuation density, stopword density).  Ratios are
    rounded to 6 decimals to match the SQL oracle's arithmetic."""
    texts = batch.column("text").to_pylist()
    punct_counts = _punct_counts_column(batch.column("text"))
    n_chars, n_tokens, n_uniq, punct_r, stop_r = [], [], [], [], []
    for i, t in enumerate(texts):
        t = t or ""
        toks = t.split()
        n_chars.append(len(t))
        n_tokens.append(len(toks))
        n_uniq.append(len(set(toks)))
        punct_r.append(round(int(punct_counts[i]) / len(t), 6) if t else 0.0)
        stop_r.append(
            round(
                sum(1 for w in toks if w.lower() in _QUALITY_STOPWORDS) / len(toks), 6
            )
            if toks
            else 0.0
        )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars_calc": pa.array(n_chars, pa.int64()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_uniq_tokens": pa.array(n_uniq, pa.int64()),
            "punct_ratio": pa.array(punct_r, pa.float64()),
            "stopword_ratio": pa.array(stop_r, pa.float64()),
        }
    )


# Gopher repetition-free quality rules (Rae et al. 2021, table A1) — the
# standard web-text document filter.  The stopword list and rule set are
# from the paper; thresholds are parameters so small fixtures exercise
# both outcomes.  Regexes are ASCII-literal so Python `re` and DuckDB RE2
# agree byte-for-byte.
_GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")
_ALPHA_RE = re.compile(r"[A-Za-z]")
_BULLET_RE = re.compile(r"^\s*[-*•]")
_ELLIPSIS_RE = re.compile(r"\.\.\.\s*$")


def gopher_quality_batch(
    batch: pa.Table,
    *,
    min_words: int = 50,
    max_words: int = 100_000,
    min_mean_word_len: float = 3.0,
    max_mean_word_len: float = 10.0,
    max_symbol_ratio: float = 0.1,
    max_bullet_frac: float = 0.9,
    max_ellipsis_frac: float = 0.3,
    min_alpha_frac: float = 0.8,
    min_stopword_hits: int = 2,
) -> pa.Table:
    """doc_id + the Gopher quality signals and the combined keep flag.

    Columns: n_words, mean_word_len, frac_alpha_words, stopword_hits,
    symbol_ratio, frac_bullet_lines, frac_ellipsis_lines, passes (0/1).
    All ratios round to 6 decimals (the SQL oracle's arithmetic); word =
    ``str.split()`` token, line = ``'\\n'`` split segment."""
    texts = batch.column("text").to_pylist()
    n_words_c, mean_len_c, alpha_c, stop_c = [], [], [], []
    sym_c, bullet_c, ellipsis_c, passes_c = [], [], [], []
    for t in texts:
        t = t or ""
        toks = t.split()
        n = len(toks)
        n_words_c.append(n)
        mean_len = round(sum(len(w) for w in toks) / n, 6) if n else 0.0
        mean_len_c.append(mean_len)
        alpha = (
            round(sum(1 for w in toks if _ALPHA_RE.search(w)) / n, 6) if n else 0.0
        )
        alpha_c.append(alpha)
        lower = {w.lower() for w in toks}
        hits = sum(1 for sw in _GOPHER_STOPWORDS if sw in lower)
        stop_c.append(hits)
        sym = round((t.count("#") + t.count("...")) / n, 6) if n else 0.0
        sym_c.append(sym)
        lines = t.split("\n")
        nl = len(lines)
        bullet = round(sum(1 for l in lines if _BULLET_RE.search(l)) / nl, 6)
        ellipsis = round(sum(1 for l in lines if _ELLIPSIS_RE.search(l)) / nl, 6)
        bullet_c.append(bullet)
        ellipsis_c.append(ellipsis)
        passes_c.append(
            int(
                min_words <= n <= max_words
                and min_mean_word_len <= mean_len <= max_mean_word_len
                and sym <= max_symbol_ratio
                and bullet <= max_bullet_frac
                and ellipsis <= max_ellipsis_frac
                and alpha >= min_alpha_frac
                and hits >= min_stopword_hits
            )
        )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(n_words_c, pa.int64()),
            "mean_word_len": pa.array(mean_len_c, pa.float64()),
            "frac_alpha_words": pa.array(alpha_c, pa.float64()),
            "stopword_hits": pa.array(stop_c, pa.int64()),
            "symbol_ratio": pa.array(sym_c, pa.float64()),
            "frac_bullet_lines": pa.array(bullet_c, pa.float64()),
            "frac_ellipsis_lines": pa.array(ellipsis_c, pa.float64()),
            "passes": pa.array(passes_c, pa.int64()),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """doc_id, fingerprint — md5 of whitespace-normalized lowercased text,
    first 16 hex chars (mirrors the SQL ``substr(md5(...),1,16)``)."""
    texts = batch.column("text").to_pylist()
    fps = []
    for t in texts:
        norm = " ".join((t or "").split()).lower()
        fps.append(hashlib.md5(norm.encode("utf-8")).hexdigest()[:16])
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "fingerprint": pa.array(fps, pa.string()),
        }
    )


# Stopword profiles for the heuristic language ID.  Dict ORDER is part of
# the operator's semantics (ties resolve to the earliest language), and
# the SQL oracle generator (__ray_entry__._lang_id_sql) reads this dict
# directly — extend here, never in the SQL.  Word lists are the standard
# top-frequency function words for each language.
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "a"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "ein", "nicht"},
    "fr": {"le", "la", "les", "et", "de", "est", "pour", "dans", "une", "que"},
    "es": {"el", "la", "los", "de", "y", "es", "para", "con", "una", "por"},
    "id": {"yang", "dan", "di", "ini", "itu", "dengan", "untuk", "dari", "pada", "ke"},
    "pt": {"que", "não", "uma", "para", "com", "por", "mais", "como", "dos", "é"},
    "it": {"di", "che", "il", "per", "con", "una", "del", "non", "sono", "più"},
    "nl": {"het", "een", "van", "en", "dat", "niet", "voor", "met", "zijn", "ook"},
    "pl": {"nie", "się", "jest", "na", "do", "że", "jak", "ale", "po", "co"},
    "tr": {"bir", "ve", "bu", "için", "ile", "olarak", "da", "çok", "daha", "gibi"},
    "ru": {"и", "в", "не", "на", "что", "это", "как", "его", "но", "из"},
    "uk": {"і", "що", "це", "як", "але", "його", "вона", "був", "для", "ще"},
    "sv": {"och", "att", "det", "som", "en", "på", "är", "av", "han", "till"},
    "da": {"og", "at", "det", "er", "til", "ikke", "den", "jeg", "han", "hun"},
    "fi": {"ja", "on", "ei", "että", "oli", "hän", "mutta", "se", "kun", "myös"},
    "cs": {"je", "se", "na", "že", "to", "ale", "jako", "pro", "byl", "jsem"},
    "ro": {"și", "în", "la", "cu", "este", "pentru", "care", "mai", "nu", "sunt"},
    "hu": {"és", "az", "egy", "hogy", "nem", "van", "meg", "ezt", "már", "csak"},
    "vi": {"và", "của", "là", "có", "không", "được", "trong", "người", "những", "này"},
}

# token -> [lang indices whose profile contains it]: one hash probe per
# token instead of a pass per language.
_LANG_NAMES = list(_LANG_PROFILES)
_TOKEN_LANGS: dict[str, list[int]] = {}
for _i, _profile in enumerate(_LANG_PROFILES.values()):
    for _w in _profile:
        _TOKEN_LANGS.setdefault(_w, []).append(_i)


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """doc_id, pred_lang, lang_score — stopword-profile argmax; 'und'
    (undetermined) when no profile scores.

    Scoring is one ``Counter`` pass over the tokens plus one lookup per
    *distinct* stopword-matching token — O(tokens + matches), not
    O(tokens × languages)."""
    from collections import Counter

    texts = batch.column("text").to_pylist()
    preds, scores = [], []
    n_langs = len(_LANG_NAMES)
    for t in texts:
        toks = (t or "").lower().split()
        if not toks:
            preds.append("und")
            scores.append(0.0)
            continue
        hits = [0] * n_langs
        for tok, cnt in Counter(toks).items():
            for li in _TOKEN_LANGS.get(tok, ()):
                hits[li] += cnt
        best = max(hits)
        # first-strict-max: earliest language wins ties
        preds.append(_LANG_NAMES[hits.index(best)] if best > 0 else "und")
        scores.append(best / len(toks))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "pred_lang": pa.array(preds, pa.string()),
            "lang_score": pa.array(scores, pa.float64()),
        }
    )


# --- Unicode-script language ID ----------------------------------------------
# Production lang-ID over web text needs two regimes: space-delimited
# scripts (stopword profiles above) and scripts where `split()` is
# meaningless (CJK, Thai) or the script itself pins the language family
# (Hangul, kana).  `script_lang_batch` buckets codepoints into the script
# ranges below (one vectorized searchsorted + bincount per batch, no
# per-character Python loop) and applies an integer-exact decision rule,
# falling back to the stopword profiles for Latin/Cyrillic text.  The
# ranges and decision order are the operator's semantics — the SQL oracle
# (__ray_entry__._script_lang_sql) is generated from these tables.
_SCRIPT_RANGES: list[tuple[str, tuple[tuple[int, int], ...]]] = [
    # (name, ((lo, hi) inclusive, ...)) — dict ORDER is the argmax
    # tie-break order for main_script.
    ("latin", ((0x41, 0x5A), (0x61, 0x7A), (0xC0, 0xD6),
               (0xD8, 0xF6), (0xF8, 0xFF), (0x100, 0x24F))),
    ("greek", ((0x370, 0x3FF),)),
    ("cyrillic", ((0x400, 0x4FF),)),
    ("hebrew", ((0x590, 0x5FF),)),
    ("arabic", ((0x600, 0x6FF),)),
    ("devanagari", ((0x900, 0x97F),)),
    ("thai", ((0xE00, 0xE7F),)),
    ("hangul", ((0xAC00, 0xD7AF),)),
    ("hiragana", ((0x3040, 0x309F),)),
    ("katakana", ((0x30A0, 0x30FF),)),
    ("han", ((0x4E00, 0x9FFF),)),
]
_SCRIPT_NAMES = [n for n, _ in _SCRIPT_RANGES]
_S = {n: i for i, n in enumerate(_SCRIPT_NAMES)}
# flat sorted interval table for one searchsorted per batch
_iv = sorted(
    (lo, hi, si) for si, (_n, rs) in enumerate(_SCRIPT_RANGES) for lo, hi in rs
)
_IV_LO = np.array([lo for lo, _, _ in _iv], dtype=np.int64)
_IV_HI = np.array([hi for _, hi, _ in _iv], dtype=np.int64)
_IV_SID = np.array([si for *_, si in _iv], dtype=np.int64)

# Script → language when one script decides the language outright; rule
# order is part of the semantics (kana presence implies Japanese even in
# Han-heavy text, so `ja` precedes `zh`).  Threshold: script chars ≥ 30%
# of all letter chars, compared as 10*c >= 3*total (integer-exact).
_SCRIPT_LANG_RULES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ja", ("hiragana", "katakana", "han")),  # guard: kana > 0
    ("ko", ("hangul",)),
    ("zh", ("han",)),
    ("ar", ("arabic",)),
    ("he", ("hebrew",)),
    ("el", ("greek",)),
    ("hi", ("devanagari",)),
    ("th", ("thai",)),
)


def _script_counts(texts: list[str]) -> np.ndarray:
    """(n_docs, n_scripts) letter counts — one vectorized pass over the
    batch's concatenated codepoints (utf-32 decode is C-speed per doc;
    bucketing is a single searchsorted + 2-D bincount, no Python loop
    over characters)."""
    n_docs, n_s = len(texts), len(_SCRIPT_NAMES)
    bufs = [(t or "").encode("utf-32-le") for t in texts]
    lens = np.fromiter((len(b) >> 2 for b in bufs), dtype=np.int64, count=n_docs)
    if int(lens.sum()) == 0:
        return np.zeros((n_docs, n_s), dtype=np.int64)
    cp = np.frombuffer(b"".join(bufs), dtype="<u4").astype(np.int64)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    pos = np.searchsorted(_IV_LO, cp, side="right") - 1
    valid = pos >= 0
    pos_c = np.where(valid, pos, 0)
    valid &= cp <= _IV_HI[pos_c]
    sid = _IV_SID[pos_c]
    flat = doc_idx[valid] * n_s + sid[valid]
    return np.bincount(flat, minlength=n_docs * n_s).reshape(n_docs, n_s)


def script_lang_batch(batch: pa.Table) -> pa.Table:
    """doc_id, main_script, script_chars, total_letters, pred_lang —
    two-regime language ID: Unicode-script counting decides CJK / Arabic
    / Hebrew / Greek / Devanagari / Thai outright (integer rule above);
    Latin / Cyrillic / undecided text falls back to the stopword-profile
    argmax (`lang_id_batch`).  main_script is the first-strict-max
    script (`'none'` on zero letters); all columns are integers/strings
    so the SQL oracle compares hash-exact."""
    texts = batch.column("text").to_pylist()
    n_docs = len(texts)
    C = _script_counts(texts)
    total = C.sum(axis=1)
    conds, preds = [], []
    for lang, scripts in _SCRIPT_LANG_RULES:
        c = C[:, [_S[s] for s in scripts]].sum(axis=1)
        cond = (10 * c) >= (3 * total)
        if lang == "ja":
            cond &= (C[:, _S["hiragana"]] + C[:, _S["katakana"]]) > 0
        else:
            cond &= C[:, _S[scripts[0]]] > 0
        conds.append(cond)
        preds.append(lang)
    script_pred = np.select(conds, preds, default="")
    fallback = lang_id_batch(batch).column("pred_lang").to_pylist()
    pred = [sp if sp else fb for sp, fb in zip(script_pred.tolist(), fallback)]
    arg = np.argmax(C, axis=1)  # first max = _SCRIPT_RANGES order
    main = np.where(total > 0, np.array(_SCRIPT_NAMES)[arg], "none")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "main_script": pa.array(main.tolist(), pa.string()),
            "script_chars": pa.array(
                C[np.arange(n_docs), arg].tolist(), pa.int64()
            ),
            "total_letters": pa.array(total.tolist(), pa.int64()),
            "pred_lang": pa.array(pred, pa.string()),
        }
    )


# Planted pure-script snippets (doc_id % 12 → replacement text) so the
# sf fixtures exercise EVERY decision branch: classes 0/11 keep the
# Latin-dominant fixture text (11 with one Han char below threshold —
# the mixed-content fallback), 10 is Cyrillic (no script rule by design:
# Cyrillic needs stopwords to split ru/uk, so it must fall through).
# The literals feed BOTH the engine wrapper and the generated SQL CASE.
SCRIPT_SNIPPETS: dict[int, str] = {
    1: "これはテストですよ",
    2: "カタカナノテキスト",
    3: "汉字文本内容很多字",
    4: "한국어 텍스트 문장",
    5: "نص عربي طويل هنا",
    6: "טקסט עברי כאן",
    7: "ελληνικό κείμενο εδώ",
    8: "हिंदी पाठ यहाँ है",
    9: "ข้อความภาษาไทยที่นี่",
    10: "и в не на что это как русский текст",
}


def plant_script_snippets(batch: pa.Table) -> pa.Table:
    """Deterministic fixture augmentation: replace text by the class
    snippet for doc_id % 12 in 1..10, append one Han char for class 11,
    keep class 0 unchanged.  Mirrored literally in the SQL oracle."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    texts = batch.column("text").to_pylist()
    out = []
    for i, t in zip(ids.tolist(), texts):
        cls = i % 12
        if cls in SCRIPT_SNIPPETS:
            out.append(SCRIPT_SNIPPETS[cls])
        elif cls == 11:
            out.append((t or "") + " 汉")
        else:
            out.append(t or "")
    return pa.table(
        {"doc_id": batch.column("doc_id"), "text": pa.array(out, pa.string())}
    )


def top_tokens(ds, *, k: int = 100):
    """documents → (token, n) top-k most frequent whitespace tokens — the
    vocabulary/heavy-hitters build.  Canonical combiner shape: each batch
    pre-aggregates its own token counts (a Counter per batch), so the
    ``groupby(token)`` shuffle moves at most one row per distinct token
    per block — Zipf-hot tokens like "the" arrive as n_blocks partial
    sums, never as raw occurrences.  Ties break on token ascending."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column("text").to_pylist():
            counts.update((t or "").split())
        return pa.table(
            {
                "token": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    totals = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n"))
        .map_batches(
            lambda b: pa.table(
                {"token": b.column("token"), "n": b.column("sum(n)")}
            ),
            batch_format="pyarrow",
        )
    )
    # top-k: Ray sort is total-order; k rows land on the driver
    return totals.sort(["n", "token"], descending=[True, False]).limit(k)


def bigram_collocations(ds, *, k: int = 20, min_count: int = 5):
    """documents → top-k word bigrams by PMI (x, y, n_xy, score) — the
    collocation miner (phrase detection for tokenizer/vocab builds).

    PMI = ln(c_xy · T_uni² / (T_bi · c_x · c_y)), with unigram
    probabilities over the token total and the bigram probability over
    the bigram total.  Scores are nano fixed-point (floor(x·1e9 + .5))
    on a ratio whose numerator/denominator are EXACT integers converted
    to double once on each side — the SQL oracle reproduces the doubles
    (and DuckDB ``ln`` == Python ``math.log``) bit-for-bit.

    Shape: per-batch Counter combiners (one partial row per distinct
    unigram/bigram per block) → two keyed Sum groupbys → TWO bucketed
    hash-joins attach c_x and c_y to each surviving bigram (bigrams are
    pre-filtered to ``n_xy ≥ min_count`` before the joins) → per-block
    top-k + one k-row sort.  The unigram table is materialized once and
    re-read by both joins; nothing vocabulary-sized touches the driver.
    """
    import math

    from collections import Counter

    import pandas as pd
    from ray.data.aggregate import Sum

    from .cleaning import _hash63_cached
    from .joins import hash_join

    def partial_uni(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        t_uni = 0
        t_bi = 0
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            counts.update(toks)
            t_uni += len(toks)
            t_bi += max(0, len(toks) - 1)
        terms = [""] + list(counts.keys())
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "c": pa.array([0] + list(counts.values()), pa.int64()),
                "tu": pa.array([t_uni] + [0] * len(counts), pa.int64()),
                "tb": pa.array([t_bi] + [0] * len(counts), pa.int64()),
            }
        )

    uni = (
        ds.map_batches(partial_uni, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("c"), Sum("tu"), Sum("tb"))
        .map_batches(
            lambda b: pa.table(
                {
                    "term": b.column("term"),
                    "c": b.column("sum(c)").cast(pa.int64()),
                    "tu": b.column("sum(tu)").cast(pa.int64()),
                    "tb": b.column("sum(tb)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    sentinel = uni.filter(expr="term == ''").take_all()
    t_uni = sentinel[0]["tu"] if sentinel else 0
    t_bi = sentinel[0]["tb"] if sentinel else 0
    empty_out = pd.DataFrame(
        {
            "x": pd.Series([], dtype=object),
            "y": pd.Series([], dtype=object),
            "n_xy": pd.array([], dtype="int64"),
            "score": pd.array([], dtype="float64"),
        }
    )
    if t_bi == 0:
        return empty_out

    def uni_side(out_count: str):
        def f(batch: pa.Table) -> pa.Table:
            terms = batch.column("term").to_pylist()
            keep = [t != "" for t in terms]
            t2 = batch.filter(pa.array(keep, pa.bool_()))
            return pa.table(
                {
                    "uh": pa.array(
                        [_hash63_cached(t) for t in t2.column("term").to_pylist()],
                        pa.int64(),
                    ),
                    out_count: t2.column("c"),
                }
            )

        return f

    def partial_bi(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            counts.update(zip(toks, toks[1:]))
        xs, ys = (
            ([p[0] for p in counts], [p[1] for p in counts])
            if counts
            else ([], [])
        )
        return pa.table(
            {
                "x": pa.array(xs, pa.string()),
                "y": pa.array(ys, pa.string()),
                "c": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def frequent_with_keys(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch.column("sum(c)"), min_count))
        xs = t.column("x").to_pylist()
        ys = t.column("y").to_pylist()
        return pa.table(
            {
                "x": t.column("x"),
                "y": t.column("y"),
                "n_xy": t.column("sum(c)").cast(pa.int64()),
                "xh": pa.array([_hash63_cached(s) for s in xs], pa.int64()),
                "yh": pa.array([_hash63_cached(s) for s in ys], pa.int64()),
            }
        )

    bi = (
        ds.map_batches(partial_bi, batch_format="pyarrow")
        .groupby(["x", "y"])
        .aggregate(Sum("c"))
        .map_batches(frequent_with_keys, batch_format="pyarrow")
    )
    j1 = hash_join(
        bi, uni.map_batches(uni_side("c_x"), batch_format="pyarrow"),
        on="xh", right_on="uh",
    )
    j2 = hash_join(
        j1, uni.map_batches(uni_side("c_y"), batch_format="pyarrow"),
        on="yh", right_on="uh",
    )

    def score(batch: pa.Table) -> pa.Table:
        n_xy = batch.column("n_xy").to_pylist()
        c_x = batch.column("c_x").to_pylist()
        c_y = batch.column("c_y").to_pylist()
        nanos = [
            int(
                math.floor(
                    math.log(
                        float(cxy * t_uni * t_uni) / float(t_bi * cx * cy)
                    )
                    * 1e9
                    + 0.5
                )
            )
            for cxy, cx, cy in zip(n_xy, c_x, c_y)
        ]
        return pa.table(
            {
                "x": batch.column("x"),
                "y": batch.column("y"),
                "n_xy": batch.column("n_xy"),
                "nano": pa.array(nanos, pa.int64()),
            }
        )

    top = (
        j2.map_batches(score, batch_format="pyarrow")
        .sort(key=["nano", "x", "y"], descending=[True, False, False])
        .limit(k)
        .take_all()
    )
    return pd.DataFrame(
        {
            "x": pd.Series([r["x"] for r in top], dtype=object),
            "y": pd.Series([r["y"] for r in top], dtype=object),
            "n_xy": pd.array([r["n_xy"] for r in top], dtype="int64"),
            "score": pd.array([r["nano"] / 1e9 for r in top], dtype="float64"),
        }
    )


# --- rolling-hash winnowing fingerprints -------------------------------------

_ROLL_BASE = 257
_ROLL_MOD = (1 << 61) - 1
_M61 = np.uint64(_ROLL_MOD)
_LOW31 = np.uint64((1 << 31) - 1)


def _mod_m61(x: np.ndarray) -> np.ndarray:
    """x mod 2^61-1 for uint64 inputs (two Mersenne folds + final subtract)."""
    x = (x & _M61) + (x >> np.uint64(61))
    x = (x & _M61) + (x >> np.uint64(61))
    return np.where(x >= _M61, x - _M61, x)


def _rolling_hashes(text: str, k: int) -> np.ndarray:
    """Rabin-Karp rolling hashes of every k-char window, fully vectorized.

    h_i = (sum_j cp[i+j] * 257^(k-1-j)) mod 2^61-1, computed as k shifted
    vectorized term arrays over the codepoint array.  The mod-mul splits
    each power into (hi*2^30 + lo) halves: cp*hi < 2^52 and cp*lo < 2^51
    fit uint64 exactly, and multiplying by 2^30 mod the Mersenne prime is
    a 61-bit rotation ((x >> 31) + ((x & (2^31-1)) << 30))."""
    n = len(text)
    if n < k:
        return np.zeros(0, dtype=np.uint64)
    # UTF-32-LE bytes are exactly the ord() codepoints (< 2^21)
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    n_out = n - k + 1
    acc = np.zeros(n_out, dtype=np.uint64)
    for j in range(k):
        p = pow(_ROLL_BASE, k - 1 - j, _ROLL_MOD)
        hi, lo = np.uint64(p >> 30), np.uint64(p & ((1 << 30) - 1))
        seg = cp[j : j + n_out]
        x = seg * hi  # < 2^21 * 2^31 = 2^52, exact
        term = (x >> np.uint64(31)) + ((x & _LOW31) << np.uint64(30))  # x*2^30 mod M
        term = np.where(term >= _M61, term - _M61, term) + seg * lo
        # acc after j terms ≤ (j+1) * (2*M) < 2^64 for k ≤ 4 only, so fold
        # every addition: term < 2^62, acc < M after fold → sum < 2^63 ✓
        acc = _mod_m61(acc + term)
    return acc


def winnow_fingerprints(text: str, k: int = 8, window: int = 4) -> list[int]:
    """Winnowing (Schleimer et al., SIGMOD 2003): keep the minimum rolling
    hash of each sliding window — a position-robust document fingerprint
    set whose overlap estimates shared substrings.  Window argmins are
    computed with a numpy sliding-window view; the pick-if-new-position
    rule reduces to collapsing consecutive duplicate positions."""
    hashes = _rolling_hashes(" ".join(text.split()).lower(), k)
    if hashes.size == 0:
        return []
    if hashes.size <= window:
        return [int(hashes[int(hashes.argmin())])]
    w = np.lib.stride_tricks.sliding_window_view(hashes, window)
    # leftmost min per window (np.argmin returns the first occurrence),
    # as absolute positions; a window re-picking the previous window's
    # position is skipped — exactly "collapse consecutive duplicates"
    # (the skipped window leaves `last` unchanged, so last == p[i-1]
    # holds inductively).
    p = np.argmin(w, axis=1) + np.arange(w.shape[0])
    keep = np.empty(p.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(p[1:], p[:-1], out=keep[1:])
    return sorted({int(h) for h in hashes[p[keep]]})


def winnow_batch(batch: pa.Table, k: int = 8, window: int = 4) -> pa.Table:
    """doc_id, n_fingerprints, min_fingerprint — winnowed rolling-hash
    summary per document (full sets kept out of the driver-facing schema;
    pairwise overlap uses the stage directly)."""
    texts = batch.column("text").to_pylist()
    counts, mins = [], []
    for t in texts:
        fps = winnow_fingerprints(t or "", k, window)
        counts.append(len(fps))
        mins.append(min(fps) if fps else 0)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_fingerprints": pa.array(counts, pa.int64()),
            "min_fingerprint": pa.array(mins, pa.int64()),
        }
    )


# --- repetition / per-language stats / tf-idf --------------------------------


def repetition_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_bigrams, dup_bigram_frac, top_bigram_frac — Gopher-style
    repetition signals (Rae et al. 2021): the fraction of token bigrams
    that are repeats of an earlier bigram, and the fraction covered by
    the single most frequent bigram.  High values flag boilerplate and
    keyword-stuffed pages."""
    from collections import Counter

    texts = batch.column("text").to_pylist()
    n_bg, dup_fr, top_fr = [], [], []
    for t in texts:
        toks = (t or "").split()
        total = max(len(toks) - 1, 0)
        n_bg.append(total)
        if total == 0:
            dup_fr.append(0.0)
            top_fr.append(0.0)
            continue
        counts = Counter(zip(toks, toks[1:]))
        dup_fr.append(round(1.0 - len(counts) / total, 6))
        top_fr.append(round(max(counts.values()) / total, 6))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_bigrams": pa.array(n_bg, pa.int64()),
            "dup_bigram_frac": pa.array(dup_fr, pa.float64()),
            "top_bigram_frac": pa.array(top_fr, pa.float64()),
        }
    )


def lang_doc_stats(ds):
    """documents → (lang, n_docs, total_tokens, avg_tokens) — the corpus
    composition report.  Combiner shape: each batch emits one partial
    row per language, the groupby moves n_languages × n_blocks rows."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        from collections import defaultdict

        n: dict = defaultdict(int)
        tok: dict = defaultdict(int)
        for lang, t in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            n[lang] += 1
            tok[lang] += len((t or "").split())
        langs = sorted(n)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "n": pa.array([n[l] for l in langs], pa.int64()),
                "tok": pa.array([tok[l] for l in langs], pa.int64()),
            }
        )

    from .combine import tree_combine

    def combine(b: pa.Table) -> pa.Table:
        t = b.group_by("lang").aggregate([("n", "sum"), ("tok", "sum")])
        return pa.table(
            {
                "lang": t.column("lang"),
                "n": t.column("n_sum"),
                "tok": t.column("tok_sum"),
            }
        )

    # ≤ a few dozen languages: one merge task beats the sort exchange
    return tree_combine(
        ds.map_batches(partial, batch_format="pyarrow"), combine
    ).map_batches(
        lambda b: pa.table(
            {
                "lang": b.column("lang"),
                "n_docs": b.column("n").cast(pa.int64()),
                "total_tokens": b.column("tok").cast(pa.int64()),
                "avg_tokens": pa.array(
                    [
                        round(t / n, 6)
                        for t, n in zip(
                            b.column("tok").to_pylist(),
                            b.column("n").to_pylist(),
                        )
                    ],
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def doc_term_freqs(ds):
    """documents → (doc_id, term, tf) — one row per distinct doc-term."""
    from collections import Counter

    def rows(batch: pa.Table) -> pa.Table:
        doc_ids, terms, tfs = [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for term, tf in Counter((t or "").split()).items():
                doc_ids.append(d)
                terms.append(term)
                tfs.append(tf)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    return ds.select_columns(["doc_id", "text"]).map_batches(
        rows, batch_format="pyarrow"
    )


def tfidf_top_terms(ds, *, k: int = 3):
    """documents → (doc_id, term, tf, df, rank): each document's top-k
    most distinctive terms, ranked by tf/df descending (term ascending on
    ties) — a tf-idf ranking whose score order is exactly reproducible
    (one IEEE division; no library-dependent log).

    Plan (all light rows, TWO shuffles): doc-term tf rows tagged with a
    term-hash bucket → ``groupby(tbkt)`` — every occurrence of a term
    co-locates in its bucket, so document frequency is a vectorized
    run-count over the bucket's sorted terms (exact strings, so hash
    collisions are harmless) — → doc-hash bucket → per-bucket vectorized
    top-k (lexsort + run-boundary ranks; one group per *hash bucket*,
    never per term or per doc)."""
    from .cleaning import _hash63_cached
    from .joins import SHUFFLE_BUCKETS, _bucket_of

    def tag_term_bucket(batch: pa.Table) -> pa.Table:
        # hash only the UNIQUE terms of the batch (np.unique inverse
        # broadcasts the bucket back to rows); cached hash — the Zipfian
        # head terms recur in every batch, md5 them once per worker
        terms = np.asarray(batch.column("term").to_pylist(), dtype=object)
        uniq, inv = np.unique(terms, return_inverse=True)
        bkt_u = np.asarray(
            [_hash63_cached(t) % SHUFFLE_BUCKETS for t in uniq], dtype=np.int64
        )
        return batch.append_column("tbkt", pa.array(bkt_u[inv], pa.int64()))

    empty_df = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
        }
    )

    def annotate_df(group: pa.Table) -> pa.Table:
        """All rows of each term are in this bucket: df(term) = its row
        count (doc-term rows are distinct per doc)."""
        if group.num_rows == 0:
            return empty_df
        terms = np.asarray(group.column("term").to_pylist(), dtype=object)
        _, inv, counts = np.unique(terms, return_inverse=True, return_counts=True)
        return pa.table(
            {
                "doc_id": group.column("doc_id"),
                "term": group.column("term"),
                "tf": group.column("tf"),
                "df": pa.array(counts[inv], pa.int64()),
            }
        )

    joined = (
        doc_term_freqs(ds)
        .map_batches(tag_term_bucket, batch_format="pyarrow")
        .groupby("tbkt")
        .map_groups(annotate_df, batch_format="pyarrow")
    )

    def bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bkt", _bucket_of(batch.column("doc_id"), SHUFFLE_BUCKETS)
        )

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
        }
    )

    def rank_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return empty
        d = np.asarray(group.column("doc_id"), dtype=np.int64)
        tf = np.asarray(group.column("tf"), dtype=np.int64)
        dfv = np.asarray(group.column("df"), dtype=np.int64)
        terms = np.asarray(group.column("term").to_pylist())
        score = tf / dfv  # IEEE-exact, same division the oracle runs
        order = np.lexsort((terms, -score, d))
        d_s = d[order]
        starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
        counts = np.diff(np.r_[starts, len(d_s)])
        pos = np.arange(len(d_s)) - np.repeat(starts, counts)
        keep = pos < k
        idx = pa.array(order[keep], pa.int64())
        return pa.table(
            {
                "doc_id": group.column("doc_id").take(idx),
                "term": group.column("term").take(idx),
                "tf": group.column("tf").take(idx),
                "df": group.column("df").take(idx),
                "rank": pa.array(pos[keep] + 1, pa.int64()),
            }
        )

    return (
        joined.map_batches(bucket, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(rank_topk, batch_format="pyarrow")
    )


def chunk_batch(batch: pa.Table, *, size: int = 100, stride: int = 80) -> pa.Table:
    """Overlapping fixed-width character chunks per document — the
    context-window chunking step of a RAG / LM-ingest pipeline.

    One output row per (doc, window): ``chunk_start`` is 1-based (SQL
    ``substring`` convention) and windows step by ``stride`` with
    ``size - stride`` characters of overlap; an empty document still
    yields one empty chunk so no doc silently disappears.  Stateless
    flat batch map: the expansion is local to the block, so the stage
    streams at any corpus size (output ≈ len/stride rows per doc).
    """
    if stride <= 0 or size <= 0:
        raise ValueError("size and stride must be positive")
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out_id, out_chunk, out_start, out_text = [], [], [], []
    for doc_id, t in zip(doc_ids, texts):
        t = t or ""
        n = max(len(t), 1)
        for k, s in enumerate(range(0, n, stride)):
            out_id.append(doc_id)
            out_chunk.append(k)
            out_start.append(s + 1)
            out_text.append(t[s : s + size])
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "chunk_id": pa.array(out_chunk, pa.int64()),
            "chunk_start": pa.array(out_start, pa.int64()),
            "chunk_text": pa.array(out_text, pa.string()),
        }
    )


# --- content-defined chunking (gear rolling hash) -----------------------------
#
# Chunk boundaries from CONTENT, not offsets: an insertion early in a
# document shifts every fixed-size window but leaves all later
# content-defined boundaries intact, so downstream chunk-level dedup
# (exact or MinHash) still matches the unchanged tail.  This is the
# FastCDC/LBFS gear-hash family (Xia et al., USENIX ATC 2016) in its
# pure form — no min/max clamps, so every boundary is a pure function
# of the 64 preceding code points and a DuckDB oracle can recompute the
# whole chunking exactly.
#
#   g(c) = (c * A + B) mod 2^64            (A odd => bijective on u64)
#   h_t  = sum_{j=t-63..t} g(c_j) * 2^(t-j)  mod 2^64
#   boundary after t  <=>  h_t & (2^B - 1) == 0   (expected chunk 2^B)

_GEAR_A = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd multiplier
_GEAR_B = np.uint64(0x2545F4914F6CDD1D)
_CDC_PAD = 63  # zero-gear gap isolating docs in the batch-concat array


def _gear_boundary_mask(texts: list[str], mask_bits: int) -> list[np.ndarray]:
    """Per-doc boolean masks: True after positions where the gear hash's
    low ``mask_bits`` bits are zero.

    Vectorized across the WHOLE batch: per-doc gear arrays are
    concatenated with 63 zero-gear pad cells (a zero cell contributes
    nothing to any window sum, and 63 of them cover the full lookback),
    the 64 shifted adds run once over the concatenation, and the result
    is sliced back per doc.  uint64 wrap-around IS the mod 2^64."""
    mask = np.uint64((1 << mask_bits) - 1)
    gears, spans = [], []
    off = 0
    for t in texts:
        t = t or ""
        cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        g = cp * _GEAR_A + _GEAR_B
        gears.append(g)
        gears.append(np.zeros(_CDC_PAD, dtype=np.uint64))
        spans.append((off, off + cp.size))
        off += cp.size + _CDC_PAD
    if not spans:
        return []
    cat = np.concatenate(gears)
    h = np.zeros(cat.size, dtype=np.uint64)
    for k in range(64):
        h[k:] += cat[: cat.size - k] << np.uint64(k)
    hits = (h & mask) == 0
    return [hits[lo:hi] for lo, hi in spans]


def cdc_chunk_batch(batch: pa.Table, *, mask_bits: int = 6) -> pa.Table:
    """(doc_id, chunk_idx, start, length, chunk_md5) content-defined
    chunks per document; ``start`` is a 0-based code-point offset and
    ``chunk_md5`` the first 16 md5 hex chars of the chunk text (the
    chunk-dedup key).  Empty documents yield no chunks.  Stateless flat
    batch map — streams at any corpus size."""
    import hashlib

    doc_ids = batch.column("doc_id").to_pylist()
    texts = [t or "" for t in batch.column("text").to_pylist()]
    masks = _gear_boundary_mask(texts, mask_bits)
    out_id, out_idx, out_start, out_len, out_md5 = [], [], [], [], []
    for doc_id, t, hit in zip(doc_ids, texts, masks):
        if not t:
            continue
        # boundary after position i (0-based) ends a chunk at i+1
        ends = (np.flatnonzero(hit) + 1).tolist()
        if not ends or ends[-1] != len(t):
            ends.append(len(t))
        start = 0
        for idx, end in enumerate(ends):
            piece = t[start:end]
            out_id.append(doc_id)
            out_idx.append(idx)
            out_start.append(start)
            out_len.append(end - start)
            out_md5.append(hashlib.md5(piece.encode("utf-8")).hexdigest()[:16])
            start = end
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "chunk_idx": pa.array(out_idx, pa.int64()),
            "start": pa.array(out_start, pa.int64()),
            "length": pa.array(out_len, pa.int64()),
            "chunk_md5": pa.array(out_md5, pa.string()),
        }
    )


def oov_rates(ds, *, vocab_k: int = 10):
    """Vocabulary-coverage scoring: per document, the token count and the
    exact parts-per-million of tokens OUTSIDE the corpus's top
    ``vocab_k`` vocabulary — the pre-tokenizer health check a training
    pipeline runs before committing to a vocab (a high OOV tail means
    the vocab is too small or the corpus too dirty for it).

    Two passes: the :func:`top_tokens` vocabulary build (combiner
    partials → one token-keyed groupby → k-row result, broadcast via
    ``ray.put``) then a stateless scoring pass — no further shuffle.
    → (doc_id, n_tokens, n_oov, oov_ppm), integer-exact.
    """
    import ray

    vocab = frozenset(
        r["token"] for r in top_tokens(ds, k=vocab_k).take_all()
    )  # ≤ vocab_k rows — the broadcast small side
    vocab_ref = ray.put(vocab)

    def score(batch: pa.Table) -> pa.Table:
        v = ray.get(vocab_ref)
        n_out, oov_out, ppm_out = [], [], []
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            n = len(toks)
            oov = sum(1 for tok in toks if tok not in v)
            n_out.append(n)
            oov_out.append(oov)
            ppm_out.append(oov * 1_000_000 // n if n else 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_out, pa.int64()),
                "n_oov": pa.array(oov_out, pa.int64()),
                "oov_ppm": pa.array(ppm_out, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def char_entropy_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_cp, ent_term_nano — character-distribution entropy
    statistics per document, a classic cheap quality signal (very low
    entropy = boilerplate/repeated filler; very high = binary junk or
    mojibake; used alongside the Gopher rules).

    Exactness contract (same scheme as ``charlm_nll``): for each
    distinct codepoint c with count k the per-term quantity is
    ``floor(k * ln(k) * 1e9 + 0.5)`` — an integer, so the per-document
    sum commutes and hash-compares exactly against the SQL oracle.
    Shannon entropy in nats is recoverable as
    ``ln(n_cp) - ent_term_nano / (1e9 * n_cp)``.

    Vectorized: ONE utf-32 decode of the concatenated batch text, one
    ``np.unique`` over (doc, codepoint) keys, one integer ``reduceat``
    per batch — no per-character Python.  Documents with no text are
    omitted (the oracle's ``length(text) >= 1`` guard).
    """
    texts = [t or "" for t in batch.column("text").to_pylist()]
    doc_ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    if int(lens.sum()) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_cp": pa.array([], pa.int64()),
                "ent_term_nano": pa.array([], pa.int64()),
            }
        )
    joined = "".join(texts)
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    # codepoints < 0x110000 < 2^21, so (doc, cp) packs into one int64
    key = (doc_idx << 21) | cps
    uniq, counts = np.unique(key, return_counts=True)
    term = np.floor(
        counts.astype(np.float64) * np.log(counts.astype(np.float64)) * 1e9
        + 0.5
    ).astype(np.int64)
    d = uniq >> 21
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    per_doc = d[starts]
    sums = np.add.reduceat(term, starts)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[per_doc], pa.int64()),
            "n_cp": pa.array(lens[per_doc], pa.int64()),
            "ent_term_nano": pa.array(sums, pa.int64()),
        }
    )


def lid_disagreement(ds):
    """Docs where the two language-ID regimes disagree, aggregated to a
    (stop_lang, script_lang, n_docs) confusion table — the audit a
    curation team runs before trusting either LID: a large cell means a
    whole script or stopword profile is being misrouted.

    Both regimes run over the SAME snippet-planted text
    (:func:`plant_script_snippets`, so every script branch is exercised
    at fixture scale): ``stop_lang`` is the pure stopword argmax,
    ``script_lang`` the two-regime decision (script rules else that same
    fallback) — so every disagreement row is a doc where a script rule
    overrode the stopword vote.  One stateless map (both LIDs share the
    planted batch) + per-batch pair-count partials → one tiny Sum
    groupby over the language-pair set.
    """
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        aug = plant_script_snippets(batch)
        stop = lang_id_batch(aug).column("pred_lang").to_pylist()
        script = script_lang_batch(aug).column("pred_lang").to_pylist()
        counts: Counter = Counter()
        for a, b in zip(stop, script):
            if a != b:
                counts[(a, b)] += 1
        if not counts:
            return pa.table(
                {
                    "stop_lang": pa.array([], pa.string()),
                    "script_lang": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ka, kb = zip(*counts.keys())
        return pa.table(
            {
                "stop_lang": pa.array(list(ka), pa.string()),
                "script_lang": pa.array(list(kb), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from .combine import tree_combine

    def combine(b: pa.Table) -> pa.Table:
        t = b.group_by(["stop_lang", "script_lang"]).aggregate([("n", "sum")])
        return pa.table(
            {
                "stop_lang": t.column("stop_lang"),
                "script_lang": t.column("script_lang"),
                "n": t.column("n_sum"),
            }
        )

    # ≤ langs² light rows: one merge task beats the sort exchange
    return tree_combine(
        ds.map_batches(partial, batch_format="pyarrow"), combine
    ).map_batches(
        lambda b: pa.table(
            {
                "stop_lang": b.column("stop_lang"),
                "script_lang": b.column("script_lang"),
                "n_docs": b.column("n").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
