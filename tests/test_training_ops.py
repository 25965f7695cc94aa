"""Tests for the corpus-hygiene / corpus-analysis operators added in
round 3: passage dedup, PII redaction, decontamination, repetition
scores, tf-idf top terms, distributed k-means, dataset split, and
per-language stats."""

import numpy as np
import pyarrow as pa
import pytest


def _docs_ds(rows):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


def test_split_paragraphs_modes():
    from go_htmldate_ray.stages.cleaning import split_paragraphs

    assert split_paragraphs("a b\n\nc d\n \ne", mode="newline") == ["a b", "c d", "e"]
    toks = " ".join(str(i) for i in range(23))
    chunks = split_paragraphs(toks, mode="chunk", chunk_tokens=10)
    assert len(chunks) == 3
    assert chunks[0].split() == [str(i) for i in range(10)]
    assert chunks[2].split() == ["20", "21", "22"]
    assert split_paragraphs("", mode="chunk") == []
    with pytest.raises(ValueError):
        split_paragraphs("x", mode="nope")


def test_paragraph_dedup_keeps_first_occurrence(ray_session):
    from go_htmldate_ray.stages.cleaning import paragraph_dedup_stats

    shared = " ".join(f"w{i}" for i in range(10))
    other = " ".join(f"x{i}" for i in range(10))
    # doc 0: shared + other; doc 1: shared (dup of doc 0's first chunk);
    # doc 2: other twice (second is a dup of doc 0's and its own)
    ds = _docs_ds(
        [
            (0, f"{shared} {other}"),
            (1, shared),
            (2, f"{other} {other}"),
        ]
    )
    got = {
        r["doc_id"]: (r["n_paras"], r["n_dup_paras"])
        for r in paragraph_dedup_stats(ds, mode="chunk", chunk_tokens=10).take_all()
    }
    assert got == {0: (2, 0), 1: (1, 1), 2: (2, 2)}


def test_paragraph_dedup_newline_mode(ray_session):
    from go_htmldate_ray.stages.cleaning import paragraph_dedup_stats

    ds = _docs_ds(
        [
            (0, "alpha beta\n\ngamma delta"),
            (1, "gamma delta\n\nunique here"),
        ]
    )
    got = {
        r["doc_id"]: (r["n_paras"], r["n_dup_paras"])
        for r in paragraph_dedup_stats(ds, mode="newline").take_all()
    }
    assert got == {0: (2, 0), 1: (2, 1)}


def test_pii_redact_batch_counts_and_scrubs():
    from go_htmldate_ray.stages.cleaning import pii_redact_batch
    import hashlib

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "mail bob@x.org and carol@y.example.net now",
                    "call +1 555 0100 at 192.168.1.1",
                    "clean text only",
                ],
                pa.string(),
            ),
        }
    )
    out = pii_redact_batch(batch)
    assert out.column("n_redacted").to_pylist() == [2, 2, 0]
    expected = hashlib.md5(b"mail <EMAIL> and <EMAIL> now").hexdigest()[:16]
    assert out.column("redacted_fp").to_pylist()[0] == expected
    clean = hashlib.md5(b"clean text only").hexdigest()[:16]
    assert out.column("redacted_fp").to_pylist()[2] == clean


def test_decontaminate_flags_ngram_overlap(ray_session):
    from go_htmldate_ray.stages.cleaning import decontaminate

    leak = "one two three four five"
    ds = _docs_ds(
        [
            (0, f"benchmark prompt {leak} answer"),  # blocklist doc
            (5, f"training doc containing {leak} verbatim"),
            (6, "totally unrelated training material here"),
        ]
    )
    got = {
        r["doc_id"]: (r["n_hits"], r["contaminated"])
        for r in decontaminate(ds, blocklist_max_id=1, n=5).take_all()
    }
    assert got[0][1] is True  # blocklist doc trivially overlaps itself
    assert got[5][0] >= 1 and got[5][1] is True
    assert got[6] == (0, False)


def test_repetition_batch_fractions():
    from go_htmldate_ray.stages.text_stage import repetition_batch

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a b a b a", "w x y z", ""], pa.string()),
        }
    )
    out = repetition_batch(batch)
    # doc 0 bigrams: ab ba ab ba -> 4 total, 2 distinct, top count 2
    assert out.column("n_bigrams").to_pylist() == [4, 3, 0]
    assert out.column("dup_bigram_frac").to_pylist() == [0.5, 0.0, 0.0]
    assert out.column("top_bigram_frac").to_pylist() == [0.5, round(1 / 3, 6), 0.0]


def test_gopher_quality_rules():
    from go_htmldate_ray.stages.text_stage import gopher_quality_batch

    good = "the quick brown fox jumps with all of lazy dogs"
    bullets = "- one\n- two\n* three\nplain"
    dots = "first line...\nsecond...\nclean"
    symbols = "# ## the of ... stuff"
    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array([good, bullets, dots, symbols, ""], pa.string()),
        }
    )
    out = gopher_quality_batch(
        batch, min_words=5, max_words=100, min_stopword_hits=2
    )
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows[0]["n_words"] == 10
    assert rows[0]["frac_alpha_words"] == 1.0
    assert rows[0]["stopword_hits"] == 3  # the, of, with
    assert rows[1]["frac_bullet_lines"] == 0.75
    assert rows[2]["frac_ellipsis_lines"] == round(2 / 3, 6)
    # doc 3: 6 words, '#'x3 + '...'x1 -> 4/6 symbol ratio
    assert rows[3]["symbol_ratio"] == round(4 / 6, 6)
    assert rows[3]["passes"] == 0  # symbol ratio over threshold
    assert rows[4]["n_words"] == 0 and rows[4]["passes"] == 0
    assert rows[0]["passes"] == 1


def test_tfidf_top_terms_ranking(ray_session):
    from go_htmldate_ray.stages.text_stage import tfidf_top_terms

    # "rare" appears only in doc 0 (df=1); "common" in all three (df=3)
    ds = _docs_ds(
        [
            (0, "common rare rare"),
            (1, "common common other"),
            (2, "common other other"),
        ]
    )
    rows = tfidf_top_terms(ds, k=2).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append((r["rank"], r["term"], r["tf"], r["df"]))
    for v in by_doc.values():
        v.sort()
    # doc 0: rare tf2/df1=2.0 beats common tf1/df3
    assert [t[1] for t in by_doc[0]] == ["rare", "common"]
    assert by_doc[0][0][2:] == (2, 1)
    # doc 1: other tf1/df2=0.5 < common tf2/df3=0.667 -> common first
    assert [t[1] for t in by_doc[1]] == ["common", "other"]
    # doc 2: other tf2/df2=1.0 beats common tf1/df3
    assert [t[1] for t in by_doc[2]] == ["other", "common"]
    assert all(len(v) == 2 for v in by_doc.values())


def test_kmeans_assign_separates_planted_clusters(ray_session):
    import ray.data

    from go_htmldate_ray.stages.similarity import kmeans_assign

    rng = np.random.RandomState(0)
    a = rng.standard_normal((40, 16)) * 0.05 + np.eye(16)[0] * 10
    b = rng.standard_normal((40, 16)) * 0.05 + np.eye(16)[1] * 10
    vecs = np.vstack([a, b])
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(80), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float64())
                ),
            }
        )
    )
    out1 = {r["vec_id"]: r["cluster"] for r in kmeans_assign(
        ds, n_clusters=2, refine_iters=2, sample_rows=80
    ).take_all()}
    clusters_a = {out1[i] for i in range(40)}
    clusters_b = {out1[i] for i in range(40, 80)}
    assert len(clusters_a) == 1 and len(clusters_b) == 1
    assert clusters_a != clusters_b
    # deterministic across runs
    out2 = {r["vec_id"]: r["cluster"] for r in kmeans_assign(
        ds, n_clusters=2, refine_iters=2, sample_rows=80
    ).take_all()}
    assert out1 == out2


def test_dataset_split_deterministic_partition(ray_session):
    from go_htmldate_ray.stages.sampling import dataset_split

    ds = _docs_ds([(i, "t") for i in range(2000)])
    rows = dataset_split(ds, fractions=(0.8, 0.1), seed=11).take_all()
    by_split = {}
    for r in rows:
        by_split.setdefault(r["split"], set()).add(r["doc_id"])
    assert len(rows) == 2000
    assert set(by_split) == {"train", "val", "test"}
    # disjoint and exhaustive
    assert sum(len(v) for v in by_split.values()) == 2000
    # roughly proportional
    assert 0.75 < len(by_split["train"]) / 2000 < 0.85
    assert 0.06 < len(by_split["val"]) / 2000 < 0.14
    # deterministic rerun
    rows2 = dataset_split(ds, fractions=(0.8, 0.1), seed=11).take_all()
    assert {r["doc_id"]: r["split"] for r in rows2} == {
        r["doc_id"]: r["split"] for r in rows
    }


def test_dsir_weights_vs_python_reference(ray_session):
    """DSIR weights match a single-process reference on a planted corpus
    and rank target-like docs above off-target ones; empty docs are
    omitted; dsir_select returns the exact top-k total order."""
    import math

    import ray.data

    from go_htmldate_ray.stages.cleaning import _hash63
    from go_htmldate_ray.stages.selection import dsir_select, dsir_weights

    B = 4096
    docs = [
        {"doc_id": 0, "lang": "en", "text": "the quick brown fox jumps"},
        {"doc_id": 1, "lang": "en", "text": "the lazy dog sleeps"},
        {"doc_id": 2, "lang": "de", "text": "der schnelle braune fuchs"},
        {"doc_id": 3, "lang": "de", "text": "the quick brown fox"},  # en-like text
        {"doc_id": 4, "lang": "en", "text": ""},  # no tokens -> omitted
        {"doc_id": 5, "lang": "fr", "text": "le renard brun rapide saute"},
    ]
    ds = ray.data.from_items(docs)
    got = {r["doc_id"]: r["weight_nano"]
           for r in dsir_weights(ds, n_buckets=B).take_all()}

    # single-process reference with identical arithmetic
    craw, ctgt = {}, {}
    for d in docs:
        for t in d["text"].split():
            b = _hash63(t) % B
            craw[b] = craw.get(b, 0) + 1
            if d["lang"] == "en":
                ctgt[b] = ctgt.get(b, 0) + 1
    t_raw, t_tgt = sum(craw.values()), sum(ctgt.values())
    wn = {
        b: math.floor(
            (math.log((ctgt.get(b, 0) + 1) / (t_tgt + B))
             - math.log((c + 1) / (t_raw + B))) * 1e9 + 0.5
        )
        for b, c in craw.items()
    }
    want = {}
    for d in docs:
        toks = d["text"].split()
        if toks:
            want[d["doc_id"]] = sum(wn[_hash63(t) % B] for t in toks)
    assert got == want
    assert 4 not in got
    # en-vocabulary docs outrank the German/French ones
    assert min(got[0], got[1], got[3]) > max(got[2], got[5])

    sel = dsir_select(ds, k=3, n_buckets=B).take_all()
    expect = sorted(got.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert [(r["doc_id"], r["weight_nano"]) for r in sel] == expect


def test_bpe_train_matches_reference(ray_session):
    """Distributed BPE merge training reproduces the single-process
    textbook algorithm (same greedy leftmost merge, same (count desc,
    pair asc) tie-break) on a randomized corpus, under repartitioning."""
    import ray.data

    from go_htmldate_ray.stages.bpe import bpe_reference, bpe_train

    rng = np.random.RandomState(11)
    vocab = ["low", "lower", "lowest", "newer", "newest", "wider",
             "aaa", "ab", "ba"]
    docs = [
        {"doc_id": i,
         "text": " ".join(vocab[j] for j in rng.randint(0, len(vocab), 30))}
        for i in range(40)
    ]
    ds = ray.data.from_items(docs).repartition(7)
    got = [(r["rank"], r["left"], r["right"], r["count"])
           for r in bpe_train(ds, n_merges=12).take_all()]

    wc: dict[str, int] = {}
    for d in docs:
        for w in d["text"].split():
            wc[w] = wc.get(w, 0) + 1
    want = bpe_reference(wc, 12)
    assert sorted(got) == want

    # 'aaa' exercises the leftmost non-overlap rule: (a,a) count is 2
    # per occurrence pre-merge but only ONE (aa,a) pair remains after


def test_bpe_apply_counts_pieces(ray_session):
    import ray.data

    from go_htmldate_ray.stages.bpe import bpe_apply, bpe_reference

    wc = {"low": 5, "lowest": 2}
    merges = bpe_reference(wc, 3)  # learns 'lo', 'low', ...
    docs = [
        {"doc_id": 0, "text": "low lowest low"},
        {"doc_id": 1, "text": ""},
        {"doc_id": 2, "text": "unseen"},
    ]
    out = {r["doc_id"]: r["n_pieces"]
           for r in bpe_apply(ray.data.from_items(docs), merges).take_all()}
    # reference-apply per word
    from go_htmldate_ray.stages.bpe import _merge_word

    def pieces(w):
        syms = [*w]
        for _, l, r, _c in sorted(merges):
            syms = _merge_word(syms, l, r)
        return len(syms)

    assert out[0] == 2 * pieces("low") + pieces("lowest")
    assert out[1] == 0
    assert out[2] == pieces("unseen")


def test_ordered_cumsum_matches_numpy(ray_session):
    """Distributed range-bucket prefix sum == numpy cumsum in key order,
    including with non-contiguous and clustered keys (skewed buckets
    stay correct, just imbalanced)."""
    import ray.data

    from go_htmldate_ray.stages.packing import ordered_cumsum

    rng = np.random.RandomState(7)
    keys = np.concatenate(
        [rng.choice(10_000, size=300, replace=False),
         100_000 + rng.choice(50, size=40, replace=False)]  # cluster
    )
    vals = rng.randint(0, 1000, size=len(keys))
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys, pa.int64()), "v": pa.array(vals, pa.int64())})
    ).repartition(8)
    got = {r["k"]: r["cum"]
           for r in ordered_cumsum(ds, order_col="k", value_col="v").take_all()}
    order = np.argsort(keys)
    want = dict(zip(keys[order].tolist(), np.cumsum(vals[order]).tolist()))
    assert got == want

    # empty input -> typed empty with the cum column
    empty = ordered_cumsum(
        ray.data.from_arrow(
            pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        ),
        order_col="k", value_col="v",
    )
    assert empty.count() == 0 and "cum" in empty.schema().names


def test_pack_sequences_layout(ray_session):
    """Concat-and-chunk layout: offsets are the cumsum of token counts
    in doc_id order, pack spans honor context_len boundaries, empty
    docs are omitted."""
    import ray.data

    from go_htmldate_ray.stages.packing import pack_sequences

    docs = [
        {"doc_id": 0, "text": "a b c"},          # 3 toks, off 0, packs 0-0
        {"doc_id": 1, "text": " ".join("x" * 1 for _ in range(6))},  # 6 toks
        {"doc_id": 2, "text": ""},               # omitted
        {"doc_id": 3, "text": "p q"},            # 2 toks
    ]
    out = {r["doc_id"]: r for r in pack_sequences(
        ray.data.from_items(docs), context_len=4).take_all()}
    assert set(out) == {0, 1, 3}
    assert (out[0]["start_offset"], out[0]["first_pack"], out[0]["last_pack"]) == (0, 0, 0)
    # doc 1: offsets 3..8 -> packs 0..2 (crosses two boundaries)
    assert (out[1]["start_offset"], out[1]["first_pack"], out[1]["last_pack"]) == (3, 0, 2)
    # doc 3: offsets 9..10 -> pack 2
    assert (out[3]["start_offset"], out[3]["first_pack"], out[3]["last_pack"]) == (9, 2, 2)

    import pytest
    with pytest.raises(ValueError):
        pack_sequences(ray.data.from_items(docs), context_len=0)


def test_charlm_nll_vs_python_reference(ray_session):
    """Char-bigram NLL matches a single-process reference (same Laplace
    smoothing and nano rounding) on a small unicode corpus; short docs
    are omitted; a repetitive doc scores lower NLL/char than a doc full
    of corpus-rare characters."""
    import math
    from collections import Counter

    import ray.data

    from go_htmldate_ray.stages.lm import charlm_nll

    docs = [
        {"doc_id": 0, "text": "abababababababab"},     # repetitive
        {"doc_id": 1, "text": "abab xyz qédà ab"},     # rare chars
        {"doc_id": 2, "text": "a"},                    # 1 char -> omitted
        {"doc_id": 3, "text": ""},                     # empty -> omitted
        {"doc_id": 4, "text": None},                   # null -> omitted
        {"doc_id": 5, "text": "ababab ababab"},
    ]
    got = {r["doc_id"]: (r["n_bigrams"], r["nll_nano"])
           for r in charlm_nll(ray.data.from_items(docs)).take_all()}
    assert set(got) == {0, 1, 5}

    # reference
    c1, c2, chars = Counter(), Counter(), set()
    for d in docs:
        t = d["text"] or ""
        chars.update(t)
        for a, b in zip(t, t[1:]):
            c1[a] += 1
            c2[(a, b)] += 1
    v = len(chars)
    want = {}
    for d in docs:
        t = d["text"] or ""
        if len(t) < 2:
            continue
        nll = sum(
            math.floor(
                -math.log((c2[(a, b)] + 1) / (c1[a] + v)) * 1e9 + 0.5
            )
            for a, b in zip(t, t[1:])
        )
        want[d["doc_id"]] = (len(t) - 1, nll)
    assert got == want

    per_char = {k: nll / n for k, (n, nll) in got.items()}
    assert per_char[0] < per_char[1]


def test_lang_doc_stats(ray_session):
    import ray.data

    from go_htmldate_ray.stages.text_stage import lang_doc_stats

    ds = ray.data.from_arrow(
        pa.table(
            {
                "lang": pa.array(["en", "en", "de"], pa.string()),
                "text": pa.array(["a b c", "d e", "f"], pa.string()),
            }
        )
    )
    got = {r["lang"]: r for r in lang_doc_stats(ds).take_all()}
    assert got["en"]["n_docs"] == 2
    assert got["en"]["total_tokens"] == 5
    assert got["en"]["avg_tokens"] == 2.5
    assert got["de"]["n_docs"] == 1 and got["de"]["total_tokens"] == 1


def test_sliding_window_covers_each_event_twice(ray_session):
    from go_htmldate_ray.pipelines.streaming import (
        sliding_window_events,
        windowed_events,
    )

    sf = "/root/testdata/sf0.001"
    tumbling = windowed_events(sf).take_all()
    sliding = sliding_window_events(sf, window_hours=2, hop_hours=1).take_all()
    n_tumble = sum(r["n_events"] for r in tumbling)
    n_slide = sum(r["n_events"] for r in sliding)
    assert n_slide == 2 * n_tumble  # every event lands in exactly 2 windows
    # each tumbling (window, type) row also appears in the sliding result
    # (offset j=0) with at-least-equal counts
    slide_by_key = {(r["window_start"], r["event_type"]): r["n_events"] for r in sliding}
    for r in tumbling:
        assert slide_by_key[(r["window_start"], r["event_type"])] >= r["n_events"]


def test_sliding_window_unit_independent(ray_session, tmp_path):
    """A ts column stored as timestamp[ns] (pandas' default) must produce
    the same windows as the us-stored fixture — the int64 hop arithmetic
    pins the unit first."""
    import pyarrow.parquet as pq

    from go_htmldate_ray.pipelines.streaming import sliding_window_events
    from go_htmldate_ray.sources.io import read_parquet_clean

    sf = "/root/testdata/sf0.001"
    src = read_parquet_clean(f"{sf}/events.parquet").take_all()
    tbl = pa.Table.from_pylist(src)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"),
        "ts",
        tbl.column("ts").cast(pa.timestamp("ns")),
    )
    pq.write_table(tbl, tmp_path / "events.parquet")

    want = sorted(
        (r["window_start"], r["event_type"], r["n_events"])
        for r in sliding_window_events(sf).take_all()
    )
    got = sorted(
        (r["window_start"], r["event_type"], r["n_events"])
        for r in sliding_window_events(str(tmp_path)).take_all()
    )
    assert got == want


def test_grouped_quantiles_matches_numpy(ray_session):
    import ray.data

    from go_htmldate_ray.stages.quantiles import grouped_quantiles

    rng = np.random.RandomState(3)
    keys = ["a"] * 1000 + ["b"] * 317
    vals = np.concatenate([rng.standard_normal(1000) * 5, rng.uniform(0, 1, 317)])
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys), "v": pa.array(vals, pa.float64())})
    )
    qs = [0.0, 0.25, 0.5, 0.9, 1.0]
    got = grouped_quantiles(ds, "k", "v", qs)
    import math

    for k, arr in (("a", vals[:1000]), ("b", vals[1000:])):
        s = np.sort(arr)
        for q in qs:
            expected = s[max(1, math.ceil(q * len(s))) - 1]
            row = got[(got["k"] == k) & (got["q"] == q)]
            assert float(row["value"].iloc[0]) == expected, (k, q)


def test_grouped_quantiles_heavy_bin_refinement(ray_session, scale_path, monkeypatch):
    import ray.data

    from go_htmldate_ray.stages import quantiles
    from go_htmldate_ray.stages.quantiles import grouped_quantiles

    # one group piled on few values; with no driver budget every bin is
    # too heavy to collect, which forces the per-group refinement path
    calls, refine = [], quantiles._refine_rank
    monkeypatch.setattr(quantiles, "_refine_rank", lambda *a: calls.append(a) or refine(*a))
    vals = np.repeat([1.0, 2.0, 3.0], 400)
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(["x"] * 1200), "v": pa.array(vals, pa.float64())})
    )
    with scale_path():
        got = grouped_quantiles(ds, "k", "v", [0.5])
    assert float(got["value"].iloc[0]) == 2.0
    assert calls


def test_top_users_per_type_ranks(ray_session):
    import ray.data

    from go_htmldate_ray.pipelines import analytics

    got = analytics.top_users_per_type("/root/testdata/sf0.001", k=3).take_all()
    by_type = {}
    for r in got:
        by_type.setdefault(r["event_type"], []).append(r)
    import duckdb

    con = duckdb.connect()
    expected = con.execute(
        """
        WITH totals AS (
          SELECT event_type, user_id, round(sum(value),2) AS tv
          FROM '/root/testdata/sf0.001/events.parquet' GROUP BY 1,2),
        r AS (SELECT *, row_number() OVER (PARTITION BY event_type
                  ORDER BY tv DESC, user_id) AS rk FROM totals)
        SELECT event_type, user_id, tv, rk FROM r WHERE rk <= 3
        ORDER BY event_type, rk"""
    ).fetchall()
    # compare at the driver's 6-decimal float canonicalization (Arrow and
    # DuckDB cent-rounding can differ in the last ulp)
    flat = sorted(
        (r["event_type"], r["rank"], r["user_id"], round(r["total_value"], 6))
        for r in got
    )
    exp = sorted((e[0], e[3], e[1], round(e[2], 6)) for e in expected)
    assert flat == exp
    for rows in by_type.values():
        assert sorted(r["rank"] for r in rows) == [1, 2, 3]


def test_lang_id_breadth_and_oracle_agreement():
    """Every _LANG_PROFILES language is predictable from a sentence of
    its own stopwords, and the generated SQL oracle agrees with the
    engine on planted multilingual text (including the post-round-2
    additions: ru/uk/sv/da/fi/cs/ro/hu/vi)."""
    import duckdb

    from go_htmldate_ray.stages.text_stage import _LANG_PROFILES, lang_id_batch

    rows = [(i, " ".join(sorted(ws))) for i, ws in enumerate(_LANG_PROFILES.values())]
    n = len(rows)
    rows.append((n, ""))                 # empty -> und
    rows.append((n + 1, "zzz qqq xxx"))  # no hits -> und
    # a mixed doc: 3 Finnish + 1 English stopword -> fi wins
    rows.append((n + 2, "ja on ei the book"))
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    got = lang_id_batch(tbl)
    preds = dict(zip(got.column("doc_id").to_pylist(), got.column("pred_lang").to_pylist()))
    for i, lang in enumerate(_LANG_PROFILES):
        assert preds[i] == lang, f"{lang}: got {preds[i]}"
    assert preds[n] == "und" and preds[n + 1] == "und" and preds[n + 2] == "fi"

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    con.register("documents", tbl)
    sql_rows = con.sql(entrymod._lang_id_sql()).fetchall()
    sql_preds = {r[0]: r[1] for r in sql_rows}
    sql_scores = {r[0]: round(r[2], 9) for r in sql_rows}
    eng_scores = dict(
        zip(
            got.column("doc_id").to_pylist(),
            [round(s, 9) for s in got.column("lang_score").to_pylist()],
        )
    )
    assert sql_preds == preds
    assert sql_scores == eng_scores


def test_curated_corpus_stats_consistency(ray_session):
    """The curation funnel equals the composition of its parts computed
    independently: quality+lang kernels run locally over the fixture,
    keep flags from near_dup_keep."""
    import duckdb

    from go_htmldate_ray.pipelines.curation import curated_corpus_stats
    from go_htmldate_ray.sources.io import read_parquet_clean
    from go_htmldate_ray.stages.dedup import near_dup_keep
    from go_htmldate_ray.stages.text_stage import gopher_quality_batch, lang_id_batch

    sf = "/root/testdata/sf0.001"
    got = {
        r["pred_lang"]: (r["n_docs"], r["n_kept"], r["kept_tokens"])
        for r in curated_corpus_stats(sf).take_all()
    }

    tbl = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{sf}/documents.parquet') ORDER BY doc_id"
    ).arrow()
    q = gopher_quality_batch(
        tbl, min_words=30, max_words=80, min_stopword_hits=1
    )
    lang = lang_id_batch(tbl)
    keep = {
        r["doc_id"]: r["keep"]
        for r in near_dup_keep(read_parquet_clean(f"{sf}/documents.parquet")).take_all()
    }
    want: dict = {}
    for doc_id, nw, p, pl in zip(
        q.column("doc_id").to_pylist(),
        q.column("n_words").to_pylist(),
        q.column("passes").to_pylist(),
        lang.column("pred_lang").to_pylist(),
    ):
        n, k, kt = want.get(pl, (0, 0, 0))
        kept = int(p == 1 and keep[doc_id] == 1)
        want[pl] = (n + 1, k + kept, kt + (nw if kept else 0))
    assert got == want
    # the funnel is non-trivial on the fixture: something dropped AND kept
    total_docs = sum(v[0] for v in got.values())
    total_kept = sum(v[1] for v in got.values())
    assert 0 < total_kept < total_docs


def test_chunk_batch_covers_and_overlaps():
    import pyarrow as pa

    from go_htmldate_ray.stages.text_stage import chunk_batch

    texts = ["a" * 250, "xyz", "", "b" * 80, "c" * 81]
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    out = chunk_batch(batch, size=100, stride=80).to_pylist()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    for doc_id, t in enumerate(texts):
        rows = sorted(by_doc[doc_id], key=lambda r: r["chunk_id"])
        # starts step by stride; ids are dense from 0
        assert [r["chunk_id"] for r in rows] == list(range(len(rows)))
        assert [r["chunk_start"] for r in rows] == [1 + 80 * k for k in range(len(rows))]
        # stitching chunk prefixes of stride chars + last chunk == text
        stitched = "".join(r["chunk_text"][:80] for r in rows[:-1]) + rows[-1]["chunk_text"]
        assert stitched == t
        # consecutive chunks overlap by size - stride chars
        for a, b in zip(rows, rows[1:]):
            assert a["chunk_text"][80:] == b["chunk_text"][: len(a["chunk_text"]) - 80]
    assert len(by_doc[2]) == 1 and by_doc[2][0]["chunk_text"] == ""
    assert len(by_doc[3]) == 1      # len == stride: one chunk only
    assert len(by_doc[4]) == 2      # len == stride + 1: second window

    import pytest

    with pytest.raises(ValueError):
        chunk_batch(batch, size=0, stride=80)


def test_nfc_normalize_batch():
    import hashlib

    import pyarrow as pa

    from go_htmldate_ray.stages.cleaning import nfc_normalize_batch

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["plain ascii", "cafe\u0301", "caf\u00e9"], pa.string()),
        }
    )
    rows = nfc_normalize_batch(batch).to_pylist()
    assert rows[0]["was_nfc"] and rows[2]["was_nfc"]
    assert not rows[1]["was_nfc"]
    # decomposed and precomposed normalize to the same md5 / length
    assert rows[1]["norm_md5"] == rows[2]["norm_md5"]
    assert rows[1]["n_chars_norm"] == rows[2]["n_chars_norm"] == 4
    assert rows[0]["norm_md5"] == hashlib.md5(b"plain ascii").hexdigest()


def test_url_components(ray_session):
    from go_htmldate_ray.pipelines.extract_dates import url_components

    rows = url_components("/root/testdata/sf0.001").take_all()
    assert len(rows) == 500
    for r in rows[:50]:
        assert r["scheme"] == "https"
        assert r["host"].endswith(".example.org")
        assert r["path"].startswith("/")
        assert r["path_depth"] == r["path"].count("/")
        assert r["filename"] == r["path"].rsplit("/", 1)[1]
        assert r["filename"].endswith(".html")


def test_extract_visible_text_rules():
    from go_htmldate_ray import dom
    from go_htmldate_ray.stages.text_extract import extract_visible_text

    html = b"""<html><head><title>T</title><style>p{color:red}</style></head>
    <body><div>a<span> b </span>c</div>
    <script>var x = "hidden";</script>
    <p>  one   two </p><p></p>
    <ul><li>item1</li><li>item2</li></ul>
    <footer><a href="/x">l1</a> <a href="/y">l2</a></footer></body></html>"""
    out = extract_visible_text(dom.parse_html(html))
    assert out == "a b c\none two\nitem1\nitem2\nl1 l2"

    # head/title/style/script are invisible; inline joins, blocks split
    assert "T" not in out and "hidden" not in out and "color" not in out

    # hostile inputs never raise
    for raw in [b"", b"\x00\xff", b"<p>unclosed", b"plain text only"]:
        extract_visible_text(dom.parse_html(raw))
    assert extract_visible_text(dom.parse_html(b"plain text only")) == \
        "plain text only"


def test_page_text_batch_matches_scalar():
    import hashlib

    import pyarrow as pa

    from go_htmldate_ray import dom
    from go_htmldate_ray.sources.pages import build_page_html
    from go_htmldate_ray.stages.text_extract import (
        extract_visible_text,
        page_text_batch,
    )

    htmls = [build_page_html(d, "word " * 90, "en", 500) for d in range(4)]
    batch = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "html": pa.array(htmls, pa.binary()),
        }
    )
    rows = page_text_batch(batch).to_pylist()
    for r, h in zip(rows, htmls):
        t = extract_visible_text(dom.parse_html(h))
        assert r["n_chars"] == len(t)
        assert r["text_md5"] == hashlib.md5(t.encode()).hexdigest()


def test_snapshot_diff_statuses(ray_session):
    from go_htmldate_ray.sources.io import read_parquet_clean
    from go_htmldate_ray.stages.dedup import snapshot_diff

    ds = read_parquet_clean(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    rows = snapshot_diff(ds).take_all()
    by_id = {r["doc_id"]: r["status"] for r in rows}
    n_docs = 500
    assert len(by_id) == len(rows)  # exactly one verdict per page
    for i in range(n_docs):
        expect = (
            "new"
            if i % 17 == 3
            else ("changed" if i % 10 == 0 else "unchanged")
        )
        assert by_id[i] == expect, (i, by_id[i])
    ghosts = {d for d in by_id if d >= 10_000_000}
    assert ghosts == {i + 10_000_000 for i in range(n_docs) if i % 23 == 5}
    assert all(by_id[g] == "gone" for g in ghosts)


def test_ccnet_buckets_terciles(ray_session):
    from collections import Counter

    from go_htmldate_ray.sources.io import read_parquet_clean
    from go_htmldate_ray.stages.selection import ccnet_buckets

    ds = read_parquet_clean(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    rows = ccnet_buckets(ds).take_all()
    assert len(rows) == 500
    counts = Counter(r["bucket"] for r in rows)
    assert set(counts) == {"head", "middle", "tail"}
    # terciles: each bucket within a couple of ties of n/3
    for b, n in counts.items():
        assert abs(n - 500 / 3) < 20, counts


def test_temperature_sample_rebalances(ray_session):
    from collections import Counter

    from go_htmldate_ray.sources.io import read_parquet_clean
    from go_htmldate_ray.stages.sampling import temperature_sample

    ds = read_parquet_clean(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "lang"]
    )
    before = Counter(r["lang"] for r in ds.take_all())
    kept = Counter(
        r["lang"] for r in temperature_sample(ds, alpha=0.5, seed=7).take_all()
    )
    c_min = min(before.values())
    rarest = min(before, key=before.get)
    # the lowest-resource language is kept (almost) intact
    assert kept[rarest] >= before[rarest] * 0.8
    # per-language keep rates track sqrt(c_min / c) within sampling noise
    import math

    for lang, c in before.items():
        expect = math.sqrt(c_min / c)
        got = kept.get(lang, 0) / c
        assert abs(got - expect) < 0.25, (lang, got, expect)
    # determinism
    again = Counter(
        r["lang"] for r in temperature_sample(ds, alpha=0.5, seed=7).take_all()
    )
    assert again == kept


def test_ordered_cumsum_wide_key_domain(ray_session):
    """md5-int63-scale order keys (span ~2^62) must not overflow the
    bucket split: cum equals the rank-ordered prefix sum (regression —
    (o - lo) * n_buckets in int64 went negative and corrupted offsets)."""
    import ray

    from go_htmldate_ray.stages.cleaning import _hash63
    from go_htmldate_ray.stages.packing import ordered_cumsum

    keys = sorted(_hash63(f"host{i}") for i in range(200))
    rows = [{"k": k, "v": i + 1} for i, k in enumerate(keys)]
    out = ordered_cumsum(
        ray.data.from_items(rows), order_col="k", value_col="v"
    ).take_all()
    got = {r["k"]: r["cum"] for r in out}
    run = 0
    for i, k in enumerate(keys):
        run += i + 1
        assert got[k] == run, (i, k)


def test_suffix_array_randomized_vs_python(ray_session):
    """Prefix-doubling generalized SA == dense rank of sorted suffixes
    on random small-alphabet docs (dense collisions), with an identical
    doc pair (equal suffixes MUST share ranks), an empty doc, and a
    planted long shared prefix (forces several doubling rounds)."""
    import random

    import ray

    from go_htmldate_ray.stages.suffix import suffix_array

    rng = random.Random(31)
    rows = [
        {
            "doc_id": i,
            "text": "".join(rng.choice("ab") for _ in range(rng.randrange(0, 30))),
        }
        for i in range(15)
    ]
    rows.append({"doc_id": 15, "text": ""})
    rows.append({"doc_id": 16, "text": rows[3]["text"]})  # exact twin
    rows.append({"doc_id": 17, "text": "a" * 40})         # long run
    rows.append({"doc_id": 18, "text": "a" * 40 + "b"})   # shares 40-prefix

    texts = {r["doc_id"]: r["text"] for r in rows}
    sufs = sorted({t[p:] for t in texts.values() for p in range(len(t))})
    rank_of = {s: i + 1 for i, s in enumerate(sufs)}

    out = suffix_array(ray.data.from_items(rows)).take_all()
    assert len(out) == sum(len(t) for t in texts.values())
    for r in out:
        assert r["srank"] == rank_of[texts[r["doc_id"]][r["pos"] :]], r
    # twin docs share every rank
    got = {(r["doc_id"], r["pos"]): r["srank"] for r in out}
    for p in range(len(texts[3])):
        assert got[(3, p)] == got[(16, p)]


def test_repeated_substrings_vs_python_rule(ray_session):
    """Distributed SA-based repeat extraction == the single-process rule
    (sorted distinct suffixes: class size >= 2 -> full capped suffix;
    neighbors -> capped LCP), with a planted 30+-char boilerplate that
    must surface."""
    import random

    import ray

    from go_htmldate_ray.stages.suffix import repeated_substrings

    rng = random.Random(77)
    boiler = "subscribe to our newsletter today for updates"  # 46 chars
    rows = []
    for i in range(10):
        body = "".join(rng.choice("abcd ") for _ in range(rng.randrange(10, 60)))
        text = body + (boiler if i % 3 == 0 else "")
        rows.append({"doc_id": i, "text": text})

    min_len, cap = 20, 64
    texts = [r["text"] for r in rows]
    sufs = sorted({t[p:] for t in texts for p in range(len(t))})
    counts = {}
    for t in texts:
        for p in range(len(t)):
            s = t[p:]
            counts[s] = counts.get(s, 0) + 1
    expected = set()
    for i, s in enumerate(sufs):
        if counts[s] >= 2 and min(len(s), cap) >= min_len:
            expected.add((min(len(s), cap), s[:cap]))
        if i + 1 < len(sufs):
            nxt = sufs[i + 1]
            k = 0
            m = min(len(s), len(nxt), cap)
            while k < m and s[k] == nxt[k]:
                k += 1
            if k >= min_len:
                expected.add((k, s[:k]))

    got = {
        (r["length"], r["substring"])
        for r in repeated_substrings(
            ray.data.from_items(rows), min_len=min_len, cap=cap
        ).take_all()
    }
    assert got == expected
    assert any(sub.startswith(boiler[:20]) for _, sub in got)  # planted repeat found


def test_repeated_substrings_join_attach_matches_broadcast(ray_session, scale_path):
    """The co-partitioned prefix attach (the scale path) must emit exactly
    the broadcast attach's (length, substring) set, on a corpus with one
    null-text and one blank-text document."""
    import random

    import ray

    from go_htmldate_ray.stages.suffix import repeated_substrings

    rng = random.Random(31)
    boiler = "standard footer text repeated across the site"
    rows = []
    for i in range(8):
        body = "".join(rng.choice("abcde ") for _ in range(rng.randrange(15, 50)))
        rows.append({"doc_id": i, "text": body + (boiler if i % 2 == 0 else "")})
    blank = [{"doc_id": 8, "text": None}, {"doc_id": 9, "text": "   "}]
    rows += blank

    def run(rows):
        return {
            (r["length"], r["substring"])
            for r in repeated_substrings(
                ray.data.from_items(rows), min_len=20, cap=64
            ).take_all()
        }

    light = run(rows)
    with scale_path():
        scale = run(rows)
        assert run(blank) == set()
    assert light == scale
    assert any(sub.startswith(boiler[:20]) for _, sub in light)
