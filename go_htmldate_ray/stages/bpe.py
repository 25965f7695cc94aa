"""Distributed BPE merge training (Sennrich et al. 2016,
arXiv:1508.07909) — learn subword merge rules from the corpus.

The classic trick keeps this tractable: BPE statistics depend only on
the **word-frequency table**, not the corpus, so one corpus pass
(combiner word counts → keyed ``Sum``) reduces 100 TB of text to a
(word, count) dataset, and every merge round then runs over that much
smaller — but still distributed, web vocabularies are billions of
types — weighted vocabulary.

Per merge round (the Pregel-ish iteration shape shared with
``graph.pagerank`` / ``dedup.connected_components``):

1. **Pair counting** — ``map_batches`` emits per-batch partial
   (left, right, count) rows (a Counter combiner over the batch's
   adjacent symbol pairs), ONE keyed ``Sum`` groupby co-locates each
   pair's partials.
2. **Argmax** — ``sort(count desc, pair asc) + limit(1)``: only light
   pair rows move, the driver receives one row (deterministic
   tie-break: highest count, then lexicographically smallest pair).
3. **Merge apply** — a stateless ``map_batches`` rewrites each word's
   symbol list (leftmost-greedy, non-overlapping — the published rule),
   then the dataset is REBASED (``from_arrow_refs`` + pinned
   repartition) because per-round lineage otherwise compounds (the
   round-~6 driver-hang gotcha documented in
   ``dedup.connected_components``).

The driver never holds words — only the per-round winning pair.  No
SQL oracle: k data-dependent merge rounds with in-word sequential
rewrites are the "iterative algorithm" case the harness exempts;
correctness is pinned by a single-process reference implementation
(tests/test_training_ops.py) over randomized corpora.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa


def _merge_word(syms: list[str], left: str, right: str) -> list[str]:
    """Leftmost-greedy, non-overlapping merge of (left, right) runs —
    'aaa' under (a, a) becomes ['aa', 'a'], matching the reference
    algorithm's scan."""
    out: list[str] = []
    i, n = 0, len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def bpe_reference(word_counts: dict[str, int], n_merges: int) -> list[tuple]:
    """Single-process reference: the textbook algorithm over a word-
    frequency dict.  Returns [(rank, left, right, count), ...]."""
    vocab = {w: [*w] for w in word_counts}
    merges = []
    for rank in range(n_merges):
        pairs: Counter = Counter()
        for w, syms in vocab.items():
            c = word_counts[w]
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += c
        if not pairs:
            break
        (left, right), count = min(
            pairs.items(), key=lambda kv: (-kv[1], kv[0])
        )
        merges.append((rank, left, right, count))
        for w in vocab:
            vocab[w] = _merge_word(vocab[w], left, right)
    return merges


def word_count_dataset(ds, *, text_col: str = "text"):
    """documents → (word, c): the one corpus-wide pass.  Per-batch
    Counter combiners keep the shuffle proportional to each batch's
    UNIQUE words (Zipf makes that far smaller than its token count)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(batch.column(text_col).combine_chunks())
        flat = pc.list_flatten(toks)
        counts = Counter(flat.to_pylist())
        counts.pop("", None)
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "c": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("c"))
        .map_batches(
            lambda b: pa.table(
                {"word": b.column("word"), "c": b.column("sum(c)").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )


_VOCAB_BLOCKS = 16  # bpe_train's vocabulary blocks, pinned every round


def bpe_train(
    ds,
    *,
    n_merges: int = 20,
    text_col: str = "text",
    max_word_len: int = 64,
):
    """documents → (rank, left, right, count): the learned merge table.

    ``max_word_len`` guards the per-word Python rewrite against
    pathological unbroken runs (URLs, DNA dumps); longer words are
    truncated for training statistics, the standard practical cap."""
    from ray.data.aggregate import Sum

    from .blocks import rebase

    def to_symbols(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        return pa.table(
            {
                "syms": pa.array(
                    [[*w[:max_word_len]] for w in words],
                    pa.list_(pa.string()),
                ),
                "c": batch.column("c"),
            }
        )

    vocab = rebase(
        word_count_dataset(ds, text_col=text_col).map_batches(
            to_symbols, batch_format="pyarrow"
        ),
        _VOCAB_BLOCKS,
    )

    def pair_partials(batch: pa.Table) -> pa.Table:
        pairs: Counter = Counter()
        cs = np.asarray(batch.column("c"), dtype=np.int64)
        for syms, c in zip(batch.column("syms").to_pylist(), cs):
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += int(c)
        ls, rs = zip(*pairs.keys()) if pairs else ((), ())
        return pa.table(
            {
                "l": pa.array(list(ls), pa.string()),
                "r": pa.array(list(rs), pa.string()),
                "pc": pa.array(list(pairs.values()), pa.int64()),
            }
        )

    def local_best(batch: pa.Table) -> pa.Table:
        # post-aggregate each pair lives in exactly one row, so the
        # global argmax is the best of per-block bests — one light row
        # per block to the driver instead of a sort shuffle per round
        if len(batch) == 0:
            return batch
        rows = zip(
            batch.column("l").to_pylist(),
            batch.column("r").to_pylist(),
            batch.column("sum(pc)").to_pylist(),
        )
        l, r, c = min(rows, key=lambda x: (-x[2], x[0], x[1]))
        return pa.table(
            {
                "l": pa.array([l], pa.string()),
                "r": pa.array([r], pa.string()),
                "sum(pc)": pa.array([c], pa.int64()),
            }
        )

    merges: list[tuple[int, str, str, int]] = []
    for rank in range(n_merges):
        cands = (
            vocab.map_batches(pair_partials, batch_format="pyarrow")
            .groupby(["l", "r"])
            .aggregate(Sum("pc"))
            .map_batches(local_best, batch_format="pyarrow")
            .take_all()  # <= one light row per block
        )
        if not cands:
            break
        best = min(
            cands, key=lambda x: (-x["sum(pc)"], x["l"], x["r"])
        )
        left, right, count = best["l"], best["r"], int(best["sum(pc)"])
        merges.append((rank, left, right, count))

        def apply_merge(batch: pa.Table, left=left, right=right) -> pa.Table:
            return pa.table(
                {
                    "syms": pa.array(
                        [
                            _merge_word(s, left, right)
                            for s in batch.column("syms").to_pylist()
                        ],
                        pa.list_(pa.string()),
                    ),
                    "c": batch.column("c"),
                }
            )

        vocab = rebase(vocab.map_batches(apply_merge, batch_format="pyarrow"), _VOCAB_BLOCKS)

    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "rank": pa.array([m[0] for m in merges], pa.int64()),
                "left": pa.array([m[1] for m in merges], pa.string()),
                "right": pa.array([m[2] for m in merges], pa.string()),
                "count": pa.array([m[3] for m in merges], pa.int64()),
            }
        )
    )


def bpe_apply(ds, merges: list[tuple[int, str, str, int]], *, text_col: str = "text"):
    """documents → (doc_id, n_pieces): tokenize with a learned merge
    table (rank order), the deploy-side half of BPE.  The merge list is
    tiny (vocab-size rows) and ships in the task closure."""
    import pyarrow.compute as pc

    ordered = [(m[1], m[2]) for m in sorted(merges)]

    def count_pieces(batch: pa.Table) -> pa.Table:
        # per-batch word memo: each distinct word is segmented once
        memo: dict[str, int] = {}
        out = []
        for t in batch.column(text_col).to_pylist():
            n = 0
            for w in (t or "").split():
                k = memo.get(w)
                if k is None:
                    syms = [*w]
                    for left, right in ordered:
                        if len(syms) < 2:
                            break
                        syms = _merge_word(syms, left, right)
                    k = len(syms)
                    memo[w] = k
                n += k
            out.append(n)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_pieces": pa.array(out, pa.int64()),
            }
        )

    return ds.select_columns(["doc_id", text_col]).map_batches(
        count_pieces, batch_format="pyarrow"
    )
