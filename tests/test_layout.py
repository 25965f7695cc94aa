"""Layout stays out of the operator API and out of the results: widths
and block counts come from ``joins.SHUFFLE_BUCKETS``,
``joins.adaptive_buckets`` and ``joins.state_blocks`` alone."""

import importlib
import inspect
import pkgutil
import random
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import go_htmldate_ray

_LAYOUT_PARAMS = {
    "n_buckets", "n_blocks", "chunk_rows", "tile_rows", "tile_cols", "salt_buckets",
    "n_hash_buckets", "bin_row_cap", "n_bins", "materialize_left", "override_num_blocks",
}
# the exchange primitives take a width, rebase a block count, and the
# hashed-feature selection functions a feature-space size (it changes
# their output)
_ALLOWED = {
    f"go_htmldate_ray.stages.{f}": p
    for p, fs in [
        ("n_buckets", ["joins.co_partition", "joins.hash_join", "selection.dsir_weights",
                       "selection.dsir_select", "selection.classifier_weight_table",
                       "selection.hashed_classifier"]),
        ("n_blocks", ["blocks.rebase"]),
    ]
    for f in fs
}


def test_no_layout_parameters_in_public_signatures():
    found = []
    for info in pkgutil.walk_packages(go_htmldate_ray.__path__, "go_htmldate_ray."):
        if info.name.endswith("__main__"):
            continue
        for name, obj in vars(importlib.import_module(info.name)).items():
            qual = f"{info.name}.{name}"
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            fns = [obj] if inspect.isfunction(obj) else [
                m for k, m in vars(obj).items()
                if inspect.isfunction(m) and (k == "__init__" or not k.startswith("_"))
            ] if inspect.isclass(obj) else []
            found += [
                f"{qual}({p})" for fn in fns for p in inspect.signature(fn).parameters
                if p in _LAYOUT_PARAMS and _ALLOWED.get(qual) != p
            ]
    assert not found, found


def _docs() -> pa.Table:
    """12 random documents plus copies of the first four under new ids
    (the dedup operators find pairs), with one of three sources, a host
    name, a timestamp and a span end."""
    rng = random.Random(7)
    words = "the a is of key order sort table scan merge part window hash join".split()
    texts = [" ".join(rng.choices(words, k=rng.randint(20, 80))) for _ in range(12)]
    ids = list(range(12)) + list(range(1000, 1004))
    texts += texts[:4]
    t = pa.table({"doc_id": ids, "text": texts, "n_chars": [len(x) for x in texts]})
    ts = pa.array([(d % 37) * 3_600_000_000 for d in ids]).cast(pa.timestamp("us"))
    t = t.append_column("source", pa.array([f"s{d % 3}" for d in ids]))
    t = t.append_column("host", pa.array([f"h{d}" for d in ids]))
    return t.append_column("ts", ts).append_column(
        "end", pc.add(ts, pc.multiply(t.column("n_chars"), 60_000_000).cast(pa.duration("us")))
    )


def _run(op: str):
    import ray.data

    from go_htmldate_ray.stages import joins
    from go_htmldate_ray.stages.cleaning import paragraph_dedup_stats
    from go_htmldate_ray.stages.dedup import spotsigs_pairs
    from go_htmldate_ray.stages.graph import cocitation_pairs
    from go_htmldate_ray.stages.packing import ordered_cumsum
    from go_htmldate_ray.stages.sampling import cap_per_group
    from go_htmldate_ray.stages.search import build_inverted_index
    from go_htmldate_ray.stages.text_stage import tfidf_top_terms

    docs = _docs()

    def ds(*cols, names=None):
        # more blocks than rows
        t = docs.select(list(cols)).rename_columns(names or list(cols))
        return ray.data.from_arrow(t).repartition(t.num_rows + 4)

    hour = 3_600_000_000
    return {
        "tfidf_top_terms": lambda: tfidf_top_terms(ds("doc_id", "text")),
        "build_inverted_index": lambda: build_inverted_index(ds("doc_id", "text")),
        "spotsigs_pairs": lambda: spotsigs_pairs(ds("doc_id", "text")),
        "cap_per_group": lambda: cap_per_group(ds("doc_id", "source"), group_col="source", cap=2),
        "ordered_cumsum": lambda: ordered_cumsum(
            ds("doc_id", "n_chars"), order_col="doc_id", value_col="n_chars"
        ),
        "cocitation_pairs": lambda: cocitation_pairs(
            ds("source", "host", names=["src_host", "dst_host"]), min_common=1
        ),
        "paragraph_dedup_stats": lambda: paragraph_dedup_stats(ds("doc_id", "text")),
        "anti_join": lambda: joins.anti_join(
            ds("doc_id", "n_chars"),
            ds("doc_id", names=["k"]).filter(lambda r: r["k"] % 2 == 0),
            on="doc_id",
            right_on="k",
        ),
        "range_join": lambda: joins.range_join(
            ds("doc_id", "ts"), ds("doc_id", "ts", "end", names=["iid", "s", "e"]),
            left_ts="ts", right_start="s", right_end="e", grid_us=hour,
        ),
        "interval_overlap_join": lambda: joins.interval_overlap_join(
            ds("doc_id", "ts", "end", names=["lid", "s1", "e1"]),
            ds("doc_id", "ts", "end", names=["rid", "s2", "e2"]),
            left_start="s1", left_end="e1", right_start="s2", right_end="e2", grid_us=hour,
        ),
    }[op]()


@pytest.mark.parametrize(
    "op",
    ["tfidf_top_terms", "build_inverted_index", "spotsigs_pairs", "cap_per_group",
     "ordered_cumsum", "cocitation_pairs", "paragraph_dedup_stats", "anti_join",
     "range_join", "interval_overlap_join"],
)
def test_single_pass_operators_layout_invariant(ray_session, monkeypatch, op):
    """Width 1 and the default width give the same rows."""
    from go_htmldate_ray.stages import joins

    default = Counter(tuple(sorted(r.items())) for r in _run(op).take_all())
    monkeypatch.setattr(joins, "SHUFFLE_BUCKETS", 1)
    assert Counter(tuple(sorted(r.items())) for r in _run(op).take_all()) == default
    assert default, "an empty result shows nothing"
