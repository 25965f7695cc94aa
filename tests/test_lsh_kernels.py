"""Driver-side kernels of the MinHash/LSH near-dup chain: the vectorized
collision-pair expansion, the flat signature packing, and the in-memory
connected components."""

import logging

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from go_htmldate_ray.stages.joins import (
    PAIR_CAP,
    _expand_ids,
    collision_pairs,
    sorted_unique_pairs,
)

_QUIET = logging.getLogger("test_lsh_kernels.quiet")
_QUIET.disabled = True


@st.composite
def _band_rows(draw):
    """(key, id) rows: a few runs of distinct ids per key (some above
    PAIR_CAP), repeated ids, keys shared between runs, shuffled."""
    keys: list[int] = []
    ids: list[int] = []
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.one_of(st.integers(0, 12), st.integers(PAIR_CAP - 5, PAIR_CAP + 30)),
                st.integers(-50, 1000),
                st.integers(1, 3),
            ),
            max_size=5,
        )
    )
    for key, size, base, step in runs:
        run = [base + step * i for i in range(size)]
        repeats = draw(st.lists(st.sampled_from(run), max_size=15)) if run else []
        keys += [key] * (size + len(repeats))
        ids += run + repeats
    order = list(range(len(keys)))
    draw(st.randoms()).shuffle(order)
    return np.array(keys, np.int64)[order], np.array(ids, np.int64)[order]


def _reference(keys: np.ndarray, ids: np.ndarray, strict: bool) -> list:
    pairs = []
    for k in np.unique(keys):
        got = _expand_ids(np.unique(ids[keys == k]), _QUIET, "test", strict)
        if got is not None:
            pairs += zip(got[0].tolist(), got[1].tolist())
    return sorted(pairs)


def _pairs(keys: np.ndarray, ids: np.ndarray, strict: bool) -> list:
    out = collision_pairs(
        pa.table({"k": keys, "i": ids}), "k", "i", "a", "b", _QUIET, "test", strict=strict
    )
    return sorted(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))


@settings(max_examples=300, deadline=None)
@given(_band_rows())
def test_collision_pairs_match_per_run_expansion(rows):
    keys, ids = rows
    got = _pairs(keys, ids, strict=False)
    assert got == _reference(keys, ids, strict=False)
    assert all(a < b for a, b in got)

    widest = max((len(np.unique(ids[keys == k])) for k in np.unique(keys)), default=0)
    if widest > PAIR_CAP:
        with pytest.raises(ValueError, match="PAIR_CAP"):
            _pairs(keys, ids, strict=True)
    else:
        assert _pairs(keys, ids, strict=True) == got


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=60))
def test_sorted_unique_pairs_is_row_unique(rows):
    x = np.array([r[0] for r in rows], np.int64)
    y = np.array([r[1] for r in rows], np.int64)
    xs, ys = sorted_unique_pairs(x, y)
    want = np.unique(np.stack([x, y], axis=1), axis=0) if rows else np.zeros((0, 2))
    assert xs.tolist() == want[:, 0].tolist() and ys.tolist() == want[:, 1].tolist()


_TEXTS = [
    "the quick brown fox jumps over the lazy dog near the river bank",
    "",
    None,
    "  \n\t ",
    "two words",
    "the quick brown fox jumps over the lazy dog near the river bend",
    "ünïcode tökens split on whitespace only",
]


def _text_batch() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(range(10, 10 + len(_TEXTS)), pa.int64()),
            "text": pa.array(_TEXTS, pa.string()),
        }
    )


def test_signature_rows_are_packed_signatures_of_nonblank_texts():
    from go_htmldate_ray.stages.dedup import MinHasher, _signature_rows

    rows = _signature_rows(_text_batch(), 128)
    mh = MinHasher()
    want = [
        (10 + i, mh.signature(t).tobytes())
        for i, t in enumerate(_TEXTS)
        if t is not None and t.strip()
    ]
    assert rows.schema.field("payload").type == pa.binary()
    assert list(zip(rows.column("key").to_pylist(), rows.column("payload").to_pylist())) == want


def test_minhasher_signature_column():
    from go_htmldate_ray.stages.dedup import MinHasher

    mh = MinHasher()
    out = mh(_text_batch())
    want = pa.array([mh.signature(t or "").tolist() for t in _TEXTS], pa.list_(pa.int64()))
    assert out.column_names == ["doc_id", "signature"]
    assert out.column("signature").combine_chunks().equals(want)
    assert mh(_text_batch().slice(0, 0)).column("signature").type == pa.list_(pa.int64())


def test_light_components_start_no_execution(ray_session, monkeypatch):
    """A driver-side pair table is gathered and labelled in numpy: neither
    the components nor reading their drop ids starts a Ray Data
    execution; zero pairs give the typed-empty frame.  The light pair
    tables of both banded-LSH pair queries and the light cluster table
    are read without starting one either."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from go_htmldate_ray.stages.dedup import (
        connected_components,
        minhash_lsh_pairs,
        near_dup_drop_ids,
    )
    from go_htmldate_ray.stages.similarity import embedding_dup_pairs_lsh

    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([5, 1, 7], pa.int64()), "doc_b": pa.array([9, 5, 8], pa.int64())})
    )
    base = " ".join(f"w{i}" for i in range(60))
    docs = ray.data.from_items([{"doc_id": i, "text": base + f" t{i}"} for i in range(3)])
    vec = np.random.RandomState(5).standard_normal(16)
    vecs = ray.data.from_items(
        [{"vec_id": i, "embedding": (vec * (i + 1)).tolist()} for i in range(3)]
    )
    doc_pairs = minhash_lsh_pairs(docs, threshold=0.5)
    vec_pairs = embedding_dup_pairs_lsh(vecs)
    starts = []
    real = StreamingExecutor.execute
    monkeypatch.setattr(
        StreamingExecutor, "execute", lambda self, *a, **k: starts.append(1) or real(self, *a, **k)
    )
    clusters = connected_components(pairs)
    drops = near_dup_drop_ids(clusters)
    assert sorted((r["doc_id"], r["cluster_rep"]) for r in clusters.take_all()) == [
        (1, 1), (5, 1), (7, 7), (8, 7), (9, 1)
    ]
    assert not starts
    assert drops.tolist() == [5, 8, 9]
    assert sorted((r["doc_a"], r["doc_b"]) for r in doc_pairs.take_all()) == [(0, 1), (0, 2), (1, 2)]
    assert sorted((r["vec_a"], r["vec_b"], r["cosine"]) for r in vec_pairs.take_all()) == [
        (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)
    ]
    assert not starts

    empty = connected_components(
        ray.data.from_arrow(
            pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
        )
    )
    assert list(empty.columns) == ["doc_id", "cluster_rep"]
    assert len(empty) == 0 and all(str(t) == "int64" for t in empty.dtypes)
