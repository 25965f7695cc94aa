"""The bucketed joins built on ``joins.co_partition`` against DuckDB over
the same Arrow tables: ``hash_join`` (inner, left, full), ``anti_join``
and ``attach_payload``, with duplicate and null keys, empty sides,
inputs spread over more blocks than rows, and shuffle widths of 1 and 4
(the operators without a width argument take ``joins.SHUFFLE_BUCKETS``,
patched here).  A null key matches nothing
(SQL), so inner joins drop it, outer joins keep it unmatched and the
anti join keeps it."""

from collections import Counter

import duckdb
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

_KEYS = st.lists(st.one_of(st.none(), st.integers(-3, 5)), max_size=10)


def _ds(tbl: pa.Table, extra_blocks: int, typed_empty: bool = True):
    import ray.data

    ds = ray.data.from_arrow(tbl)
    # repartitioning an empty table leaves only schema-less blocks: a
    # join knows such a side by its key column alone
    if extra_blocks and (tbl.num_rows or not typed_empty):
        ds = ds.repartition(tbl.num_rows + extra_blocks)
    return ds


def _rows(ds, cols, absent=()) -> Counter:
    # only the ``absent`` columns (the other columns of a schema-less
    # side) may be missing from the result; they read as null, as the
    # SQL's columns of an empty side do
    return Counter(
        tuple(
            bytes(v) if isinstance(v, bytes) else v
            for v in (r.get(c) if c in absent else r[c] for c in cols)
        )
        for r in ds.take_all()
    )


def _sql(query: str, **tables) -> Counter:
    con = duckdb.connect()
    for name, tbl in tables.items():
        con.register(name, tbl)
    return Counter(tuple(r) for r in con.execute(query).fetchall())


@settings(max_examples=8, deadline=None)
@given(
    lkeys=_KEYS,
    rkeys=_KEYS,
    extra_blocks=st.integers(0, 3),
    n_buckets=st.sampled_from([1, 4]),
    typed_empty=st.booleans(),
)
@example(lkeys=[1, None, 2], rkeys=[1, None], extra_blocks=0, n_buckets=4, typed_empty=True)
@example(lkeys=[None, None, 3], rkeys=[], extra_blocks=2, n_buckets=1, typed_empty=True)
@example(lkeys=[], rkeys=[None, 2, 2], extra_blocks=1, n_buckets=4, typed_empty=True)
@example(lkeys=[1, None, 2], rkeys=[], extra_blocks=3, n_buckets=4, typed_empty=False)
def test_joins_match_duckdb(
    ray_session, lkeys, rkeys, extra_blocks, n_buckets, typed_empty
):
    from go_htmldate_ray.stages import joins
    from go_htmldate_ray.stages.joins import anti_join, hash_join

    l_tbl = pa.table(
        {"k": pa.array(lkeys, pa.int64()), "lv": pa.array(range(len(lkeys)), pa.int64())}
    )
    r_tbl = pa.table(
        {
            "rk": pa.array(rkeys, pa.int64()),
            "rv": pa.array([f"r{i}" for i in range(len(rkeys))], pa.string()),
        }
    )
    left = _ds(l_tbl, extra_blocks, typed_empty)
    right = _ds(r_tbl, extra_blocks, typed_empty)
    absent = [
        col
        for tbl, col in [(l_tbl, "lv"), (r_tbl, "rv")]
        if extra_blocks and not typed_empty and not tbl.num_rows
    ]
    on = "l.k = r.rk"
    for how, sql in [
        ("inner", f"SELECT l.k, l.lv, r.rv FROM l JOIN r ON {on}"),
        ("left", f"SELECT l.k, l.lv, r.rv FROM l LEFT JOIN r ON {on}"),
        ("full", f"SELECT coalesce(l.k, r.rk), l.lv, r.rv FROM l FULL JOIN r ON {on}"),
    ]:
        got = hash_join(left, right, on="k", right_on="rk", how=how, n_buckets=n_buckets)
        want = _sql(sql, l=l_tbl, r=r_tbl)
        assert _rows(got, ["k", "lv", "rv"], absent) == want, how
    with pytest.MonkeyPatch.context() as m:
        m.setattr(joins, "SHUFFLE_BUCKETS", n_buckets)
        got = anti_join(left, right, on="k", right_on="rk")
    want = _sql(f"SELECT l.k, l.lv FROM l ANTI JOIN r ON {on}", l=l_tbl, r=r_tbl)
    assert _rows(got, ["k", "lv"], absent) == want


@settings(max_examples=8, deadline=None)
@given(
    pair_keys=_KEYS,
    lookup_keys=st.lists(st.one_of(st.none(), st.integers(-3, 5)), max_size=6, unique=True),
    extra_blocks=st.integers(0, 3),
    dedupe=st.booleans(),
    n_buckets=st.sampled_from([1, 4]),
)
@example(pair_keys=[1, None, 1, 2], lookup_keys=[1, None], extra_blocks=1, dedupe=True, n_buckets=4)
@example(pair_keys=[], lookup_keys=[0, 4, None], extra_blocks=0, dedupe=True, n_buckets=1)
@example(pair_keys=[0, 4], lookup_keys=[], extra_blocks=0, dedupe=False, n_buckets=4)
def test_attach_payload_matches_duckdb(
    ray_session, pair_keys, lookup_keys, extra_blocks, dedupe, n_buckets
):
    from go_htmldate_ray.stages import joins
    from go_htmldate_ray.stages.joins import attach_payload

    p_tbl = pa.table(
        {
            "k": pa.array(pair_keys, pa.int64()),
            "other": pa.array([i % 2 for i in range(len(pair_keys))], pa.int64()),
        }
    )
    lk_tbl = pa.table(
        {
            "key": pa.array(lookup_keys, pa.int64()),
            "payload": pa.array([f"p{k}".encode() for k in lookup_keys], pa.binary()),
        }
    )
    with pytest.MonkeyPatch.context() as m:
        m.setattr(joins, "SHUFFLE_BUCKETS", n_buckets)
        got = attach_payload(
            _ds(p_tbl, extra_blocks),
            _ds(lk_tbl, extra_blocks),
            key_col="k",
            out_col="pl",
            carry_cols={"k": pa.int64(), "other": pa.int64()},
            dedupe=dedupe,
        )
    distinct = "DISTINCT" if dedupe else ""
    want = _sql(
        f"SELECT {distinct} p.k, p.other, lk.payload FROM p JOIN lk ON p.k = lk.key",
        p=p_tbl,
        lk=lk_tbl,
    )
    assert _rows(got, ["k", "other", "pl"]) == want
