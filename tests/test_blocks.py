"""light_table (the one bounded driver collection) and the operators that
route through it, on block layouts with empty and schema-less blocks."""

import contextlib

import pyarrow as pa
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _refs_dataset(*tables):
    import ray
    import ray.data

    return ray.data.from_arrow_refs([ray.put(t) for t in tables]).materialize()


def test_light_table_drops_empty_blocks_and_casts():
    from go_htmldate_ray.stages.blocks import light_table

    ds = _refs_dataset(
        pa.table({"a": pa.array([3, 1], pa.int32()), "b": ["x", "y"]}),
        pa.table({}),  # schema-less empty block
        pa.table({"z": pa.array([], pa.string())}),  # zero rows, other schema
        pa.table({"a": pa.array([2], pa.int32()), "b": ["w"]}),
    )
    got = light_table(ds, pa.schema([("a", pa.int64())]))
    assert got.schema == pa.schema([("a", pa.int64())])
    assert got.column("a").to_pylist() == [3, 1, 2]


def test_light_table_all_empty_is_typed_empty():
    from go_htmldate_ray.stages.blocks import light_table

    schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    got = light_table(_refs_dataset(pa.table({}), pa.table({})), schema)
    assert got.num_rows == 0 and got.schema == schema


def test_light_table_none_above_budget(monkeypatch):
    from go_htmldate_ray.stages import blocks

    ds = _refs_dataset(pa.table({"a": pa.array(range(100), pa.int64())}))
    schema = pa.schema([("a", pa.int64())])
    monkeypatch.setattr(blocks, "LIGHT_TABLE_BYTES", ds.size_bytes())
    assert blocks.light_table(ds, schema).num_rows == 100
    monkeypatch.setattr(blocks, "LIGHT_TABLE_BYTES", ds.size_bytes() - 1)
    assert blocks.light_table(ds, schema) is None


def _with_empty_blocks(rows, n_blocks=8):
    """``rows`` spread over more blocks than rows: the repartition emits
    schema-less empty blocks, as a shuffle does at high parallelism."""
    import ray
    import ray.data

    ds = ray.data.from_items(rows).repartition(n_blocks).materialize()
    assert any(t.num_columns == 0 for t in ray.get(ds.to_arrow_refs()))
    return ds


@pytest.mark.parametrize("path", ["fast", "scale"])
def test_graph_operators_survive_empty_blocks(request, path):
    """Connected components, PageRank and HITS give the same answer from
    inputs carrying empty schema-less blocks, on both paths."""
    import ray.data

    from go_htmldate_ray.stages.dedup import connected_components
    from go_htmldate_ray.stages.graph import hits, pagerank

    node_rows = [{"id": i} for i in range(5)]
    edge_rows = [{"src": 0, "dst": 1}, {"src": 1, "dst": 2}, {"src": 3, "dst": 1}]
    pair_rows = [{"doc_a": 1, "doc_b": 2}, {"doc_a": 3, "doc_b": 4}]

    def run(nodes, edges, pairs):
        cc = sorted(
            (r["doc_id"], r["cluster_rep"])
            for r in connected_components(pairs).take_all()
        )
        pr = sorted(
            (r["doc_id"], r["rank_units"])
            for r in pagerank(nodes, edges, iters=3).take_all()
        )
        hub = sorted(
            (r["doc_id"], r["hub_units"], r["auth_units"])
            for r in hits(nodes, edges).take_all()
        )
        return cc, pr, hub

    expected = run(
        ray.data.from_items(node_rows),
        ray.data.from_items(edge_rows),
        ray.data.from_items(pair_rows),
    )
    assert expected[0] == [(1, 1), (2, 1), (3, 3), (4, 3)]
    forced = (
        request.getfixturevalue("scale_path")()
        if path == "scale"
        else contextlib.nullcontext()
    )
    with forced:
        got = run(
            _with_empty_blocks(node_rows),
            _with_empty_blocks(edge_rows),
            _with_empty_blocks(pair_rows),
        )
    assert got == expected
