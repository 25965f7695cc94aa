"""The driver query registry (``__ray_entry__.REGISTRY``), checked
without Ray: every query is declared once, with exactly one of an oracle
and a rows-only reason, and the views the driver reads agree with it."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import __ray_entry__ as entry


def test_query_names_are_unique():
    # a dict literal silently keeps the last of two equal keys, so the
    # names are read from the source
    tree = ast.parse(Path(entry.__file__).read_text())
    table = next(
        n.value
        for n in tree.body
        if isinstance(n, ast.AnnAssign) and n.target.id == "REGISTRY"
    )
    names = [k.value for k in table.keys]
    assert [n for n, c in Counter(names).items() if c > 1] == []
    assert len(names) == len(entry.REGISTRY)


def test_each_query_has_exactly_one_check():
    for name, q in entry.REGISTRY.items():
        assert (q.sql is None) != (q.rows_only is None), name
    with pytest.raises(ValueError):
        entry.Query(len)
    with pytest.raises(ValueError):
        entry.Query(len, "SELECT 1", rows_only="no oracle")


def test_driver_rotation_leads_queries():
    rotation = list(entry._DRIVER_ROTATION)
    assert set(rotation) <= set(entry.REGISTRY)
    assert list(entry.queries())[: len(rotation)] == rotation


def test_views_partition_the_queries():
    queries, oracles = entry.queries(), entry.oracle_sql()
    assert set(queries) == set(oracles) | set(entry.ROWS_ONLY)
    assert not set(oracles) & set(entry.ROWS_ONLY)
    assert all(isinstance(sql, str) and sql.strip() for sql in oracles.values())
