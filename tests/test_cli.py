"""CLI surface tests (python -m go_htmldate_ray)."""

import subprocess
import sys

import pytest

from go_htmldate_ray.sources import reference_files

REPO = "/root/repo"


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "go_htmldate_ray", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=60,
    )


_BLOG = str(reference_files.MOCK_DIR / "blog.python.org.html")
_NEEDS_MOCK = pytest.mark.skipif(
    not reference_files.available(), reason=reference_files.ABSENT
)


@_NEEDS_MOCK
def test_cli_extract():
    out = _run("extract", _BLOG, "--original")
    assert out.returncode == 0
    assert out.stdout.strip() == "2016-12-23"


@_NEEDS_MOCK
def test_cli_extract_custom_format():
    out = _run("extract", _BLOG, "--original", "--format", "%d/%m/%Y")
    assert out.stdout.strip() == "23/12/2016"


def test_cli_extract_no_date(tmp_path):
    p = tmp_path / "empty.html"
    p.write_text("<html><body>nothing here</body></html>")
    out = _run("extract", str(p), "--fast")
    assert out.returncode == 1
    assert "no date found" in out.stderr


def test_cli_extract_min_date_window(tmp_path):
    p = tmp_path / "dated.html"
    p.write_text(
        '<html><head><meta property="article:published_time" '
        'content="2016-12-23"></head><body>post</body></html>'
    )
    assert _run("extract", str(p), "--original").stdout.strip() == "2016-12-23"
    out = _run("extract", str(p), "--original", "--min-date", "2020-01-01")
    # the 2016 date is outside the window -> some other/no date
    assert out.stdout.strip() != "2016-12-23"


def test_cli_dedup_clusters(tmp_path, ray_session):
    from go_htmldate_ray.__main__ import main

    out = str(tmp_path / "clusters")
    assert main(["dedup", "/root/testdata/sf0.001", out, "--mode", "clusters"]) == 0
    import pyarrow.dataset as pads

    t = pads.dataset(out, format="parquet").to_table()
    assert t.num_rows > 0
    assert set(t.column_names) == {"doc_id", "cluster_rep"}


def test_cli_search(ray_session, capsys):
    # In-process (shares the session Ray): a subprocess would boot a
    # SECOND Ray runtime next to the pytest session's, which is slow
    # enough to blow the timeout on a busy box.  The true-subprocess CLI
    # surface is covered by the extract tests above (which never init Ray).
    import json

    from go_htmldate_ray.__main__ import main

    rc = main(["search", "/root/testdata/sf0.001", "merge", "window", "--k", "3"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err[-500:]
    rows = json.loads(captured.out.strip().splitlines()[-1])
    assert len(rows) == 3
    assert [r["rank"] for r in rows] == [1, 2, 3]
    assert rows[0]["score"] >= rows[1]["score"] >= rows[2]["score"]
