"""HttpFetcher against a loopback HTTP server: content-type gating,
404 handling, robots fetch, and end-to-end extraction of a fetched page."""

import shutil
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from go_htmldate_ray import Options, from_html
from go_htmldate_ray.stages.fetch_stage import HttpFetcher

PAGE = b"""<html><head>
<meta property="article:published_time" content="2019-03-04T10:00:00+00:00"/>
</head><body><p>hello</p></body></html>"""

ROBOTS = b"User-agent: *\nDisallow: /private/\n"


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path == "/page.html":
            body, ctype, code = PAGE, "text/html; charset=utf-8", 200
        elif self.path == "/data.json":
            body, ctype, code = b"{}", "application/json", 200
        elif self.path == "/robots.txt":
            body, ctype, code = ROBOTS, "text/plain", 200
        else:
            body, ctype, code = b"nope", "text/html", 404
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"127.0.0.1:{httpd.server_port}"
    httpd.shutdown()


def test_fetch_and_extract(server):
    fetcher = HttpFetcher(timeout=5)
    body = fetcher.fetch(f"http://{server}/page.html")
    assert body == PAGE
    res = from_html(body, Options(use_original_date=True))
    assert res.format() == "2019-03-04"


def test_fetch_rejects_non_html(server):
    fetcher = HttpFetcher(timeout=5)
    assert fetcher.fetch(f"http://{server}/data.json") is None


def test_fetch_404_returns_none(server):
    fetcher = HttpFetcher(timeout=5)
    assert fetcher.fetch(f"http://{server}/missing.html") is None


def test_fetch_unreachable_returns_none():
    fetcher = HttpFetcher(timeout=0.5)
    assert fetcher.fetch("http://127.0.0.1:9/nothing") is None


def test_fetch_robots(server):
    from go_htmldate_ray.state.robots import allowed, parse_robots

    fetcher = HttpFetcher(timeout=5)
    rules = parse_robots(fetcher.fetch_robots(server))
    assert not allowed("/private/x.html", rules)
    assert allowed("/public/x.html", rules)


# --- full crawl over live HTTP ----------------------------------------------

class _SyntheticWebHandler(BaseHTTPRequestHandler):
    """Serves the synthetic web over HTTP: /<host>/<path> → the page that
    host would serve, built from the documents table."""

    texts = None  # set by fixture
    langs = None
    n_docs = 0

    def do_GET(self):
        from go_htmldate_ray.pipelines.crawl import doc_id_of_url
        from go_htmldate_ray.sources.pages import build_page_html
        from go_htmldate_ray.state.robots import synthetic_robots_txt

        if self.path.endswith("/robots.txt"):
            host = self.path.rsplit("/robots.txt", 1)[0].strip("/")
            body = synthetic_robots_txt(host).encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        doc_id = doc_id_of_url(self.path)
        if doc_id is None or doc_id >= self.n_docs:
            self.send_response(404)
            self.end_headers()
            return
        body = build_page_html(
            doc_id, self.texts[doc_id] or "", self.langs[doc_id] or "en", self.n_docs
        )
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def synthetic_web():
    import pyarrow.parquet as pq

    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    _SyntheticWebHandler.texts = dict(
        zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist())
    )
    _SyntheticWebHandler.langs = dict(
        zip(t.column("doc_id").to_pylist(), t.column("lang").to_pylist())
    )
    _SyntheticWebHandler.n_docs = t.num_rows
    httpd = HTTPServer(("127.0.0.1", 0), _SyntheticWebHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()


def test_robots_cache_http_mode(synthetic_web):
    from go_htmldate_ray.state.robots import RobotsCache, allowed

    # live fetch: the loopback server serves each host's synthetic policy
    cache = RobotsCache(http_base=synthetic_web, timeout=5)
    rules = cache.get_rules(["site0.example.org", "site1.example.org"])
    assert not allowed("/article/1.html", rules["site0.example.org"])  # 0 % 13 == 0
    assert allowed("/article/1.html", rules["site1.example.org"])
    delays = cache.get_delays(["site3.example.org"])
    assert delays["site3.example.org"] == 2.0  # 3 % 11 == 3 -> Crawl-delay: 2

    # unreachable endpoint: permissive empty rules, never an exception
    dead = RobotsCache(http_base="http://127.0.0.1:9", timeout=0.5)
    rules = dead.get_rules(["site0.example.org"])
    assert rules["site0.example.org"] == []
    assert allowed("/article/1.html", rules["site0.example.org"])


def test_crawl_over_live_http(ray_session, synthetic_web):
    """The whole scheduler (seen set, robots, politeness, extraction) with a
    real HTTP fetcher in the loop must visit the same pages with the same
    dates as the in-process synthetic store."""
    from go_htmldate_ray.pipelines.crawl import crawl

    http_visited, http_stats = crawl(
        "/root/testdata/sf0.001",
        max_waves=4,
        fetcher_kwargs={"http_base": synthetic_web, "timeout": 10},
    )
    plain_visited, plain_stats = crawl(
        "/root/testdata/sf0.001",
        max_waves=4,
    )
    key = lambda rows: sorted(
        (r["wave"], r["host"], r["fetch_rank"], r["url"], r["date_str"]) for r in rows
    )
    http_rows, plain_rows = key(http_visited.take_all()), key(plain_visited.take_all())
    for stats in (http_stats, plain_stats):
        shutil.rmtree(stats["checkpoint_dir"], ignore_errors=True)
    assert http_rows == plain_rows


# --- conditional revalidation ------------------------------------------------

class _CondHandler(BaseHTTPRequestHandler):
    """Serves one page with ETag/Last-Modified validators; answers 304
    when the client presents a matching validator."""

    ETAG = '"v42"'
    LASTMOD = "Tue, 05 Mar 2024 12:00:00 GMT"

    def do_GET(self):
        if self.path != "/page.html":
            self.send_response(404)
            self.end_headers()
            return
        if (
            self.headers.get("If-None-Match") == self.ETAG
            or self.headers.get("If-Modified-Since") == self.LASTMOD
        ):
            self.send_response(304)
            self.end_headers()
            return
        body = PAGE
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("ETag", self.ETAG)
        self.send_header("Last-Modified", self.LASTMOD)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def cond_server():
    httpd = HTTPServer(("127.0.0.1", 0), _CondHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()


def test_conditional_fetch_roundtrip(cond_server):
    fetcher = HttpFetcher(timeout=5)
    url = f"{cond_server}/page.html"

    # first fetch: full body + validators captured
    body, meta = fetcher.fetch_conditional(url)
    assert body == PAGE
    assert meta["etag"] == _CondHandler.ETAG
    assert meta["last_modified"] == _CondHandler.LASTMOD

    # revalidation with the etag: 304, no body, validators echoed
    body2, meta2 = fetcher.fetch_conditional(url, etag=meta["etag"])
    assert body2 is None
    assert meta2["status"] == HttpFetcher.NOT_MODIFIED
    assert meta2["etag"] == meta["etag"]

    # revalidation with last-modified alone also 304s
    body3, meta3 = fetcher.fetch_conditional(
        url, last_modified=meta["last_modified"]
    )
    assert body3 is None
    assert meta3["status"] == HttpFetcher.NOT_MODIFIED

    # stale validator: full body again
    body4, meta4 = fetcher.fetch_conditional(url, etag='"old"')
    assert body4 == PAGE

    # plain fetch() is unchanged by the refactor
    assert fetcher.fetch(url) == PAGE
    assert fetcher.fetch(f"{cond_server}/missing.html") is None


class _RotatingETagHandler(BaseHTTPRequestHandler):
    """304 responses carry an UPDATED ETag (RFC 9110 allows it)."""

    def do_GET(self):
        if self.headers.get("If-None-Match") == '"old"':
            self.send_response(304)
            self.send_header("ETag", '"new"')
            self.send_header("Last-Modified", "Wed, 06 Mar 2024 00:00:00 GMT")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(PAGE)))
        self.send_header("ETag", '"old"')
        self.end_headers()
        self.wfile.write(PAGE)

    def log_message(self, *args):
        pass


def test_304_returns_updated_validators():
    httpd = HTTPServer(("127.0.0.1", 0), _RotatingETagHandler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        fetcher = HttpFetcher(timeout=5)
        url = f"http://127.0.0.1:{httpd.server_port}/p.html"
        body, meta = fetcher.fetch_conditional(url)
        assert meta["etag"] == '"old"'
        body2, meta2 = fetcher.fetch_conditional(url, etag='"old"')
        assert body2 is None and meta2["status"] == HttpFetcher.NOT_MODIFIED
        # the rotated validator from the 304 is persisted, not the stale one
        assert meta2["etag"] == '"new"'
        assert meta2["last_modified"] == "Wed, 06 Mar 2024 00:00:00 GMT"
    finally:
        httpd.shutdown()
