"""Frontier crawl scheduler tests: determinism, politeness, robots,
seen-set exactness, checkpoint/resume equivalence (north-rule criteria)."""

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _run(tmp_path=None, **kw):
    import shutil

    from go_htmldate_ray.pipelines.crawl import crawl

    kw.setdefault("max_waves", 40)
    visited, stats = crawl(SF, **kw)
    rows = visited.take_all()
    if "checkpoint_dir" not in kw:  # the crawl's own temp checkpoint
        shutil.rmtree(stats["checkpoint_dir"], ignore_errors=True)
    rows.sort(key=lambda r: (r["wave"], r["host"], r["fetch_rank"]))
    return rows, stats


def test_crawl_deterministic_ordering():
    rows1, _ = _run()
    rows2, _ = _run()
    assert [
        (r["wave"], r["host"], r["fetch_rank"], r["url"]) for r in rows1
    ] == [(r["wave"], r["host"], r["fetch_rank"], r["url"]) for r in rows2]


def test_no_url_visited_twice():
    rows, stats = _run()
    urls = [r["url"] for r in rows]
    assert len(urls) == len(set(urls))
    assert stats["seen_total"] >= len(urls)


def test_politeness_budget_respected():
    budget = 2
    rows, _ = _run(politeness_budget=budget)
    from collections import Counter

    per_wave_host = Counter((r["wave"], r["host"]) for r in rows)
    assert max(per_wave_host.values()) <= budget


def test_priority_fn_orders_within_host():
    """With a priority_fn, each host's wave budget goes to the best-
    priority URLs ((prio, depth, url) order); default behavior is
    unchanged."""
    from go_htmldate_ray.pipelines.crawl import doc_id_of_url

    def prio(u):
        d = doc_id_of_url(u)
        return -(d if d is not None else 0)  # highest doc_id first

    rows, _ = _run(max_waves=6, priority_fn=prio)
    by_group = {}
    for r in rows:
        by_group.setdefault((r["wave"], r["host"]), []).append(r)
    multi = 0
    for grp in by_group.values():
        grp.sort(key=lambda r: r["fetch_rank"])
        keys = [(prio(r["url"]), r["depth"], r["url"]) for r in grp]
        assert keys == sorted(keys), grp
        multi += len(grp) > 1
    assert multi > 0  # the assertion actually exercised something

    # identical run without priority_fn differs (doc ids ascend instead)
    base_rows, _ = _run(max_waves=6)
    pr_rows, _ = _run(max_waves=6, priority_fn=prio)
    assert [r["url"] for r in base_rows] != [r["url"] for r in pr_rows]


def test_robots_disallowed_never_fetched():
    rows, stats = _run()
    for r in rows:
        host_idx = int(r["host"].split(".")[0].removeprefix("site"))
        if host_idx % 13 == 0:
            assert "/article/" not in r["url"], r
    assert stats["robots_denied"] > 0


def test_crawl_delay_caps_per_wave_fetches():
    """Hosts declaring Crawl-delay: 2 (index % 11 == 3) get at most
    budget // 2 fetches per wave — the wave-discretized token bucket —
    and the crawl still converges to the same visited set as an
    undelayed-budget run."""
    from collections import Counter

    budget = 4
    rows, _ = _run(politeness_budget=budget)
    per_wave_host = Counter((r["wave"], r["host"]) for r in rows)
    saw_delay_host = False
    for (wave, host), n in per_wave_host.items():
        idx = int(host.split(".")[0].removeprefix("site"))
        if idx % 11 == 3:
            assert n <= budget // 2, (wave, host, n)
            saw_delay_host = saw_delay_host or n == budget // 2
        else:
            assert n <= budget, (wave, host, n)
    assert saw_delay_host  # the cap actually binds somewhere

    # delays defer, never drop: visited set == a no-delay-capped
    # high-budget run's set
    big, _ = _run(politeness_budget=1000)
    assert {r["url"] for r in rows} == {r["url"] for r in big}


def test_parse_sitemap():
    from go_htmldate_ray.sources.sitemap import (
        parse_sitemap,
        synthetic_sitemap_xml,
    )

    xml = """<?xml version="1.0"?>
    <urlset>
      <url><loc>https://a.org/x</loc><lastmod>2020-01-02</lastmod></url>
      <url><loc> https://a.org/y </loc></url>
      <url><lastmod>orphan</lastmod></url>
      <notaurl><loc>https://a.org/z</loc></notaurl>
    </urlset>"""
    assert parse_sitemap(xml) == [
        ("https://a.org/x", "2020-01-02"),
        ("https://a.org/y", ""),
    ]
    assert parse_sitemap("") == []
    assert parse_sitemap("<urlset></urlset>") == []

    # synthetic sitemap covers exactly the host's page space
    from go_htmldate_ray.sources.pages import page_date, page_url

    ents = parse_sitemap(synthetic_sitemap_xml("site3.example.org", 500))
    assert [u for u, _ in ents] == [page_url(d) for d in range(3, 500, 97)]
    assert all(
        m == page_date(d).isoformat()
        for (_, m), d in zip(ents, range(3, 500, 97))
    )
    assert parse_sitemap(synthetic_sitemap_xml("other.example.com", 500)) == []


def test_sitemap_index_expansion():
    from go_htmldate_ray.sources.sitemap import (
        expand_sitemap,
        parse_sitemap_index,
    )

    index = """<?xml version="1.0"?>
    <sitemapindex>
      <sitemap><loc>https://a.org/sm1.xml</loc><lastmod>2024-01-01</lastmod></sitemap>
      <sitemap><loc> https://a.org/sm2.xml </loc></sitemap>
    </sitemapindex>"""
    assert parse_sitemap_index(index) == [
        "https://a.org/sm1.xml",
        "https://a.org/sm2.xml",
    ]
    assert parse_sitemap_index("<urlset></urlset>") == []

    store = {
        "https://a.org/sm1.xml": "<urlset><url><loc>https://a.org/p1</loc>"
        "<lastmod>2020-05-06</lastmod></url></urlset>",
        "https://a.org/sm2.xml": "<urlset><url><loc>https://a.org/p2</loc></url></urlset>",
    }
    got = expand_sitemap(index, lambda u: store.get(u, ""))
    assert got == [("https://a.org/p1", "2020-05-06"), ("https://a.org/p2", "")]

    # plain urlset passes straight through
    assert expand_sitemap(store["https://a.org/sm2.xml"], lambda u: "") == [
        ("https://a.org/p2", "")
    ]

    # cyclic index terminates at the depth bound with no entries
    cyc = "<sitemapindex><sitemap><loc>https://a.org/self.xml</loc></sitemap></sitemapindex>"
    assert expand_sitemap(cyc, lambda u: cyc) == []
    # missing child fetches degrade to nothing, never raise
    assert expand_sitemap(index, lambda u: "") == []


def test_robots_sitemap_directives():
    from go_htmldate_ray.state.robots import (
        parse_sitemap_directives,
        synthetic_robots_txt,
    )

    txt = (
        "User-agent: *\nDisallow: /private/\n"
        "Sitemap: https://a.org/sitemap.xml\n"
        "# Sitemap: https://a.org/commented.xml\n"
        "User-agent: other\n"
        "Sitemap: https://a.org/sm2.xml\n"  # global directive: still counts
        "sitemap:https://a.org/sm3.xml\n"  # case/space tolerant
    )
    assert parse_sitemap_directives(txt) == [
        "https://a.org/sitemap.xml",
        "https://a.org/sm2.xml",
        "https://a.org/sm3.xml",
    ]
    assert parse_sitemap_directives("") == []
    # every synthetic host declares its sitemap; foreign hosts none
    assert parse_sitemap_directives(synthetic_robots_txt("site5.example.org")) == [
        "https://site5.example.org/sitemap.xml"
    ]
    assert parse_sitemap_directives(synthetic_robots_txt("other.com")) == []


def test_sitemap_from_robots_matches_direct(ray_session):
    from go_htmldate_ray.sources.sitemap import (
        sitemap_urls,
        sitemap_urls_from_robots,
    )

    sf = "/root/testdata/sf0.001"
    direct = {
        (r["host"], r["url"], r["lastmod"]) for r in sitemap_urls(sf).take_all()
    }
    via_robots = {
        (r["host"], r["url"], r["lastmod"])
        for r in sitemap_urls_from_robots(sf).take_all()
    }
    assert via_robots == direct
    assert direct


def test_sitemap_seeds_crawl():
    """Seeding the crawl from one host's sitemap fetches exactly that
    host's pages plus their robots-allowed link closure."""
    from go_htmldate_ray.pipelines.crawl import crawl
    from go_htmldate_ray.sources.pages import count_documents
    from go_htmldate_ray.sources.sitemap import (
        parse_sitemap,
        synthetic_sitemap_xml,
    )

    n = count_documents(SF)
    seeds = [u for u, _ in parse_sitemap(synthetic_sitemap_xml("site1.example.org", n))]
    assert seeds
    visited, stats = crawl(
        SF, seeds=seeds, max_waves=40, politeness_budget=1000
    )
    urls = {r["url"] for r in visited.take_all()}
    assert set(seeds) <= urls  # every sitemap URL of the host was fetched
    import shutil

    shutil.rmtree(stats["checkpoint_dir"], ignore_errors=True)


def test_parse_crawl_delay():
    from go_htmldate_ray.state.robots import (
        parse_crawl_delay,
        synthetic_robots_txt,
    )

    assert parse_crawl_delay("User-agent: *\nCrawl-delay: 2\n") == 2.0
    assert parse_crawl_delay("User-agent: *\nCrawl-delay: 1.5\n") == 1.5
    assert parse_crawl_delay("User-agent: x\nCrawl-delay: 9\n") == 0.0
    assert parse_crawl_delay("User-agent: *\nCrawl-delay: soon\n") == 0.0
    assert parse_crawl_delay("User-agent: *\nAllow: /\n") == 0.0
    assert parse_crawl_delay(synthetic_robots_txt("site3.example.org")) == 2.0
    assert parse_crawl_delay(synthetic_robots_txt("site4.example.org")) == 0.0
    # host 91: % 13 == 0 (disallow) AND % 11 == 3 (delay) — both apply
    txt = synthetic_robots_txt("site91.example.org")
    assert "Disallow: /article/" in txt and parse_crawl_delay(txt) == 2.0


def test_host_budget_rule():
    from go_htmldate_ray.pipelines.crawl import _host_budget

    assert _host_budget(4, 0.0) == 4
    assert _host_budget(4, 2.0) == 2
    assert _host_budget(4, 1.5) == 2
    assert _host_budget(4, 10.0) == 1   # floored at 1: progress guaranteed
    assert _host_budget(1000, 2.0) == 500


def test_dates_extracted_during_crawl():
    rows, _ = _run(max_waves=3)
    from go_htmldate_ray.sources.pages import page_date

    assert rows
    for r in rows:
        assert r["date_str"] == page_date(r["doc_id"]).isoformat()


def test_checkpoint_resume_equivalence(tmp_path):
    from go_htmldate_ray.pipelines.crawl import crawl

    # Uninterrupted reference run
    full_rows, full_stats = _run()

    # Interrupted run: stop after 3 waves, then resume from checkpoint
    ckpt = str(tmp_path / "ckpt")
    crawl(SF, max_waves=3, checkpoint_dir=ckpt)
    visited, stats = crawl(
        SF, max_waves=40, checkpoint_dir=ckpt, resume=True
    )
    rows = visited.take_all()
    rows.sort(key=lambda r: (r["wave"], r["host"], r["fetch_rank"]))

    assert [
        (r["wave"], r["host"], r["fetch_rank"], r["url"]) for r in rows
    ] == [(r["wave"], r["host"], r["fetch_rank"], r["url"]) for r in full_rows]
    assert stats["seen_total"] == full_stats["seen_total"]


def test_resume_across_actor_loss(tmp_path):
    """Resume must rebuild seen/robots state from the checkpoint files
    alone: a new crawl() call is a simulated restart, since no seen or
    robots state outlives the call that built it.  Robots is a cache, so
    missing robots deltas are safe: their hosts re-resolve."""
    import os

    from go_htmldate_ray.pipelines.crawl import crawl

    full_rows, _ = _run()

    ckpt = str(tmp_path / "ckpt2")
    crawl(SF, max_waves=3, checkpoint_dir=ckpt)
    for w in (1, 2):
        os.remove(os.path.join(ckpt, f"robots_delta_{w}.json"))
    visited, _ = crawl(
        SF, max_waves=40, checkpoint_dir=ckpt, resume=True
    )
    rows = visited.take_all()
    assert sorted(r["url"] for r in rows) == sorted(r["url"] for r in full_rows)


def test_wave_rerun_idempotent_after_partial_crash(tmp_path):
    """Re-running a wave whose outputs were written but whose manifest
    update was lost (mid-wave crash) must not duplicate visited/frontier
    rows."""
    import json as _json
    import os

    from go_htmldate_ray.pipelines.crawl import crawl

    full_rows, _ = _run(max_waves=6)

    ckpt = str(tmp_path / "crashckpt")
    crawl(SF, max_waves=3, checkpoint_dir=ckpt)
    # Simulate "crashed after writing wave 2's outputs, before the
    # manifest recorded it": roll the manifest back one wave.
    mpath = os.path.join(ckpt, "manifest.json")
    m = _json.loads(open(mpath).read())
    m["next_wave"] -= 1
    m["lineage"] = m["lineage"][:-1]
    open(mpath, "w").write(_json.dumps(m))

    visited, _ = crawl(SF, max_waves=6, checkpoint_dir=ckpt, resume=True)
    rows = visited.take_all()
    urls = [r["url"] for r in rows]
    assert len(urls) == len(set(urls)), "duplicated visited rows after rerun"
    assert sorted(urls) == sorted(r["url"] for r in full_rows)


def test_hot_host_ranks_within_budget():
    """A host owning half the frontier gets dense per-wave fetch ranks
    0..n-1 with n at most the budget, and its overflow is deferred."""
    n_hot, n_cold = 500, 500
    hot = [f"https://hot.example.org/post-{i}.html" for i in range(n_hot)]
    cold = [
        f"https://cold{i % 40}.example.org/post-{n_hot + i}.html"
        for i in range(n_cold)
    ]
    budget = 3
    rows, _ = _run(seeds=hot + cold, max_waves=2, politeness_budget=budget)
    per_host_wave = {}
    for r in rows:
        per_host_wave.setdefault((r["wave"], r["host"]), []).append(r["fetch_rank"])
    for ranks in per_host_wave.values():
        assert sorted(ranks) == list(range(len(ranks)))
        assert len(ranks) <= budget
    # the hot host is fetched at the budget in both waves, not all at once
    assert [len(per_host_wave[(w, "hot.example.org")]) for w in (0, 1)] == [budget] * 2


@pytest.mark.parametrize("extra", [{}, {"politeness_budget": 1}])
def test_resume_from_per_shard_seen_deltas(tmp_path, extra):
    """Older checkpoints hold each wave's seen delta as 8 per-shard key
    lists (``h % 8``, each sorted) instead of one list.  Resuming such a
    checkpoint must visit the same URLs as an uninterrupted crawl, with
    no URL fetched twice, also when a tight budget leaves deferred rows
    in the resumed frontier."""
    import json as _json
    import os

    from go_htmldate_ray.pipelines.crawl import crawl

    full_rows, _ = _run(max_waves=6, **extra)

    ckpt = str(tmp_path / "shardckpt")
    crawl(SF, max_waves=3, checkpoint_dir=ckpt, **extra)
    for w in range(3):
        dp = os.path.join(ckpt, f"seen_delta_{w}.json")
        keys = [h for lst in _json.loads(open(dp).read()) for h in lst]
        assert keys
        shards = [sorted(h for h in keys if h % 8 == s) for s in range(8)]
        open(dp, "w").write(_json.dumps(shards))

    visited, _ = crawl(SF, max_waves=6, checkpoint_dir=ckpt, resume=True, **extra)
    urls = [r["url"] for r in visited.take_all()]
    assert len(urls) == len(set(urls)), "duplicate fetches after resume"
    assert sorted(urls) == sorted(r["url"] for r in full_rows)


def test_politeness_deferred_urls_eventually_fetched():
    """Regression: a tight politeness budget must only DELAY fetches,
    never drop them — deferred rows stay unmarked in the seen set and
    re-enter later waves, so the converged visited set is
    budget-independent."""
    wide_rows, _ = _run(politeness_budget=1000, max_waves=64)
    want = sorted(r["url"] for r in wide_rows)

    tight_rows, tight_stats = _run(politeness_budget=1, max_waves=64)
    assert sorted(r["url"] for r in tight_rows) == want
    assert tight_stats["waves"] > 6  # the budget actually throttled


def test_robots_wildcard_patterns():
    """RFC 9309 wildcard matching: *, $, most-specific-wins, allow-on-tie."""
    from go_htmldate_ray.state.robots import allowed, parse_robots

    rules = parse_robots(
        "User-agent: *\n"
        "Disallow: /*.pdf$\n"
        "Disallow: /private/\n"
        "Allow: /private/ok/\n"
        "Disallow: /a/*/c\n"
    )
    # trailing-$ anchored wildcard
    assert not allowed("/docs/file.pdf", rules)
    assert allowed("/docs/file.pdf.html", rules)  # $ anchors the end
    # plain prefixes still work, longest wins
    assert not allowed("/private/x.html", rules)
    assert allowed("/private/ok/x.html", rules)
    # mid-pattern *
    assert not allowed("/a/b/c", rules)
    assert not allowed("/a/anything/at/all/c", rules)
    assert allowed("/a/b/d", rules)
    # no match -> allow
    assert allowed("/public/x", rules)

    # equal-length tie: allow wins (least-restrictive tiebreak)
    tie = [("disallow", "/page"), ("allow", "/page")]
    assert allowed("/page1", tie)

    # empty rule list -> everything allowed
    assert allowed("/anything", [])


def test_max_depth_truncates_crawl():
    """max_depth caps the BFS: visited == full-crawl pages whose first
    (min) discovery depth is <= the bound."""
    full, _ = _run(politeness_budget=1000)
    want = {r["url"] for r in full if r["depth"] <= 2}
    rows, _ = _run(politeness_budget=1000, max_depth=2)
    assert max(r["depth"] for r in rows) <= 2
    assert {r["url"] for r in rows} == want


def test_canonicalize_percent_encoding():
    """RFC 3986 §6.2.2: unreserved octets decoded, other escapes
    uppercased, malformed sequences untouched — two spellings of one URL
    canonicalize (and therefore hash) identically."""
    from go_htmldate_ray.state.urls import canonicalize, url_hash

    # unreserved: %7E -> ~, %41 -> A
    assert canonicalize("https://h.org/%7Euser/%41") == "https://h.org/~user/A"
    # reserved escapes stay encoded but uppercase
    assert canonicalize("https://h.org/a%2fb?q=%3a") == "https://h.org/a%2Fb?q=%3A"
    # malformed % passes through
    assert canonicalize("https://h.org/100%") == "https://h.org/100%"
    assert canonicalize("https://h.org/%zz") == "https://h.org/%zz"
    # equivalent spellings collapse to one frontier identity
    a = canonicalize("https://H.org/%7edoc%2Dset/x")
    b = canonicalize("https://h.org/~doc-set/x")
    assert a == b
    assert url_hash(a) == url_hash(b)


def test_robots_agent_group_selection():
    """RFC 9309 group selection: a matching specific group overrides *;
    consecutive User-agent lines share a group; default stays *."""
    from go_htmldate_ray.state.robots import allowed, parse_robots

    txt = (
        "User-agent: *\n"
        "Disallow: /all/\n"
        "\n"
        "User-agent: FancyBot\n"
        "User-agent: go-htmldate-ray\n"  # consecutive lines, one group
        "Disallow: /mine/\n"
        "Allow: /all/\n"
        "\n"
        "User-agent: other\n"
        "Disallow: /other/\n"
    )
    # default (no agent): * group only — previous behavior
    star = parse_robots(txt)
    assert not allowed("/all/x", star)
    assert allowed("/mine/x", star)

    # matching agent (product-token prefix, case-insensitive): its
    # group applies, * is ignored
    mine = parse_robots(txt, agent="Go-Htmldate-Ray/1.0")
    assert not allowed("/mine/x", mine)
    assert allowed("/all/x", mine)  # Allow in the specific group
    assert allowed("/other/x", mine)

    # shared group: FancyBot gets the same rules
    assert parse_robots(txt, agent="FancyBot") == mine

    # non-matching agent falls back to *
    fallback = parse_robots(txt, agent="SomethingElse")
    assert fallback == star


def test_canonicalize_dot_decode_order_and_idempotency():
    """RFC 3986 6.2.2.3: percent-decoding precedes dot-segment removal,
    and canonicalize is idempotent."""
    from go_htmldate_ray.state.urls import canonicalize

    # %2E%2E decodes to '..' and must then resolve
    assert canonicalize("https://h.org/a/%2E%2E/b") == "https://h.org/b"
    assert canonicalize("https://h.org/a/%2E/b") == "https://h.org/a/b"
    for u in [
        "https://h.org/a/%2E%2E/b",
        "https://H.org:443/x/../y/%7Ez?q=%3a#f",
        "https://h.org/100%",
    ]:
        once = canonicalize(u)
        assert canonicalize(once) == once, u


def test_robots_empty_group_carveout_and_empty_token():
    from go_htmldate_ray.state.robots import allowed, parse_robots

    # the standard carve-out: named crawler gets an empty (allow-all)
    # group while * is locked down
    txt = "User-agent: mybot\nDisallow:\n\nUser-agent: *\nDisallow: /\n"
    mine = parse_robots(txt, agent="mybot/1.0")
    assert mine == []
    assert allowed("/anything", mine)
    other = parse_robots(txt, agent="otherbot")
    assert not allowed("/anything", other)

    # malformed empty User-agent token must not match every agent (and
    # must not hijack precedence over *)
    bad = "User-agent:\nDisallow: /secret/\n\nUser-agent: *\nAllow: /\n"
    rules = parse_robots(bad, agent="mybot")
    assert allowed("/secret/x", rules)


def test_robots_cache_uses_agent_groups():
    from go_htmldate_ray.state.robots import RobotsCache, allowed

    # loopback-free check: synthetic mode has only * groups, so behavior
    # is unchanged; the agent plumb-through is observable via a custom
    # http_base serving an agent-specific policy
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class H(BaseHTTPRequestHandler):
        def do_GET(self):
            body = (
                b"User-agent: go-htmldate-ray-crawler\nDisallow: /mine/\n\n"
                b"User-agent: *\nDisallow: /all/\n"
            )
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        cache = RobotsCache(
            http_base=f"http://127.0.0.1:{httpd.server_port}", timeout=5
        )
        rules = cache.get_rules(["h.org"])["h.org"]
        # the crawler's specific group applies; * is ignored
        assert not allowed("/mine/x", rules)
        assert allowed("/all/x", rules)
    finally:
        httpd.shutdown()


def test_oversized_frontier_raises_before_fetch(tmp_path, monkeypatch):
    """Each wave reads its frontier onto the driver: a frontier file whose
    uncompressed row groups exceed LIGHT_TABLE_BYTES raises ValueError
    naming the budget before anything is fetched or checkpointed."""
    import os

    from go_htmldate_ray.pipelines.crawl import crawl
    from go_htmldate_ray.stages import blocks

    monkeypatch.setattr(blocks, "LIGHT_TABLE_BYTES", 64)
    ckpt = str(tmp_path / "big")
    with pytest.raises(ValueError, match=r"crawl frontier .* 64-byte driver budget"):
        crawl(SF, checkpoint_dir=ckpt)
    assert os.listdir(ckpt) == ["frontier_0.parquet"]


_CANONICAL_PAGES = [
    # two canonical links, the first with a blank href
    (
        '<html><head><link rel="canonical" href="  ">'
        '<link rel="canonical" href=" https://e.org/2021/03/04/a.html ">'
        '</head><body><a href="https://x.org/p-1.html">1</a><a href="/rel">r</a>'
        '<p><a href="http://Y.org/%7Eq">q</a></p><a>none</a></body></html>',
        "https://e.org/2021/03/04/a.html",
    ),
    # the canonical link comes after the body anchors
    (
        '<html><body><a href="https://z.org/a">a</a><div><a href="mailto:x@y">m'
        '</a></div><link rel="canonical" href="https://e.org/2019/12/31/b.html">'
        "</body></html>",
        "https://e.org/2019/12/31/b.html",
    ),
    # no canonical link
    (
        '<html><head><link rel="stylesheet" href="s.css"></head><body>'
        '<a href="https://k.org/">k</a><a href="https://k.org/x#f">x</a></body></html>',
        "",
    ),
]


def test_canonical_url_and_outlinks_equal_tree_walk():
    """The tag-index lookups give the canonical URL and the outlink list
    a walk over every element gives, on crafted pages and on the
    synthetic crawl pages."""
    import pyarrow.parquet as pq

    from go_htmldate_ray import dom
    from go_htmldate_ray.extract import _canonical_url
    from go_htmldate_ray.pipelines.crawl import outlinks
    from go_htmldate_ray.sources.pages import build_page_html
    from go_htmldate_ray.state.urls import canonicalize

    def walk_canonical(tree):
        for el in tree.iter_elements():
            if el.tag == "link" and el.attr("rel") == "canonical":
                href = el.attr("href").strip()
                if href:
                    return href
        return ""

    def walk_links(tree):
        return [
            canonicalize(el.attr("href"))
            for el in tree.iter_elements()
            if el.tag == "a" and el.attr("href").startswith("http")
        ]

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text", "lang"]).slice(0, 20)
    synthetic = [
        build_page_html(i, text or "", lang or "en", 1000)
        for i, (text, lang) in enumerate(
            zip(docs.column("text").to_pylist(), docs.column("lang").to_pylist())
        )
    ]
    for html, want in _CANONICAL_PAGES:
        tree = dom.parse_html(html)
        assert _canonical_url(tree) == walk_canonical(tree) == want
        assert outlinks(tree) == walk_links(tree)
        assert outlinks(tree)
    for html in synthetic:
        tree = dom.parse_html(html)
        assert _canonical_url(tree) == walk_canonical(tree)
        assert outlinks(tree) == walk_links(tree)
        assert len(outlinks(tree)) == 2
