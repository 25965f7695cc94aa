"""Cascade-internals unit tests ported from the reference's Go tables
(core_test.go: Test_findTime, Test_findDate, Test_compareReference,
Test_selectCandidate, Test_searchPage, Test_searchPattern, plus the
ExtractTime integration block)."""

import re

import pytest

from go_htmldate_ray import Options, from_html
from go_htmldate_ray.extract import (
    YearCandidate,
    find_date,
    search_page,
    search_pattern,
    select_candidate,
)
from go_htmldate_ray.functions.kernels import compare_reference, find_time
from go_htmldate_ray.sources import reference_files
from go_htmldate_ray import dom


def _opts(**kw):
    return Options(**kw).with_defaults()


# --- findTime (core_test.go:714-782) ----------------------------------------

FIND_TIME_CASES = [
    ("12:00:00 +0000", "12:00", False),
    ("12:00:10 +0000", "12:00:10", False),
    ("12:00:10 +0000", "12:00:10.372", False),
    ("10:21:00 +0000", "10:21Z", True),
    ("10:21:40 +0000", "10:21:40Z", True),
    ("10:21:40 +0000", "10:21:40.462Z", True),
    ("16:14:00 +0200", "16:14+02:00", True),
    ("16:14:51 +0200", "16:14:51+02:00", True),
    ("16:14:51 +0200", "16:14:51.075+02:00", True),
    ("16:14:51 +0200", "16:14:51.075+0200", True),
    ("16:14:51 +0200", "16:14:51.075+02", True),
    ("07:08:00 +0000", "7:8", False),
    ("07:08:09 +0000", "7:8:9", False),
    ("07:08:00 +0000", "7:8 am", False),
    ("19:08:00 +0000", "7:8 pm", False),
    ("19:08:09 +0000", "7:8:9 pm", False),
    ("07:08:00 +0000", "7:8 a.m.", False),
    ("19:08:00 +0000", "7:8 p.m.", False),
    ("07:08:00 +0000", "07:08", False),
    ("07:08:09 +0000", "07:08:09", False),
    ("19:08:00 +0000", "07:08 pm", False),
    ("19:08:09 +0000", "07:08:09 p.m.", False),
    ("07:08:00 +0100", "07:08 a.m. +0100", True),
    ("07:08:09 +0100", "07:08:09 a.m. +0100", True),
    ("19:08:00 +0100", "07:08 p.m. +0100", True),
    ("19:08:09 +0100", "07:08:09 p.m. +0100", True),
    ("07:08:00 +0100", "07h08 a.m. +0100", True),
    ("19:08:00 +0100", "07h08 p.m. +0100", True),
]


@pytest.mark.parametrize("expected,s,tz_exists", FIND_TIME_CASES)
def test_find_time(expected, s, tz_exists):
    h, m, sec, tz, found = find_time(s)
    output = ""
    if found:
        offset = int(tz.utcoffset(None).total_seconds()) if tz else 0
        sign = "+" if offset >= 0 else "-"
        off = abs(offset)
        output = f"{h:02d}:{m:02d}:{sec:02d} {sign}{off // 3600:02d}{(off % 3600) // 60:02d}"
    assert output == expected, s
    assert (tz is not None) == tz_exists, s


# --- findDate URL precedence (core_test.go:784-810) --------------------------

def test_find_date_defer_url():
    html = """
    <html>
        <head><meta property="og:published_time" content="2017-09-01"/></head>
        <body></body>
    </html>"""
    url = "https://example.org/2017/08/30/this.html"
    doc1 = dom.parse_html(html)
    _, dt = find_date(doc1, _opts(url=url, defer_url_extractor=True))
    assert dt.strftime("%Y-%m-%d") == "2017-09-01"
    doc2 = dom.parse_html(html)
    _, dt = find_date(doc2, _opts(url=url, defer_url_extractor=False))
    assert dt.strftime("%Y-%m-%d") == "2017-08-30"


# --- compareReference (core_test.go:812-829) ---------------------------------

def test_compare_reference():
    opts = _opts()
    _, res = compare_reference("", 0, "AAAA", opts)
    assert res == 0
    _, res = compare_reference("", 1517500000, "2018-33-01", opts)
    assert res == 1517500000
    _, res = compare_reference("", 0, "2018-02-01", opts)
    assert 1517400000 < res < 1517500000
    _, res = compare_reference("", 1517500000, "2018-02-01", opts)
    assert res == 1517500000


# --- selectCandidate (core_test.go:831-876) ----------------------------------

def _candidates(*items):
    counts: dict[str, int] = {}
    order = []
    for item in items:
        if item not in counts:
            order.append(item)
            counts[item] = 0
        counts[item] += 1
    return [YearCandidate(p, counts[p], "") for p in order]


RX_YEAR4 = re.compile(r"^([0-9]{4})")
RX_CATCH = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")


def test_select_candidate():
    opts = _opts()

    cands = _candidates("20208956", "20208956", "20208956", "19018956",
                        "209561", "22020895607-12", "2-28")
    _, result = select_candidate(cands, RX_CATCH, RX_YEAR4, opts)
    assert not result

    cands = _candidates("2016-12-23", "2016-12-23", "2016-12-23", "2016-12-23",
                        "2017-08-11", "2016-07-12", "2017-11-28")
    _, result = select_candidate(cands, RX_CATCH, RX_YEAR4, opts)
    assert result[0] == "2017-11-28"

    opts_orig = _opts(use_original_date=True)
    _, result = select_candidate(cands, RX_CATCH, RX_YEAR4, opts_orig)
    assert result[0] == "2016-07-12"

    cands = _candidates("2116-12-23", "2116-12-23", "2116-12-23",
                        "2017-08-11", "2017-08-11")
    _, result = select_candidate(cands, RX_CATCH, RX_YEAR4, opts_orig)
    assert result[0] == "2017-08-11"
    _, result = select_candidate(cands, RX_CATCH, RX_YEAR4, opts)
    assert result[0] == "2017-08-11"

    cands = _candidates("2016-12-23", "2016-12-23", "2017-08-11",
                        "2017-08-11", "2017-08-11")
    _, result = select_candidate(cands, RX_CATCH, RX_YEAR4, opts)
    assert result[0] == "2016-12-23"


# --- searchPage (core_test.go:878-966) ---------------------------------------

def _search(html_string, **kw):
    _, dt = search_page(html_string, _opts(**kw))
    return dt.strftime("%Y-%m-%d") if dt else ""


SEARCH_PAGE_CASES = [
    ("<html><body><p>The date is 5/2010</p></body></html>", "2010-05-01", {}),
    ("<html><body><p>The date is 5.5.2010</p></body></html>", "2010-05-05", {}),
    ("<html><body><p>The date is 11/10/99</p></body></html>", "1999-10-11", {}),
    ("<html><body><p>The date is 3/3/11</p></body></html>", "2011-03-03", {}),
    ("<html><body><p>The date is 06.12.06</p></body></html>", "2006-12-06", {}),
    ("<html><body><p>The timestamp is 20140915D15:23H</p></body></html>", "2014-09-15", {}),
    ("<html><body><p>It could be 2015-04-30 or 2003-11-24.</p></body></html>", "2015-04-30", {}),
    ("<html><body><p>It could be 2015-04-30 or 2003-11-24.</p></body></html>", "2003-11-24",
     {"use_original_date": True}),
    ("<html><body><p>It could be 03/03/2077 or 03/03/2013.</p></body></html>", "2013-03-03", {}),
    ("<html><body><p>It could not be 03/03/2077 or 03/03/1988.</p></body></html>", "", {}),
    ("<html><body><p>© The Web Association 2013.</p></body></html>", "2013-01-01", {}),
    ("<html><body><p>Next © Copyright 2018</p></body></html>", "2018-01-01", {}),
    ("<html><body><p> © Company 2014-2019 </p></body></html>", "2019-01-01", {}),
    ("<html><body><p> &copy; Copyright 1999-2020 Asia Pacific Star. All rights reserved.</p></body></html>",
     "2020-01-01", {}),
    ('<html><head><link xmlns="http://www.w3.org/1999/xhtml"/></head></html>', "", {}),
    ('<html><body><link href="//homepagedesigner.telekom.de/.cm4all/res/static/beng-editor/5.1.98/css/deploy.css"/></body></html>', "", {}),
]


@pytest.mark.parametrize("html,expected,kw", SEARCH_PAGE_CASES)
def test_search_page(html, expected, kw):
    assert _search(html, **kw) == expected


@pytest.mark.skipif(not reference_files.available(), reason=reference_files.ABSENT)
def test_search_page_mock_file():
    raw = (reference_files.MOCK_DIR / "heimicke.de.zahlen.html").read_bytes()
    from go_htmldate_ray.dom import _decode

    assert _search(_decode(raw)) == "2019-04-06"


# --- searchPattern (core_test.go:968-1017) -----------------------------------

def test_search_pattern_yyyy_mm():
    # test-only pattern: \D([0-9]{4}[/.-][0-9]{2})\D
    finder = re.compile(r"\D([0-9]{4}[/.-][0-9]{2})(?:\D|$)")
    catch = re.compile(r"([0-9]{4})[/.-]([0-9]{2})")
    year = re.compile(r"^([12][0-9]{3})")
    opts = _opts()

    _, res = search_pattern("It happened on the 202.E.19, the day when it all began.", finder, catch, year, opts)
    assert not res
    _, res = search_pattern("The date is 2002.02.15.", finder, catch, year, opts)
    assert res and res[0] == "2002.02"
    _, res = search_pattern("http://www.url.net/index.html", finder, catch, year, opts)
    assert not res
    _, res = search_pattern("http://www.url.net/2016/01/index.html", finder, catch, year, opts)
    assert res and res[0] == "2016/01"


def test_search_pattern_mm_yyyy():
    finder = re.compile(r"\D([0-9]{2}[/.-][0-9]{4})(?:\D|$)")
    catch = re.compile(r"([0-9]{2})[/.-]([0-9]{4})")
    year = re.compile(r"([12][0-9]{3})$")
    opts = _opts()

    _, res = search_pattern("It happened on the 202.E.19, the day when it all began.", finder, catch, year, opts)
    assert not res
    _, res = search_pattern("It happened on the 15.02.2002, the day when it all began.", finder, catch, year, opts)
    assert res and res[0] == "02.2002"


def test_search_pattern_yyyy_only():
    finder = re.compile(r"\D(2[01][0-9]{2})(?:\D|$)")
    catch = re.compile(r"(2[01][0-9]{2})")
    year = re.compile(r"^(2[01][0-9]{2})")
    opts = _opts()

    _, res = search_pattern("It happened in the film 300.", finder, catch, year, opts)
    assert not res
    _, res = search_pattern("It happened in 2002.", finder, catch, year, opts)
    assert res and res[0] == "2002"


# --- ExtractTime integration (core_test.go:694-712) --------------------------

FOOL_CA_HTML = """<!doctype html>
<html lang="en-CA" class="no-js">
<head>
    <link rel="canonical" href="https://www.fool.ca/2022/10/20/3-stable-stocks-id-buy-if-the-market-tanks-further/" />
    <meta property="article:published_time" content="2022-10-20T18:45:00+00:00" />
    <meta property="article:modified_time" content="2022-10-20T18:35:08+00:00" />
</head>
<body class="post-template-default single single-post postid-1378278"> <span class="posted-on">Published <time class="entry-date published" datetime="2022-10-20T14:45:00-04:00">October 20, 2:45 pm EDT</time></span> </body>
</html>"""


def test_extract_time_integration():
    res = from_html(
        FOOL_CA_HTML,
        Options(extract_time=True, use_original_date=True, defer_url_extractor=True),
    )
    assert res.date_time.strftime("%Y-%m-%d %H:%M") == "2022-10-20 18:45"

    res = from_html(FOOL_CA_HTML, Options())
    assert res.date_time.strftime("%Y-%m-%d %H:%M") == "2022-10-20 00:00"


def test_src_stage_trace():
    """find_date_staged names the cascade stage that fired (the
    EnableLog-equivalent trace, core-options.go:44-45 / core.go:97)."""
    import go_htmldate_ray as ghr

    cases = [
        (b"<html><head><meta property='article:published_time' "
         b"content='2021-03-04T10:00:00Z'></head><body>x</body></html>", "meta"),
        (b"<html><body><abbr class='published' title='2019-08-05'>x</abbr>"
         b"</body></html>", "abbr"),
        (b"<html><body><p>Posted on 2019-05-02 by admin</p></body></html>",
         "free-text"),
        (b"<html><body>no date here at all</body></html>", ""),
    ]
    for html, stage in cases:
        r = ghr.from_html(html, ghr.Options(enable_log=True))
        assert r.src_stage == stage, (html, r.src_stage)


def test_src_stage_column_in_ray_stage():
    import pyarrow as pa
    from go_htmldate_ray.stages.extract_stage import HtmldateExtractor

    batch = pa.table(
        {
            "url": pa.array(["https://x.example.org/2020/01/02/a.html"]),
            "html": pa.array([b"<html><body>x</body></html>"], pa.binary()),
        }
    )
    out = HtmldateExtractor(return_trace=True)(batch)
    assert out.column("src_stage").to_pylist() == ["url"]
    out2 = HtmldateExtractor()(batch)
    assert "src_stage" not in out2.column_names


def test_custom_cascade_stage_hook():
    """SURVEY §2.9: user (name, fn) stages run ahead of the built-in
    cascade, hits validate against min/max and trace as custom:<name>."""
    from datetime import datetime, timezone

    import go_htmldate_ray as ghr

    def by_data_attr(doc, opts):
        for el in doc.iter_elements():
            v = el.attr("data-published")
            if v:
                try:
                    y, m, d = (int(x) for x in v.split("-"))
                    return v, datetime(y, m, d, tzinfo=timezone.utc)
                except ValueError:
                    pass
        return "", None

    html = (b"<html><head><meta property='article:published_time' "
            b"content='2021-03-04'></head>"
            b"<body><div data-published='2019-07-08'>x</div></body></html>")
    # custom stage wins over the meta scan
    r = ghr.from_html(html, ghr.Options(custom_stages=[("data-attr", by_data_attr)]))
    assert r.format() == "2019-07-08"
    assert r.src_stage == "custom:data-attr"
    # without the hook, the built-in cascade order is untouched
    r2 = ghr.from_html(html, ghr.Options())
    assert r2.format() == "2021-03-04" and r2.src_stage == "meta"
    # out-of-range custom hits are rejected by the validators
    from datetime import datetime as dt
    r3 = ghr.from_html(
        html,
        ghr.Options(custom_stages=[("data-attr", by_data_attr)],
                    min_date=dt(2020, 1, 1, tzinfo=timezone.utc)),
    )
    assert r3.format() == "2021-03-04"


# --- tryDiscard (extractors_test.go:28-34) -----------------------------------

def test_discard_unwanted():
    """The wm-ipp (Wayback toolbar) element is pruned before extraction;
    sibling content survives."""
    from go_htmldate_ray import dom
    from go_htmldate_ray.extract import discard_unwanted

    doc = dom.parse_html(
        b'<html><body><div id="wm-ipp">000</div><div>AAA</div></body></html>'
    )
    discard_unwanted(doc)
    text = doc.text_content()
    assert "AAA" in text and "000" not in text
