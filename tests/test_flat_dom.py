"""Differential tests for the flat, resumable document of ``dom.py``.

The reference is the linked ``Node`` tree that ``dom.parse_html`` built
before the document became flat, kept below as it was: one ``RefNode`` per
element, text run and comment, a child list per node, a per-tag index of
nodes, and pruning that unlinks nodes.

- A partly parsed document (``open_html``) must answer ``meta``, ``link``
  and ``script`` lookups with the elements a full parse finds: same tag,
  blob, source offset and text.  The generated pages put needles in
  comments, scripts and ``<body>``, in upper case and with U+212A KELVIN
  SIGN, and leave markup unterminated.  After the lookups the document
  must complete to the same page.
- The flat document's render, pruned render and multi-tag lists, and the
  date-selector and free-text scans of the cascade, must equal the tree's,
  on generated pages and on the perfbench pages.
"""

from __future__ import annotations

import re
from html import unescape

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import perfbench.inputs as I
from go_htmldate_ray import dom
from go_htmldate_ray.extract import (
    _CLASS_TOKENS,
    _str_or,
    clean_document,
    date_elements,
    discard_unwanted,
    find_date_staged,
    free_text_runs,
)
from go_htmldate_ray.functions import constants as C
from go_htmldate_ray.functions.kernels import Options

_SETTINGS = dict(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --- the reference: the linked tree ------------------------------------------

class RefNode:
    def __init__(self, type_: int, tag: str = "", data: str = ""):
        self.type = type_
        self.tag = tag
        self.blob = ""
        self.attrs = None
        self.children: list[RefNode] = []
        self.parent: RefNode | None = None
        self.data = data
        self.src_pos = None

    def append(self, child: "RefNode") -> None:
        child.parent = self
        self.children.append(child)

    def remove(self) -> None:
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    def attr_dict(self) -> dict[str, str]:
        if self.attrs is None:
            self.attrs = dom._parse_attrs(self.blob) if self.blob else {}
        return self.attrs

    def iter_elements(self):
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if node.type == dom.ELEMENT:
                yield node
                stack.extend(reversed(node.children))

    def by_tag(self, *tags: str) -> list["RefNode"]:
        return [e for e in self.iter_elements() if e.tag in tags]

    def text_content(self) -> str:
        if self.type != dom.ELEMENT:
            return self.data if self.type == dom.TEXT else ""
        return "".join(c.text_content() for c in self.children)

    def render(self) -> str:
        if self.type == dom.COMMENT:
            return f"<!--{self.data}-->"
        if self.type == dom.TEXT:
            if self.parent is not None and self.parent.tag in ("script", "style"):
                return self.data
            return dom._escape(self.data)
        if self.attrs is None:
            attrs = self.blob.rstrip()
        else:
            attrs = "".join(f' {k}="{dom._escape(v)}"' for k, v in self.attrs.items())
        if self.tag in dom.VOID_ELEMENTS and not self.children:
            return f"<{self.tag}{attrs}/>"
        return f"<{self.tag}{attrs}>{self.inner()}</{self.tag}>"

    def inner(self) -> str:
        return "".join(c.render() for c in self.children)


def ref_parse(content: bytes | str) -> RefNode:
    """The tree parser as it was: the same tokenizer regex, one node per
    token, children appended to the top of the open-element stack."""
    if isinstance(content, bytes):
        content = dom._decode(content)
    root = RefNode(dom.ELEMENT, "#document")
    stack = [root]
    pos, n = 0, len(content)

    def add_text(text: str, raw: bool = False) -> None:
        if text:
            if not raw and "&" in text:
                text = unescape(text)
            stack[-1].append(RefNode(dom.TEXT, data=text))

    while pos < n:
        m = dom._MARKUP.search(content, pos)
        if m is None:
            add_text(content[pos:])
            break
        start = m.start()
        if start > pos:
            add_text(content[pos:start])
        pos = m.end()
        last = m.lastindex
        if last == 8:
            tag = m.group(6).lower()
            implied = dom._IMPLIED_CLOSE.get(tag)
            if implied:
                while len(stack) > 1 and stack[-1].tag in implied:
                    stack.pop()
            node = RefNode(dom.ELEMENT, tag)
            node.src_pos = start
            blob = m.group(7)
            if blob and not blob.isspace():
                node.blob = blob
            stack[-1].append(node)
            if tag in dom.VOID_ELEMENTS:
                continue
            if m.group(8) == "/" and (
                tag in ("svg", "math") or any(a.tag in ("svg", "math") for a in stack)
            ):
                continue
            raw_end = dom._RAW_TEXT_END.get(tag)
            if raw_end is not None:
                em = raw_end.search(content, pos)
                end = em.start() if em else n
                stack.append(node)
                add_text(content[pos:end], raw=(tag in ("script", "style")))
                stack.pop()
                pos = em.end() if em else n
                continue
            stack.append(node)
        elif last == 5:
            tag = m.group(5).lower()
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
        elif last == 1:
            stack[-1].append(RefNode(dom.COMMENT, data=m.group(1)))
        elif last == 4:
            stack[-1].append(RefNode(dom.COMMENT, data="?" + m.group(4)))
        elif last == 2:
            stack[-1].append(RefNode(dom.COMMENT, data="[CDATA[" + m.group(2) + "]]"))

    if not any(c.type == dom.ELEMENT and c.tag == "html" for c in root.children):
        html = RefNode(dom.ELEMENT, "html")
        html.src_pos = 0  # no source of its own; the flat document says 0
        for child in list(root.children):
            child.remove()
            html.append(child)
        root.append(html)
    return root


def ref_prune(root: RefNode) -> None:
    """clean_document, then discard_unwanted, on the tree."""
    for node in root.by_tag(*C.CLEAN_TAGS):
        node.remove()
    for node in root.by_tag("div"):
        if node.attr_dict().get("id", "") in C.DISCARD_DIV_IDS:
            node.remove()


def ref_date_rule(el: RefNode) -> bool:
    attrs = el.attr_dict()
    id_, class_, itemprop = attrs.get("id", ""), attrs.get("class", ""), attrs.get("itemprop", "")
    id_class_item = _str_or(id_, class_, itemprop)
    id_class = _str_or(id_, class_)
    if "date" in id_class_item.replace("D", "d") or "datum" in id_class_item.replace("D", "d"):
        return True
    if "meta" in id_class.replace("M", "m"):
        return True
    if "time" in id_class or "publish" in id_class or "footer" in id_class:
        return True
    return _CLASS_TOKENS.search(class_) is not None


def ref_date_elements(root: RefNode, fast: bool) -> list[RefNode]:
    return [
        e for e in root.iter_elements()
        if e.tag in ("footer", "small")
        or ((not fast or e.tag in C.FAST_DATE_TAGS) and ref_date_rule(e))
    ]


def ref_free_text(root: RefNode) -> list[str]:
    return [
        c.data
        for e in root.iter_elements() if e.tag in C.FREE_TEXT_TAGS
        for c in e.children if c.type == dom.TEXT and c.data
    ]


def _key(el) -> tuple:
    blob = el._blob if isinstance(el, dom.Node) else el.blob
    return el.tag, blob, el.src_pos, el.text_content()


# --- generated pages ---------------------------------------------------------

_HEAD_PARTS = [
    '<meta charset="utf-8">', '<meta name="date" content="2020-01-02">',
    "<META NAME='Date' CONTENT=2019-03-04>", '<meta property="og:image" content="/a/2018/05/06/x.png"/>',
    '<link rel="canonical" href="https://e.org/a">', "<LINK REL=canonical HREF=/b>",
    "<linK rel=canonical href=/kelvin>", "<Key>", "<metadata>x</metadata>",
    '<script type="application/ld+json">{"datePublished": "2021-02-03"}</script>',
    "<SCRIPT type=application/ld+json>[{\"dateCreated\": \"2017-01-01\"}]</SCRIPT>",
    "<script>var s = '<meta name=x content=y>'; if (a < b) {}</script>",
    "<script>document.write('<script>')</script>", "<style>a > b {}</style>",
    "<title>a <meta> &amp; b</title>", "<textarea><link rel=x></textarea>",
    "<!-- <meta name='date' content='1999-01-01'> -->", "<!-- <script>x</script> -->",
    "<![CDATA[<meta name=c>]]>", "<?php <link ?>", "<!DOCTYPE html>", "<head>", "</head>",
    "<html>", "</html>", "<body>", "</body>", "<div>", "</div>", "<p>", "text &amp; more",
    "<svg><script/><meta/></svg>", "<math><style/>x</math>", "<meta/>", "<meta\n name=n>",
    "<span/>", "<li>", "<time datetime='2016-01-01'>", "</time>", "<footer>", "<small>x",
    "<div id='wm-ipp'>0</div>", "<iframe>f</iframe>", "<p class='byline date'>",
    "<a href='https://x.org/'>a</a>", "<meta", "<script", "<link href='",
    "<!-- unterminated", "<script>never closed", "<title>open", "<", "&", " ",
]
PAGES = st.lists(st.sampled_from(_HEAD_PARTS), max_size=24).map("".join)
LOOKUPS = st.lists(st.sampled_from(["meta", "link", "script", "title", "style"]), max_size=5)


@given(PAGES, LOOKUPS)
@settings(**_SETTINGS)
@example("<html><head><meta name=a content=b></head><body><meta name=c content=d>", ["meta"])
@example("<!-- <meta name=a> --><script><meta name=b></script>", ["meta", "script"])
@example("<linK rel=canonical href=/k><LINK rel=canonical href=/u>", ["link"])
@example("<meta name=a content='unterminated", ["meta", "link"])
@example("<script>x</script><p>t<script type=application/ld+json>{}", ["script"])
def test_partial_lookups_equal_full_parse(page, lookups):
    ref = ref_parse(page)
    doc = dom.open_html(page)
    for tag in lookups + ["meta", "link", "script"]:
        got = doc.get_elements_by_tag(tag)
        assert [_key(e) for e in got] == [_key(e) for e in ref.by_tag(tag)]
        assert not doc.done
    # resuming from wherever the lookups left the cursor gives the same page
    assert doc.inner_html() == ref.inner()
    assert [_key(e) for e in doc.iter_elements()] == [_key(e) for e in ref.iter_elements()]


def _assert_same(doc: dom.Document, ref: RefNode) -> None:
    assert doc.inner_html() == ref.inner()
    for tags in (("title", "h1"), ("p", "li", "td"), ("div",), ("html",), ("meta", "script")):
        assert [_key(e) for e in doc.get_elements_by_tag(*tags)] == [
            _key(e) for e in ref.by_tag(*tags)
        ]
    for fast in (True, False):
        assert [_key(e) for e in date_elements(doc, fast)] == [
            _key(e) for e in ref_date_elements(ref, fast)
        ]
    assert free_text_runs(doc) == ref_free_text(ref)


def _check_page(page) -> None:
    doc, ref = dom.parse_html(page), ref_parse(page)
    _assert_same(doc, ref)
    clean_document(doc)
    discard_unwanted(doc)
    ref_prune(ref)
    _assert_same(doc, ref)
    html = dom.query_first_element(doc, "html")
    ref_html = next(e for e in ref.iter_elements() if e.tag == "html")
    assert html.inner_html() == ref_html.inner()


@given(PAGES)
@settings(**_SETTINGS)
@example("")
@example("<div id=wm-ipp><svg><p>x</p></svg></div><p>y")
@example("text only &amp; more")
@example("<p>a<div>b</div>c</p><div id='wm-ipp-base'>z</div>")
def test_flat_document_equals_tree(page):
    _check_page(page)


def test_flat_document_equals_tree_on_perfbench_pages():
    """Deep and shallow perfbench pages, fresh and pruned, and after the
    cascade ran on a lazily opened copy."""
    from go_htmldate_ray.sources.pages import synthesize_pages_batch

    docs = I.make_documents(1, I.n_docs_for(0.1))
    deep, _ = I.make_deep_pages(1, docs, 2)
    shallow = synthesize_pages_batch(docs.select(["doc_id", "text", "lang"]), 50)
    pages = deep.column("html").to_pylist() + shallow.column("html").to_pylist()
    for extensive in (True, False):
        opts = Options(use_original_date=True, skip_extensive_search=not extensive).with_defaults()
        for page in pages:
            _check_page(page)
            doc = dom.open_html(page)
            find_date_staged(doc, opts)
            for tag in ("meta", "link", "script"):
                assert [_key(e) for e in doc.get_elements_by_tag(tag)] == [
                    _key(e) for e in ref_parse(page).by_tag(tag)
                ]


def test_node_views_are_cached():
    doc = dom.parse_html("<html><body><p class=a>x</p><p>y</p></body></html>")
    first = doc.get_elements_by_tag("p")
    assert first == doc.get_elements_by_tag("p") == [e for e in doc.iter_elements() if e.tag == "p"]
    assert first[0].parent is dom.query_first_element(doc, "body")
    assert first[0].children[0].parent is first[0]


def test_needles_cover_every_lowercase_spelling():
    """Every character whose ``str.lower()`` is an ASCII letter matches
    that letter under the needles' ``re.I``."""
    for cp in range(0x110000):
        low = chr(cp).lower()
        if len(low) == 1 and low.isascii() and low.isalpha():
            assert re.fullmatch(low, chr(cp), re.I), hex(cp)
