"""Differential tests for the DOM kernels of the extensive cascade.

- ``date_rule`` first asks the raw attribute blob whether any attribute
  value can hold one of its literals (``Node.attrs_lack``) and skips the
  attribute parse when none can.  It must return what the ungated rule
  (kept below as the reference) returns, and it must leave the serialized
  page unchanged: a node the gate leaves unparsed renders its raw blob,
  where a parsed node renders its parsed attributes.
- ``_render`` walks the tree in one loop; it must write exactly what the
  recursive renderer (kept below as the reference) writes.
- ``get_elements_by_tag`` merges several tags' index lists by element
  id; the order must be the document order of a full walk.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import perfbench.inputs as I
from go_htmldate_ray import dom
from go_htmldate_ray.extract import _CLASS_TOKENS, _str_or, date_rule, find_date_staged
from go_htmldate_ray.functions.kernels import Options

_SETTINGS = dict(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_date_rule(el: dom.Node) -> bool:
    """The rule without the blob gate (selector/date.go:62-97)."""
    id_ = el.id
    class_ = el.class_name
    itemprop = el.attr("itemprop")

    id_class_item = _str_or(id_, class_, itemprop)
    id_class = _str_or(id_, class_)

    lowered_d = id_class_item.replace("D", "d")
    if "date" in lowered_d or "datum" in lowered_d:
        return True
    if "meta" in id_class.replace("M", "m"):
        return True
    if "time" in id_class or "publish" in id_class or "footer" in id_class:
        return True
    return _CLASS_TOKENS.search(class_) is not None


def reference_render(node: dom.Node) -> str:
    """The recursive renderer the one-loop ``dom._render`` replaced."""
    if node.type == dom.COMMENT:
        return f"<!--{node.data}-->"
    if node.type == dom.TEXT:
        if node.parent is not None and node.parent.tag in ("script", "style"):
            return node.data
        return dom._escape(node.data)
    if node._attrs is None:
        attrs = node._blob.rstrip()
    else:
        attrs = "".join(f' {k}="{dom._escape(v)}"' for k, v in node._attrs.items())
    if node.tag in dom.VOID_ELEMENTS and not node.children:
        return f"<{node.tag}{attrs}/>"
    inner = "".join(reference_render(c) for c in node.children)
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


def reference_inner_html(node: dom.Node) -> str:
    return "".join(reference_render(c) for c in node.children)


_CLASS_LITERALS = _CLASS_TOKENS.pattern.replace("\\", "").split("|")

_VALUE_PARTS = [
    "date", "Date", "DATE", "dAte", "datum", "Datum", "meta", "Meta", "META",
    "time", "Time", "publish", "footer", "&#100;ate", "&#68;ate", "d&#97;te",
    "&amp;", "&lt;", "&quot;", "x", "-", " ", "  ", "=", "<", ">", "'", '"',
    "pub", "lish", "da", "te", "é", *_CLASS_LITERALS,
]
_NAMES = ["id", "class", "itemprop", "ID", "Class", "ITEMPROP", "title", "data-x", "x:y"]


@st.composite
def _attribute(draw):
    name = draw(st.sampled_from(_NAMES))
    value = "".join(draw(st.lists(st.sampled_from(_VALUE_PARTS), max_size=4)))
    quote = draw(st.sampled_from(['"', "'", ""]))
    if quote and quote in value:
        quote = ""
    if not quote:
        value = value.replace(" ", "").replace(">", "").replace('"', "").replace("'", "")
    sep = draw(st.sampled_from([" ", " ", "  ", "\n", "\t"]))
    eq = draw(st.sampled_from(["=", "=", " = "]))
    if not value and not quote:
        return f"{sep}{name}"
    return f"{sep}{name}{eq}{quote}{value}{quote}"


BLOBS = st.builds(
    lambda attrs, tail: "".join(attrs) + tail,
    st.lists(_attribute(), max_size=4),
    st.sampled_from(["", " ", "  ", "\n"]),
)
TAGS = st.sampled_from(["div", "span", "p", "li", "time", "small", "footer", "img", "a"])


def _element_pair(tag: str, blob: str) -> tuple[dom.Node, dom.Node]:
    """Two separate parses of one element: one for the rule under test, one
    for the reference."""
    html = f"<html><body><{tag}{blob}>x</{tag}><p>y</p></body></html>"
    return tuple(dom.parse_html(html).get_elements_by_tag(tag)[0] for _ in range(2))


def _page(el: dom.Node) -> str:
    while el.parent is not None:
        el = el.parent
    return el.inner_html()


@given(TAGS, BLOBS, st.sampled_from(["none", "parsed", "assigned"]))
@settings(**_SETTINGS)
@example("div", ' class="date"', "none")
@example("div", ' class="&#100;ate"', "none")
@example("div", ' id="x" id="meta"', "none")
@example("div", ' class="a" class="b"', "none")
@example("span", ' ID="Date"', "none")
@example("span", " class='byline'", "none")
@example("span", ' Class="x"', "none")  # names render lowercased
@example("span", ' class="x" ', "none")
@example("div", ' class="x"', "assigned")
def test_date_rule_gate_equals_reference(tag, blob, state):
    got_el, ref_el = _element_pair(tag, blob)
    if state == "parsed":
        got_el.attrs, ref_el.attrs  # noqa: B018  (parse before the rule)
    elif state == "assigned":  # attributes set directly; the blob is stale
        got_el.attrs = {"class": "publish-date"}
        ref_el.attrs = {"class": "publish-date"}
    assert date_rule(got_el) == reference_date_rule(ref_el)
    # Whether the gate parsed or not, the page serializes the same.
    assert _page(got_el) == _page(ref_el)


# Every spelling the reference rule accepts, in every attribute it reads.
_RULE_LITERALS = [
    "date", "Date", "datum", "Datum", "meta", "Meta", "time", "publish",
    "footer", *_CLASS_LITERALS,
]


@given(BLOBS)
@settings(**_SETTINGS)
def test_every_rule_literal_passes_the_gate(blob):
    for literal in _RULE_LITERALS:
        for name in ("id", "class", "itemprop"):
            got_el, ref_el = _element_pair("div", f' {name}="a{literal}b"' + blob)
            assert date_rule(got_el) == reference_date_rule(ref_el)
            assert _page(got_el) == _page(ref_el)


_MARKUP_PARTS = [
    "<div>", "</div>", "<p class='a'>", "<p>", "</p>", "<span id=x>", "</span>",
    "<br>", "<br/>", "<img src=\"a.png\">", "<svg><path/></svg>", "<script>",
    "if (a < b && c) {}", "</script>", "<style>p > a {}</style>", "<!-- c -->",
    "<![CDATA[x]]>", "<?php x ?>", "<!DOCTYPE html>", "text", " & ", "<", ">",
    '"q"', "'", "é", "<title>a < b</title>", "<textarea>x</textarea>", "<li>",
    "<ul>", "</ul>", "<table><tr><td>1<td>2</table>", "<a href=\"?a=1&amp;b=2\">",
    "</a>", "<footer>", "</footer>", "<h1>", "</h1>",
]
MARKUP = st.lists(st.sampled_from(_MARKUP_PARTS), max_size=30).map("".join)


@given(MARKUP, st.booleans())
@settings(**_SETTINGS)
def test_render_equals_reference(markup, parse_attrs):
    doc = dom.parse_html(markup)
    if parse_attrs:
        for el in doc.iter_elements():
            el.attrs  # noqa: B018
    assert doc.inner_html() == reference_inner_html(doc)
    for el in doc.iter_elements():
        assert el.outer_html() == reference_render(el)
        assert el.inner_html() == reference_inner_html(el)


@given(MARKUP)
@settings(**_SETTINGS)
def test_tags_in_document_order(markup):
    doc = dom.parse_html(markup)
    for tags in (("title", "h1"), ("p", "li", "td"), ("div",)):
        walk = [e for e in doc.iter_elements() if e.tag in tags]
        assert doc.get_elements_by_tag(*tags) == walk


def _perfbench_pages():
    from go_htmldate_ray.sources.pages import synthesize_pages_batch

    docs = I.make_documents(1, I.n_docs_for(0.1))
    deep, _ = I.make_deep_pages(1, docs, 2)
    shallow = synthesize_pages_batch(docs.select(["doc_id", "text", "lang"]), 50)
    return deep.column("html").to_pylist() + shallow.column("html").to_pylist()


def test_render_and_order_on_perfbench_pages():
    """Deep and shallow perfbench pages: fresh, after the cascade has
    parsed some attributes and pruned the tree, and every attribute
    parsed."""
    opts = Options(use_original_date=True, skip_extensive_search=False).with_defaults()
    for html in _perfbench_pages():
        doc = dom.parse_html(html)
        assert doc.inner_html() == reference_inner_html(doc)
        find_date_staged(doc, opts)
        assert doc.inner_html() == reference_inner_html(doc)
        walk = [e for e in doc.iter_elements() if e.tag in ("title", "h1")]
        assert doc.get_elements_by_tag("title", "h1") == walk
        for el in doc.iter_elements():
            el.attrs  # noqa: B018
        assert doc.inner_html() == reference_inner_html(doc)
