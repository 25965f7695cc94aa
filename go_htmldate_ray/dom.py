"""Resumable, flat HTML document for the extraction cascade.

The reference engine parses documents with a WHATWG parser
(golang.org/x/net/html via go-shiori/dom, /root/reference/core.go:48-56).
No HTML parser library ships in this environment, so this module tokenizes
with one compiled regex and keeps the error-recovery behaviours the
extraction cascade depends on: implicit closes for misnested tags, void
elements, script/style raw text, and serialization for the string-search
stages.

A ``Document`` is flat.  Each element, text run and comment is one entry,
in document order, of parallel lists: kind, tag, parent, subtree end,
source offset, and data (the text, the comment, or an element's raw
attribute blob).  A node's subtree is the run of entries from the node up
to its end, so walks, text and render are index scans.  Per-tag lists of
element ids, in document order, index the tags.  Index 1 is reserved for
the ``<html>`` wrapper that completion adds when the page has no top-level
``<html>`` element.  A ``Node`` is a view (document, index), built only for
a node that a caller touches and cached per index, so the same node is
always the same object.  Pruning sets removed flags instead of unlinking.

The tokenizer is resumable: the document holds the source, the cursor and
the open-element stack, and only moves forward, so where it pauses does
not change what it builds.  ``parse_html`` runs it to the end.
``open_html`` starts it lazily, and the document parses only as far as
its lookups read:

- a lookup of self-contained elements (void tags such as ``meta`` and
  ``link``, and the raw-text tags ``script``, ``style``, ``title`` and
  ``textarea``) parses until the rest of the source holds no ``<tag``
  needle.  The needle search ignores case, so it may over-report (a hit
  in a comment or a script only parses further) but never under-report.
  Such a lookup, and the attributes, text and render of the closed
  elements it returns, leave the document incomplete;
- every other access completes the parse first: children, walks, other
  tags, parents of top-level nodes, pruning, and the render of an open
  element or of the document.

The extensive cascade visits every element, so the per-element work is
kept to what a stage can use:

- attributes parse lazily from the raw tag blob, and ``attrs_lack``
  answers "can any value hold one of these literals?" from the blob alone
  when parsing it would change nothing the page serializes to;
- several tags' lists merge by element id, which is document order;
- ``_render`` serializes a subtree in one loop into one list.
"""

from __future__ import annotations

import re
from html import unescape as _unescape
from typing import Iterator, Optional

ELEMENT = 0
TEXT = 1
COMMENT = 2

VOID_ELEMENTS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
})

# Tags whose opening implicitly closes an open element of the listed tags.
_IMPLIED_CLOSE = {
    "p": {"p"},
    "li": {"li"},
    "dt": {"dd", "dt"},
    "dd": {"dd", "dt"},
    "tr": {"tr", "td", "th"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "option": {"option"},
    "optgroup": {"option", "optgroup"},
}

_FOREIGN = ("svg", "math")
_RAW_TEXT = ("script", "style")  # text kept verbatim, never unescaped

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&#34;", "'": "&#39;"}


def _escape(s: str) -> str:
    if "&" in s or "<" in s or ">" in s or '"' in s or "'" in s:
        for ch, rep in _ESCAPES.items():
            s = s.replace(ch, rep)
    return s


# Single-pass tokenizer: one compiled regex finds every markup construct;
# the gaps between matches are text nodes.  ~8× faster than the stdlib
# html.parser, which dominated the extraction profile.
_MARKUP = re.compile(
    r"<!--(.*?)(?:-->|\Z)"                # 1: comment
    r"|<!\[CDATA\[(.*?)(?:\]\]>|\Z)"      # 2: CDATA (→ bogus comment)
    r"|<!([^>]*)>"                         # 3: declaration (dropped)
    r"|<\?([^>]*)>"                        # 4: processing instruction
    r"|</([a-zA-Z][^\s>]*)\s*>"            # 5: end tag
    r"|<([a-zA-Z][^\s/>]*)"                # 6: start tag name
    # 7: attr blob — quoted sections bind only after '=', so a stray quote
    # (e.g. charset="utf-8" inside an already-quoted value) cannot swallow
    # markup past the tag close, matching HTML5 tokenizer recovery.
    r"((?:=\s*\"[^\"]*\"|=\s*'[^']*'|[^>])*?)"
    r"(/?)>",                              # 8: self-closing slash
    re.S,
)
_ATTR = re.compile(
    r"([^\s=/>]+)(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]*)))?"
)
# A blob that _parse_attrs reads value for value and _render writes back
# unchanged: ` name="value"` pairs, lowercase names, values that need
# neither unescaping nor escaping (checked for duplicate names apart).
_PLAIN_NAME = re.compile(r' ([a-z][-a-z0-9_:.]*)="')
_PLAIN_BLOB = re.compile(r'(?: [a-z][-a-z0-9_:.]*="[^"&<>\']*")* *')
_RAW_TEXT_END = {
    "script": re.compile(r"</script\s*>", re.I),
    "style": re.compile(r"</style\s*>", re.I),
    "textarea": re.compile(r"</textarea\s*>", re.I),
    "title": re.compile(r"</title\s*>", re.I),
}

# Elements whose whole subtree is built when their start tag is read: a
# lookup of these tags may stop parsing after the last start tag.
SELF_CONTAINED = VOID_ELEMENTS | frozenset(_RAW_TEXT_END)
# What a start tag opens: nothing (void), raw text up to the end tag the
# pattern finds, or (absent) an element that stays open.
_VOID = True
_CONTENT: dict[str, object] = {**dict.fromkeys(VOID_ELEMENTS, _VOID), **_RAW_TEXT_END}
# "<tag" needles.  A start tag's name is matched by ``str.lower()``, which
# maps only ASCII letters and U+212A KELVIN SIGN to ASCII; ``re.I`` matches
# both (and a few more letters, which only over-report).
_NEEDLES = {tag: re.compile("<" + tag, re.I) for tag in SELF_CONTAINED}


def _parse_attrs(blob: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for m in _ATTR.finditer(blob):
        name = m.group(1).lower()
        if name in attrs:
            continue
        val = m.group(2) or m.group(3) or m.group(4) or ""
        if "&" in val:
            val = _unescape(val)
        attrs[name] = val
    return attrs


class Node:
    """View of one node of a ``Document``.  Nodes are made by the
    document, one per index (``Document.node``)."""

    __slots__ = ("doc", "i")

    def __init__(self, doc: "Document", i: int):
        self.doc = doc
        self.i = i

    @property
    def type(self) -> int:
        return self.doc.kinds[self.i]

    @property
    def tag(self) -> str:
        return self.doc.names[self.i]

    @property
    def data(self) -> str:
        """Text of a text node or comment; "" for an element."""
        doc = self.doc
        return doc.texts[self.i] if doc.kinds[self.i] != ELEMENT else ""

    @property
    def src_pos(self) -> int:
        """Offset of the node's start in the parsed source."""
        return self.doc.starts[self.i]

    @property
    def _blob(self) -> str:
        doc = self.doc
        return doc.texts[self.i] if doc.kinds[self.i] == ELEMENT else ""

    @property
    def _attrs(self) -> Optional[dict[str, str]]:
        return self.doc.parsed.get(self.i)

    # --- attribute access ---------------------------------------------------
    # Attributes parse lazily from the raw tag blob: ~800 attr blobs per
    # document, most never inspected (meta-stage exits touch only a few).
    @property
    def attrs(self) -> dict[str, str]:
        return self.doc.attrs_of(self.i)

    @attrs.setter
    def attrs(self, value: dict[str, str]) -> None:
        self.doc.parsed[self.i] = value

    def attr(self, name: str) -> str:
        return self.doc.attrs_of(self.i).get(name, "")

    def attrs_lack(self, literals: re.Pattern) -> bool:
        """True when no attribute value can contain a match of ``literals``
        (``Document.attrs_lack``).  False means "parse and look"."""
        return self.doc.attrs_lack(self.i, literals)

    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    @property
    def class_name(self) -> str:
        return self.attrs.get("class", "")

    # --- tree ---------------------------------------------------------------
    @property
    def parent(self) -> Optional["Node"]:
        doc, i = self.doc, self.i
        if i == 0 or i in doc.cut:
            return None
        p = doc.parents[i]
        if p == 0 and not doc.done:  # completion may wrap it in <html>
            doc._complete()
            p = doc.parents[i]
        return doc.node(p)

    @property
    def children(self) -> list["Node"]:
        doc = self.doc
        ends = doc.ends
        cut = doc.cut
        j, stop = doc._span(self.i)
        out = []
        while j < stop:
            if j not in cut:
                out.append(doc.node(j))
            j = ends[j]
        return out

    def remove(self) -> None:
        self.doc.prune((self.i,))

    def iter_elements(self) -> Iterator["Node"]:
        """All descendant elements in document order (excluding self)."""
        doc = self.doc
        kinds, ends, cut = doc.kinds, doc.ends, doc.cut
        j, stop = doc._span(self.i)
        while j < stop:
            if j in cut:
                j = ends[j]
                continue
            if kinds[j] == ELEMENT:
                yield doc.node(j)
            j += 1

    def get_elements_by_tag(self, *tags: str) -> list["Node"]:
        node = self.doc.node
        return [node(j) for j in self.doc.ids_by_tag(tags, self.i)]

    def text_content(self) -> str:
        """Concatenated text of the subtree (dom.TextContent semantics)."""
        doc = self.doc
        i = self.i
        kind = doc.kinds[i]
        if kind != ELEMENT:
            return doc.texts[i] if kind == TEXT else ""
        kinds, texts = doc.kinds, doc.texts
        j, stop = doc._span(i)
        if not doc.cut:
            return "".join([texts[k] for k in range(j, stop) if kinds[k] == TEXT])
        ends, cut = doc.ends, doc.cut
        parts: list[str] = []
        while j < stop:
            if j in cut:
                j = ends[j]
                continue
            if kinds[j] == TEXT:
                parts.append(texts[j])
            j += 1
        return "".join(parts)

    def etree_text(self) -> str:
        """Text before the first element child (utils.go:110-125)."""
        doc = self.doc
        kinds, texts, ends, cut = doc.kinds, doc.texts, doc.ends, doc.cut
        j, stop = doc._span(self.i)
        parts: list[str] = []
        while j < stop:
            if j not in cut:
                kind = kinds[j]
                if kind == ELEMENT:
                    break
                if kind == TEXT:
                    parts.append(texts[j])
            j = ends[j]
        return "".join(parts)

    def inner_html(self) -> str:
        out: list[str] = []
        j, stop = self.doc._span(self.i)
        _render(self.doc, j, stop, out, self.doc.cut)
        return "".join(out)

    def outer_html(self) -> str:
        doc, i = self.doc, self.i
        if i == 0:  # the root's run starts past the unused wrapper
            return f"<#document>{self.inner_html()}</#document>"
        out: list[str] = []
        doc._span(i)
        _render(doc, i, doc.ends[i], out, doc.cut - {i})
        return "".join(out)


class Document(Node):
    """A parsed page, flat, and its root node (``#document``, index 0).
    Made by ``parse_html`` (complete) or ``open_html`` (lazy)."""

    __slots__ = (
        "src", "pos", "open", "done", "head", "kinds", "names", "parents",
        "ends", "starts", "texts", "by_tag", "parsed", "views", "cut", "gone",
    )

    def __init__(self, content: bytes | str):
        if isinstance(content, (bytes, bytearray, memoryview)):
            content = _decode(bytes(content))
        self.doc = self
        self.i = 0
        self.src = content
        self.pos = 0          # tokenizer cursor
        self.open = [0]       # open-element stack, ids
        self.done = False     # parse complete
        self.head = 2         # first root child: 1 once the wrapper is in use
        # index 0: the root; index 1: the <html> wrapper, unused until
        # completion needs it.  -1 marks the end of a still-open element.
        self.kinds = [ELEMENT, ELEMENT]
        self.names = ["#document", "html"]
        self.parents = [-1, 0]
        self.ends = [-1, 2]
        self.starts = [0, 0]
        self.texts = ["", ""]
        self.by_tag: dict[str, list[int]] = {}
        self.parsed: dict[int, dict[str, str]] = {}  # id → parsed attributes
        self.views: dict[int, Node] = {0: self}
        self.cut: set[int] = set()   # roots of removed subtrees
        self.gone: Optional[bytearray] = None  # removed flag per node, once pruned

    def node(self, i: int) -> Node:
        view = self.views.get(i)
        if view is None:
            view = self.views[i] = Node(self, i)
        return view

    # --- tokenizer ----------------------------------------------------------
    def _advance(self, limit: int) -> None:
        """Tokenize while the cursor is at or before ``limit``."""
        src = self.src
        n = len(src)
        pos = self.pos
        kinds, names, parents = self.kinds, self.names, self.parents
        ends, starts, texts = self.ends, self.starts, self.texts
        by_tag = self.by_tag
        stack = self.open
        while pos <= limit and pos < n:
            # One scan runs until a raw-text element moves the cursor past
            # its text, or the cursor passes ``limit``.
            for m in _MARKUP.finditer(src, pos):
                start, end = m.span()
                if start > pos:
                    text = src[pos:start]
                    if "&" in text:
                        text = _unescape(text)
                    ends.append(len(kinds) + 1)
                    kinds.append(TEXT)
                    names.append("")
                    parents.append(stack[-1])
                    starts.append(pos)
                    texts.append(text)
                pos = end

                # Dispatch on the highest participating group: 8 = start
                # tag (the optional "/" group always participates), 5 = end
                # tag, 1/2/3/4 = comment/CDATA/declaration/PI.
                last = m.lastindex
                if last == 8:  # start tag
                    tag, blob, slash = m.group(6, 7, 8)
                    if not tag.islower():  # skip the copy for already-lower tags
                        tag = tag.lower()
                    implied = _IMPLIED_CLOSE.get(tag)
                    if implied:
                        while len(stack) > 1 and names[stack[-1]] in implied:
                            ends[stack.pop()] = len(kinds)
                    i = len(kinds)
                    kinds.append(ELEMENT)
                    names.append(tag)
                    parents.append(stack[-1])
                    starts.append(start)
                    texts.append(blob if blob and not blob.isspace() else "")
                    ids = by_tag.get(tag)
                    if ids is None:
                        by_tag[tag] = [i]
                    else:
                        ids.append(i)
                    content = _CONTENT.get(tag)
                    if content is _VOID or slash and (
                        tag in _FOREIGN or any(names[a] in _FOREIGN for a in stack)
                    ):
                        # WHATWG parsing (used by the reference via
                        # golang.org/x/net/html) ignores the self-closing
                        # slash on non-void HTML tags — <span/>x</span> nests
                        # x inside the span.  Only foreign content (SVG/MathML)
                        # honors it.
                        ends.append(i + 1)
                    elif content is None:
                        ends.append(-1)
                        stack.append(i)
                    else:  # raw text, up to the end tag
                        ends.append(-1)
                        em = content.search(src, pos)
                        end = em.start() if em else n
                        if end > pos:
                            text = src[pos:end]
                            if tag not in _RAW_TEXT and "&" in text:
                                text = _unescape(text)
                            ends.append(i + 2)
                            kinds.append(TEXT)
                            names.append("")
                            parents.append(i)
                            starts.append(pos)
                            texts.append(text)
                        ends[i] = len(kinds)
                        pos = em.end() if em else n
                        break
                elif last == 5:  # end tag
                    tag = m.group(5)
                    if not tag.islower():
                        tag = tag.lower()
                    if names[stack[-1]] == tag and len(stack) > 1:
                        ends[stack.pop()] = len(kinds)
                    else:
                        for k in range(len(stack) - 2, 0, -1):
                            if names[stack[k]] == tag:
                                end = len(kinds)
                                for e in stack[k:]:
                                    ends[e] = end
                                del stack[k:]
                                break
                        # unmatched end tag: ignore (error recovery)
                elif last != 3:  # comment, PI or CDATA; declarations are dropped
                    # Comments stay in the document: the reference keeps
                    # them (utils.go:36-38) and the serialized-HTML regex
                    # stages (core.go:212-227) must see comment content.
                    if last == 1:
                        data = m.group(1)
                    elif last == 4:
                        data = "?" + m.group(4)
                    else:  # CDATA → bogus comment
                        data = "[CDATA[" + m.group(2) + "]]"
                    ends.append(len(kinds) + 1)
                    kinds.append(COMMENT)
                    names.append("")
                    parents.append(stack[-1])
                    starts.append(start)
                    texts.append(data)
                if pos > limit:
                    break
            else:  # no markup left: the rest is one text run
                if pos < n:
                    text = src[pos:]
                    if "&" in text:
                        text = _unescape(text)
                    ends.append(len(kinds) + 1)
                    kinds.append(TEXT)
                    names.append("")
                    parents.append(stack[-1])
                    starts.append(pos)
                    texts.append(text)
                pos = n
        self.pos = pos

    def _complete(self) -> None:
        """Parse to the end, close what is open, and wrap the top level in
        the ``<html>`` element when the page has none there."""
        if self.done:
            return
        self._advance(len(self.src))
        ends = self.ends
        n = len(ends)
        for e in self.open:
            ends[e] = n
        self.open = [0]
        self.done = True
        # The serialized-string stages (core.go:212-219) need an <html>
        # element wrapping the content.
        kinds, names = self.kinds, self.names
        j = 2
        while j < n:
            if kinds[j] == ELEMENT and names[j] == "html":
                return
            j = ends[j]
        parents = self.parents
        j = 2
        while j < n:
            parents[j] = 1
            j = ends[j]
        ends[1] = n
        self.head = 1
        self.by_tag.setdefault("html", []).insert(0, 1)

    def _span(self, i: int) -> tuple[int, int]:
        """First and end index of the nodes under ``i``, completing the
        parse when ``i`` is still open."""
        end = self.ends[i]
        if end < 0:
            self._complete()
            end = self.ends[i]
        return (i + 1 if i else self.head), end

    def _reach(self, tag: str) -> None:
        """Parse past the last place a ``tag`` start tag could begin."""
        last = None
        for last in _NEEDLES[tag].finditer(self.src, self.pos):
            pass
        if last is not None:
            self._advance(last.start())

    # --- lookups ------------------------------------------------------------
    def ids_by_tag(self, tags: tuple[str, ...], under: int = 0) -> list[int]:
        """Ids of the elements under ``under`` (not removed from it) whose
        tag is one of ``tags``, in document order."""
        if not self.done:
            if under or not SELF_CONTAINED.issuperset(tags):
                self._complete()
            else:
                for tag in tags:
                    self._reach(tag)
        by_tag = self.by_tag
        if len(tags) == 1:
            ids = by_tag.get(tags[0], ())
        else:
            ids = []
            for tag in tags:
                found = by_tag.get(tag)
                if found:
                    if ids:
                        ids = sorted(ids + found)
                    else:
                        ids = found
        gone = self.gone
        if under:
            if gone is not None and gone[under]:  # a removed subtree: walk it
                tagset = frozenset(tags)
                return [e.i for e in self.node(under).iter_elements() if e.tag in tagset]
            stop = self.ends[under]
            ids = [j for j in ids if under < j < stop]
        if gone is not None:
            return [j for j in ids if not gone[j]]
        return list(ids)

    def element_ids(self) -> list[int]:
        """Ids of every element in the document, in document order."""
        self._complete()
        kinds, gone = self.kinds, self.gone
        if gone is None:
            return [j for j in range(self.head, len(kinds)) if kinds[j] == ELEMENT]
        return [j for j in range(self.head, len(kinds)) if kinds[j] == ELEMENT and not gone[j]]

    def text_ids(self) -> list[int]:
        """Ids of every text node in the document, in document order."""
        self._complete()
        kinds, gone = self.kinds, self.gone
        if gone is None:
            return [j for j in range(self.head, len(kinds)) if kinds[j] == TEXT]
        return [j for j in range(self.head, len(kinds)) if kinds[j] == TEXT and not gone[j]]

    def attrs_of(self, i: int) -> dict[str, str]:
        attrs = self.parsed.get(i)
        if attrs is None:
            blob = self.texts[i] if self.kinds[i] == ELEMENT else ""
            attrs = self.parsed[i] = _parse_attrs(blob) if blob else {}
        return attrs

    def attrs_lack(self, i: int, literals: re.Pattern) -> bool:
        """True when no attribute value of element ``i`` can contain a
        match of ``literals``, decided from the raw blob without parsing
        it.  That holds for a plain blob: unparsed, with every value
        verbatim (no ``&`` entity) and rendering back to itself, so leaving
        it unparsed does not change the serialized page.  False means
        "parse and look"."""
        if i in self.parsed:
            return False
        blob = self.texts[i] if self.kinds[i] == ELEMENT else ""
        if not blob:
            return True
        if literals.search(blob) is not None or not _PLAIN_BLOB.fullmatch(blob):
            return False
        if blob.count("=") > 1:  # duplicate names render only once
            names = _PLAIN_NAME.findall(blob)
            return len(names) == len(set(names))
        return True

    # --- pruning ------------------------------------------------------------
    def prune(self, ids) -> None:
        """Remove the subtrees of ``ids`` from the document."""
        if not ids:
            return
        self._complete()
        gone = self.gone
        if gone is None:
            gone = self.gone = bytearray(len(self.kinds))
            gone[1] = self.head == 2  # the unused wrapper is never found
        ends, cut = self.ends, self.cut
        for i in ids:
            if i:
                cut.add(i)
                gone[i:ends[i]] = b"\x01" * (ends[i] - i)


def _render(doc: Document, j: int, stop: int, out: list[str], cut) -> None:
    """Append the serialization of the nodes ``j`` to ``stop`` (a run of
    whole subtrees) to ``out``, skipping the removed subtrees in ``cut``.
    One loop walks the run; a stack holds the end index and end tag of
    each open element."""
    append = out.append
    kinds, names, parents = doc.kinds, doc.names, doc.parents
    ends, texts, parsed = doc.ends, doc.texts, doc.parsed
    pending: list[tuple[int, str]] = []
    close_at = -1
    while True:
        while j == close_at:
            append(pending.pop()[1])
            close_at = pending[-1][0] if pending else -1
        if j >= stop:
            return
        if j in cut:
            j = ends[j]
            continue
        kind = kinds[j]
        if kind == TEXT:
            if names[parents[j]] in _RAW_TEXT:
                append(texts[j])
            else:
                append(_escape(texts[j]))
        elif kind == COMMENT:
            append(f"<!--{texts[j]}-->")
        else:
            attrs = parsed.get(j)
            if attrs is None:
                attrs = texts[j].rstrip()  # raw blob verbatim: cheaper, and
                # the string-search stages see the author's attribute text
            else:
                attrs = "".join(f' {k}="{_escape(v)}"' for k, v in attrs.items())
            tag = names[j]
            if tag in VOID_ELEMENTS:
                append(f"<{tag}{attrs}/>")
            else:
                append(f"<{tag}{attrs}>")
                pending.append((ends[j], f"</{tag}>"))
                close_at = ends[j]
        j += 1


def open_html(content: bytes | str) -> Document:
    """A document that parses only as far as its lookups read; never
    raises on malformed input."""
    return Document(content)


def parse_html(content: bytes | str) -> Document:
    """Parse HTML into a complete document; never raises on malformed
    input."""
    doc = Document(content)
    doc._complete()
    return doc


def decode_with_info(raw: bytes) -> tuple[str, str, str, bool]:
    """Best-effort charset detection: BOM, meta charset sniff, utf-8,
    latin-1.  → (text, used_charset, declared_charset, has_bom); the
    latin-1 fallback never fails, so every byte string decodes."""
    if raw[:3] == b"\xef\xbb\xbf":
        return raw[3:].decode("utf-8", errors="replace"), "utf-8", "", True
    head = raw[:4096].lower()
    enc = None
    idx = head.find(b"charset=")
    if idx != -1:
        val = head[idx + 8: idx + 40].strip(b'"\' ')
        for ch in (b'"', b"'", b">", b"/", b" ", b";"):
            cut = val.find(ch)
            if cut != -1:
                val = val[:cut]
        try:
            enc = val.decode("ascii").strip() or None
        except UnicodeDecodeError:
            enc = None
    declared = (enc or "").lower()
    for candidate in (enc, "utf-8", "latin-1"):
        if not candidate:
            continue
        try:
            return raw.decode(candidate), candidate.lower(), declared, False
        except (UnicodeDecodeError, LookupError):
            continue
    return (  # unreachable (latin-1 accepts all bytes); kept as a guard
        raw.decode("utf-8", errors="replace"), "utf-8", declared, False
    )


def _decode(raw: bytes) -> str:
    return decode_with_info(raw)[0]


def query_first_element(root: Node, tag: str) -> Optional[Node]:
    ids = root.doc.ids_by_tag((tag,), root.i)
    return root.doc.node(ids[0]) if ids else None
