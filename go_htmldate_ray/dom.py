"""Minimal fault-tolerant HTML DOM built on the stdlib ``html.parser``.

The reference engine parses documents with a WHATWG parser
(golang.org/x/net/html via go-shiori/dom, /root/reference/core.go:48-56).
No HTML parser library ships in this environment, so this module builds a
lightweight document tree with the error-recovery behaviours the extraction
cascade depends on: implicit closes for misnested tags, void elements,
script/style raw text, and serialization for the string-search stages.

One parser instance per extraction call; the per-actor Ray stage reuses the
module (compiled tables) across batches.

The extensive cascade visits every element, so the per-element work is kept
to what a stage can use:

- attributes parse lazily from the raw tag blob, and ``Node.attrs_lack``
  answers "can any value hold one of these literals?" from the blob alone
  when parsing it would change nothing the page serializes to;
- the parse root indexes elements by tag, in document order, and several
  tags' lists merge by source offset instead of by a walk of the tree;
- ``_render`` serializes a subtree in one loop into one list.
"""

from __future__ import annotations

import re
from operator import attrgetter
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

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&#34;", "'": "&#39;"}


def _escape(s: str) -> str:
    if "&" in s or "<" in s or ">" in s or '"' in s or "'" in s:
        for ch, rep in _ESCAPES.items():
            s = s.replace(ch, rep)
    return s


class Node:
    __slots__ = (
        "type", "tag", "_attrs", "_blob", "children", "parent", "data",
        "tag_index", "src_pos",
    )

    def __init__(self, type_: int, tag: str = "", data: str = ""):
        self.type = type_
        self.tag = tag
        self._attrs: Optional[dict[str, str]] = None
        self._blob: str = ""
        self.children: list["Node"] = []
        self.parent: Optional["Node"] = None
        self.data = data
        self.tag_index: Optional[dict[str, list["Node"]]] = None  # root only
        # src_pos: offset of the start tag in the parsed source, set by
        # parse_html on the elements it indexes (their document order)

    # --- attribute access ---------------------------------------------------
    # Attributes parse lazily from the raw tag blob: ~800 attr blobs per
    # document, most never inspected (meta-stage exits touch only a few).
    @property
    def attrs(self) -> dict[str, str]:
        if self._attrs is None:
            self._attrs = _parse_attrs(self._blob) if self._blob else {}
        return self._attrs

    @attrs.setter
    def attrs(self, value: dict[str, str]) -> None:
        self._attrs = value

    def attr(self, name: str) -> str:
        return self.attrs.get(name, "")

    def attrs_lack(self, literals: re.Pattern) -> bool:
        """True when no attribute value can contain a match of ``literals``,
        decided from the raw blob without parsing it.  That holds for a
        plain blob: unparsed, with every value verbatim (no ``&`` entity)
        and rendering back to itself, so leaving it unparsed does not change
        the serialized page.  False means "parse and look"."""
        if self._attrs is not None:
            return False
        blob = self._blob
        if not blob:
            return True
        if literals.search(blob) is not None or not _PLAIN_BLOB.fullmatch(blob):
            return False
        if blob.count("=") > 1:  # duplicate names render only once
            names = _PLAIN_NAME.findall(blob)
            return len(names) == len(set(names))
        return True

    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    @property
    def class_name(self) -> str:
        return self.attrs.get("class", "")

    # --- tree ops -----------------------------------------------------------
    def append(self, child: "Node") -> None:
        child.parent = self
        self.children.append(child)

    def remove(self) -> None:
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    def iter_elements(self) -> Iterator["Node"]:
        """All descendant elements in document order (excluding self)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if node.type == ELEMENT:
                yield node
                stack.extend(reversed(node.children))

    def get_elements_by_tag(self, *tags: str) -> list["Node"]:
        # The parse root carries a tag index built during tokenization, one
        # list per tag in document order; detached (pruned) nodes are
        # filtered by walking to the root, and several tags' lists merge
        # by source offset.
        if self.tag_index is not None:
            out = []
            for tag in tags:
                nodes = self.tag_index.get(tag)
                if nodes:
                    out.extend(n for n in nodes if _attached(n, self))
            if len(tags) > 1:
                out.sort(key=_src_pos)
            return out
        tagset = frozenset(tags)
        return [e for e in self.iter_elements() if e.tag in tagset]

    def text_content(self) -> str:
        """Concatenated text of the subtree (dom.TextContent semantics)."""
        parts: list[str] = []
        stack = list(reversed(self.children)) if self.type == ELEMENT else [self]
        while stack:
            node = stack.pop()
            if node.type == TEXT:
                parts.append(node.data)
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def etree_text(self) -> str:
        """Text before the first element child (utils.go:110-125)."""
        parts: list[str] = []
        for child in self.children:
            if child.type == ELEMENT:
                break
            if child.type == TEXT:
                parts.append(child.data)
        return "".join(parts)

    def inner_html(self) -> str:
        out: list[str] = []
        for child in self.children:
            _render(child, out)
        return "".join(out)

    def outer_html(self) -> str:
        out: list[str] = []
        _render(self, out)
        return "".join(out)


_src_pos = attrgetter("src_pos")


def _attached(node: Node, root: Node) -> bool:
    while node is not None:
        if node is root:
            return True
        node = node.parent
    return False


def _render(node: Node, out: list[str]) -> None:
    """Append the serialization of ``node``'s subtree to ``out``.  One loop
    walks the tree with a stack of (sibling iterator, end tag) pairs, one
    per open element, instead of one generator join per element."""
    append = out.append
    stack: list[tuple[Iterator[Node], str]] = []
    siblings: Iterator[Node] = iter((node,))
    while True:
        for node in siblings:
            kind = node.type
            if kind == TEXT:
                parent = node.parent
                if parent is not None and parent.tag in ("script", "style"):
                    append(node.data)
                else:
                    append(_escape(node.data))
            elif kind == COMMENT:
                append(f"<!--{node.data}-->")
            else:
                if node._attrs is None:
                    attrs = node._blob.rstrip()  # raw blob verbatim: cheaper, and
                    # the string-search stages see the author's attribute text
                else:
                    attrs = "".join(f' {k}="{_escape(v)}"' for k, v in node._attrs.items())
                tag = node.tag
                children = node.children
                if tag in VOID_ELEMENTS and not children:
                    append(f"<{tag}{attrs}/>")
                    continue
                append(f"<{tag}{attrs}>")
                stack.append((siblings, f"</{tag}>"))
                siblings = iter(children)
                break
        else:
            if not stack:
                return
            siblings, end_tag = stack.pop()
            append(end_tag)


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

from html import unescape as _unescape


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


def parse_html(content: bytes | str) -> Node:
    """Parse HTML into a document node; never raises on malformed input."""
    if isinstance(content, (bytes, bytearray, memoryview)):
        content = _decode(bytes(content))

    root = Node(ELEMENT, "#document")
    root.tag_index = tag_index = {}
    stack = [root]
    pos = 0
    n = len(content)

    def add_text(text: str, raw: bool = False) -> None:
        if text:
            if not raw and "&" in text:
                text = _unescape(text)
            node = Node(TEXT, data=text)
            top = stack[-1]
            node.parent = top
            top.children.append(node)

    search = _MARKUP.search
    while pos < n:
        m = search(content, pos)
        if m is None:
            add_text(content[pos:])
            break
        start = m.start()
        if start > pos:
            add_text(content[pos:start])
        pos = m.end()

        # Dispatch on the highest participating group: 8 = start tag
        # (the optional "/" group always participates), 5 = end tag,
        # 1/2/3/4 = comment/CDATA/declaration/PI.
        last = m.lastindex
        if last == 8:  # start tag
            tag = m.group(6)
            if not tag.islower():  # skip the copy for already-lower tags
                tag = tag.lower()
            implied = _IMPLIED_CLOSE.get(tag)
            if implied:
                while len(stack) > 1 and stack[-1].tag in implied:
                    stack.pop()
            node = Node(ELEMENT, tag)
            node.src_pos = start
            blob = m.group(7)
            if blob and not blob.isspace():
                node._blob = blob
            top = stack[-1]
            node.parent = top
            top.children.append(node)
            lst = tag_index.get(tag)
            if lst is None:
                tag_index[tag] = [node]
            else:
                lst.append(node)
            if tag in VOID_ELEMENTS:
                continue
            if m.group(8) == "/" and (
                tag in ("svg", "math")
                or any(a.tag in ("svg", "math") for a in stack)
            ):
                # WHATWG parsing (used by the reference via
                # golang.org/x/net/html) ignores the self-closing slash on
                # non-void HTML tags — <span/>x</span> nests x inside the
                # span.  Only foreign content (SVG/MathML) honors it.
                continue
            raw_end = _RAW_TEXT_END.get(tag)
            if raw_end is not None:
                em = raw_end.search(content, pos)
                end = em.start() if em else n
                stack.append(node)
                add_text(content[pos:end], raw=(tag in ("script", "style")))
                stack.pop()
                pos = em.end() if em else n
                continue
            stack.append(node)
        elif last == 5:  # end tag
            tag = m.group(5)
            if not tag.islower():
                tag = tag.lower()
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
            # unmatched end tag: ignore (error recovery)
        elif last == 1:  # comment — kept in the tree: the reference keeps
            # them (utils.go:36-38) and the serialized-HTML regex stages
            # (core.go:212-227) must see comment content.
            node = Node(COMMENT, data=m.group(1))
            top = stack[-1]
            node.parent = top
            top.children.append(node)
        elif last == 4:  # processing instruction
            node = Node(COMMENT, data="?" + m.group(4))
            top = stack[-1]
            node.parent = top
            top.children.append(node)
        elif last == 2:  # CDATA → bogus comment
            node = Node(COMMENT, data="[CDATA[" + m.group(2) + "]]")
            top = stack[-1]
            node.parent = top
            top.children.append(node)
        # declarations (group 3) are dropped

    _ensure_html_root(root)
    return root


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


def _ensure_html_root(doc: Node) -> None:
    """Guarantee an <html> element exists wrapping the content, so the
    serialized-string stages (core.go:212-219) have a well-defined target."""
    for child in doc.children:
        if child.type == ELEMENT and child.tag == "html":
            return
    html_node = Node(ELEMENT, "html")
    for child in list(doc.children):
        child.remove()
        html_node.append(child)
    doc.append(html_node)


def query_first_element(root: Node, tag: str) -> Optional[Node]:
    for e in root.iter_elements():
        if e.tag == tag:
            return e
    return None
