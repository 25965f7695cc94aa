"""Publication-date extraction cascade.

Reimplements the reference engine's ``findDate`` cascade
(/root/reference/core.go:136-271) over the lightweight DOM in
:mod:`go_htmldate_ray.dom`.  Stage ordering is semantics: the first
non-empty result wins.  Every helper cites the reference span whose
behaviour it mirrors, including tie-break and candidate-cap rules.

This module is pure per-document logic — the Ray Data distribution layer
wraps it in :mod:`go_htmldate_ray.stages.extract_stage`.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import replace
from datetime import datetime, timezone
from typing import Optional

from . import dom
from .functions import constants as C
from .functions import patterns as P
from .functions.kernels import (
    Options,
    Result,
    atoi,
    check_extracted_reference,
    compare_reference,
    extract_url_date,
    fast_parse,
    find_time,
    normalize_spaces,
    regex_parse,
    str_limit,
    try_date_expr,
    validate_date,
    validate_date_parts,
)

UTC = timezone.utc

_log = logging.getLogger(__name__)

DateTuple = tuple[str, Optional[datetime]]
_ZERO: DateTuple = ("", None)

# Free-text segments longer than this are first measured on a prefix.
_SEGMENT_PROBE = 2 * C.MAX_SEGMENT_LEN


# --- public API (core.go:48-133) --------------------------------------------

def from_html(content: bytes | str, opts: Optional[Options] = None) -> Result:
    """Parse HTML and extract the publication date (mirrors FromReader).
    The page is parsed only as far as the cascade reads it: a URL hit
    parses nothing, and a meta or JSON-LD hit usually only the head."""
    return from_document(dom.open_html(content), opts)


def _canonical_url(doc: dom.Node) -> str:
    """Canonical-URL recovery (core.go:78-94): the stripped href of the
    first ``link rel=canonical`` whose href is not blank, else ""."""
    for elem in doc.get_elements_by_tag("link"):
        if elem.attr("rel") == "canonical":
            href = elem.attr("href").strip()
            if href:
                return href
    return ""


def from_document(doc: dom.Document, opts: Optional[Options] = None) -> Result:
    """Extract the publication date from a parsed document (FromDocument,
    core.go:59-133)."""
    opts = replace(opts) if opts is not None else Options()
    opts.with_defaults()

    if not opts.url:
        opts.url = _canonical_url(doc)

    raw_string, date, src_stage = find_date_staged(doc, opts)

    time_found = False
    tz_found = False
    if opts.extract_time and date is not None:
        h, m, s, tz, found = find_time(raw_string)
        if found:
            time_found = True
            date = date.replace(hour=0, minute=0, second=0)
            from datetime import timedelta

            date = date + timedelta(hours=h, minutes=m, seconds=s)
        if tz is not None:
            tz_found = True
            date = date.replace(tzinfo=tz)

    return Result(
        date_time=date,
        has_time=time_found,
        has_timezone=tz_found,
        src_string=normalize_spaces(raw_string),
        src_stage=src_stage,
    )


# --- the cascade (core.go:136-271) ------------------------------------------

def find_date(doc: dom.Document, opts: Options) -> DateTuple:
    """2-tuple cascade API (FindDate, core.go:136-271)."""
    raw, dt, _stage = find_date_staged(doc, opts)
    return raw, dt


def find_date_staged(doc: dom.Document, opts: Options):
    """The cascade, additionally naming the stage that fired — the
    EnableLog-equivalent trace (core-options.go:44-45 / core.go:97): with
    ``opts.enable_log`` each hit is logged, and the stage name reaches
    ``Result.src_stage`` for debugging wrong dates.  Stage names follow
    SURVEY.md §2 (M1..M13)."""
    # M0b: user-registered custom stages (SURVEY §2.9) — the reference
    # keeps selector.Rule internal (internal/selector/selector.go:8); this
    # engine exports the hook: each (name, fn) is tried in order ahead of
    # the built-in cascade; fn(doc, opts) returns (raw_string, datetime?).
    if opts.custom_stages:
        for stage_name, fn in opts.custom_stages:
            raw, dt = fn(doc, opts)
            if dt is not None and validate_date(dt, opts):
                return _hit(opts, raw, dt, f"custom:{stage_name}")

    # M1: URL date, immediate unless deferred (core.go:138-144)
    url_date: Optional[datetime] = None
    if opts.url:
        url_date = extract_url_date(opts.url, opts)
        if url_date is not None and not opts.defer_url_extractor:
            return _hit(opts, opts.url, url_date, "url")

    # M2: meta elements (core.go:146-150)
    raw, dt = examine_meta_elements(doc, opts)
    if dt is not None:
        return _hit(opts, raw, dt, "meta")

    # M3: JSON-LD (core.go:152-156)
    raw, dt = json_search(doc, opts)
    if dt is not None:
        return _hit(opts, raw, dt, "json-ld")

    # Deferred URL slot (core.go:159-161)
    if opts.defer_url_extractor and url_date is not None:
        return _hit(opts, opts.url, url_date, "url-deferred")

    # M4: <abbr> (core.go:163-167)
    raw, dt = examine_abbr_elements(doc, opts)
    if dt is not None:
        return _hit(opts, raw, dt, "abbr")

    # M5: prune (core.go:169-172).  The unpruned doc is not used after this
    # point, so pruning happens in place instead of on a clone.
    clean_document(doc)
    discard_unwanted(doc)

    # M6: date-selector elements (core.go:174-187)
    raw, dt = examine_other_elements(date_elements(doc, opts.skip_extensive_search), opts)
    if dt is not None:
        return _hit(opts, raw, dt, "date-selector")

    # M7: title elements (core.go:189-194)
    title_elements = doc.get_elements_by_tag("title", "h1")
    raw, dt = examine_other_elements(title_elements, opts)
    if dt is not None:
        return _hit(opts, raw, dt, "title")

    # M8: <time> elements (core.go:196-200)
    raw, dt = examine_time_elements(doc, opts)
    if dt is not None:
        return _hit(opts, raw, dt, "time-element")

    # Serialize once, reused by M9/M11/M13 (core.go:212-219), with one
    # digit index of the string that anchors their scans (patterns.py).
    # Completion guarantees an <html> element.
    html_node = dom.query_first_element(doc, "html")
    html_string = html_node.inner_html() if html_node is not None else doc.inner_html()
    runs = P.digit_runs(html_string)

    # M9: serialized timestamp regex (core.go:221-227)
    parts, _start = P.timestamp_pattern_submatch(html_string, runs)
    if len(parts) >= 2:
        dt = fast_parse(parts[1], opts)
        if validate_date(dt, opts):
            return _hit(opts, parts[0], dt, "timestamp-regex")

    # M10: og:image URL date (core.go:229-233)
    raw, dt = meta_img_search(doc, opts)
    if dt is not None:
        return _hit(opts, raw, dt, "og-image")

    # M11: idiosyncrasies (core.go:235-239)
    raw, dt = idiosyncrasies_search(html_string, opts, runs)
    if dt is not None:
        return _hit(opts, raw, dt, "idiosyncrasies")

    # M12+M13: extensive search (core.go:241-268)
    if not opts.skip_extensive_search:
        ref_value = 0
        ref_string = ""
        for data in free_text_runs(doc):
            # Spaces normalized in a prefix give a prefix of the normalized
            # whole, so a long normalized prefix rules the segment out.
            if len(data) > _SEGMENT_PROBE and len(
                normalize_spaces(data[:_SEGMENT_PROBE])
            ) >= C.MAX_SEGMENT_LEN:
                continue
            text = normalize_spaces(data)
            n = len(text)
            if C.MIN_SEGMENT_LEN < n < C.MAX_SEGMENT_LEN:
                ref_string, ref_value = compare_reference(ref_string, ref_value, text, opts)

        converted = check_extracted_reference(ref_value, opts)
        if converted is not None:
            return _hit(opts, ref_string, converted, "free-text")

        raw, dt = search_page(html_string, opts, runs)
        if dt is not None:
            return _hit(opts, raw, dt, "search-page")

    return _ZERO[0], _ZERO[1], ""


def _hit(opts: Options, raw: str, dt: datetime, stage: str):
    if opts.enable_log:
        _log.debug("date found via %s: %r -> %s", stage, raw[:80], dt)
    return raw, dt, stage


# --- selectors (internal/selector/*.go) -------------------------------------

def _str_or(*strs: str) -> str:
    """First non-empty string (selector/date.go strOr)."""
    for s in strs:
        if s:
            return s
    return ""


# Class-attribute substrings of selector/date.go:62-97, as one alternation.
_CLASS_TOKENS = re.compile("|".join(re.escape(token) for token in (
    "info", "post_detail", "block-content", "byline", "subline",
    "posted", "submitted", "created-post", "publication", "author",
    "autor", "field-content", "fa-clock-o", "fa-calendar", "fecha",
    "parution",
)))


# Every literal date_rule tests for, with the case variants its D→d and
# M→m replacements let through: it cannot hold on an element whose
# attribute values contain none of them.
_DATE_RULE_LITERALS = re.compile("|".join(re.escape(token) for token in (
    "date", "Date", "datum", "Datum", "meta", "Meta", "time", "publish", "footer",
)) + "|" + _CLASS_TOKENS.pattern)


def date_rule(el: dom.Node) -> bool:
    """Token tests on id/class/itemprop (selector/date.go:62-97)."""
    return not el.attrs_lack(_DATE_RULE_LITERALS) and _date_rule_attrs(el.attrs)


def _date_rule_attrs(attrs: dict[str, str]) -> bool:
    id_ = attrs.get("id", "")
    class_ = attrs.get("class", "")
    itemprop = attrs.get("itemprop", "")

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


def date_elements(doc: dom.Document, fast: bool) -> list[dom.Node]:
    """The date-selector elements in document order: every ``footer`` and
    ``small``, and each element that passes ``date_rule`` (the slow rule,
    selector/date.go:11-18), or only those among ``FAST_DATE_TAGS``
    (``fast``, selector/date.go:21-29).  A scan of the tag array and the raw
    attribute blobs: a node is built only for an element that passes."""
    names = doc.names
    lack = doc.attrs_lack
    attrs_of = doc.attrs_of
    out = []
    for j in doc.element_ids():
        tag = names[j]
        if tag == "footer" or tag == "small" or (
            (not fast or tag in C.FAST_DATE_TAGS)
            and not lack(j, _DATE_RULE_LITERALS)
            and _date_rule_attrs(attrs_of(j))
        ):
            out.append(doc.node(j))
    return out


def free_text_runs(doc: dom.Document) -> list[str]:
    """Direct text children of free-text elements, element by element in
    document order (selector/free-text.go + selector/selector.go:33-47):
    the text runs whose parent's tag is a free-text tag, ordered by
    parent."""
    names, parents, texts = doc.names, doc.parents, doc.texts
    tags = C.FREE_TEXT_TAGS
    runs = [j for j in doc.text_ids() if names[parents[j]] in tags and texts[j]]
    runs.sort(key=parents.__getitem__)  # stable: document order per parent
    return [texts[j] for j in runs]


# --- pruning (utils.go:32-60, extractors.go:36-46) --------------------------

_CLEAN_TAGS = tuple(C.CLEAN_TAGS)


def clean_document(doc: dom.Document) -> None:
    doc.prune(doc.ids_by_tag(_CLEAN_TAGS))


def discard_unwanted(doc: dom.Document) -> None:
    attrs_of = doc.attrs_of
    doc.prune([
        j for j in doc.ids_by_tag(("div",)) if attrs_of(j).get("id", "") in C.DISCARD_DIV_IDS
    ])


# --- M2: meta scan (core.go:353-475) ----------------------------------------

def examine_meta_elements(doc: dom.Node, opts: Options) -> DateTuple:
    t_meta: Optional[datetime] = None
    t_reserve: Optional[datetime] = None
    str_meta = ""
    str_reserve = ""

    for elem in doc.get_elements_by_tag("meta"):
        if not elem.attrs:
            continue

        content = elem.attr("content").strip()
        date_time = elem.attr("datetime").strip()
        if not content and not date_time:
            continue

        name = elem.attr("name").strip()
        prop = elem.attr("property").strip()
        pub_date = elem.attr("pubdate").strip()
        item_prop = elem.attr("itemprop").strip()
        http_equiv = elem.attr("http-equiv").strip()

        if name and content:  # name attribute first: the most frequent
            name = name.lower()
            if name == "og:url":
                str_reserve = content
                t_reserve = extract_url_date(content, opts)
            elif name in C.DATE_ATTRIBUTES:
                str_meta, t_meta = try_date_expr(content, opts)
            elif name in C.ATTR_MODIFIED_NAMES:
                if not opts.use_original_date:
                    str_meta, t_meta = try_date_expr(content, opts)
                else:
                    str_reserve, t_reserve = try_date_expr(content, opts)
        elif prop and content:  # property attribute
            attribute = prop.lower()
            in_modified = attribute in C.PROPERTY_MODIFIED
            in_dates = attribute in C.DATE_ATTRIBUTES
            if in_dates or in_modified:
                str_attempt, t_attempt = try_date_expr(content, opts)
                if t_attempt is not None:
                    if (in_dates and opts.use_original_date) or (
                        in_modified and not opts.use_original_date
                    ):
                        str_meta, t_meta = str_attempt, t_attempt
                    else:
                        str_reserve, t_reserve = str_attempt, t_attempt
        elif item_prop:  # item scope
            attribute = item_prop.lower()
            if attribute in C.ITEMPROP_ATTR_KEYS:
                str_attempt: str = ""
                t_attempt: Optional[datetime] = None
                if date_time:
                    str_attempt, t_attempt = try_date_expr(date_time, opts)
                elif content:
                    str_attempt, t_attempt = try_date_expr(content, opts)
                if t_attempt is not None:
                    if (attribute in C.ITEMPROP_ORIGINAL and opts.use_original_date) or (
                        attribute in C.ITEMPROP_MODIFIED and not opts.use_original_date
                    ):
                        str_meta, t_meta = str_attempt, t_attempt
            elif attribute == "copyrightyear":
                if content:
                    try:
                        t_attempt = datetime.strptime(
                            content + "-01-01", "%Y-%m-%d"
                        ).replace(tzinfo=UTC)
                    except ValueError:
                        t_attempt = None
                    if t_attempt is not None and validate_date(t_attempt, opts):
                        str_reserve, t_reserve = content, t_attempt
        elif pub_date.lower() == "pubdate":  # publish date, relatively rare
            str_meta, t_meta = try_date_expr(content, opts)
        elif http_equiv and content:  # http-equiv, rare
            attribute = http_equiv.lower()
            if attribute == "date":
                if opts.use_original_date:
                    str_meta, t_meta = try_date_expr(content, opts)
                else:
                    str_reserve, t_reserve = try_date_expr(content, opts)
            elif attribute == "last-modified":
                if not opts.use_original_date:
                    str_meta, t_meta = try_date_expr(content, opts)
                else:
                    str_reserve, t_reserve = try_date_expr(content, opts)

        if t_meta is not None:
            return str_meta, t_meta

    # Lower-granularity reserve (core.go:472-474)
    return str_reserve, t_reserve


# --- M3: JSON-LD (extractors.go:210-326) ------------------------------------

def json_search(doc: dom.Node, opts: Options) -> DateTuple:
    if opts.use_original_date:
        target_keys = {"datePublished", "dateCreated"}
    else:
        target_keys = {"dateModified"}

    captured: list[str] = []

    def find_date_texts(obj: dict) -> None:
        for key, value in obj.items():
            if isinstance(value, str):
                if key in target_keys:
                    captured.append(normalize_spaces(value))
            elif isinstance(value, dict):
                find_date_texts(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, dict):
                        find_date_texts(item)

    script_nodes = [
        e
        for e in doc.get_elements_by_tag("script")
        if e.attr("type") in ("application/ld+json", "application/settings+json")
    ]
    # ld+json scripts first, matching the reference's query concatenation
    script_nodes.sort(key=lambda e: e.attr("type") != "application/ld+json")

    for elem in script_nodes:
        json_text = elem.text_content().strip()

        # Array-of-objects decode first (extractors.go:259-267)
        try:
            data = json.loads(json_text)
        except (json.JSONDecodeError, RecursionError):
            data = None
        if isinstance(data, list):
            if all(isinstance(item, dict) for item in data):
                for item in data:
                    find_date_texts(item)
            continue
        if isinstance(data, dict):
            find_date_texts(data)
            continue

        # Trailing-bracket-junk retry loop (extractors.go:273-291)
        while True:
            tmp = C.RX_LAST_JSON_BRACKET.sub("", json_text)
            if tmp == json_text:
                break
            json_text = tmp
            try:
                data = json.loads(json_text)
            except (json.JSONDecodeError, RecursionError):
                continue
            if isinstance(data, dict):
                find_date_texts(data)
            break

    # Parse captured texts (extractors.go:298-307)
    best_text = ""
    best_date: Optional[datetime] = None
    for text in captured:
        dt = fast_parse(text, opts)
        if not validate_date(dt, opts):
            continue
        if (
            best_date is None
            or (opts.use_original_date and dt < best_date)
            or (not opts.use_original_date and dt > best_date)
        ):
            best_text, best_date = text, dt

    if best_date is None:
        return _ZERO
    return best_text, best_date


# --- M4: <abbr> (core.go:479-554) -------------------------------------------

def examine_abbr_elements(doc: dom.Node, opts: Options) -> DateTuple:
    elements = doc.get_elements_by_tag("abbr")
    n = len(elements)
    if n == 0 or n >= C.MAX_POSSIBLE_CANDIDATES:
        return _ZERO

    ref_value = 0
    ref_string = ""
    for elem in elements:
        class_ = elem.class_name.strip()
        data_utime = elem.attr("data-utime").strip()

        if data_utime:
            try:
                candidate = int(data_utime)
            except ValueError:
                continue
            if opts.use_original_date:
                if ref_value == 0 or candidate < ref_value:
                    ref_value = candidate
                    ref_string = data_utime
            else:
                if candidate > ref_value:
                    ref_value = candidate
                    ref_string = data_utime
        elif class_ and class_ in C.ATTR_PUBLISH_CLASSES:
            text = normalize_spaces(elem.etree_text())
            title = elem.attr("title").strip()
            if title:
                try_text = title
                if opts.use_original_date:
                    _, attempt = try_date_expr(try_text, opts)
                    if attempt is not None:
                        return try_text, attempt
                else:
                    ref_string, ref_value = compare_reference(
                        ref_string, ref_value, try_text, opts
                    )
                    if ref_value > 0:
                        break
            elif len(text) > 10:  # dates, not times of the day
                try_text = text.removeprefix("am ")
                ref_string, ref_value = compare_reference(
                    ref_string, ref_value, try_text, opts
                )

    converted = check_extracted_reference(ref_value, opts)
    if converted is not None:
        return ref_string, converted

    # Rescue pass through the generic element scan (core.go:546-551)
    raw, dt = examine_other_elements(doc.get_elements_by_tag("abbr"), opts)
    if dt is not None:
        return raw, dt
    return _ZERO


# --- M8: <time> (core.go:558-617) -------------------------------------------

def examine_time_elements(doc: dom.Node, opts: Options) -> DateTuple:
    elements = doc.get_elements_by_tag("time")
    n = len(elements)
    if n == 0 or n >= C.MAX_POSSIBLE_CANDIDATES:
        return _ZERO

    ref_value = 0
    ref_string = ""
    for elem in elements:
        shortcut = False
        text = normalize_spaces(elem.etree_text())
        class_ = elem.class_name.strip()
        date_time = elem.attr("datetime").strip()
        pub_date = elem.attr("pubdate").strip()

        if len(date_time) > 6:  # datetime attribute
            if pub_date.lower() == "pubdate" and opts.use_original_date:
                shortcut = True
            elif class_:
                class_is_dt = class_.startswith("entry-date") or class_.startswith(
                    "entry-time"
                )
                if opts.use_original_date and class_is_dt:
                    shortcut = True
                elif not opts.use_original_date and class_ == "updated":
                    shortcut = True

            if shortcut:
                _, attempt = try_date_expr(date_time, opts)
                if attempt is not None:
                    return date_time, attempt
            else:
                ref_string, ref_value = compare_reference(
                    ref_string, ref_value, date_time, opts
                )
        elif len(text) > 6:  # bare text in element
            ref_string, ref_value = compare_reference(ref_string, ref_value, text, opts)

    result = check_extracted_reference(ref_value, opts)
    if result is not None:
        return ref_string, result
    return _ZERO


# --- M6/M7 helpers (core.go:620-653) ----------------------------------------

def examine_text(text: str, opts: Options) -> DateTuple:
    text = normalize_spaces(text)
    if len(text) <= C.MIN_SEGMENT_LEN:
        return _ZERO
    text = str_limit(text, C.MAX_SEGMENT_LEN)
    text = C.RX_LAST_NON_DIGITS.sub("", text)
    return try_date_expr(text, opts)


def examine_other_elements(elements: list[dom.Node], opts: Options) -> DateTuple:
    n = len(elements)
    if n == 0 or n >= C.MAX_POSSIBLE_CANDIDATES:
        return _ZERO

    for elem in elements:
        text = elem.text_content()
        title_attr = elem.attr("title")
        for candidate_text in (text, title_attr):
            _, attempt = examine_text(candidate_text, opts)
            if attempt is not None:
                return candidate_text, attempt

    return _ZERO


# --- M10: og:image (extractors.go:366-378) ----------------------------------

def meta_img_search(doc: dom.Node, opts: Options) -> DateTuple:
    for elem in doc.get_elements_by_tag("meta"):
        if elem.attr("property") == "og:image":
            content = elem.attr("content").strip()
            if content:
                result = extract_url_date(content, opts)
                if validate_date(result, opts):
                    return content, result
    return _ZERO


# --- M11: idiosyncrasies (extractors.go:329-363) ----------------------------

def idiosyncrasies_search(
    html_string: str, opts: Options, runs: Optional[P.DigitRuns] = None
) -> DateTuple:
    parts, start_idx = P.idiosyncrasy_pattern_submatch(html_string, runs)
    if not parts:
        return _ZERO

    candidate: Optional[datetime] = None
    if len(parts[1]) == 4:  # YYYY/MM/DD
        candidate = validate_date_parts(
            atoi(parts[1]), atoi(parts[2]), atoi(parts[3]), opts
        )
    elif len(parts[3]) in (2, 4):  # DD/MM/YY or MM/DD/YY
        from .functions.kernels import correct_year, try_swap_values

        year = correct_year(atoi(parts[3]))
        day, month = try_swap_values(atoi(parts[1]), atoi(parts[2]))
        candidate = validate_date_parts(year, month, day, opts)

    if not validate_date(candidate, opts):
        return _ZERO

    raw_string = str_limit(html_string[start_idx:], 100)
    return raw_string, candidate


# --- M13: whole-page search (core.go:656-798) -------------------------------

class YearCandidate:
    __slots__ = ("pattern", "count", "raw_string")

    def __init__(self, pattern: str, count: int, raw_string: str):
        self.pattern = pattern
        self.count = count
        self.raw_string = raw_string

    def __repr__(self):  # debug aid
        return f"YearCandidate({self.pattern!r}, {self.count})"


def go_submatch(pattern: re.Pattern, s: str) -> list[str]:
    """Go FindStringSubmatch semantics: [] on no match, else
    [full, g1, g2, ...] with '' for non-participating groups."""
    m = pattern.search(s)
    if m is None:
        return []
    return [m.group(0)] + [g if g is not None else "" for g in m.groups()]


def plausible_year_filter(
    html_string: str,
    finder: re.Pattern,
    rx_year: re.Pattern,
    to_complete: bool,
    opts: Options,
    starts: list[int],
) -> list[YearCandidate]:
    """Exact dedup + count + plausible-year gate (validators.go:120-202).
    ``finder`` is tried only at ``starts``, its token index (patterns.py)."""
    min_year = opts.min_date.year
    max_year = opts.max_date.year

    unique_matches: list[str] = []
    match_count: dict[str, int] = {}
    match_raw: dict[str, str] = {}

    for m in P.anchored_finditer(finder, html_string, starts):
        match = m.group(1) if m.groups() else m.group(0)
        if match not in match_count:
            unique_matches.append(match)
            match_raw[match] = str_limit(html_string[m.start():], 100)
            match_count[match] = 0
        match_count[match] += 1

    valid: list[YearCandidate] = []
    for match in unique_matches:
        year_val = -1
        year_m = rx_year.search(match)
        if year_m is not None:
            try:
                year_val = int(year_m.group(1))
            except ValueError:
                continue
        if year_val == -1:
            continue

        potential_year = 0
        if not to_complete:
            potential_year = year_val
        elif year_val < 100:
            potential_year = (1900 if year_val >= 90 else 2000) + year_val

        if potential_year < min_year or potential_year > max_year:
            continue

        valid.append(YearCandidate(match, match_count[match], match_raw[match]))

    return valid


def normalize_candidates(candidates: list[YearCandidate], opts: Options) -> list[YearCandidate]:
    """Re-parse + re-group by normalized YYYY-MM-DD (validators.go:240-270)."""
    unique: list[str] = []
    counts: dict[str, int] = {}
    raws: dict[str, str] = {}
    for cand in candidates:
        dt = fast_parse(cand.pattern, opts)
        if dt is None:
            continue
        new_pattern = dt.strftime("%Y-%m-%d")
        if new_pattern not in counts:
            unique.append(new_pattern)
            raws[new_pattern] = cand.raw_string
            counts[new_pattern] = 0
        counts[new_pattern] += cand.count
    return [YearCandidate(p, counts[p], raws[p]) for p in unique]


def select_candidate(
    candidates: list[YearCandidate],
    catch_pattern: re.Pattern,
    year_pattern: re.Pattern,
    opts: Options,
) -> tuple[str, list[str]]:
    """Frequency + recency disambiguation with the reference's exact
    tie-break rules (core.go:823-930)."""
    n = len(candidates)
    if n == 0 or n >= C.MAX_POSSIBLE_CANDIDATES:
        return "", []

    if n == 1:
        matches = go_submatch(catch_pattern, candidates[0].pattern)
        if matches:
            return candidates[0].raw_string, matches

    # Most frequent, top 10 (stable)
    candidates = sorted(candidates, key=lambda c: -c.count)
    if len(candidates) > 10:
        candidates = candidates[:10]

    # Pattern-string sort: asc for original dates, desc for modified
    candidates = sorted(
        candidates,
        key=lambda c: c.pattern,
        reverse=not opts.use_original_date,
    )
    best_ones = candidates[:2]

    n_best = len(best_ones)
    years = [0] * n_best
    counts = [0] * n_best
    patterns = [""] * n_best
    validations = [False] * n_best
    for i, cand in enumerate(best_ones):
        counts[i] = cand.count
        patterns[i] = cand.pattern
        year_parts = year_pattern.search(cand.pattern)
        if year_parts is not None:
            years[i] = atoi(year_parts.group(1))
            validations[i] = validate_date_parts(years[i], 1, 1, opts) is not None

    any_valid = any(validations)
    every_valid = all(validations)

    if every_valid and n_best >= 2:
        if counts[0] == counts[1]:
            idx = 0
        elif years[1] != years[0] and counts[1] / counts[0] > 0.5:
            # Safety net: newer date but up to 50% less frequent
            idx = 1
        else:
            idx = 0
        return best_ones[idx].raw_string, go_submatch(catch_pattern, patterns[idx])
    if any_valid:
        idx = next(i for i, v in enumerate(validations) if v)
        return best_ones[idx].raw_string, go_submatch(catch_pattern, patterns[idx])
    return "", []


def search_pattern(
    html_string: str,
    finder: re.Pattern,
    catch_pattern: re.Pattern,
    rx_year: re.Pattern,
    opts: Options,
    starts: Optional[list[int]] = None,
) -> tuple[str, list[str]]:
    """Chained candidate filtering and selection (core.go:817-820).
    ``starts`` defaults to the digit index, which covers every
    ``\\D[0-9]``- or ``/[0-9]``-led finder."""
    if starts is None:
        starts = P.digit_starts(html_string)
    candidates = plausible_year_filter(html_string, finder, rx_year, False, opts, starts)
    return select_candidate(candidates, catch_pattern, rx_year, opts)


def filter_ymd_candidate(
    best_match: list[str], cop_year: int, opts: Options
) -> Optional[datetime]:
    """Year-floor gate vs copyright year (validators.go:205-238)."""
    if len(best_match) < 4:
        return None
    dt = validate_date_parts(
        atoi(best_match[1]), atoi(best_match[2]), atoi(best_match[3]), opts
    )
    if dt is None:
        return None
    if cop_year == 0 or dt.year >= cop_year:
        return dt
    return None


def search_page(
    html_string: str, opts: Options, runs: Optional[P.DigitRuns] = None
) -> DateTuple:
    """The extensive whole-page cascade (core.go:656-798).  One digit index
    of the page (``runs``, built here when not given) anchors every scan
    but the last, which reads a cleaned copy of the page."""
    if runs is None:
        runs = P.digit_runs(html_string)
    digits = P.digit_starts(html_string, runs)

    # Copyright year: a floor for later stages
    cop_year = 0
    cop_raw = ""
    raw, best = search_pattern(
        html_string, P.COPYRIGHT_PATTERN, C.RX_YEAR_PATTERN, C.RX_YEAR_PATTERN, opts,
        P.copyright_starts(html_string, runs),
    )
    if best:
        year = atoi(best[0])
        if validate_date_parts(year, 1, 1, opts) is not None:
            cop_raw = raw
            cop_year = year

    # 3 components
    for finder, catcher in (
        (P.THREE_PATTERN, C.RX_THREE_CATCH),
        (P.THREE_LOOSE_PATTERN, C.RX_THREE_LOOSE_CATCH),
    ):
        raw, best = search_pattern(
            html_string, finder, catcher, C.RX_YEAR_PATTERN, opts, digits
        )
        result = filter_ymd_candidate(best, cop_year, opts)
        if result is not None:
            return raw, result

    # YYYY-MM-DD / DD-MM-YYYY
    candidates = plausible_year_filter(
        html_string, P.SELECT_YMD_PATTERN, C.RX_SELECT_YMD_YEAR, False, opts, digits
    )
    candidates = normalize_candidates(candidates, opts)
    raw, best = select_candidate(candidates, C.RX_YMD_PATTERN, C.RX_YMD_YEAR, opts)
    result = filter_ymd_candidate(best, cop_year, opts)
    if result is not None:
        return raw, result

    # Valid date strings (YYYYMMDD)
    raw, best = search_pattern(
        html_string, P.DATE_STRINGS_PATTERN, C.RX_DATE_STRINGS_CATCH, C.RX_YEAR_PATTERN, opts,
        digits,
    )
    result = filter_ymd_candidate(best, cop_year, opts)
    if result is not None:
        return raw, result

    # DD?/MM?/YY slashes
    candidates = plausible_year_filter(
        html_string, P.SLASHES_PATTERN, C.RX_SLASHES_YEAR, True, opts, digits
    )
    candidates = normalize_candidates(candidates, opts)
    raw, best = select_candidate(candidates, C.RX_YMD_PATTERN, C.RX_YMD_YEAR, opts)
    result = filter_ymd_candidate(best, cop_year, opts)
    if result is not None:
        return raw, result

    # 2 components: YYYY-MM
    raw, best = search_pattern(
        html_string, P.YYYY_MM_PATTERN, C.RX_YYYY_MM_CATCH, C.RX_YEAR_PATTERN, opts, digits
    )
    if len(best) >= 3:
        dt = validate_date_parts(atoi(best[1]), atoi(best[2]), 1, opts)
        if dt is not None and (cop_year == 0 or dt.year >= cop_year):
            return raw, dt

    # MM-YYYY, re-normalized to first-of-month
    candidates = plausible_year_filter(
        html_string, P.MM_YYYY_PATTERN, C.RX_MM_YYYY_YEAR, False, opts, digits
    )
    unique: list[str] = []
    counts: dict[str, int] = {}
    raws: dict[str, str] = {}
    for cand in candidates:
        m = C.RX_YM_PATTERN.search(cand.pattern)
        if m is None:
            continue
        if m.group(1):
            year, month = atoi(m.group(1)), atoi(m.group(2))
        else:
            month, year = atoi(m.group(3)), atoi(m.group(4))
        new_pattern = f"{year:04d}-{month:02d}-01"
        if new_pattern not in counts:
            unique.append(new_pattern)
            raws[new_pattern] = cand.raw_string
            counts[new_pattern] = 0
        counts[new_pattern] += cand.count
    candidates = [YearCandidate(p, counts[p], raws[p]) for p in unique]

    raw, best = select_candidate(candidates, C.RX_YMD_PATTERN, C.RX_YMD_YEAR, opts)
    result = filter_ymd_candidate(best, cop_year, opts)
    if result is not None:
        return raw, result

    # Full-text long-form regex over the whole HTML
    dt = regex_parse(html_string, opts, runs)
    if validate_date(dt, opts) and (cop_year == 0 or dt.year >= cop_year):
        return html_string, dt

    # Catch-all: copyright mention
    if cop_year != 0:
        return cop_raw, datetime(cop_year, 1, 1, tzinfo=UTC)

    # Last resort: bare year, after W3-URL cleaning (its own digit index)
    cleaned = C.RX_SIMPLE_W3_CLEANER.sub(" ", html_string)
    raw, best = search_pattern(
        cleaned, P.SIMPLE_PATTERN, C.RX_YEAR_PATTERN, C.RX_YEAR_PATTERN, opts
    )
    if len(best) >= 2:
        dt = validate_date_parts(atoi(best[1]), 1, 1, opts)
        if dt is not None and dt.year >= cop_year:
            return raw, dt

    return _ZERO
