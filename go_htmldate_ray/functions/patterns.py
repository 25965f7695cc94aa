"""Free-text date-pattern scanners.

Each scanner reimplements, with Python ``re``, one of the original published
patterns documented in the re2go file headers of the reference
(internal/re2go/*.re "Original pattern" comments).  The reference compiles
these to re2c DFAs; the *semantics* (leftmost match, consumed trailing
delimiter, capture layout) are preserved here.

Trailing ``\\D`` delimiters also match end-of-string (the DFAs append a
terminating NUL byte that the ``[^0-9]`` class matches); we encode that as
``(?:\\D|$)``.  Leading ``\\D`` requires a real character, as in the DFAs.

Anchoring invariant.  A DFA reads a page once; a backtracking ``re`` scan
retries at every offset.  So every whole-page scan of the extensive cascade
tries its pattern only at offsets where a match can start, taken from one
digit index of the page (:func:`digit_runs`: the maximal ``[0-9]`` runs,
found with ten ``str.find`` scans) or from a lead literal the pattern cannot
match without (:func:`anchored_finditer` then yields exactly
``pattern.finditer(s)``, and a first match is exactly ``pattern.search(s)``):

- the ``\\D``-led scanners (``THREE_LOOSE``, ``SELECT_YMD``,
  ``DATE_STRINGS``, ``SLASHES``, ``YYYY_MM``, ``MM_YYYY``, ``SIMPLE``) and
  the ``/``-led ``THREE``: a non-digit, then an ASCII digit, so a match
  starts one before a run (:func:`digit_starts`);
- ``COPYRIGHT``: at one of its four lead literals, the first one before
  each digit (:func:`copyright_starts`);
- long-form MDY/DMY: the match ends in ``[\\t\\n\\f\\r ]`` plus a year,
  that whitespace just before a run, 5-15 (MDY) or 5-18 (DMY) characters
  after the match start (``(?i)`` matches one code point per code point,
  so a month alternative is as long as its literal: 3-9);
- ``TIMESTAMP``: its year is the last four digits of a run followed by
  ``-``;
- the four idiosyncrasy patterns all contain three runs spelling
  ``[0-9]+[./][0-9]{1,2}[./][0-9]{2,}``; each is tried in a window before
  such a token, bounded by its lead (:func:`idiosyncrasy_pattern_submatch`).

``\\d`` in a ``str`` pattern is Unicode, so only ``[0-9]`` anchors come from
the index.  None of the anchored patterns uses ``^``, ``\\b`` or a
lookbehind, so ``pattern.match(s, pos)`` tries exactly what a scan reaching
``pos`` tries; ``$`` keeps its whole-string meaning.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left
from datetime import datetime, timezone
from typing import Iterable, Iterator, NamedTuple, Optional

_YEAR = r"199[0-9]|20[0-3][0-9]"

# --- finditer-style scanners (return re.Match iterators) --------------------
# Used by plausible_year_filter: candidate string = group(1) if the pattern
# captures, else the whole match (validators.go:135-141).

# search-pattern.re:5 — case-SENSITIVE (base template default)
COPYRIGHT_PATTERN = re.compile(
    rf"(?:©|&copy;|Copyright|\(c\))\D*(?:{_YEAR})?-?({_YEAR})(?:\D|$)"
)

# search-pattern.re:42
THREE_PATTERN = re.compile(r"/([0-9]{4}/[0-9]{2}/[0-9]{2})[01/]")

# search-pattern.re:76
THREE_LOOSE_PATTERN = re.compile(r"\D([0-9]{4}[/.-][0-9]{2}[/.-][0-9]{2})(?:\D|$)")

# plausible-year.re:4
SELECT_YMD_PATTERN = re.compile(r"\D([0-3]?[0-9][/.-][01]?[0-9][/.-][0-9]{4})(?:\D|$)")

# search-pattern.re:110 — note: the captured group includes the delimiters.
DATE_STRINGS_PATTERN = re.compile(
    r"(\D19[0-9]{2}[01][0-9][0-3][0-9](?:\D|$)|\D20[0-9]{2}[01][0-9][0-3][0-9](?:\D|$))"
)

# plausible-year.re:38
SLASHES_PATTERN = re.compile(
    r"\D([0-3]?[0-9]/[01]?[0-9]/[0129][0-9]|[0-3][0-9]\.[01][0-9]\.[0129][0-9])(?:\D|$)"
)

# search-pattern.re:144
YYYY_MM_PATTERN = re.compile(r"\D([12][0-9]{3}[/.-](?:1[0-2]|0[1-9]))(?:\D|$)")

# plausible-year.re:72
MM_YYYY_PATTERN = re.compile(r"\D([01]?[0-9][/.-][12][0-9]{3})(?:\D|$)")

# search-pattern.re:179
SIMPLE_PATTERN = re.compile(rf"\D({_YEAR})(?:\D|$)")


# --- token indexes (see the module docstring) --------------------------------

_DIGIT_RUN = re.compile(r"[0-9]+")
_ANY_DIGIT = re.compile(r"\d")  # what ends a ``\D*`` run
_COPYRIGHT_LEADS = ("©", "&copy;", "Copyright", "(c)")


class DigitRuns(NamedTuple):
    """The maximal ASCII digit runs of a page: ``s[starts[k]:ends[k]]``,
    ascending."""

    starts: list[int]
    ends: list[int]


def digit_runs(s: str) -> DigitRuns:
    """The page's digit index.  Ten ``str.find`` scans collect every ASCII
    digit, far cheaper than a ``[0-9]+`` regex scan (which tries every
    offset) on the few dozen digits of a typical page.  Past about one digit
    in 32 characters collecting them costs more than the regex scan, which
    then builds the same runs."""
    limit = 64 + len(s) // 32
    pos: list[int] = []
    find = s.find
    for d in "0123456789":
        i = find(d)
        while i != -1:
            pos.append(i)
            i = find(d, i + 1)
        if len(pos) > limit:
            starts, ends = [], []
            for m in _DIGIT_RUN.finditer(s):
                starts.append(m.start())
                ends.append(m.end())
            return DigitRuns(starts, ends)
    pos.sort()
    starts, ends = [], []
    prev = -2
    for i in pos:
        if i != prev + 1:
            if starts:
                ends.append(prev + 1)
            starts.append(i)
        prev = i
    if starts:
        ends.append(prev + 1)
    return DigitRuns(starts, ends)


def digit_starts(s: str, runs: Optional[DigitRuns] = None) -> list[int]:
    """Ascending offsets one before each maximal ASCII digit run: the only
    places a ``\\D[0-9]``- or ``/[0-9]``-led scanner can match."""
    if runs is None:
        runs = digit_runs(s)
    return [a - 1 for a in runs.starts if a]


def copyright_starts(s: str, runs: Optional[DigitRuns] = None) -> list[int]:
    """Ascending offsets of COPYRIGHT_PATTERN's lead literals, keeping only
    the first lead before each digit.  After its lead the pattern reads
    ``\\D*`` and then needs the year at the first digit (or at the ``-``
    just before it), so two leads with no digit between them succeed or
    fail together, and the later one lies inside the earlier one's match.
    Trying each lead would rescan the same non-digit stretch once per
    lead.  The first ASCII digit comes from the index; on a non-ASCII page
    a Unicode digit (``\\d``) before it is looked for in between."""
    leads: list[int] = []
    for lead in _COPYRIGHT_LEADS:
        i = s.find(lead)
        while i != -1:
            leads.append(i)
            i = s.find(lead, i + 1)
    if not leads:
        return []
    if runs is None:
        runs = digit_runs(s)
    leads.sort()
    run_starts = runs.starts
    ascii_only = s.isascii()
    starts: list[int] = []
    digit = -1  # first digit at or after the last kept lead
    for a in leads:
        if a < digit:
            continue
        k = bisect_left(run_starts, a)
        digit = run_starts[k] if k < len(run_starts) else len(s)
        if not ascii_only:
            m = _ANY_DIGIT.search(s, a, digit)
            if m is not None:
                digit = m.start()
        if digit == len(s):
            break
        starts.append(a)
    return starts


def _merged(windows: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Ascending, distinct, non-negative offsets of the windows ``[lo, hi]``,
    given with ``lo`` and ``hi`` each non-decreasing."""
    nxt = 0
    for lo, hi in windows:
        a = max(lo, nxt)
        if a <= hi:
            yield from range(a, hi + 1)
            nxt = hi + 1


def anchored_finditer(
    pattern: re.Pattern, s: str, starts: Iterable[int]
) -> Iterator[re.Match]:
    """``pattern.finditer(s)``, tried only at ``starts`` (ascending, a
    superset of the offsets where ``pattern`` can match): a candidate
    inside the previous match is skipped, as the scan resumes at its end.
    Exact for non-empty matches of a pattern without ``^``, ``\\b`` or a
    lookbehind."""
    end = 0
    match = pattern.match
    for a in starts:
        if a >= end:
            m = match(s, a)
            if m is not None:
                yield m
                end = m.end()


# --- first-match submatch scanners ------------------------------------------

# regex-pattern-search.re:11 — (?i)((year)-(month)-(day)).HH:MM:SS
TIMESTAMP_PATTERN = re.compile(
    rf"(?i)((?:{_YEAR})-(?:[0-1]?[0-9])-(?:[0-3]?[0-9])).[0-9]{{2}}:[0-9]{{2}}:[0-9]{{2}}"
)


def _first_match(
    pattern: re.Pattern, s: str, starts: Iterable[int], stop: Optional[int] = None
) -> Optional[re.Match]:
    """``pattern.search(s)``, tried only at ``starts`` (ascending, a superset
    of the offsets where ``pattern`` can match); with ``stop``, only a match
    starting before it."""
    match = pattern.match
    for a in starts:
        if stop is not None and a >= stop:
            break
        m = match(s, a)
        if m is not None:
            return m
    return None


def timestamp_pattern_submatch(
    s: str, runs: Optional[DigitRuns] = None
) -> tuple[list[str], int]:
    """First timestamp match: ([full, date], start) or ([], -1).  The year
    is the last four digits of a run followed by ``-``."""
    if runs is None:
        runs = digit_runs(s)
    m = _first_match(TIMESTAMP_PATTERN, s, (
        e - 4 for a, e in zip(*runs) if e - a >= 4 and s[e:e + 1] == "-"
    ))
    if m is None:
        return [], -1
    return [m.group(0), m.group(1)], m.start()


# idiosyncrasies-search.re:4-10 — EN/DE/TR author-written date idioms.
_IDIOSYNCRASY_PATTERNS = [
    re.compile(
        r"(?i)(?:date[^0-9\"]{0,20}|updated|published|on)"
        r"(?:[ :])*?([0-9]{1,4})[./]([0-9]{1,2})[./]([0-9]{2,4})"
    ),
    re.compile(
        r"(?i)(?:Datum|Stand|Ver[öÖ]ffentlicht am):? ?"
        r"([0-9]{1,2})\.([0-9]{1,2})\.([0-9]{2,4})"
    ),
    re.compile(
        r"(?i)(?:g[üÜ]ncellen?me|yay[ıI][mn]lan?ma) *?(?:tarihi)? *?:? *?"
        r"([0-9]{1,2})[./]([0-9]{1,2})[./]([0-9]{2,4})"
    ),
    re.compile(
        r"(?i)([0-9]{1,2})[./]([0-9]{1,2})[./]([0-9]{2,4}) *"
        r"(?:['’](?:de|da|te|ta)|tarihinde) *"
        r"(?:g[üÜ]ncellendi|yay[ıI][mn]land[ıI])"
    ),
]

# Start windows, one per pattern above, before each token: runs A, B, C
# spelling ``A[./]B[./]C`` with B of 1-2 digits and C of 2 or more, which
# every pattern contains (``[0-9]{1,2}`` or ``{1,4}`` before a separator is
# a whole run when a non-digit lead precedes it, else the run's tail).
# A window is ``(lo, hi)`` for the match start.
_TARIHI = re.compile(r"(?i)tarihi")


def _skip_back(s: str, j: int, chars: str) -> int:
    while j and s[j - 1] in chars:
        j -= 1
    return j


def _windows_updated(s: str, a: int, b: int, dots: bool):
    # date[^0-9"]{0,20}|updated|published|on, then [ :]*?, then A{1,4}
    if b - a <= 4:
        return _skip_back(s, a, " :") - 24, a - 2
    return None


def _windows_datum(s: str, a: int, b: int, dots: bool):
    # Datum|Stand|Veröffentlicht am (5 or 17), :? ?, then A{1,2}, dots
    if b - a <= 2 and dots:
        return a - 19, a - 5
    return None


def _windows_guncelleme(s: str, a: int, b: int, dots: bool):
    # a 9-11 character lead, then ' *?(?:tarihi)? *?:? *?', then A{1,2}:
    # walk back over that gap to its earliest possible start
    if b - a > 2:
        return None
    j = _skip_back(s, a, " ")
    if j and s[j - 1] == ":":
        j = _skip_back(s, j - 1, " ")
    if j >= 6 and _TARIHI.fullmatch(s, j - 6, j):
        j = _skip_back(s, j - 6, " ")
    return j - 11, a - 9


def _windows_tarihinde(s: str, a: int, b: int, dots: bool):
    # the match opens with the last one or two digits of A
    return max(a, b - 2), b - 1


_IDIOSYNCRASY_WINDOWS = (
    _windows_updated, _windows_datum, _windows_guncelleme, _windows_tarihinde,
)


def _idiosyncrasy_tokens(s: str, runs: DigitRuns) -> list[tuple[int, int, bool]]:
    """``(start, end, both separators are dots)`` of run A for each
    ``A[./]B[./]C`` token, ascending: the offsets where
    ``[0-9][./][0-9]{1,2}[./][0-9]{2}`` matches, moved to the start of its
    first run."""
    starts, ends = runs
    tokens = []
    for k in range(len(starts) - 2):
        e1 = ends[k]
        if starts[k + 1] != e1 + 1 or s[e1] not in "./" or ends[k + 1] - e1 > 3:
            continue
        e2 = ends[k + 1]
        if starts[k + 2] == e2 + 1 and s[e2] in "./" and ends[k + 2] - e2 >= 3:
            tokens.append((starts[k], e1, s[e1] == s[e2] == "."))
    return tokens


def idiosyncrasy_pattern_submatch(
    s: str, runs: Optional[DigitRuns] = None
) -> tuple[list[str], int]:
    """Earliest match across the four idiom patterns (DFA-race semantics):
    minimum start position wins; ties break by pattern order.  Each pattern
    is tried only in its start windows; a later pattern only before the
    best start so far.  Returns ([full, g1, g2, g3], start) or ([], -1)."""
    if runs is None:
        runs = digit_runs(s)
    tokens = _idiosyncrasy_tokens(s, runs)
    best: Optional[re.Match] = None
    if tokens:
        for pat, windows in zip(_IDIOSYNCRASY_PATTERNS, _IDIOSYNCRASY_WINDOWS):
            spans = (w for w in (windows(s, *t) for t in tokens) if w is not None)
            m = _first_match(pat, s, _merged(spans), None if best is None else best.start())
            if m is not None:
                best = m
    if best is None:
        return [], -1
    return [best.group(0), best.group(1), best.group(2), best.group(3)], best.start()


# regex-parse.re:4-16 — multilingual long-form dates (LONG_TEXT_PATTERN).
_MONTH_ALT = (
    r"January?|February?|March|A[pv]ril|Ma[iy]|Jun[ei]|Jul[iy]|August|"
    r"September|O[ck]tober|November|De[csz]ember|Jan|Feb|M[aä]r|Apr|Jun|Jul|"
    r"Aug|Sep|O[ck]t|Nov|De[cz]|Januari|Februari|Maret|Mei|Agustus|J[äÄ]nner|"
    r"Feber|M[äÄ]rz|janvier|f[éÉ]vrier|mars|juin|juillet|aout|septembre|"
    r"octobre|novembre|d[éÉ]cembre|Ocak|[şŞ]ubat|Mart|Nisan|May[ıI]s|Haziran|"
    r"Temmuz|A[ğĞ]ustos|Eyl[üÜ]l|Ekim|Kas[ıI]m|Aral[ıI]k|Oca|[şŞ]ub|Mar|Nis|"
    r"Haz|Tem|A[ğĞ]u|Eyl|Eki|Kas|Ara"
)
_WS = r"[\t\n\f\r ]"
_MDY_PATTERN = re.compile(
    rf"(?i)({_MONTH_ALT}){_WS}([0-3]?[0-9])(?:st|nd|rd|th)?,?{_WS}({_YEAR})"
)
_DMY_PATTERN = re.compile(
    rf"(?i)([0-3]?[0-9])(?:st|nd|rd|th|\.)?{_WS}(?:of{_WS})?({_MONTH_ALT})[,.]?{_WS}({_YEAR})"
)


# A match ends in whitespace plus a year; that whitespace lies this many
# characters after the match start (month 3-9, whitespace, day 1-2,
# suffix 0-2, comma 0-1; DMY: day 1-2, suffix 0-2, whitespace, "of " 0-3,
# month 3-9, [,.] 0-1).
_YEAR_AT = re.compile(_YEAR)
_MDY_WS_OFFSETS = (5, 15)
_DMY_WS_OFFSETS = (5, 18)


def ws_year_anchors(s: str, runs: DigitRuns) -> list[int]:
    """Ascending offsets where ``[\\t\\n\\f\\r ](?:YEAR)`` matches: the
    whitespace just before a run that opens with a year."""
    return [
        a - 1 for a, e in zip(*runs)
        if a and e - a >= 4 and s[a - 1] in "\t\n\f\r " and _YEAR_AT.match(s, a)
    ]


def _window_starts(anchors: list[int], lo: int, hi: int) -> Iterator[int]:
    """Ascending, distinct offsets ``a`` with ``lo <= w - a <= hi`` for some
    ``w`` in ``anchors`` (ascending)."""
    return _merged((w - hi, w - lo) for w in anchors)


def _first_valid(
    pattern: re.Pattern, s: str, month_group: int, starts: Iterable[int]
) -> Optional[re.Match]:
    """First match, tried at ``starts``, whose month is a real table
    entry — Python's IGNORECASE folds dotless ı↔i, which the reference's
    byte-DFA does not, so e.g. 'Aprıl' must be rejected here."""
    from .constants import MONTH_NUMBER

    for m in anchored_finditer(pattern, s, starts):
        if m.group(month_group).lower() in MONTH_NUMBER:
            return m
    return None


def find_long_text_pattern(
    s: str, runs: Optional[DigitRuns] = None
) -> Optional[tuple[str, str, str]]:
    """Earliest MDY-or-DMY long-form match → (year, month, day) strings."""
    anchors = ws_year_anchors(s, digit_runs(s) if runs is None else runs)
    m_mdy = _first_valid(_MDY_PATTERN, s, 1, _window_starts(anchors, *_MDY_WS_OFFSETS))
    m_dmy = _first_valid(_DMY_PATTERN, s, 2, _window_starts(anchors, *_DMY_WS_OFFSETS))
    if m_mdy is not None and (m_dmy is None or m_mdy.start() <= m_dmy.start()):
        return m_mdy.group(3), m_mdy.group(1), m_mdy.group(2)
    if m_dmy is not None:
        return m_dmy.group(3), m_dmy.group(2), m_dmy.group(1)
    return None


# --- lenient absolute parse (stand-in for the external dateparser) ----------
# The reference's last-resort parser (extractors.go:193-207) delegates to
# go-dateparser (CustomFormat+AbsoluteTime parsers, StrictParsing on).  This
# engine implements the same contract with a token-based absolute parser:
# strict = a full (year, month-name, day) triple must be present; weekday
# names, ordinal suffixes, times-of-day and unknown words are skipped, as the
# external library's tokenizer does.

# Per-locale month-name tables beyond the reference's long-text table
# (constants.MONTH_NUMBER covers en/de/fr/tr/id): the subset of
# go-dateparser's 200-locale data the web corpus exercises, organised by
# language code so DateParserConfig.languages can restrict the search.
LOCALE_MONTHS: dict[str, dict[str, int]] = {
    "fr": {
        "sept": 9, "août": 8, "aoû": 8, "fév": 2, "févr": 2, "janv": 1,
        "juil": 7, "déc": 12, "avr": 4,
    },
    "es": {
        "enero": 1, "febrero": 2, "marzo": 3, "abril": 4, "mayo": 5,
        "junio": 6, "julio": 7, "agosto": 8, "septiembre": 9, "setiembre": 9,
        "octubre": 10, "noviembre": 11, "diciembre": 12,
    },
    "it": {
        "gennaio": 1, "febbraio": 2, "marzo": 3, "aprile": 4, "maggio": 5,
        "giugno": 6, "luglio": 7, "agosto": 8, "settembre": 9, "ottobre": 10,
        "novembre": 11, "dicembre": 12,
    },
    "nl": {
        "januari": 1, "februari": 2, "maart": 3, "mei": 5, "juni": 6,
        "juli": 7, "augustus": 8, "oktober": 10, "december": 12,
    },
    "pt": {
        "janeiro": 1, "fevereiro": 2, "março": 3, "marco": 3, "abril": 4,
        "maio": 5, "junho": 6, "julho": 7, "agosto": 8, "setembro": 9,
        "outubro": 10, "novembro": 11, "dezembro": 12,
    },
    "pl": {
        "stycznia": 1, "styczeń": 1, "styczen": 1, "lutego": 2, "luty": 2,
        "marca": 3, "marzec": 3, "kwietnia": 4, "kwiecień": 4, "maja": 5,
        "czerwca": 6, "czerwiec": 6, "lipca": 7, "lipiec": 7, "sierpnia": 8,
        "sierpień": 8, "września": 9, "wrzesień": 9, "października": 10,
        "październik": 10, "listopada": 11, "listopad": 11, "grudnia": 12,
        "grudzień": 12,
    },
    "cs": {
        "ledna": 1, "leden": 1, "února": 2, "únor": 2, "března": 3,
        "březen": 3, "dubna": 4, "duben": 4, "května": 5, "květen": 5,
        "června": 6, "červen": 6, "července": 7, "červenec": 7, "srpna": 8,
        "srpen": 8, "září": 9, "října": 10, "říjen": 10, "listopadu": 11,
        "prosince": 12, "prosinec": 12,
    },
    "ro": {
        "ianuarie": 1, "februarie": 2, "martie": 3, "aprilie": 4, "iunie": 6,
        "iulie": 7, "septembrie": 9, "octombrie": 10, "noiembrie": 11,
        "decembrie": 12,
    },
    "sv": {
        "januari": 1, "februari": 2, "mars": 3, "maj": 5, "juni": 6,
        "juli": 7, "augusti": 8, "oktober": 10, "december": 12,
    },
    "da": {
        "januar": 1, "februar": 2, "marts": 3, "maj": 5, "juni": 6,
        "juli": 7, "august": 8, "oktober": 10, "december": 12,
    },
    "fi": {
        "tammikuuta": 1, "tammikuu": 1, "helmikuuta": 2, "helmikuu": 2,
        "maaliskuuta": 3, "maaliskuu": 3, "huhtikuuta": 4, "huhtikuu": 4,
        "toukokuuta": 5, "toukokuu": 5, "kesäkuuta": 6, "kesäkuu": 6,
        "heinäkuuta": 7, "heinäkuu": 7, "elokuuta": 8, "elokuu": 8,
        "syyskuuta": 9, "syyskuu": 9, "lokakuuta": 10, "lokakuu": 10,
        "marraskuuta": 11, "marraskuu": 11, "joulukuuta": 12, "joulukuu": 12,
    },
    "el": {
        "ιανουαρίου": 1, "φεβρουαρίου": 2, "μαρτίου": 3, "απριλίου": 4,
        "μαΐου": 5, "ιουνίου": 6, "ιουλίου": 7, "αυγούστου": 8,
        "σεπτεμβρίου": 9, "οκτωβρίου": 10, "νοεμβρίου": 11, "δεκεμβρίου": 12,
        # nominatives (archive headers: "Ιανουάριος 2020")
        "ιανουάριος": 1, "φεβρουάριος": 2, "μάρτιος": 3, "απρίλιος": 4,
        "μάιος": 5, "ιούνιος": 6, "ιούλιος": 7, "αύγουστος": 8,
        "σεπτέμβριος": 9, "οκτώβριος": 10, "νοέμβριος": 11, "δεκέμβριος": 12,
    },
    "ar": {
        "يناير": 1, "فبراير": 2, "مارس": 3, "أبريل": 4, "ابريل": 4,
        "مايو": 5, "يونيو": 6, "يوليو": 7, "أغسطس": 8, "اغسطس": 8,
        "سبتمبر": 9, "أكتوبر": 10, "اكتوبر": 10, "نوفمبر": 11, "ديسمبر": 12,
    },
    "ru": {
        "январь": 1, "января": 1, "февраль": 2, "февраля": 2, "март": 3,
        "марта": 3, "апрель": 4, "апреля": 4, "май": 5, "мая": 5,
        "июнь": 6, "июня": 6, "июль": 7, "июля": 7, "август": 8,
        "августа": 8, "сентябрь": 9, "сентября": 9, "октябрь": 10,
        "октября": 10, "ноябрь": 11, "ноября": 11, "декабрь": 12,
        "декабря": 12,
    },
    "uk": {
        "січня": 1, "лютого": 2, "березня": 3, "квітня": 4, "травня": 5,
        "червня": 6, "липня": 7, "серпня": 8, "вересня": 9, "жовтня": 10,
        "листопада": 11, "грудня": 12,
        # nominatives (headers/archives: "січень 2020"); Cyrillic
        # "листопад" is distinct from Croatian Latin "listopad"=October
        "січень": 1, "лютий": 2, "березень": 3, "квітень": 4,
        "травень": 5, "червень": 6, "липень": 7, "серпень": 8,
        "вересень": 9, "жовтень": 10, "листопад": 11, "грудень": 12,
    },
    "hu": {
        "január": 1, "jan": 1, "február": 2, "febr": 2, "március": 3,
        "márc": 3, "április": 4, "ápr": 4, "május": 5, "máj": 5,
        "június": 6, "jún": 6, "július": 7, "júl": 7, "augusztus": 8,
        "szeptember": 9, "szept": 9, "október": 10, "okt": 10,
        "november": 11, "december": 12,
    },
    "no": {
        "januar": 1, "februar": 2, "mars": 3, "mai": 5, "juni": 6,
        "juli": 7, "august": 8, "oktober": 10, "desember": 12,
    },
    # nominative + genitive forms for the inflecting languages, as
    # go-dateparser's per-locale translation data does
    "sk": {
        "január": 1, "januára": 1, "február": 2, "februára": 2,
        "marec": 3, "marca": 3, "apríl": 4, "apríla": 4, "máj": 5,
        "mája": 5, "jún": 6, "júna": 6, "júl": 7, "júla": 7,
        "august": 8, "augusta": 8, "september": 9, "septembra": 9,
        "október": 10, "októbra": 10, "november": 11, "novembra": 11,
        "december": 12, "decembra": 12,
    },
    "sl": {
        "januar": 1, "januarja": 1, "februar": 2, "februarja": 2,
        "marec": 3, "marca": 3, "april": 4, "aprila": 4, "maj": 5,
        "maja": 5, "junij": 6, "junija": 6, "julij": 7, "julija": 7,
        "avgust": 8, "avgusta": 8, "september": 9, "septembra": 9,
        "oktober": 10, "oktobra": 10, "november": 11, "novembra": 11,
        "december": 12, "decembra": 12,
    },
    # hr "listopad(a)" (October) is EXCLUDED here: it collides with
    # Polish/Czech listopad (November) in the unrestricted merge — it
    # lives in the restricted table, applied only under an explicit
    # languages=["hr"] config.
    "hr": {
        "siječanj": 1, "siječnja": 1, "veljača": 2, "veljače": 2,
        "ožujak": 3, "ožujka": 3, "travanj": 4, "travnja": 4,
        "svibanj": 5, "svibnja": 5, "lipanj": 6, "lipnja": 6,
        "srpanj": 7, "srpnja": 7, "kolovoz": 8, "kolovoza": 8,
        "rujan": 9, "rujna": 9, "studeni": 11, "studenog": 11,
        "studenoga": 11, "prosinac": 12, "prosinca": 12,
    },
    "sr": {
        "januara": 1, "februara": 2, "mart": 3, "marta": 3,
        "aprila": 4, "jun": 6, "juna": 6, "jul": 7, "jula": 7,
        "avgusta": 8, "septembar": 9, "oktobar": 10, "novembar": 11,
        "decembar": 12,
        "јануар": 1, "јануара": 1, "фебруар": 2, "фебруара": 2,
        "март": 3, "марта": 3, "април": 4, "априла": 4, "мај": 5,
        "маја": 5, "јун": 6, "јуна": 6, "јул": 7, "јула": 7,
        "август": 8, "августа": 8, "септембар": 9, "септембра": 9,
        "октобар": 10, "октобра": 10, "новембар": 11, "новембра": 11,
        "децембар": 12, "децембра": 12,
    },
    "bg": {
        "януари": 1, "февруари": 2, "март": 3, "април": 4, "май": 5,
        "юни": 6, "юли": 7, "август": 8, "септември": 9,
        "октомври": 10, "ноември": 11, "декември": 12,
    },
    "lt": {
        "sausis": 1, "sausio": 1, "vasaris": 2, "vasario": 2,
        "kovas": 3, "kovo": 3, "balandis": 4, "balandžio": 4,
        "gegužė": 5, "gegužės": 5, "birželis": 6, "birželio": 6,
        "liepa": 7, "liepos": 7, "rugpjūtis": 8, "rugpjūčio": 8,
        "rugsėjis": 9, "rugsėjo": 9, "spalis": 10, "spalio": 10,
        "lapkritis": 11, "lapkričio": 11, "gruodis": 12, "gruodžio": 12,
    },
    "lv": {
        "janvāris": 1, "janvāra": 1, "februāris": 2, "februāra": 2,
        "marts": 3, "marta": 3, "aprīlis": 4, "aprīļa": 4,
        "maijs": 5, "maija": 5, "jūnijs": 6, "jūnija": 6,
        "jūlijs": 7, "jūlija": 7, "augusts": 8, "augusta": 8,
        "septembris": 9, "septembra": 9, "oktobris": 10, "oktobra": 10,
        "novembris": 11, "novembra": 11, "decembris": 12, "decembra": 12,
    },
    "et": {
        "jaanuar": 1, "jaanuari": 1, "veebruar": 2, "veebruari": 2,
        "märts": 3, "märtsi": 3, "aprill": 4, "aprilli": 4, "mai": 5,
        "juuni": 6, "juuli": 7, "august": 8, "augusti": 8,
        "september": 9, "septembri": 9, "oktoober": 10, "oktoobri": 10,
        "november": 11, "novembri": 11, "detsember": 12, "detsembri": 12,
    },
    # round-5 completion batch: the last five go-dateparser base
    # languages without a table (gd/ky/se/ug/yo) — with these every
    # base language of the external library's data set is covered.
    "gd": {
        # Scottish Gaelic; articles ("an", "am") and the "t-" prefix
        # tokenize away, so the bare nouns carry the month
        "faoilleach": 1, "gearran": 2, "màrt": 3, "giblean": 4,
        "cèitean": 5, "ògmhios": 6, "iuchar": 7, "lùnastal": 8,
        "sultain": 9, "dàmhair": 10, "samhain": 11, "dùbhlachd": 12,
    },
    "ky": {
        # Kyrgyz civil months are the Russian loans (go-dateparser's ky
        # data); duplicated under the ky key so languages=["ky"] works
        "январь": 1, "января": 1, "февраль": 2, "февраля": 2,
        "март": 3, "марта": 3, "апрель": 4, "апреля": 4, "май": 5,
        "мая": 5, "июнь": 6, "июня": 6, "июль": 7, "июля": 7,
        "август": 8, "августа": 8, "сентябрь": 9, "сентября": 9,
        "октябрь": 10, "октября": 10, "ноябрь": 11, "ноября": 11,
        "декабрь": 12, "декабря": 12,
    },
    "se": {
        # Northern Sami, nominative + genitive (-mánnu / -mánu)
        "ođđajagimánnu": 1, "ođđajagimánu": 1, "guovvamánnu": 2,
        "guovvamánu": 2, "njukčamánnu": 3, "njukčamánu": 3,
        "cuoŋománnu": 4, "cuoŋománu": 4, "miessemánnu": 5,
        "miessemánu": 5, "geassemánnu": 6, "geassemánu": 6,
        "suoidnemánnu": 7, "suoidnemánu": 7, "borgemánnu": 8,
        "borgemánu": 8, "čakčamánnu": 9, "čakčamánu": 9,
        "golggotmánnu": 10, "golggotmánu": 10, "skábmamánnu": 11,
        "skábmamánu": 11, "juovlamánnu": 12, "juovlamánu": 12,
    },
    "ug": {
        # Uyghur (Arabic script Russian loans)
        "يانۋار": 1, "فېۋرال": 2, "مارت": 3, "ئاپرېل": 4, "ماي": 5,
        "ئىيۇن": 6, "ئىيۇل": 7, "ئاۋغۇست": 8, "سېنتەبىر": 9,
        "ئۆكتەبىر": 10, "نويابىر": 11, "دېكابىر": 12,
    },
    "yo": {
        # Yoruba; the "oṣù" month-marker is a skip word
        "ṣẹ́rẹ́": 1, "èrèlè": 2, "ẹrẹ̀nà": 3, "ìgbé": 4, "ẹ̀bibi": 5,
        "òkúdu": 6, "agẹmọ": 7, "ògún": 8, "owewe": 9, "ọ̀wàrà": 10,
        "bélú": 11, "ọ̀pẹ̀": 12,
    },
    "ca": {
        "gener": 1, "febrer": 2, "març": 3, "abril": 4, "maig": 5,
        "juny": 6, "juliol": 7, "agost": 8, "setembre": 9,
        "octubre": 10, "novembre": 11, "desembre": 12,
    },
    "gl": {
        "xaneiro": 1, "febreiro": 2, "marzo": 3, "abril": 4, "maio": 5,
        "xuño": 6, "xullo": 7, "agosto": 8, "setembro": 9,
        "outubro": 10, "novembro": 11, "decembro": 12,
    },
    "is": {
        "janúar": 1, "febrúar": 2, "mars": 3, "apríl": 4, "maí": 5,
        "júní": 6, "júlí": 7, "ágúst": 8, "september": 9,
        "október": 10, "nóvember": 11, "desember": 12,
    },
    "he": {
        "ינואר": 1, "פברואר": 2, "מרץ": 3, "מרס": 3, "אפריל": 4,
        "מאי": 5, "יוני": 6, "יולי": 7, "אוגוסט": 8, "ספטמבר": 9,
        "אוקטובר": 10, "נובמבר": 11, "דצמבר": 12,
    },
    # Gregorian month names as used in Persian-language pages (Solar
    # Hijri calendar dates are out of scope, as in go-dateparser's
    # default Gregorian setting)
    "fa": {
        "ژانویه": 1, "فوریه": 2, "مارس": 3, "آوریل": 4, "مه": 5,
        "ژوئن": 6, "ژوئیه": 7, "جولای": 7, "اوت": 8, "سپتامبر": 9,
        "اکتبر": 10, "نوامبر": 11, "دسامبر": 12,
    },
    # Thai month names (pages using the Buddhist era year are NOT
    # converted — same as go-dateparser without the buddhist setting)
    "th": {
        "มกราคม": 1, "กุมภาพันธ์": 2, "มีนาคม": 3, "เมษายน": 4,
        "พฤษภาคม": 5, "มิถุนายน": 6, "กรกฎาคม": 7, "สิงหาคม": 8,
        "กันยายน": 9, "ตุลาคม": 10, "พฤศจิกายน": 11, "ธันวาคม": 12,
    },
    "hi": {
        "जनवरी": 1, "फ़रवरी": 2, "फरवरी": 2, "मार्च": 3, "अप्रैल": 4,
        "मई": 5, "जून": 6, "जुलाई": 7, "अगस्त": 8, "सितंबर": 9,
        "सितम्बर": 9, "अक्टूबर": 10, "अक्तूबर": 10, "नवंबर": 11,
        "नवम्बर": 11, "दिसंबर": 12, "दिसम्बर": 12,
    },
    "id": {
        "januari": 1, "februari": 2, "maret": 3, "april": 4, "mei": 5,
        "juni": 6, "juli": 7, "agustus": 8, "september": 9,
        "oktober": 10, "november": 11, "desember": 12,
    },
    # ms "mac" (March) is EXCLUDED here: it is an ordinary English word
    # — restricted table, like cs "led" / pt "out".
    "ms": {
        "januari": 1, "februari": 2, "april": 4, "mei": 5, "jun": 6,
        "julai": 7, "ogos": 8, "september": 9, "oktober": 10,
        "november": 11, "disember": 12,
    },
    "tl": {
        "enero": 1, "pebrero": 2, "marso": 3, "abril": 4, "mayo": 5,
        "hunyo": 6, "hulyo": 7, "agosto": 8, "setyembre": 9,
        "oktubre": 10, "nobyembre": 11, "disyembre": 12,
    },
    "sw": {
        "januari": 1, "februari": 2, "machi": 3, "aprili": 4, "mei": 5,
        "juni": 6, "julai": 7, "agosti": 8, "septemba": 9,
        "oktoba": 10, "novemba": 11, "desemba": 12,
    },
    # af "junie"/"julie" are EXCLUDED here: common given names in
    # English prose — restricted table.
    "af": {
        "januarie": 1, "februarie": 2, "maart": 3, "april": 4, "mei": 5,
        "augustus": 8, "september": 9, "oktober": 10, "november": 11,
        "desember": 12,
    },
    "az": {
        "yanvar": 1, "fevral": 2, "mart": 3, "aprel": 4, "may": 5,
        "iyun": 6, "iyul": 7, "avqust": 8, "sentyabr": 9,
        "oktyabr": 10, "noyabr": 11, "dekabr": 12,
    },
    "uz": {
        "yanvar": 1, "fevral": 2, "mart": 3, "aprel": 4, "may": 5,
        "iyun": 6, "iyul": 7, "avgust": 8, "sentabr": 9, "sentyabr": 9,
        "oktabr": 10, "oktyabr": 10, "noyabr": 11, "dekabr": 12,
    },
    "sq": {
        "janar": 1, "shkurt": 2, "mars": 3, "prill": 4, "maj": 5,
        "qershor": 6, "korrik": 7, "gusht": 8, "shtator": 9,
        "tetor": 10, "nëntor": 11, "nentor": 11, "dhjetor": 12,
    },
    "bs": {
        "januar": 1, "februar": 2, "mart": 3, "april": 4, "maj": 5,
        "juni": 6, "juli": 7, "avgust": 8, "august": 8,
        "septembar": 9, "oktobar": 10, "novembar": 11, "decembar": 12,
    },
    "mk": {
        "јануари": 1, "февруари": 2, "март": 3, "април": 4, "мај": 5,
        "јуни": 6, "јули": 7, "август": 8, "септември": 9,
        "октомври": 10, "ноември": 11, "декември": 12,
    },
    "be": {
        "студзень": 1, "студзеня": 1, "люты": 2, "лютага": 2,
        "сакавік": 3, "сакавіка": 3, "красавік": 4, "красавіка": 4,
        "май": 5, "мая": 5, "чэрвень": 6, "чэрвеня": 6, "ліпень": 7,
        "ліпеня": 7, "жнівень": 8, "жніўня": 8, "верасень": 9,
        "верасня": 9, "кастрычнік": 10, "кастрычніка": 10,
        "лістапад": 11, "лістапада": 11, "снежань": 12, "снежня": 12,
    },
    "kk": {
        "қаңтар": 1, "ақпан": 2, "наурыз": 3, "сәуір": 4, "мамыр": 5,
        "маусым": 6, "шілде": 7, "тамыз": 8, "қыркүйек": 9,
        "қазан": 10, "қараша": 11, "желтоқсан": 12,
    },
    # nominative + genitive (-ի), as the inflecting-language tables above
    "hy": {
        "հունվար": 1, "հունվարի": 1, "փետրվար": 2, "փետրվարի": 2,
        "մարտ": 3, "մարտի": 3, "ապրիլ": 4, "ապրիլի": 4, "մայիս": 5,
        "մայիսի": 5, "հունիս": 6, "հունիսի": 6, "հուլիս": 7,
        "հուլիսի": 7, "օգոստոս": 8, "օգոստոսի": 8, "սեպտեմբեր": 9,
        "սեպտեմբերի": 9, "հոկտեմբեր": 10, "հոկտեմբերի": 10,
        "նոյեմբեր": 11, "նոյեմբերի": 11, "դեկտեմբեր": 12,
        "դեկտեմբերի": 12,
    },
    # nominative + dative (-ს) case forms
    "ka": {
        "იანვარი": 1, "იანვარს": 1, "თებერვალი": 2, "თებერვალს": 2,
        "მარტი": 3, "მარტს": 3, "აპრილი": 4, "აპრილს": 4,
        "მაისი": 5, "მაისს": 5, "ივნისი": 6, "ივნისს": 6,
        "ივლისი": 7, "ივლისს": 7, "აგვისტო": 8, "აგვისტოს": 8,
        "სექტემბერი": 9, "სექტემბერს": 9, "ოქტომბერი": 10,
        "ოქტომბერს": 10, "ნოემბერი": 11, "ნოემბერს": 11,
        "დეკემბერი": 12, "დეკემბერს": 12,
    },
    "bn": {
        "জানুয়ারি": 1, "জানুয়ারী": 1, "ফেব্রুয়ারি": 2, "ফেব্রুয়ারী": 2,
        "মার্চ": 3, "এপ্রিল": 4, "মে": 5, "জুন": 6, "জুলাই": 7,
        "আগস্ট": 8, "অগাস্ট": 8, "সেপ্টেম্বর": 9, "অক্টোবর": 10,
        "নভেম্বর": 11, "ডিসেম্বর": 12,
    },
    "ta": {
        "ஜனவரி": 1, "பிப்ரவரி": 2, "மார்ச்": 3, "ஏப்ரல்": 4, "மே": 5,
        "ஜூன்": 6, "ஜூலை": 7, "ஆகஸ்ட்": 8, "செப்டம்பர்": 9,
        "அக்டோபர்": 10, "நவம்பர்": 11, "டிசம்பர்": 12,
    },
    # Urdu month names differ from the ar table's (distinct strings, no
    # collision in the merged bag)
    "ur": {
        "جنوری": 1, "فروری": 2, "مارچ": 3, "اپریل": 4, "مئی": 5,
        "جون": 6, "جولائی": 7, "اگست": 8, "ستمبر": 9, "اکتوبر": 10,
        "نومبر": 11, "دسمبر": 12,
    },
    "cy": {
        "ionawr": 1, "chwefror": 2, "mawrth": 3, "ebrill": 4, "mai": 5,
        "mehefin": 6, "gorffennaf": 7, "awst": 8, "medi": 9,
        "hydref": 10, "tachwedd": 11, "rhagfyr": 12,
    },
    # single-token months only (Meán/Deireadh Fómhair are two-word and
    # outside the tokenizer's single-word month match)
    "ga": {
        "eanáir": 1, "feabhra": 2, "márta": 3, "aibreán": 4,
        "aibreáin": 4, "bealtaine": 5, "meitheamh": 6, "iúil": 7,
        "lúnasa": 8, "samhain": 11, "nollaig": 12,
    },
    "eu": {
        "urtarrila": 1, "otsaila": 2, "martxoa": 3, "apirila": 4,
        "maiatza": 5, "ekaina": 6, "uztaila": 7, "abuztua": 8,
        "iraila": 9, "urria": 10, "azaroa": 11, "abendua": 12,
    },
    "mt": {
        "jannar": 1, "frar": 2, "marzu": 3, "april": 4, "mejju": 5,
        "ġunju": 6, "gunju": 6, "lulju": 7, "awwissu": 8,
        "settembru": 9, "ottubru": 10, "novembru": 11,
        "diċembru": 12, "dicembru": 12,
    },
    # ---- round-5 batch: Indic / SE-Asian scripts (collision-proof by
    # script) + Latin-script locales with the ambiguous-in-prose forms
    # routed to the restricted table, continuing go-dateparser's
    # per-locale translation layout (extractors.go:193-207).
    "mr": {
        "जानेवारी": 1, "फेब्रुवारी": 2, "मार्च": 3, "एप्रिल": 4, "मे": 5,
        "जून": 6, "जुलै": 7, "ऑगस्ट": 8, "सप्टेंबर": 9, "ऑक्टोबर": 10,
        "नोव्हेंबर": 11, "डिसेंबर": 12,
    },
    "gu": {
        "જાન્યુઆરી": 1, "ફેબ્રુઆરી": 2, "માર્ચ": 3, "એપ્રિલ": 4, "મે": 5,
        "જૂન": 6, "જુલાઈ": 7, "ઑગસ્ટ": 8, "ઓગસ્ટ": 8, "સપ્ટેમ્બર": 9,
        "ઑક્ટોબર": 10, "ઓક્ટોબર": 10, "નવેમ્બર": 11, "ડિસેમ્બર": 12,
    },
    "kn": {
        "ಜನವರಿ": 1, "ಫೆಬ್ರವರಿ": 2, "ಮಾರ್ಚ್": 3, "ಏಪ್ರಿಲ್": 4, "ಮೇ": 5,
        "ಜೂನ್": 6, "ಜುಲೈ": 7, "ಆಗಸ್ಟ್": 8, "ಸೆಪ್ಟೆಂಬರ್": 9,
        "ಅಕ್ಟೋಬರ್": 10, "ನವೆಂಬರ್": 11, "ಡಿಸೆಂಬರ್": 12,
    },
    "te": {
        "జనవరి": 1, "ఫిబ్రవరి": 2, "మార్చి": 3, "ఏప్రిల్": 4, "మే": 5,
        "జూన్": 6, "జులై": 7, "జూలై": 7, "ఆగస్టు": 8, "సెప్టెంబర్": 9,
        "అక్టోబర్": 10, "నవంబర్": 11, "డిసెంబర్": 12,
    },
    "ml": {
        "ജനുവരി": 1, "ഫെബ്രുവരി": 2, "മാർച്ച്": 3, "ഏപ്രിൽ": 4,
        "മേയ്": 5, "മെയ്": 5, "ജൂൺ": 6, "ജൂലൈ": 7, "ഓഗസ്റ്റ്": 8,
        "ആഗസ്റ്റ്": 8, "സെപ്റ്റംബർ": 9, "ഒക്ടോബർ": 10, "നവംബർ": 11,
        "ഡിസംബർ": 12,
    },
    "pa": {
        "ਜਨਵਰੀ": 1, "ਫ਼ਰਵਰੀ": 2, "ਫਰਵਰੀ": 2, "ਮਾਰਚ": 3, "ਅਪ੍ਰੈਲ": 4,
        "ਮਈ": 5, "ਜੂਨ": 6, "ਜੁਲਾਈ": 7, "ਅਗਸਤ": 8, "ਸਤੰਬਰ": 9,
        "ਅਕਤੂਬਰ": 10, "ਨਵੰਬਰ": 11, "ਦਸੰਬਰ": 12,
    },
    "ne": {
        "जनवरी": 1, "फेब्रुअरी": 2, "मार्च": 3, "अप्रिल": 4, "मे": 5,
        "जुन": 6, "जुलाई": 7, "अगस्ट": 8, "सेप्टेम्बर": 9,
        "अक्टोबर": 10, "नोभेम्बर": 11, "डिसेम्बर": 12,
    },
    "si": {
        "ජනවාරි": 1, "පෙබරවාරි": 2, "මාර්තු": 3, "අප්‍රේල්": 4,
        "මැයි": 5, "ජූනි": 6, "ජූලි": 7, "අගෝස්තු": 8,
        "සැප්තැම්බර්": 9, "ඔක්තෝබර්": 10, "ඔක්තෝම්බර්": 10,
        "නොවැම්බර්": 11, "දෙසැම්බර්": 12,
    },
    # Khmer months usually carry the ខែ ("month") prefix attached to the
    # name; both bare and prefixed forms are listed.
    "km": {
        "មករា": 1, "កុម្ភៈ": 2, "មីនា": 3, "មេសា": 4, "ឧសភា": 5,
        "មិថុនា": 6, "កក្កដា": 7, "សីហា": 8, "កញ្ញា": 9, "តុលា": 10,
        "វិច្ឆិកា": 11, "ធ្នូ": 12,
        "ខែមករា": 1, "ខែកុម្ភៈ": 2, "ខែមីនា": 3, "ខែមេសា": 4,
        "ខែឧសភា": 5, "ខែមិថុនា": 6, "ខែកក្កដា": 7, "ខែសីហា": 8,
        "ខែកញ្ញា": 9, "ខែតុលា": 10, "ខែវិច្ឆិកា": 11, "ខែធ្នូ": 12,
    },
    "lo": {
        "ມັງກອນ": 1, "ກຸມພາ": 2, "ມີນາ": 3, "ເມສາ": 4, "ພຶດສະພາ": 5,
        "ມິຖຸນາ": 6, "ກໍລະກົດ": 7, "ສິງຫາ": 8, "ກັນຍາ": 9, "ຕຸລາ": 10,
        "ພະຈິກ": 11, "ທັນວາ": 12,
    },
    "my": {
        "ဇန်နဝါရီ": 1, "ဖေဖော်ဝါရီ": 2, "မတ်": 3, "ဧပြီ": 4, "မေ": 5,
        "ဇွန်": 6, "ဇူလိုင်": 7, "သြဂုတ်": 8, "ဩဂုတ်": 8,
        "စက်တင်ဘာ": 9, "အောက်တိုဘာ": 10, "နိုဝင်ဘာ": 11, "ဒီဇင်ဘာ": 12,
    },
    "am": {
        "ጃንዋሪ": 1, "ፌብሩዋሪ": 2, "ማርች": 3, "ኤፕሪል": 4, "ሜይ": 5,
        "ጁን": 6, "ጁላይ": 7, "ኦገስት": 8, "ሴፕቴምበር": 9, "ኦክቶበር": 10,
        "ኖቬምበር": 11, "ዲሴምበር": 12,
    },
    # eo "aŭgusto" only: the ASCII fold "augusto" is a common
    # Portuguese/Spanish given name — restricted table.
    "eo": {
        "januaro": 1, "februaro": 2, "marto": 3, "aprilo": 4, "majo": 5,
        "junio": 6, "julio": 7, "aŭgusto": 8, "septembro": 9,
        "oktobro": 10, "novembro": 11, "decembro": 12,
    },
    # fo is entirely shared strings (da/no/is forms, same values); the
    # table still matters for DateParserConfig.languages=["fo"].
    "fo": {
        "januar": 1, "februar": 2, "mars": 3, "apríl": 4, "mai": 5,
        "juni": 6, "juli": 7, "august": 8, "september": 9,
        "oktober": 10, "november": 11, "desember": 12,
    },
    "fy": {
        "jannewaris": 1, "febrewaris": 2, "maart": 3, "april": 4,
        "maaie": 5, "juny": 6, "july": 7, "augustus": 8,
        "septimber": 9, "oktober": 10, "novimber": 11, "desimber": 12,
    },
    # lb "mee" (May) is Malay prose ("mee goreng") — restricted table.
    "lb": {
        "januar": 1, "februar": 2, "mäerz": 3, "abrëll": 4, "juni": 6,
        "juli": 7, "august": 8, "september": 9, "oktober": 10,
        "november": 11, "dezember": 12,
    },
    "oc": {
        "genièr": 1, "febrièr": 2, "març": 3, "abril": 4, "mai": 5,
        "junh": 6, "julhet": 7, "agost": 8, "setembre": 9,
        "octobre": 10, "novembre": 11, "decembre": 12,
    },
    # br "mae" (May) is the Welsh copula, "here" (October) English,
    # "du" (November) a French/skip word — all restricted.  C'hwevrer
    # (February) contains an apostrophe the single-word tokenizer
    # splits, so it is out of reach (same rule as ga's two-word months).
    "br": {
        "genver": 1, "meurzh": 3, "ebrel": 4, "mezheven": 6,
        "gouere": 7, "eost": 8, "gwengolo": 9, "kerzu": 12,
    },
    # ht "mas"/"me"/"jen"/"out" are everyday words (es/en/pt) —
    # restricted; "out" is additionally skipped there because the pt
    # restricted table claims it for October.
    "ht": {
        "janvye": 1, "fevriye": 2, "avril": 4, "jiyè": 7, "septanm": 9,
        "oktòb": 10, "novanm": 11, "desanm": 12,
    },
    "so": {
        "janaayo": 1, "febraayo": 2, "maarso": 3, "abriil": 4, "may": 5,
        "juun": 6, "luuliyo": 7, "ogost": 8, "sebteembar": 9,
        "oktoobar": 10, "nofeembar": 11, "diseembar": 12,
    },
    "ha": {
        "janairu": 1, "faburairu": 2, "maris": 3, "afirilu": 4,
        "mayu": 5, "yuni": 6, "yuli": 7, "agusta": 8, "satumba": 9,
        "oktoba": 10, "nuwamba": 11, "disamba": 12,
    },
    "zu": {
        "januwari": 1, "februwari": 2, "mashi": 3, "ephreli": 4,
        "meyi": 5, "juni": 6, "julayi": 7, "agasti": 8,
        "septhemba": 9, "okthoba": 10, "novemba": 11, "disemba": 12,
    },
    # rw "mata" (April) is Spanish prose — restricted table.
    "rw": {
        "mutarama": 1, "gashyantare": 2, "werurwe": 3, "gicurasi": 5,
        "kamena": 6, "nyakanga": 7, "kanama": 8, "nzeri": 9,
        "ukwakira": 10, "ugushyingo": 11, "ukuboza": 12,
    },
    "mg": {
        "janoary": 1, "febroary": 2, "martsa": 3, "aprily": 4, "mey": 5,
        "jona": 6, "jolay": 7, "aogositra": 8, "septambra": 9,
        "oktobra": 10, "novambra": 11, "desambra": 12,
    },
    "ceb": {
        "enero": 1, "pebrero": 2, "marso": 3, "abril": 4, "mayo": 5,
        "hunyo": 6, "hulyo": 7, "agosto": 8, "septiyembre": 9,
        "oktubre": 10, "nobiyembre": 11, "disyembre": 12,
    },
    # tt/tg borrow the Russian names with Tatar гыйнвар / Tajik
    # soft-sign-less forms as the only new strings.
    "tt": {
        "гыйнвар": 1, "февраль": 2, "март": 3, "апрель": 4, "май": 5,
        "июнь": 6, "июль": 7, "август": 8, "сентябрь": 9,
        "октябрь": 10, "ноябрь": 11, "декабрь": 12,
    },
    "tg": {
        "январ": 1, "феврал": 2, "март": 3, "апрел": 4, "май": 5,
        "июн": 6, "июл": 7, "август": 8, "сентябр": 9, "октябр": 10,
        "ноябр": 11, "декабр": 12,
    },
    "tk": {
        "ýanwar": 1, "fewral": 2, "mart": 3, "aprel": 4, "maý": 5,
        "iýun": 6, "iýul": 7, "awgust": 8, "sentýabr": 9,
        "oktýabr": 10, "noýabr": 11, "dekabr": 12,
    },
    # ps shares most strings with ur/fa (same values); جنوري / فبروري /
    # اګست / سپتمبر are the Pashto-specific forms.  "می" (May) doubles
    # as the Persian verb particle — restricted table.
    "ps": {
        "جنوري": 1, "فبروري": 2, "مارچ": 3, "اپریل": 4, "جون": 6,
        "جولای": 7, "اګست": 8, "سپتمبر": 9, "اکتوبر": 10, "نومبر": 11,
        "دسمبر": 12,
    },
}

# Month ABBREVIATIONS that are safe in the unrestricted merge: none of
# these is an ordinary word of any supported language (checked against
# en/de/fr/es/it/id at least), so the global extensive-search bag may
# contain them without turning prose into false dates.
_LOCALE_MONTH_ABBREVS_SAFE: dict[str, dict[str, int]] = {
    "es": {"ene": 1, "abr": 4, "dic": 12},
    "it": {"giu": 6, "ott": 10, "dic": 12},
    "pt": {"fev": 2, "dez": 12},
    "pl": {
        "lut": 2, "kwi": 4, "maj": 5, "cze": 6,
        "wrz": 9, "paź": 10, "gru": 12,
    },
    "cs": {
        "úno": 2, "bře": 3, "kvě": 5, "čvn": 6, "čvc": 7,
        "srp": 8, "zář": 9, "říj": 10,
    },
    "nl": {"mrt": 3},
    "ro": {"ian": 1, "iun": 6, "iul": 7},
    "ru": {
        "янв": 1, "фев": 2, "мар": 3, "апр": 4, "июн": 6, "июл": 7,
        "авг": 8, "сен": 9, "сент": 9, "окт": 10, "ноя": 11, "дек": 12,
    },
    # round-5 depth batch: abbreviations for the locales whose full +
    # genitive tables landed in round 4 (the go-dateparser abbreviated
    # forms; stems that double as ordinary prose words live in the
    # restricted table below).
    "el": {
        # Greek script is unique to el — no cross-locale collisions
        "ιαν": 1, "φεβ": 2, "μάρ": 3, "μαρ": 3, "απρ": 4, "μαΐ": 5,
        "μαϊ": 5, "ιούν": 6, "ιουν": 6, "ιούλ": 7, "ιουλ": 7, "αύγ": 8,
        "αυγ": 8, "σεπ": 9, "σεπτ": 9, "οκτ": 10, "νοέ": 11, "νοε": 11,
        "δεκ": 12,
    },
    "bg": {"яну": 1, "септ": 9, "ное": 11},
    "uk": {
        "січ": 1, "лют": 2, "бер": 3, "квіт": 4, "трав": 5, "черв": 6,
        "лип": 7, "серп": 8, "вер": 9, "жовт": 10,
    },
    "sr": {"јан": 1, "феб": 2, "сеп": 9, "дец": 12},
    "fi": {
        # stems used as abbreviations ("3. maalis 2019"); elo/loka are
        # ordinary Finnish nouns and live in the restricted table
        "tammi": 1, "helmi": 2, "maalis": 3, "huhti": 4, "touko": 5,
        "kesä": 6, "heinä": 7, "syys": 9, "marras": 11, "joulu": 12,
    },
    "lt": {
        "saus": 1, "birž": 6, "liep": 7, "rugp": 8, "rugpj": 8,
        "rugs": 9, "spal": 10, "lapkr": 11, "gruod": 12,
    },
    "lv": {"jūn": 6, "jūl": 7},
    "et": {"jaan": 1, "veebr": 2, "dets": 12},
}

# Abbreviations that double as ordinary words somewhere ("ago"/"set"/
# "led"/"pro"/"sty"/"lip"/"dub"/"out"/"mag"/"gen"/"lug" en, "sie" de,
# "des"/"lis" fr, "noi" it): consulted ONLY when
# DateParserConfig.languages explicitly names the locale —
# go-dateparser's shape, where locale data applies per declared
# language, never as a global bag.  ("3 out of 2020" must NOT parse
# as October; "of" is a skip word, so an unrestricted "out" would.)
_LOCALE_MONTH_ABBREVS_RESTRICTED: dict[str, dict[str, int]] = {
    "ms": {"mac": 3},
    "af": {"junie": 6, "julie": 7},
    "es": {"ago": 8},
    "it": {"ago": 8, "set": 9, "gen": 1, "mag": 5, "lug": 7},
    "pt": {"ago": 8, "set": 9, "out": 10},
    "pl": {"lis": 11, "sty": 1, "lip": 7, "sie": 8},
    "cs": {"led": 1, "pro": 12, "dub": 4, "lis": 11},
    "no": {"des": 12},
    "da": {"des": 12},
    "ro": {"noi": 11},
    # hr October collides with pl/cs November in the global bag
    "hr": {"listopad": 10, "listopada": 10},
    # round-5 batch (rationales at the owning LOCALE_MONTHS tables)
    "eo": {"augusto": 8},
    "lb": {"mee": 5},
    "br": {"mae": 5, "here": 10, "du": 11},
    "ht": {"mas": 3, "me": 5, "jen": 6},
    "rw": {"mata": 4},
    "ps": {"می": 5},
    # round-5 depth batch ("elo" the Finnish noun / Elo rating, "loka"
    # = Finnish "dirt"; lt 3-letter stems collide with es/fr prose
    # ("vas", "bal"); "avg" = the English average abbreviation; "нов"
    # = the Slavic adjective "new"; cs "lis" rides the cs entry above)
    "fi": {"elo": 8, "loka": 10},
    "lt": {"vas": 2, "kov": 3, "bal": 4, "geg": 5},
    "sr": {"avg": 8, "нов": 11},
    "bs": {"avg": 8},
    "mk": {"avg": 8},
}

for _lang, _tbl in _LOCALE_MONTH_ABBREVS_SAFE.items():
    LOCALE_MONTHS.setdefault(_lang, {}).update(_tbl)

_EXTRA_MONTHS: dict[str, int] = {}
for _tbl in LOCALE_MONTHS.values():
    _EXTRA_MONTHS.update(_tbl)

# Thai civil dates carry Buddhist-Era years (BE = CE + 543); like
# go-dateparser's th locale, a year that is plausible-BE-but-absurd-CE
# next to a THAI month name converts.  The set keys the conversion to
# the month token so "2562" next to an English month stays literal.
_THAI_MONTH_NAMES = frozenset(LOCALE_MONTHS.get("th", {}))
_BE_MIN_YEAR = 2400  # 1857 CE; no TH web page predates this

# CJK / Korean full dates: 2021年3月4日 / 2021년 3월 4일 (go-dateparser's
# ja/zh/ko locale translations reduce these to numeric triples).
_CJK_DATE = re.compile(
    r"(\d{4})\s*[年년]\s*(\d{1,2})\s*[月월]\s*(\d{1,2})\s*[日일]?"
)

# Mongolian dates are numeric with marker words ("2019 оны 3 сарын
# 15", optionally "3 дугаар/дүгээр сарын"); go-dateparser's mn
# translations reduce them the same way.  Requires both "оны" (year
# marker) and "сарын" (month marker), so the unrestricted bag stays
# safe.
_MN_DATE = re.compile(
    r"(\d{4})\s*оны\s*([01]?\d)(?!\d)\s*(?:дугаар|дүгээр)?"
    r"\s*сарын\s*([0-3]?\d)(?!\d)"
)

# Vietnamese dates are numeric with marker words ("ngày 5 tháng 3 năm
# 2021"); go-dateparser's vi translations reduce them the same way.
# Requires the literal "tháng", so the unrestricted bag stays safe.
_VI_DATE = re.compile(
    r"(?i)(?:ngày\s+)?([0-3]?\d)\s+tháng\s+([01]?\d)(?:,?\s+năm)?,?\s+(\d{4})"
)

_ORDINAL_SUFFIXES = frozenset({"st", "nd", "rd", "th"})
_WEEKDAYS = frozenset({
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday",
    "mon", "tue", "tues", "wed", "thu", "thur", "thurs", "fri", "sat", "sun",
    "montag", "dienstag", "mittwoch", "donnerstag", "freitag", "samstag",
    "sonntag", "mo", "di", "mi", "do", "fr", "sa", "so",
    "lundi", "mardi", "mercredi", "jeudi", "vendredi", "samedi", "dimanche",
    "pazartesi", "salı", "çarşamba", "perşembe", "cuma", "cumartesi", "pazar",
    "senin", "selasa", "rabu", "kamis", "jumat", "sabtu", "minggu",
    "lunes", "martes", "miércoles", "jueves", "viernes", "sábado", "domingo",
    "lunedì", "martedì", "mercoledì", "giovedì", "venerdì", "sabato", "domenica",
    "maandag", "dinsdag", "woensdag", "donderdag", "vrijdag", "zaterdag", "zondag",
    "الأحد", "الاثنين", "الإثنين", "الثلاثاء", "الأربعاء", "الخميس",
    "الجمعة", "السبت",
    # pl / cs / sv / da-no / pt / ro / hu / ru / fi weekdays — a weekday
    # token must be tolerated, not reject the strict parse
    "poniedziałek", "wtorek", "środa", "czwartek", "piątek", "sobota",
    "niedziela",
    "pondělí", "úterý", "středa", "čtvrtek", "pátek", "neděle",
    "måndag", "tisdag", "onsdag", "torsdag", "fredag", "lördag", "söndag",
    "mandag", "tirsdag", "lørdag", "søndag",
    "segunda", "terça", "quarta", "quinta", "sexta", "sábado", "domingo",
    "luni", "marți", "miercuri", "joi", "vineri", "sâmbătă", "duminică",
    "hétfő", "kedd", "szerda", "csütörtök", "péntek", "szombat", "vasárnap",
    "понедельник", "вторник", "среда", "четверг", "пятница", "суббота",
    "воскресенье",
    "maanantai", "tiistai", "keskiviikko", "torstai", "perjantai",
    "lauantai", "sunnuntai",
})
_SKIP_WORDS = frozenset({
    "of", "the", "at", "on", "in", "a", "an", "den", "der", "die", "das",
    "am", "pm", "um", "uhr", "le", "la", "du", "el", "und", "and", "et",
    "de", "del", "los", "las", "il", "lo",
    "م", "ص",  # Arabic am/pm markers
    "roku", "dnia",  # pl: "15 stycznia 2020 roku"
    "dne",  # cs: "dne 15. ledna 2020"
    "года", "год", "г",  # ru: "15 января 2020 года"
    "feira",  # pt: "segunda-feira, 15 de janeiro"
    "kl",  # da/no/sv: "kl. 12" time marker
    "klo",  # fi time marker
    # year-word markers go-dateparser's translations strip (the token
    # follows/precedes a complete d-month-y date; skipping only ever
    # prevents a reject — month+day+year are still all required):
    "року", "рік", "р",  # uk: "24 серпня 2019 року" / "... 2019 р."
    "r",  # pl/cs: "24 sierpnia 2019 r."
    "godine", "god",  # sr/bs/hr: "24. avgusta 2019. godine"
    "година",  # bg: "24 август 2019 година"
    "gada",  # lv: "2019. gada 24. augusts"
    "aastal", "aasta",  # et
    "m", "d",  # lt: "2019 m. rugpjūčio 24 d."
    "año", "ano",  # es / pt: "24 de agosto del año 2019"
    "jahr", "jahres",  # de
    "yılı", "yıl",  # tr
    "anul",  # ro
    "jaar",  # nl
    "vuonna",  # fi
    "tahun",  # id/ms
    # --- per-locale SKIP prepositions/particles, the analog of
    # go-dateparser's translation-data "skip" lists (each locale's
    # ignorable function words between date components).  Like the
    # year-word block above, skipping only ever PREVENTS a reject —
    # a full day+month+year is still required, so these cannot
    # fabricate a date:
    "em", "às", "no", "na", "do", "da",  # pt: "em 1 de janeiro de 2022 às 14h"
    "w", "z", "o", "dniu", "dn",  # pl: "w dniu 14 maja 2021"
    "v", "ve", "od", "ze", "zo",  # cs/sk: "v pondělí 24. února 2020"
    "i", "klockan",  # sv/da/no: "i maj 2020", "klockan 14"
    "pe", "la", "din", "în",  # ro: "pe 3 mai 2020", "din 12 martie 2020"
    "las", "por",  # es: "a las 14:30", "por la tarde"
    "à", "er",  # fr: "à 14h30", "1er" split ordinal
    "alle",  # it: "alle 14:30"
    "op", "om",  # nl: "op 14 augustus 2019 om 15:00"
    "vom",  # de: "vom 3. Mai 2020"
    "tarihinde", "tarihli", "tarih", "tarihi",  # tr: "3 Aralık 2008 tarihinde"
    "в", "от",  # ru/uk/bg: "в мае 2020", "от 14 мая"
    "від", "у",  # uk
    # --- split day-suffix tokens (the tokenizer breaks "3-án" / "14-го"
    # / "14-go" at the hyphen; go-dateparser removes these via its
    # per-locale simplification regexes):
    "án", "én", "jén", "ján",  # hu: "május 3-án", "június 1-jén"
    "го",  # ru/uk/bg: "14-го мая"
    "go", "ego",  # pl: "14-go maja"
    # round-5 completion batch markers
    "oṣù", "osù", "ọdún",  # yo: "oṣù ṣẹ́rẹ́", "ọdún 2021" year word
    "t",  # gd: "an t-Ògmhios" tokenizes to an/t/ògmhios
    "жылы", "жыл",  # ky year word: "2021-жылы 31-август"
    "يىلى", "يىل",  # ug year word
})
_TIME_OF_DAY = re.compile(r"\d{1,2}:\d{2}(?::\d{2})?(?:\.\d+)?")
# Combining marks (category Mn/Mc) are not matched by the \w letter
# class but are integral to Thai / Devanagari / Hebrew-pointed /
# Arabic-vowelled month names — a token may CONTINUE with them.
# Every BMP combining mark (Mn/Mc/Me): the hand-enumerated ranges
# this replaces missed scripts (Bengali nukta/matras, Tamil pulli,
# ...) and silently split their month names mid-word.  Generated
# once at import (~10 ms).
_COMBINING = "".join(
    re.escape(chr(c))
    for c in range(0x0300, 0x10000)
    if unicodedata.category(chr(c)) in ("Mn", "Mc", "Me")
)
# ZWJ/ZWNJ (Cf, so outside \w and the mark class) are word-internal in
# Sinhala conjuncts (අප්‍රේල්) and Persian morphology — a token may
# continue through them as well.
_TOKEN = re.compile(
    rf"[^\W\d_](?:[^\W\d_]|[{_COMBINING}\u200c\u200d])*|\d+", re.UNICODE
)


def _base_language(tag: str) -> str:
    """Base key of a language tag: region and script variants ("en-GB",
    "pt_BR", "ZH-hant") share their base language's tables, as
    go-dateparser aliases a variant to its base locale."""
    return re.split(r"[-_]", tag, maxsplit=1)[0].lower()


def lenient_absolute_parse(s: str, cfg=None) -> Optional[datetime]:
    """Strict absolute parse: needs year + month-name + day; weekdays,
    ordinal suffixes, skip-words and timezone abbreviations are tolerated,
    any other word token rejects the string (strict-parsing contract).

    ``cfg`` is an optional :class:`~go_htmldate_ray.functions.kernels.
    DateParserConfig` mirroring go-dateparser's Configuration
    (core-options.go:56-58): ``languages`` restricts the month-name
    locales searched, ``date_order`` disambiguates numeric triples, and
    ``strict_parsing=False`` accepts year+month with the day defaulting
    per ``preferred_day_of_month``."""
    from .constants import MONTH_NUMBER
    from .tz_data import TIMEZONE_OFFSETS

    languages = getattr(cfg, "languages", None)
    if languages is not None:
        languages = [_base_language(lang) for lang in languages]
    date_order = getattr(cfg, "date_order", "MDY") or "MDY"
    strict = getattr(cfg, "strict_parsing", True)
    prefer_dom = getattr(cfg, "preferred_day_of_month", "first")

    if languages:
        extra_months: dict[str, int] = {}
        for lang in languages:
            extra_months.update(LOCALE_MONTHS.get(lang, {}))
            # ambiguous abbreviations ("ago", "set", "led", …) apply only
            # under an explicit language restriction
            extra_months.update(_LOCALE_MONTH_ABBREVS_RESTRICTED.get(lang, {}))
    else:
        extra_months = _EXTRA_MONTHS

    # CJK/Korean year-month-day markers resolve before tokenization (the
    # markers would otherwise reject as unknown word tokens).  Gated by
    # the languages restriction like every other locale table; a
    # malformed match falls through to the tokenizer instead of aborting.
    if languages is None or {"zh", "ja", "ko"} & set(languages):
        m_cjk = _CJK_DATE.search(s)
        if m_cjk is not None:
            try:
                return datetime(
                    int(m_cjk.group(1)), int(m_cjk.group(2)), int(m_cjk.group(3)),
                    tzinfo=timezone.utc,
                )
            except ValueError:
                pass

    if languages is None or "mn" in languages:
        m_mn = _MN_DATE.search(s)
        if m_mn is not None:
            try:
                return datetime(
                    int(m_mn.group(1)), int(m_mn.group(2)), int(m_mn.group(3)),
                    tzinfo=timezone.utc,
                )
            except ValueError:
                pass

    if languages is None or "vi" in languages:
        m_vi = _VI_DATE.search(s)
        if m_vi is not None:
            try:
                return datetime(
                    int(m_vi.group(3)), int(m_vi.group(2)), int(m_vi.group(1)),
                    tzinfo=timezone.utc,
                )
            except ValueError:
                pass

    s = _TIME_OF_DAY.sub(" ", s)
    tokens = _TOKEN.findall(s)
    if not tokens or len(tokens) > 24:
        return None

    month = None
    month_idx = -1
    month_is_thai = False
    year = None
    digit_indices: list[tuple[int, int]] = []  # (token index, value)

    for i, tok in enumerate(tokens):
        if tok.isdigit():
            if not tok.isascii():
                return None  # e.g. superscript digits: reject like the reference
            if len(tok) == 4 and year is None:
                year = int(tok)
            elif len(tok) <= 2:
                digit_indices.append((i, int(tok)))
            elif len(tok) > 4:
                return None  # long digit runs are not dates (dateparser #685)
        else:
            key = tok.lower()
            if month is None:
                m = MONTH_NUMBER.get(key) or extra_months.get(key)
                if m is not None:
                    month = m
                    month_idx = i
                    month_is_thai = key in _THAI_MONTH_NAMES
                    continue
            if (
                key in _WEEKDAYS
                or key in _SKIP_WORDS
                or key in _ORDINAL_SUFFIXES
                or tok in TIMEZONE_OFFSETS
                or (tok.isupper() and 2 <= len(tok) <= 5)  # tz-abbrev shaped
            ):
                continue
            return None  # unrecognized word: strict parse fails

    if year is not None and 1 <= year <= 9999 and month is None:
        # Numeric-triple fallback: "4. 2. 2022", "26 | 01 | 2022" — parsed
        # with the configured DateOrder preference (default MDY, matching
        # the external library), swapping when the month slot exceeds 12.
        if len(digit_indices) >= 2:
            if date_order == "DMY":
                d_val, m_val = digit_indices[0][1], digit_indices[1][1]
            else:
                m_val, d_val = digit_indices[0][1], digit_indices[1][1]
            if m_val > 12 and d_val <= 12:
                m_val, d_val = d_val, m_val
            if 1 <= m_val <= 12 and 1 <= d_val <= 31:
                try:
                    return datetime(year, m_val, d_val, tzinfo=timezone.utc)
                except ValueError:
                    return None
        return None

    if month is None or year is None or not 1 <= year <= 9999:
        return None

    if month_is_thai and year >= _BE_MIN_YEAR:
        year -= 543  # Buddhist Era → CE, gated on the Thai month token

    # Day: prefer the digit token adjacent to the month name
    day = None
    for idx, val in digit_indices:
        if 1 <= val <= 31 and abs(idx - month_idx) == 1:
            day = val
            break
    if day is None:
        for _idx, val in digit_indices:
            if 1 <= val <= 31:
                day = val
                break
    if day is None:
        if strict:
            return None  # strict parsing: incomplete date
        # non-strict (RequiredParts without day): default per
        # PreferredDayOfMonth — first | last
        if prefer_dom == "last":
            import calendar

            day = calendar.monthrange(year, month)[1]
        else:
            day = 1

    try:
        return datetime(year, month, day, tzinfo=timezone.utc)
    except ValueError:
        return None
