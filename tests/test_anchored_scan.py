"""Differential tests for the token-anchored whole-page scanners.

Every anchored scan in ``functions/patterns.py`` must yield exactly what the
plain regex scan yields: the same matches, spans, groups and order.  The
inputs are joined from fragments that make matches likely (month names,
digit runs, separators, copyright leads, idiom words, versioned asset
paths) plus characters that case-fold or classify unusually: dotless
``ı``, the Kelvin sign, long ``ſ`` and Arabic-Indic digits.  The page's
digit index (``digit_runs``) is checked against ``[0-9]+`` itself, and
each scan it anchors against the plain ``search`` or ``finditer`` of its
pattern.
"""

import re
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from go_htmldate_ray.extract import search_page
from go_htmldate_ray.functions import patterns as P
from go_htmldate_ray.functions.constants import MONTH_NUMBER
from go_htmldate_ray.functions.kernels import Options

_SETTINGS = dict(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FRAGMENTS = [
    # months, long and short, several languages and cases
    "January", "Jan", "March", "MAY", "May", "Mai", "september", "September",
    "Oktober", "Dezember", "décembre", "Ekim", "Kasım", "Aralık", "Mei",
    "Aprıl", "\u212aasım", "O\u212atober", "Dec", "ſep", "ſ",  # U+212A Kelvin sign
    # digits and numbers
    "0", "1", "2", "3", "9", "12", "31", "05", "1999", "2021", "2039", "2040",
    "20210304", "19991231", "١٣", "٢٠٢١",
    # separators and suffixes
    " ", " ", "\t", "\n", "/", ".", "-", ",", ":", "st", "nd", "th", "of ",
    # copyright leads, idioms, markup
    "©", "&copy;", "Copyright", "(c)", "(C)", "Datum:", "Stand", "date",
    "updated", "published", "on", "'de", "tarihinde", "güncellendi",
    "yayımlandı", "w3.org", "<p>", "</p>", "a", "x",
    # idiosyncrasy leads and gaps, versioned asset paths (which open the
    # A[./]B[./]C token without any idiom nearby), timestamps
    "Veröffentlicht am", "güncelleme", "güncellenme", "yayınlanma", "tarihi",
    "TARİHİ", " :",
    "jquery-2.2.14.min.js", "/v1.10.22/", "3.4.2019", "12/3/21", "1.2.34",
    "T10:11:12", " 10:11:12", "2021-05-04", "12021-5-4",
]

TEXT = st.builds(
    lambda parts, nl: "".join(parts) + ("\n" if nl else ""),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40),
    st.booleans(),
)

_DIGIT_LED = [
    P.THREE_PATTERN,
    P.THREE_LOOSE_PATTERN,
    P.SELECT_YMD_PATTERN,
    P.DATE_STRINGS_PATTERN,
    P.SLASHES_PATTERN,
    P.YYYY_MM_PATTERN,
    P.MM_YYYY_PATTERN,
    P.SIMPLE_PATTERN,
]


def _spans(matches):
    return [(m.span(), m.groups()) for m in matches]


def _plain_long_text(s):
    def first_valid(pattern, group):
        for m in pattern.finditer(s):
            if m.group(group).lower() in MONTH_NUMBER:
                return m
        return None

    m_mdy = first_valid(P._MDY_PATTERN, 1)
    m_dmy = first_valid(P._DMY_PATTERN, 2)
    if m_mdy is not None and (m_dmy is None or m_mdy.start() <= m_dmy.start()):
        return m_mdy.group(3), m_mdy.group(1), m_mdy.group(2)
    if m_dmy is not None:
        return m_dmy.group(3), m_dmy.group(2), m_dmy.group(1)
    return None


def _plain_idiosyncrasy(s):
    best = None
    for pat in P._IDIOSYNCRASY_PATTERNS:
        m = pat.search(s)
        if m is not None and (best is None or m.start() < best.start()):
            best = m
    if best is None:
        return [], -1
    return [best.group(0), best.group(1), best.group(2), best.group(3)], best.start()


def _plain_finditer(pattern, s, starts):
    return pattern.finditer(s)


_WS_YEAR = re.compile(r"[\t\n\f\r ](?:199[0-9]|20[0-3][0-9])")


def _runs(s):
    return [m.span() for m in re.finditer(r"[0-9]+", s)]


@given(TEXT)
@settings(**_SETTINGS)
@example("")
@example("9")
@example("2021 at offset 0")
@example("é١٣ 12 ٣4٣ ½ 5")
# past about one digit in 32 characters the runs come from the regex scan
@example("x" * 100 + "1 2 3 4 5 6 7 8 9 0 " * 40)
def test_digit_index_equals_finditer(s):
    runs = P.digit_runs(s)
    assert list(zip(*runs)) == _runs(s)
    assert P.digit_starts(s, runs) == [a - 1 for a, _ in _runs(s) if a]
    assert P.ws_year_anchors(s, runs) == [m.start() for m in _WS_YEAR.finditer(s)]


@given(TEXT)
@settings(**_SETTINGS)
@example("2021-05-04T10:11:12")
@example("12021-5-4 10:11:12 2020-01-02x10:11:12")
def test_timestamp_equals_search(s):
    m = P.TIMESTAMP_PATTERN.search(s)
    plain = ([m.group(0), m.group(1)], m.start()) if m else ([], -1)
    assert P.timestamp_pattern_submatch(s) == plain
    assert P.timestamp_pattern_submatch(s, P.digit_runs(s)) == plain


@given(TEXT)
@settings(**_SETTINGS)
@example("jquery-2.2.14.min.js")
@example("123.4.56 1.22.3 1/2.345")
def test_idiosyncrasy_tokens_equal_finditer(s):
    tokens = P._idiosyncrasy_tokens(s, P.digit_runs(s))
    assert [b - 1 for _, b, _ in tokens] == [
        m.start() for m in re.finditer(r"(?=[0-9][./][0-9]{1,2}[./][0-9]{2})", s)
    ]


@given(TEXT)
@settings(**_SETTINGS)
def test_digit_led_scanners_equal_finditer(s):
    starts = P.digit_starts(s)
    for pattern in _DIGIT_LED:
        assert _spans(P.anchored_finditer(pattern, s, starts)) == _spans(
            pattern.finditer(s)
        ), pattern.pattern


@given(TEXT)
@settings(**_SETTINGS)
@example("© Copyright 2018")
@example("(c) (c) Copyright x 2019-2021 ©1999")
@example("© ٢ (c) 2015")  # a Unicode digit ends the first lead's \D*
def test_copyright_scanner_equals_finditer(s):
    got = P.anchored_finditer(P.COPYRIGHT_PATTERN, s, P.copyright_starts(s))
    assert _spans(got) == _spans(P.COPYRIGHT_PATTERN.finditer(s))


# The examples put the year-preceding whitespace at each end of the
# MDY (5..15) and DMY (5..18) offset ranges.
@given(TEXT)
@settings(**_SETTINGS)
@example("May 1 2021")
@example("September 12th, 2021")
@example("1 May 2021")
@example("12th of September, 2021")
def test_long_text_equals_plain(s):
    anchors = P.ws_year_anchors(s, P.digit_runs(s))
    for pattern, bounds in (
        (P._MDY_PATTERN, P._MDY_WS_OFFSETS),
        (P._DMY_PATTERN, P._DMY_WS_OFFSETS),
    ):
        got = P.anchored_finditer(pattern, s, P._window_starts(anchors, *bounds))
        assert _spans(got) == _spans(pattern.finditer(s))
    assert P.find_long_text_pattern(s) == _plain_long_text(s)


@given(TEXT)
@settings(**_SETTINGS)
@example("Datum: 12.3.2021")
@example("3/4/21 'de güncellendi")
@example("Veröffentlicht am: 1.2.03 Stand 1.2.2003")
@example("güncelleme  tarihi : 4.5.2019 yayımlama:: 4.5.19")
@example("date " + " :" * 30 + "2021/3/4 on 2021/3/4")
@example("date" + "x" * 20 + "12/3/45")  # the longest date[^0-9"]{0,20} lead
@example("güncellenme 4.5.2019")  # the longest Turkish lead, 11 characters
@example("x12/3/21 'de güncellendi")  # two digits of a longer run open it
@example("on12/3/45")  # a lead right before the digits
@example("Stand3.4.2019")
@example("yayımlama4.5.19")
@example("jquery-2.2.14.min.js updated 12.3.45")
def test_idiosyncrasy_equals_plain(s):
    assert P.idiosyncrasy_pattern_submatch(s) == _plain_idiosyncrasy(s)


_OPTS = [
    Options(use_original_date=True).with_defaults(),
    Options(use_original_date=False).with_defaults(),
]


@given(TEXT)
@settings(**_SETTINGS)
@example("<p>© 2013 x 1/2/2014 September 12th, 2021</p>")
@example("<p>w3.org/1999/xhtml 2020</p>")
def test_search_page_equals_plain_finditer(s):
    for opts in _OPTS:
        anchored = search_page(s, opts)
        with mock.patch.object(P, "anchored_finditer", _plain_finditer):
            plain = search_page(s, opts)
        assert anchored == plain
