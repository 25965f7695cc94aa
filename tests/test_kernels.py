"""Unit tests for the scalar kernels — ported from the reference's Go test
tables (extractors_test.go, validators_test.go, timezone_test.go)."""

from datetime import datetime, timezone

import pytest

from go_htmldate_ray.functions.kernels import (
    Options,
    external_date_parser,
    fast_parse,
    find_time,
    normalize_spaces,
    regex_parse,
    try_date_expr,
    validate_date,
)

UTC = timezone.utc


def _opts(**kw) -> Options:
    return Options(**kw).with_defaults()


def _fmt(dt) -> str:
    return f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}" if dt is not None else ""


# --- tryDateExpr (extractors_test.go:36-77) ---------------------------------

TRY_CASES_EXTENSIVE = [
    ("", ""),
    ("Friday, September 01, 2017", "2017-09-01"),
    ("Fr, 1 Sep 2017 16:27:51 MESZ", "2017-09-01"),
    ("Freitag, 01. September 2017", "2017-09-01"),
    ("Am 1. September 2017 um 15:36 Uhr schrieb", "2017-09-01"),
    ("Fri - September 1 - 2017", "2017-09-01"),
    ("1.9.2017", "2017-09-01"),
    ("1/9/17", "2017-09-01"),
    ("201709011234", "2017-09-01"),
    ("201", ""),
    ("14:35:10", ""),
    ("12:00 h", ""),
    ("2005-2006", ""),
    ("发布时间: 2022-02-25 14:34", "2022-02-25"),
    ("Fri, Sept 1, 2017", "2017-09-01"),
]


@pytest.mark.parametrize("s,expected", TRY_CASES_EXTENSIVE)
def test_try_date_expr_extensive(s, expected):
    _, dt = try_date_expr(s, _opts())
    assert _fmt(dt) == expected


def test_try_date_expr_fast_mode():
    _, dt = try_date_expr("Fri, Sept 1, 2017", _opts(skip_extensive_search=True))
    assert dt is None


# --- fastParse (extractors_test.go:79-121) ----------------------------------

FAST_CASES = [
    ("20041212", "2004-12-12"),
    ("12.12.2004", "2004-12-12"),
    ("2004-12-12", "2004-12-12"),
    ("12.01.2004", "2004-01-12"),
    ("12.01.20", "2020-01-12"),
    ("3/14/2016", "2016-03-14"),
    ("2020-1", "2020-01-01"),
    ("2020.01", "2020-01-01"),
    ("1998-01", "1998-01-01"),
    ("10.10.98", "1998-10-10"),
    ("abcd 20041212 efgh", "2004-12-12"),
    ("abcd 2004-2-12 efgh", "2004-02-12"),
    ("abcd 2004-2 efgh", "2004-02-01"),
    ("2020.13", ""),
    ("12122004", ""),
    ("1212-20-04", ""),
    ("33.20.2004", ""),
    ("36/14/2016", ""),
    ("2019 28 meh", ""),
    ("January 12 1098", ""),
    ("abcd 32. Januar 2020 efgh", ""),
    ("February 29 2008", "2008-02-29"),
    ("February 30 2008", ""),
    ("XXTag, den 29. Februar 2008", "2008-02-29"),
    ("XXTag, den 30. Februar 2008", ""),
]


@pytest.mark.parametrize("s,expected", FAST_CASES)
def test_fast_parse(s, expected):
    assert _fmt(fast_parse(s, _opts())) == expected


# --- regexParse (extractors_test.go:123-273) --------------------------------

REGEX_CASES = [
    ("3. Dezember 2008", "2008-12-03"),
    ("33. Dezember 2008", ""),
    ("3. Dez 2008", "2008-12-03"),
    ("3 dez 2008", "2008-12-03"),
    ("3 Aralık 2008 Çarşamba", "2008-12-03"),
    ("3 Aralık 2008", "2008-12-03"),
    ("Tuesday, March 26th, 2019", "2019-03-26"),
    ("March 26, 2019", "2019-03-26"),
    ("3rd Tuesday in March", ""),
    ("Mart 26, 2019", "2019-03-26"),
    ("Salı, Mart 26, 2019", "2019-03-26"),
    ("36/14/2016", ""),
    ("January 36 1998", ""),
    ("January 1st, 1998", "1998-01-01"),
    ("May 1st, 1998", "1998-05-01"),
    ("October 1st, 1998", "1998-10-01"),
    ("Jan 1st, 1998", "1998-01-01"),
    ("Dec 1st, 1998", "1998-12-01"),
    ("Jänner 1, 1998", "1998-01-01"),
    ("Feber 1, 1998", "1998-02-01"),
    ("März 1, 1998", "1998-03-01"),
    ("1. Okt. 1998", "1998-10-01"),
    ("Ocak 1, 1998", "1998-01-01"),
    ("Şubat 1, 1998", "1998-02-01"),
    ("Mayıs 1, 1998", "1998-05-01"),
    ("Ağustos 1, 1998", "1998-08-01"),
    ("Eylül 1, 1998", "1998-09-01"),
    ("Kasım 1, 1998", "1998-11-01"),
    ("Aralık 1, 1998", "1998-12-01"),
    ("1 January 1998", "1998-01-01"),
    ("1 May 1998", "1998-05-01"),
    ("1 Dec 1998", "1998-12-01"),
    ("1 Jänner 1998", "1998-01-01"),
    ("1 Mai 1998", "1998-05-01"),
    ("1 Ocak 1998", "1998-01-01"),
    ("1 Şub 1998", "1998-02-01"),
    ("1 Ağu 1998", "1998-08-01"),
    ("1 Ara 1998", "1998-12-01"),
]


@pytest.mark.parametrize("s,expected", REGEX_CASES)
def test_regex_parse(s, expected):
    assert _fmt(regex_parse(s, _opts())) == expected


# --- externalDateParser (extractors_test.go:275-303) ------------------------

EXTERNAL_CASES = [
    ("Wednesday, January 1st 2020", "2020-01-01"),
    ("Random text with 2020", ""),
    ("1 January 0002", "0002-01-01"),
    ("1 January 1900", "1900-01-01"),
    ("12345678912 days", ""),
    ("2.2250738585072011e-308", ""),
    ("⁰⁴⁵₀₁₂", ""),
    ("Fri | September 1 | 2017", "2017-09-01"),
]


@pytest.mark.parametrize("s,expected", EXTERNAL_CASES)
def test_external_date_parser(s, expected):
    # The Go test uses zero Options (no min/max window)
    opts = Options()
    assert _fmt(external_date_parser(s, opts)) == expected


# Per-locale skip tokens (the go-dateparser translation-data "skip"
# lists: prepositions / particles / split day-suffixes).  Skipping only
# prevents a reject — full day+month+year is still required, so the
# negative rows pin that no date is fabricated.
LOCALE_SKIP_CASES = [
    ("2020. május 3-án", "2020-05-03"),          # hu adessive day suffix
    ("2021. június 1-jén", "2021-06-01"),
    ("em 1 de janeiro de 2022", "2022-01-01"),   # pt preposition
    ("w dniu 14 maja 2021", "2021-05-14"),       # pl "on the day"
    ("v pondělí 24. února 2020", "2020-02-24"),  # cs preposition + weekday
    ("pe 3 mai 2020", "2020-05-03"),             # ro preposition
    ("3 Aralık 2008 tarihinde", "2008-12-03"),   # tr "on the date of"
    ("14-го мая 2020", "2020-05-14"),            # ru split ordinal suffix
    ("14-go maja 2021", "2021-05-14"),           # pl split ordinal suffix
    ("den 14 augusti 2019 klockan 14", "2019-08-14"),  # sv
    ("op 14 augustus 2019 om 15:00", "2019-08-14"),    # nl
    ("vom 3. Mai 2020", "2020-05-03"),           # de
    ("від 14 травня 2020", "2020-05-14"),        # uk
    ("i maj 2020", ""),                          # month+year only: strict
    ("у травні 2020", ""),
    ("Publicerad 3 maj 2020", ""),               # verbs are NOT skip words
    ("Zveřejněno 3. září 2021", ""),
    ("3rd Tuesday in March", ""),
]


@pytest.mark.parametrize("s,expected", LOCALE_SKIP_CASES)
def test_external_date_parser_locale_skip_tokens(s, expected):
    assert _fmt(external_date_parser(s, Options())) == expected


# --- validateDate (validators_test.go:27-79) --------------------------------

def test_validate_date_window():
    opts = _opts()
    assert validate_date(datetime(2017, 9, 1, tzinfo=UTC), opts)
    assert not validate_date(datetime(1992, 7, 30, tzinfo=UTC), opts)
    assert not validate_date(None, opts)

    opts = Options(
        min_date=datetime(1990, 1, 1, tzinfo=UTC),
        max_date=datetime(1995, 1, 1, tzinfo=UTC),
    )
    assert validate_date(datetime(1991, 1, 2, tzinfo=UTC), opts)
    assert not validate_date(datetime(1999, 1, 1, tzinfo=UTC), opts)


# --- findTime + timezone (core_test.go:703-782, timezone_test.go) -----------

def test_find_time_iso():
    h, m, s, tz, found = find_time("2017-09-01T09:08:57+02:00")
    assert found and (h, m, s) == (9, 8, 57)
    assert tz is not None and tz.utcoffset(None).total_seconds() == 7200


def test_find_time_common():
    h, m, s, tz, found = find_time("Published: 5:30 pm")
    assert found and (h, m) == (17, 30)
    assert tz is None


def test_find_time_french():
    h, m, s, tz, found = find_time("publié le 7h08")
    assert found and (h, m) == (7, 8)


def test_find_time_named_tz():
    h, m, s, tz, found = find_time("Fr, 1 Sep 2017 16:27:51 MESZ")
    assert found and (h, m, s) == (16, 27, 51)


def test_find_time_negative_offset():
    h, m, s, tz, found = find_time("2017-09-01T09:08:57-04:30")
    assert found
    assert tz.utcoffset(None).total_seconds() == -(4 * 3600 + 30 * 60)


def test_normalize_spaces():
    assert normalize_spaces("  a \t b\n c  ") == "a b c"


# --- parseTimezoneCode (timezone_test.go:10-62) ------------------------------

TZ_CODE_CASES = [
    ("Z", 0),
    ("GMT +07:00", 25_200), ("GMT +0700", 25_200), ("GMT +07", 25_200),
    ("GMT -07:00", -25_200), ("GMT -0700", -25_200), ("GMT -07", -25_200),
    ("GMT +07:30", 27_000), ("GMT +0730", 27_000),
    ("UTC +07:00", 25_200), ("UTC +0700", 25_200), ("UTC +07", 25_200),
    ("UTC -07:00", -25_200), ("UTC -0700", -25_200), ("UTC -07", -25_200),
    ("UTC +07:30", 27_000), ("UTC +0730", 27_000),
    ("+07:00", 25_200), ("+0700", 25_200), ("+07", 25_200),
    ("+07:30", 27_000), ("+0730", 27_000),
    ("-07:00", -25_200), ("-0700", -25_200), ("-07", -25_200),
    ("-07:30", -27_000), ("-0730", -27_000),
]


@pytest.mark.parametrize("code,offset", TZ_CODE_CASES)
def test_parse_timezone_code(code, offset):
    from go_htmldate_ray.functions.timezone import parse_timezone_code

    tz = parse_timezone_code(code)
    assert tz is not None
    assert int(tz.utcoffset(None).total_seconds()) == offset


@pytest.mark.parametrize("code", ["0000", "RamboSix", "15:49:20"])
def test_parse_timezone_code_invalid(code):
    from go_htmldate_ray.functions.timezone import parse_timezone_code

    assert parse_timezone_code(code) is None


# --- DateParserConfig surface (core-options.go:56-58, constant.go:43-48) ----

def test_date_parser_config_locales():
    from go_htmldate_ray.functions.kernels import DateParserConfig
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    cases = [
        ("15 stycznia 2021", (2021, 1, 15)),     # pl
        ("3 de março de 2020", (2020, 3, 3)),    # pt
        ("12 ledna 2019", (2019, 1, 12)),        # cs
        ("5 ianuarie 2022", (2022, 1, 5)),       # ro
        ("7 augusti 2018", (2018, 8, 7)),        # sv
        ("9 tammikuuta 2017", (2017, 1, 9)),     # fi
        ("21 μαΐου 2020", (2020, 5, 21)),        # el
        ("2021年3月4日", (2021, 3, 4)),           # zh/ja
        ("2021년 3월 4일", (2021, 3, 4)),         # ko
        ("1 марта 2019", (2019, 3, 1)),          # ru
        ("14 лютого 2020", (2020, 2, 14)),       # uk
        ("2020. január 5", (2020, 1, 5)),        # hu
        ("12 augusztus 2021", (2021, 8, 12)),    # hu
        ("3 desember 2019", (2019, 12, 3)),      # no
        # weekday + skip-word forms across the new locales
        ("środa, 15 stycznia 2020 roku", (2020, 1, 15)),       # pl
        ("pondělí dne 6 ledna 2020", (2020, 1, 6)),            # cs
        ("söndag 7 augusti 2018", (2018, 8, 7)),               # sv
        ("mandag 3 desember 2019", (2019, 12, 3)),             # da/no
        ("segunda-feira, 9 de março de 2020", (2020, 3, 9)),   # pt
        ("joi 5 ianuarie 2022", (2022, 1, 5)),                 # ro
        ("понедельник 1 марта 2019 года", (2019, 3, 1)),       # ru
        ("szerda, 2020. január 5", (2020, 1, 5)),              # hu
        # round-3 locale batch
        ("15. januára 2021", (2021, 1, 15)),     # sk
        ("8. avgusta 2019", (2019, 8, 8)),       # sl
        ("23. ožujka 2022", (2022, 3, 23)),      # hr
        ("4. децембра 2020", (2020, 12, 4)),     # sr (cyrillic)
        ("4. decembra 2020", (2020, 12, 4)),     # sr/sk (latin)
        ("17 октомври 2018", (2018, 10, 17)),    # bg
        ("5 gruodžio 2020", (2020, 12, 5)),      # lt
        ("9 jūlija 2021", (2021, 7, 9)),         # lv
        ("3. märtsi 2023", (2023, 3, 3)),        # et
        ("12 de març de 2021", (2021, 3, 12)),   # ca
        ("25 de xaneiro de 2019", (2019, 1, 25)),  # gl
        ("7. ágúst 2022", (2022, 8, 7)),         # is
        ("14 ינואר 2021", (2021, 1, 14)),         # he
        ("11 سپتامبر 2001", (2001, 9, 11)),       # fa
        # Thai / Devanagari month names contain combining marks the \w
        # letter class splits on — the tokenizer must keep them attached
        ("21 มีนาคม 2021", (2021, 3, 21)),        # th
        ("26 अगस्त 2020", (2020, 8, 26)),          # hi
        ("3 दिसम्बर 2022", (2022, 12, 3)),         # hi
    ]
    for s, ymd in cases:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # languages restriction: only the named locales' tables are searched
    cfg = DateParserConfig(languages=["pt"])
    assert lenient_absolute_parse("15 stycznia 2021", cfg) is None
    assert lenient_absolute_parse("3 de março de 2020", cfg) is not None

    # month abbreviations: unambiguous forms work unrestricted
    for s, ymd in [
        ("3 ene 2020", (2020, 1, 3)),       # es
        ("7 paź 2021", (2021, 10, 7)),      # pl
        ("1 mrt 2019", (2019, 3, 1)),       # nl
        ("9 окт 2018", (2018, 10, 9)),      # ru
        ("11 kvě 2017", (2017, 5, 11)),     # cs
        ("5 dez 2022", (2022, 12, 5)),      # pt
    ]:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # abbreviations that double as ordinary words ("ago", "set", "led",
    # "pro", "out", "gen", "sie", "des", …) apply ONLY under an explicit
    # language restriction — "2 hours ago 2020" / "3 out of 2020" /
    # "Gen 5 2020"-style text must never parse as a date unrestricted
    assert lenient_absolute_parse("3 ago 2020") is None
    assert lenient_absolute_parse("2 set 2019") is None
    assert lenient_absolute_parse("3 out of 2020") is None
    assert lenient_absolute_parse("gen 5 2020") is None
    assert lenient_absolute_parse("lip 5 2020") is None
    for s, langs, ymd in [
        ("3 ago 2020", ["pt"], (2020, 8, 3)),
        ("2 set 2019", ["it"], (2019, 9, 2)),
        ("3 out 2020", ["pt"], (2020, 10, 3)),
        ("7 gen 2021", ["it"], (2021, 1, 7)),
        ("15 led 2021", ["cs"], (2021, 1, 15)),
        ("8 pro 2020", ["cs"], (2020, 12, 8)),
        ("4 des 2018", ["no"], (2018, 12, 4)),
        ("30 noi 2021", ["ro"], (2021, 11, 30)),
        ("12 sie 2020", ["pl"], (2020, 8, 12)),
        # hr listopad = October ONLY under languages=["hr"]; the
        # unrestricted bag keeps the pl/cs reading (November)
        ("14 listopada 2020", ["hr"], (2020, 10, 14)),
    ]:
        dt = lenient_absolute_parse(s, DateParserConfig(languages=langs))
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    d = lenient_absolute_parse("14 listopada 2020")
    assert (d.year, d.month, d.day) == (2020, 11, 14)


def test_locale_months_round4_batch():
    from go_htmldate_ray.functions.kernels import DateParserConfig
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    cases = [
        ("17 agustus 1945", (1945, 8, 17)),      # id
        ("31 ogos 1957", (1957, 8, 31)),         # ms
        ("12 hunyo 1898", (1898, 6, 12)),        # tl
        ("9 machi 2021", (2021, 3, 9)),          # sw
        ("27 februarie 2019", (2019, 2, 27)),    # af
        ("28 may 2020", (2020, 5, 28)),          # az/en
        ("28 iyun 2018", (2018, 6, 28)),         # az/uz
        ("28 noyabr 2015", (2015, 11, 28)),      # az/uz
        ("28 nëntor 1912", (1912, 11, 28)),      # sq
        ("25 novembar 2017", (2017, 11, 25)),    # bs/sr
        ("2 август 1903", (1903, 8, 2)),         # mk/sr/ru
        ("25 сакавіка 2018", (2018, 3, 25)),     # be
        ("16 желтоқсан 1991", (1991, 12, 16)),   # kk
        ("21 սեպտեմբերի 1991", (1991, 9, 21)),   # hy
        ("26 მაისს 1918", (1918, 5, 26)),        # ka
        ("21 ফেব্রুয়ারি 1952", (1952, 2, 21)),     # bn
        ("15 ஆகஸ்ட் 1947", (1947, 8, 15)),        # ta
        ("14 اگست 1947", (1947, 8, 14)),          # ur
        ("1 mawrth 1979", (1979, 3, 1)),          # cy
        ("17 márta 1958", (1958, 3, 17)),         # ga
        ("3 abendua 2020", (2020, 12, 3)),        # eu
        ("21 settembru 1964", (1964, 9, 21)),     # mt
        # Vietnamese numeric marker-word form (regex path, like CJK)
        ("ngày 2 tháng 9 năm 1945", (1945, 9, 2)),
        ("5 tháng 3 2021", (2021, 3, 5)),
        # Mongolian numeric marker-word forms (оны / [дугаар] сарын)
        ("2019 оны 3 сарын 15", (2019, 3, 15)),
        ("2021 оны 11 дүгээр сарын 9", (2021, 11, 9)),
        ("2020 оны 1 дугаар сарын 31", (2020, 1, 31)),
        # Thai Buddhist-Era years convert (BE = CE + 543), gated on the
        # Thai month token; a CE year next to a Thai month stays literal
        ("15 มกราคม 2562", (2019, 1, 15)),
        ("1 ธันวาคม 2566", (2023, 12, 1)),
        ("15 มกราคม 2019", (2019, 1, 15)),
    ]
    for s, ymd in cases:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # ambiguous-in-prose forms stay behind the language restriction
    assert lenient_absolute_parse("3 mac 2015") is None       # ms March
    assert lenient_absolute_parse("2 julie 2008") is None     # af July
    for s, langs, ymd in [
        ("3 mac 2015", ["ms"], (2015, 3, 3)),
        ("2 julie 2008", ["af"], (2008, 7, 2)),
        ("4 junie 2010", ["af"], (2010, 6, 4)),
    ]:
        dt = lenient_absolute_parse(s, DateParserConfig(languages=langs))
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # vi/mn are gated like CJK: excluded when languages names others
    assert lenient_absolute_parse(
        "ngày 2 tháng 9 năm 1945", DateParserConfig(languages=["pt"])
    ) is None
    assert lenient_absolute_parse(
        "2019 оны 3 сарын 15", DateParserConfig(languages=["pt"])
    ) is None
    dt = lenient_absolute_parse(
        "2019 оны 3 сарын 15", DateParserConfig(languages=["mn"])
    )
    assert dt is not None and (dt.year, dt.month, dt.day) == (2019, 3, 15)


def test_locale_months_round5_batch():
    from go_htmldate_ray.functions.kernels import DateParserConfig
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    cases = [
        ("26 जानेवारी 1950", (1950, 1, 26)),      # mr
        ("30 જાન્યુઆરી 1948", (1948, 1, 30)),      # gu
        ("1 ನವೆಂಬರ್ 1956", (1956, 11, 1)),        # kn
        ("2 జూన్ 2014", (2014, 6, 2)),            # te
        ("1 നവംബർ 1956", (1956, 11, 1)),          # ml
        ("13 ਅਪ੍ਰੈਲ 1919", (1919, 4, 13)),         # pa
        ("20 सेप्टेम्बर 2015", (2015, 9, 20)),      # ne
        ("4 අප්‍රේල් 2019", (2019, 4, 4)),          # si (ZWJ conjunct)
        ("9 វិច្ឆិកា 1953", (1953, 11, 9)),        # km bare
        ("9 ខែវិច្ឆិកា 1953", (1953, 11, 9)),      # km ខែ-prefixed
        ("2 ທັນວາ 1975", (1975, 12, 2)),          # lo
        ("4 ဇန်နဝါရီ 1948", (1948, 1, 4)),        # my
        ("28 ሜይ 1993", (1993, 5, 28)),            # am
        ("15 decembro 1859", (1859, 12, 15)),     # eo
        ("29 aŭgusto 2020", (2020, 8, 29)),       # eo circumflex form
        ("25 apríl 2021", (2021, 4, 25)),         # fo/is shared
        ("11 jannewaris 2019", (2019, 1, 11)),    # fy
        ("23 abrëll 2017", (2017, 4, 23)),        # lb
        ("14 julhet 1789", (1789, 7, 14)),        # oc
        ("7 gwengolo 2004", (2004, 9, 7)),        # br
        ("1 janvye 2004", (2004, 1, 1)),          # ht
        ("1 luuliyo 1960", (1960, 7, 1)),         # so
        ("1 oktoobar 2022", (2022, 10, 1)),       # so
        ("12 faburairu 2003", (2003, 2, 12)),     # ha
        ("16 disemba 1998", (1998, 12, 16)),      # zu
        ("4 nyakanga 1994", (1994, 7, 4)),        # rw
        ("26 jona 1960", (1960, 6, 26)),          # mg
        ("27 septiyembre 2013", (2013, 9, 27)),   # ceb
        ("15 гыйнвар 2021", (2021, 1, 15)),       # tt
        ("9 сентябр 1991", (1991, 9, 9)),         # tg
        ("27 oktýabr 1991", (1991, 10, 27)),      # tk
        ("19 اګست 1919", (1919, 8, 19)),          # ps
    ]
    for s, ymd in cases:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # ambiguous-in-prose forms stay behind the language restriction
    for s in [
        "3 augusto 2020",   # eo ASCII fold = given name
        "5 mee 2021",       # lb May = Malay noodles
        "2 mae 2020",       # br May = Welsh copula
        "4 here 2020",      # br October = English adverb
        "3 mas 2019",       # ht March = es "mas"
        "9 mata 2018",      # rw April = es prose
    ]:
        assert lenient_absolute_parse(s) is None, s
    for s, langs, ymd in [
        ("3 augusto 2020", ["eo"], (2020, 8, 3)),
        ("5 mee 2021", ["lb"], (2021, 5, 5)),
        ("2 mae 2020", ["br"], (2020, 5, 2)),
        ("4 here 2020", ["br"], (2020, 10, 4)),
        ("6 du 2020", ["br"], (2020, 11, 6)),
        ("3 mas 2019", ["ht"], (2019, 3, 3)),
        ("7 me 2019", ["ht"], (2019, 5, 7)),
        ("9 mata 2018", ["rw"], (2018, 4, 9)),
        ("21 می 2022", ["ps"], (2022, 5, 21)),
    ]:
        dt = lenient_absolute_parse(s, DateParserConfig(languages=langs))
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s


def test_locale_month_tables_collision_free():
    """The unrestricted merge is only sound if no two locales assign the
    SAME lowercase word DIFFERENT month numbers (the hr-listopad rule).
    Guards future locale additions."""
    from go_htmldate_ray.functions.constants import MONTH_NUMBER
    from go_htmldate_ray.functions.patterns import (
        _LOCALE_MONTH_ABBREVS_SAFE,
        LOCALE_MONTHS,
    )

    merged: dict[str, tuple[str, int]] = {
        k: ("base", v) for k, v in MONTH_NUMBER.items()
    }
    for lang, tbl in list(LOCALE_MONTHS.items()) + list(
        _LOCALE_MONTH_ABBREVS_SAFE.items()
    ):
        for word, num in tbl.items():
            assert word == word.lower(), (lang, word)
            prev = merged.get(word)
            assert prev is None or prev[1] == num, (word, prev, lang, num)
            merged[word] = (lang, num)


def test_date_parser_config_order_and_strictness():
    from datetime import datetime
    from go_htmldate_ray.functions.kernels import DateParserConfig
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    d = lenient_absolute_parse("04 05 2020", DateParserConfig(date_order="DMY"))
    assert (d.month, d.day) == (5, 4)
    d = lenient_absolute_parse("04 05 2020")  # default MDY (constant.go:44)
    assert (d.month, d.day) == (4, 5)

    assert lenient_absolute_parse("March 2020") is None  # strict default
    d = lenient_absolute_parse("March 2020", DateParserConfig(strict_parsing=False))
    assert (d.year, d.month, d.day) == (2020, 3, 1)
    d = lenient_absolute_parse(
        "March 2020",
        DateParserConfig(strict_parsing=False, preferred_day_of_month="last"),
    )
    assert d.day == 31


def test_date_parser_config_through_options():
    import go_htmldate_ray as ghr
    from go_htmldate_ray.functions.kernels import DateParserConfig

    html = "<html><body><p>3 de março de 2020</p></body></html>".encode()
    r = ghr.from_html(html, ghr.Options(date_parser_config=DateParserConfig(languages=["pt"])))
    assert r.format() == "2020-03-03"
    # restricting to another locale removes the pt month name
    r2 = ghr.from_html(html, ghr.Options(date_parser_config=DateParserConfig(languages=["fi"])))
    assert r2.format() != "2020-03-03"


def test_date_parser_config_language_variants():
    """Region and script variants alias to their base language."""
    from go_htmldate_ray.functions.kernels import DateParserConfig
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    s = "3 de março de 2021"
    base = lenient_absolute_parse(s, DateParserConfig(languages=["pt"]))
    assert base == datetime(2021, 3, 3, tzinfo=UTC)
    for variant in (["pt-BR"], ["pt_BR"], ["PT-br"]):
        assert lenient_absolute_parse(s, DateParserConfig(languages=variant)) == base
    # restricted abbreviations follow the variant too ("out" = pt October)
    assert lenient_absolute_parse("3 out 2020", DateParserConfig(languages=["pt-PT"])) == (
        datetime(2020, 10, 3, tzinfo=UTC)
    )
    # the zh/mn/vi gates see the base key
    assert lenient_absolute_parse(
        "2021年3月4日", DateParserConfig(languages=["ZH-hant"])
    ) == datetime(2021, 3, 4, tzinfo=UTC)
    assert lenient_absolute_parse(
        "ngày 2 tháng 9 năm 1945", DateParserConfig(languages=["vi-VN"])
    ) == datetime(1945, 9, 2, tzinfo=UTC)
    # a variant of an unrelated language still restricts
    assert lenient_absolute_parse(s, DateParserConfig(languages=["en-GB"])) is None


def test_locale_months_uk_nominative():
    """Ukrainian nominative month names (archive-header form)."""
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    cases = [
        ("1 січень 2020", (2020, 1, 1)),
        ("5 травень 2019", (2019, 5, 5)),
        ("24 серпень 1991", (1991, 8, 24)),
        ("30 листопад 2018", (2018, 11, 30)),  # Cyrillic: not hr October
        ("7 грудень 2021", (2021, 12, 7)),
        # genitive forms keep working
        ("24 серпня 1991", (1991, 8, 24)),
    ]
    for s, ymd in cases:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s


def test_locale_months_round5_depth():
    """Full 12-month sweeps for the European locales the round-4 batch
    added (fi/el/bg/sr/hr/sk/sl/lt/lv/et), in the style of the
    reference's per-locale sweeps (extractors_test.go:208-303), plus
    the round-5 abbreviation forms and their prose-ambiguity gates."""
    from go_htmldate_ray.functions.kernels import DateParserConfig
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    sweeps = {
        # genitive/partitive (the form dates are written in)
        "fi": ["tammikuuta", "helmikuuta", "maaliskuuta", "huhtikuuta",
               "toukokuuta", "kesäkuuta", "heinäkuuta", "elokuuta",
               "syyskuuta", "lokakuuta", "marraskuuta", "joulukuuta"],
        "el": ["Ιανουαρίου", "Φεβρουαρίου", "Μαρτίου", "Απριλίου",
               "Μαΐου", "Ιουνίου", "Ιουλίου", "Αυγούστου",
               "Σεπτεμβρίου", "Οκτωβρίου", "Νοεμβρίου", "Δεκεμβρίου"],
        "bg": ["януари", "февруари", "март", "април", "май", "юни",
               "юли", "август", "септември", "октомври", "ноември",
               "декември"],
        "sr": ["јануара", "фебруара", "марта", "априла", "маја", "јуна",
               "јула", "августа", "септембра", "октобра", "новембра",
               "децембра"],
        "sk": ["januára", "februára", "marca", "apríla", "mája", "júna",
               "júla", "augusta", "septembra", "októbra", "novembra",
               "decembra"],
        "sl": ["januarja", "februarja", "marca", "aprila", "maja",
               "junija", "julija", "avgusta", "septembra", "oktobra",
               "novembra", "decembra"],
        "lt": ["sausio", "vasario", "kovo", "balandžio", "gegužės",
               "birželio", "liepos", "rugpjūčio", "rugsėjo", "spalio",
               "lapkričio", "gruodžio"],
        "lv": ["janvāra", "februāra", "marta", "aprīļa", "maija",
               "jūnija", "jūlija", "augusta", "septembra", "oktobra",
               "novembra", "decembra"],
        "et": ["jaanuari", "veebruari", "märtsi", "aprilli", "mai",
               "juuni", "juuli", "augusti", "septembri", "oktoobri",
               "novembri", "detsembri"],
    }
    for lang, months in sweeps.items():
        assert len(months) == 12, lang
        for m, name in enumerate(months, start=1):
            s = f"1 {name} 1998"
            dt = lenient_absolute_parse(s)
            assert dt is not None and (dt.year, dt.month, dt.day) == (
                1998, m, 1), (lang, s, dt)

    # hr genitives (October is restricted: pl/cs "listopad" = November)
    hr = ["siječnja", "veljače", "ožujka", "travnja", "svibnja",
          "lipnja", "srpnja", "kolovoza", "rujna", "listopada",
          "studenog", "prosinca"]
    cfg_hr = DateParserConfig(languages=["hr"])
    for m, name in enumerate(hr, start=1):
        dt = lenient_absolute_parse(f"1 {name} 1998", cfg_hr)
        assert dt is not None and dt.month == m, (name, dt)

    # round-5 abbreviation forms (unrestricted)
    abbrevs = [
        ("3 Ιαν 2020", (2020, 1, 3)), ("3 μαΐ 2019", (2019, 5, 3)),
        ("3 σεπτ 2018", (2018, 9, 3)), ("3 νοε 2018", (2018, 11, 3)),
        # el nominative (archive-header form) with an explicit day
        ("1 Ιανουάριος 2020", (2020, 1, 1)),
        ("1 Αύγουστος 2015", (2015, 8, 1)),
        ("5 яну 2021", (2021, 1, 5)), ("5 ное 2021", (2021, 11, 5)),
        ("7 квіт 2020", (2020, 4, 7)), ("7 жовт 2020", (2020, 10, 7)),
        ("24 серп 1991", (1991, 8, 24)),
        ("9 maalis 2019", (2019, 3, 9)), ("9 marras 2019", (2019, 11, 9)),
        ("2 saus 2018", (2018, 1, 2)), ("2 gruod 2018", (2018, 12, 2)),
        ("4 jūn 2022", (2022, 6, 4)), ("4 jūl 2022", (2022, 7, 4)),
        ("4 jaan 2022", (2022, 1, 4)), ("4 dets 2022", (2022, 12, 4)),
        ("6 јан 2017", (2017, 1, 6)), ("6 дец 2017", (2017, 12, 6)),
    ]
    for s, ymd in abbrevs:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # prose-ambiguous stems stay behind the language restriction
    for s in ["3 elo 2020", "3 loka 2020", "3 vas 2019", "3 bal 2019",
              "3 avg 2020", "3 нов 2020", "3 lis 2019"]:
        assert lenient_absolute_parse(s) is None, s
    for s, langs, ymd in [
        ("3 elo 2020", ["fi"], (2020, 8, 3)),
        ("3 loka 2020", ["fi"], (2020, 10, 3)),
        ("3 vas 2019", ["lt"], (2019, 2, 3)),
        ("3 kov 2019", ["lt"], (2019, 3, 3)),
        ("3 avg 2020", ["sr"], (2020, 8, 3)),
        ("3 avg 2020", ["bs"], (2020, 8, 3)),
        ("3 нов 2020", ["sr"], (2020, 11, 3)),
        ("3 lis 2019", ["cs"], (2019, 11, 3)),
    ]:
        dt = lenient_absolute_parse(s, DateParserConfig(languages=langs))
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s


def test_locale_months_round5_completion():
    """gd/ky/se/ug/yo — the last five go-dateparser base languages —
    plus the invariant that EVERY base language of the external
    library's data set now has a month table (or an equivalent regex /
    base-table path).  This closes the long-carried P4 locale-breadth
    partial at the base-language level."""
    from go_htmldate_ray.functions.constants import MONTH_NUMBER
    from go_htmldate_ray.functions.patterns import (
        _LOCALE_MONTH_ABBREVS_RESTRICTED,
        LOCALE_MONTHS,
        lenient_absolute_parse,
    )

    cases = [
        ("1 am faoilleach 1998", (1998, 1, 1)),      # gd + article skip
        ("6 an t-ògmhios 2019", (2019, 6, 6)),       # gd t- prefix split
        ("11 an t-samhain 2018", (2018, 11, 11)),
        ("31 август 1991 жылы", (1991, 8, 31)),      # ky + year word
        ("3 ođđajagimánu 2021", (2021, 1, 3)),       # se genitive
        ("9 čakčamánnu 2019", (2019, 9, 9)),         # se nominative
        ("1 ئۆكتەبىر 1955 يىلى", (1955, 10, 1)),      # ug + year word
        ("1 oṣù ṣẹ́rẹ́ 2021", (2021, 1, 1)),           # yo + month marker
        ("12 oṣù ọ̀pẹ̀ 2019", (2019, 12, 12)),
    ]
    for s, ymd in cases:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # go-dateparser's base-language set (its data/ directory; regional
    # variants like en-GB collapse to these)
    dateparser_langs = set(
        "af am ar az be bg bn bs ca cs cy da de el en eo es et eu fa fi "
        "fil fr fy ga gd gl gu he hi hr ht hu hy id is it ja ka kk km kn "
        "ko ky lb lo lt lv mg mk ml mn mr ms mt my nb ne nl nn no pa pl "
        "ps pt ro ru rw se si sk sl so sq sr sv sw ta te tg th tk tl tr "
        "tt ug uk ur uz vi yo zh".split()
    )
    have = set(LOCALE_MONTHS) | set(_LOCALE_MONTH_ABBREVS_RESTRICTED)
    have |= {"en", "de", "fr", "tr", "id"}  # constants.MONTH_NUMBER base
    have |= {"zh", "ja", "ko", "vi", "mn"}  # CJK/marker regex paths
    if "tl" in have:
        have |= {"fil"}
    if "no" in have:
        have |= {"nb", "nn"}
    assert MONTH_NUMBER  # base table non-empty
    missing = sorted(dateparser_langs - have)
    assert not missing, f"go-dateparser base languages uncovered: {missing}"


def test_year_word_markers_skipped():
    """Locale year-word suffixes/prefixes (go-dateparser translation
    strip-tokens): the token rides along a complete d-month-y date and
    must not reject the string."""
    from go_htmldate_ray.functions.patterns import lenient_absolute_parse

    cases = [
        ("24 серпня 2019 року", (2019, 8, 24)),       # uk
        ("24 серпня 2019 р.", (2019, 8, 24)),          # uk abbr
        ("24 sierpnia 2019 r.", (2019, 8, 24)),        # pl
        ("24. avgusta 2019. godine", (2019, 8, 24)),   # sr/bs/hr
        ("24 август 2019 година", (2019, 8, 24)),      # bg
        ("2019. gada 24. augusts", (2019, 8, 24)),     # lv
        ("2019 m. rugpjūčio 24 d.", (2019, 8, 24)),    # lt
        ("24 de agosto del año 2019", (2019, 8, 24)),  # es
        ("15 января 2020 года", (2020, 1, 15)),        # ru (pre-existing)
        ("24 Ağustos 2019 yılı", (2019, 8, 24)),       # tr
    ]
    for s, ymd in cases:
        dt = lenient_absolute_parse(s)
        assert dt is not None and (dt.year, dt.month, dt.day) == ymd, s

    # a skip word alone never creates a date
    assert lenient_absolute_parse("року 2019") is None
    assert lenient_absolute_parse("godine r. 2019 m.") is None
