"""Pure scalar kernels of the date-extraction engine.

Each function mirrors a scalar routine of the reference engine and is cited
to the reference location whose semantics it reimplements.  These are the
hot-path per-row kernels invoked from inside Ray ``map_batches`` stages;
all state (compiled regexes, tables) is module-level, loaded once per
worker process.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Optional

from . import constants as C
from . import patterns as P
from .timezone import find_named_timezone, parse_timezone_code

UTC = timezone.utc


@dataclass
class DateParserConfig:
    """Configuration for the last-resort lenient parser — the mirror of
    go-dateparser's ``dps.Configuration`` as referenced by the extractor
    (core-options.go:56-58; defaults per constant.go:43-48:
    PreferredDateSource=Past, StrictParsing=true).

    - ``languages``: restrict month-name recognition to these language
      codes (see patterns.LOCALE_MONTHS); None = all built-in locales.
      A region or script variant ("en-GB", "pt_BR", "zh-Hant") uses its
      base language's tables.
    - ``date_order``: "MDY" (default) or "DMY" — numeric-triple
      disambiguation.
    - ``strict_parsing``: require a full year/month/day; when False a
      year+month string parses with the day defaulting per
      ``preferred_day_of_month`` ("first" | "last").
    - ``preferred_date_source``: "past" | "future" — accepted for
      API compatibility (relative-date parsing, where it applies in the
      external library, is out of scope for absolute web dates).
    """

    languages: Optional[list] = None
    date_order: str = "MDY"
    strict_parsing: bool = True
    preferred_day_of_month: str = "first"
    preferred_date_source: str = "past"


@dataclass
class Options:
    """Extraction configuration (mirrors core-options.go:27-59)."""

    extract_time: bool = False
    use_original_date: bool = False
    url: str = ""
    min_date: Optional[datetime] = None
    max_date: Optional[datetime] = None
    skip_extensive_search: bool = False
    defer_url_extractor: bool = False
    # EnableLog equivalent (core-options.go:44-45): when True the cascade
    # logs each stage hit; the firing stage always reaches Result.src_stage.
    enable_log: bool = False
    # DateParserConfig equivalent (core-options.go:56-58): configuration
    # for the last-resort lenient parser, only consulted during extensive
    # search.  None = the default config (constant.go:43-48).
    date_parser_config: Optional[DateParserConfig] = None
    # Custom cascade stages (SURVEY §2.9): list of (name, fn) tried ahead
    # of the built-in cascade; fn(doc, opts) -> (raw_string, datetime|None).
    # Hits are validated against min/max dates and traced as "custom:<name>".
    custom_stages: Optional[list] = None

    def with_defaults(self) -> "Options":
        """Apply default min/max dates (core.go:69-75)."""
        if self.min_date is None:
            self.min_date = C.DEFAULT_MIN_DATE
        if self.max_date is None:
            self.max_date = C.default_max_date()
        return self


@dataclass
class Result:
    """Extraction result (mirrors result.go:8-18)."""

    date_time: Optional[datetime] = None
    has_time: bool = False
    has_timezone: bool = False
    src_string: str = ""
    # cascade stage that produced the date ("" when none) — see
    # extract.find_date_staged
    src_stage: str = ""

    @property
    def is_zero(self) -> bool:
        return self.date_time is None

    def format(self, fmt: str = "%Y-%m-%d") -> str:
        if self.date_time is None:
            return ""
        if fmt == "%Y-%m-%d":  # zero-padded even for years < 1000
            d = self.date_time
            return f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
        return self.date_time.strftime(fmt)


# --- tiny string helpers (utils.go:87-163) ----------------------------------

def atoi(s: str) -> int:
    """strconv.Atoi semantics: 0 on any parse failure."""
    try:
        return int(s)
    except (ValueError, TypeError):
        return 0


def is_digit(s: str) -> bool:
    """True iff every rune is a Unicode decimal digit (utils.go:87-95)."""
    if not s:
        return True
    if s.isascii():
        return s.isdigit()
    return all(unicodedata.category(ch) == "Nd" for ch in s)


def get_digit_count(s: str) -> int:
    """Count Unicode decimal digits (utils.go:98-106)."""
    if s.isascii():
        return sum(ch.isdigit() for ch in s)
    return sum(unicodedata.category(ch) == "Nd" for ch in s)


def str_limit(s: str, limit: int) -> str:
    """Rune-capped truncation (utils.go:134-140)."""
    return s[:limit] if len(s) > limit else s


def normalize_spaces(s: str) -> str:
    """Whitespace collapse + trim (utils.go:144-147)."""
    return " ".join(s.split())


# --- validation (validators.go:33-91, utils.go:166-184) ---------------------

_DAYS_31 = {1, 3, 5, 7, 8, 10, 12}
_DAYS_30 = {4, 6, 9, 11}


def is_leap_year(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def validate_date(date: Optional[datetime], opts: Options) -> bool:
    """Window check (validators.go:74-91)."""
    if date is None:
        return False
    if opts.min_date is not None and date < opts.min_date:
        return False
    if opts.max_date is not None and date > opts.max_date:
        return False
    return True


def validate_date_parts(year: int, month: int, day: int, opts: Options) -> Optional[datetime]:
    """Gregorian-calendar + window validation (validators.go:33-71).

    Returns the UTC-midnight datetime when valid, else None.
    """
    if year < 1582 or month < 1 or month > 12 or day < 1:
        return None
    if month in _DAYS_31:
        if day > 31:
            return None
    elif month in _DAYS_30:
        if day > 30:
            return None
    else:  # February
        if day > (29 if is_leap_year(year) else 28):
            return None
    dt = datetime(year, month, day, tzinfo=UTC)
    return dt if validate_date(dt, opts) else None


# --- epoch-reference folding (validators.go:94-116) -------------------------

def to_epoch(dt: datetime) -> int:
    return int(dt.timestamp())


def compare_values(reference: int, attempt: datetime, opts: Options) -> tuple[int, bool]:
    """Min/max epoch fold keyed on use_original_date (validators.go:94-105)."""
    ts = to_epoch(attempt)
    if (opts.use_original_date and (reference == 0 or ts < reference)) or (
        not opts.use_original_date and ts > reference
    ):
        return ts, True
    return reference, False


def check_extracted_reference(reference: int, opts: Options) -> Optional[datetime]:
    """Epoch>0 → UTC datetime if within window (validators.go:108-116)."""
    if reference > 0:
        dt = datetime.fromtimestamp(reference, tz=UTC)
        if validate_date(dt, opts):
            return dt
    return None


# --- year/day-month fixups (extractors.go:429-447) --------------------------

def correct_year(year: int) -> int:
    """2-digit year completion: >=90 → +1900 else +2000 (extractors.go:429-439)."""
    if year < 100:
        year += 1900 if year >= 90 else 2000
    return year


def try_swap_values(day: int, month: int) -> tuple[int, int]:
    """Swap day/month iff month>12 and day<=12 (extractors.go:442-447)."""
    if month > 12 and day <= 12:
        return month, day
    return day, month


# --- parsers (extractors.go:50-207, 403-427) --------------------------------

def extract_url_date(url: str, opts: Options) -> Optional[datetime]:
    """Y[-/_]M[-/_]D in a URL (extractors.go:50-69)."""
    m = C.RX_COMPLETE_URL.search(url)
    if m is None:
        return None
    return validate_date_parts(atoi(m.group(1)), atoi(m.group(2)), atoi(m.group(3)), opts)


def regex_parse(
    s: str, opts: Options, runs: Optional[P.DigitRuns] = None
) -> Optional[datetime]:
    """Multilingual long-form date parse (extractors.go:403-427); ``runs``
    is the digit index of ``s`` when the caller has one."""
    year = month = day = 0
    found = P.find_long_text_pattern(s, runs)
    if found is not None:
        str_year, str_month, str_day = found
        m = C.MONTH_NUMBER.get(str_month.lower())
        if m is not None:
            month = m
            year = atoi(str_year)
            day = atoi(str_day)
    year = correct_year(year)
    day, month = try_swap_values(day, month)
    return validate_date_parts(year, month, day, opts)


def fast_parse(s: str, opts: Options) -> Optional[datetime]:
    """Cascade of cheap date-shape parsers (extractors.go:119-190)."""
    # 1. Literal YYYYMMDD at the string head
    if len(s) >= 8 and is_digit(s[4:8]):
        dt = validate_date_parts(atoi(s[:4]), atoi(s[4:6]), atoi(s[6:8]), opts)
        if dt is not None:
            return dt

    # 2. YYYYMMDD anywhere, delimited by non-digits
    m = C.RX_YMD_NO_SEP_PATTERN.search(s)
    if m is not None:
        text = m.group(1)
        dt = validate_date_parts(atoi(text[:4]), atoi(text[4:6]), atoi(text[6:8]), opts)
        if dt is not None:
            return dt

    # 3. Y-M-D or D-M-Y with separators
    m = C.RX_YMD_PATTERN.search(s)
    if m is not None:
        if m.group(1):  # Y-M-D branch
            year, month, day = atoi(m.group(1)), atoi(m.group(2)), atoi(m.group(3))
        else:  # D-M-Y branch: complete year, maybe swap day/month
            day, month, year = atoi(m.group(4)), atoi(m.group(5)), atoi(m.group(6))
            year = correct_year(year)
            day, month = try_swap_values(day, month)
        dt = validate_date_parts(year, month, day, opts)
        if dt is not None:
            return dt

    # 4. Y-M or M-Y
    m = C.RX_YM_PATTERN.search(s)
    if m is not None:
        if m.group(1):
            year, month = atoi(m.group(1)), atoi(m.group(2))
        else:
            month, year = atoi(m.group(3)), atoi(m.group(4))
        dt = validate_date_parts(year, month, 1, opts)
        if dt is not None:
            return dt

    # 5. Long-form text
    dt = regex_parse(s, opts)
    if validate_date(dt, opts):
        return dt
    return None


def external_date_parser(s: str, opts: Options) -> Optional[datetime]:
    """Last-resort lenient parse (extractors.go:193-207).

    The reference delegates to go-dateparser with opts.DateParserConfig
    (or the strict PreferredDateSource=Past default); this engine
    implements the subset of absolute formats the corpus exercises with
    the same pluggable config surface (languages, date order, strictness
    — see :class:`DateParserConfig`).
    """
    dt = P.lenient_absolute_parse(s, opts.date_parser_config)
    if dt is not None and validate_date(dt, opts):
        return dt
    return None


def try_date_expr(s: str, opts: Options) -> tuple[str, Optional[datetime]]:
    """The central per-expression kernel (extractors.go:73-114)."""
    s = normalize_spaces(s)
    s = str_limit(s, C.MAX_SEGMENT_LEN)

    if len(s) < 6:
        return s, None

    n_digit = get_digit_count(s)
    if n_digit < 4 or n_digit > 18:
        return s, None

    if C.RX_DISCARD_PATTERN.search(s):
        return s, None

    dt = fast_parse(s, opts)
    if dt is not None:
        return s, dt

    if not opts.skip_extensive_search:
        if not C.RX_TEXT_DATE_PATTERN.search(s):
            return s, None
        dt = external_date_parser(s, opts)
        if dt is not None:
            return s, dt

    return s, None


def compare_reference(ref_string: str, ref_value: int, expression: str, opts: Options) -> tuple[str, int]:
    """Fold one expression into the running min/max reference (core.go:802-814)."""
    new_ref_string, attempt = try_date_expr(expression, opts)
    if attempt is None:
        return ref_string, ref_value
    ref_value, changed = compare_values(ref_value, attempt, opts)
    if changed:
        ref_string = new_ref_string
    return ref_string, ref_value


# --- time-of-day extraction (core.go:273-350) -------------------------------

def find_time(raw_string: str) -> tuple[int, int, int, Optional[timezone], bool]:
    """Extract (hour, minute, second, tzinfo, found) from the raw date string."""
    raw_string = normalize_spaces(raw_string)
    if not raw_string:
        return 0, 0, 0, None, False

    hour = minute = second = 0
    tz: Optional[timezone] = None
    time_found = False

    # ISO-8601 time; matches destructively replaced so later regexes don't
    # re-match (core.go:282-295).
    def _iso_repl(m):
        nonlocal hour, minute, second, tz, time_found
        if not time_found:
            hour = atoi(m.group(1))
            minute = atoi(m.group(2))
            second = atoi(m.group(3) or "")
            tz = parse_timezone_code(m.group(4))
            time_found = True
        return " "

    raw_string = C.RX_ISO_TIME.sub(_iso_repl, raw_string)
    if time_found and tz is not None:
        return hour, minute, second, tz, time_found

    # Common TZ code e.g. "UTC +07:00" (core.go:304-311)
    if tz is None:
        def _tz_repl(m):
            nonlocal tz
            if tz is None:
                tz = parse_timezone_code(m.group(0))
            return " "

        raw_string = C.RX_TZ_CODE.sub(_tz_repl, raw_string)

    if time_found and tz is not None:
        return hour, minute, second, tz, time_found

    # Named timezones (core.go:318-320)
    if tz is None:
        tz = find_named_timezone(raw_string)

    if time_found and tz is not None:
        return hour, minute, second, tz, time_found

    # Common time format incl. French "7h08" (core.go:328-347)
    if not time_found:
        m = C.RX_COMMON_TIME.search(raw_string)
        if m is not None:
            hour = atoi(m.group(1))
            minute = atoi(m.group(2))
            second = atoi(m.group(3) or "")
            h12 = (m.group(4) or "").lower().replace(".", "")
            if h12 == "pm":
                hour += 12
            time_found = True

    return hour, minute, second, tz, time_found
