"""Ray Data actor-pool stage for publication-date extraction.

The reference's whole extraction cascade (core.go:136-271) is per-document,
so it maps to ONE vectorized batch transform: a callable class whose
``__init__`` holds the expensive state (compiled regex banks, language
tables — all module-level in :mod:`go_htmldate_ray.functions`) once per
actor, and whose ``__call__`` processes a zero-copy Arrow batch, appending
the four ``Result`` columns (result.go:8-18).

Usage::

    ds.map_batches(
        HtmldateExtractor,
        fn_constructor_kwargs={"use_original_date": True},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(2, 16),
        num_cpus=1,
    )
"""

from __future__ import annotations

from dataclasses import replace
from datetime import timezone
from typing import Optional

import pyarrow as pa

from ..extract import from_html
from ..functions.kernels import Options, extract_url_date, normalize_spaces


def extract_batch(batch: pa.Table, opts: Options, return_trace: bool = False) -> pa.Table:
    """Append date_str / datetime_iso / has_time / has_timezone / src_string
    columns to a pages batch (plus src_stage — the cascade stage that
    fired, the EnableLog-equivalent trace — when ``return_trace``).
    Total per row: any per-document failure yields nulls, never poisons
    the block."""
    urls = batch.column("url").to_pylist() if "url" in batch.column_names else [""] * batch.num_rows
    # one bulk conversion instead of per-row .as_py() scalar boxing
    htmls = batch.column("html").to_pylist()

    date_strs: list[Optional[str]] = []
    iso_strs: list[Optional[str]] = []
    has_times: list[bool] = []
    has_tzs: list[bool] = []
    src_strings: list[str] = []
    src_stages: list[str] = []

    # URL fast path: M1 returns before any DOM work in the cascade
    # (core.go:138-144), so a URL-dated row never needs its html parsed.
    # extract_time falls through to the full path (findTime then runs on
    # the URL raw string, a flow the fast path can't reproduce cheaply),
    # and so do user stages, which run ahead of M1.
    url_fast_ok = (
        not opts.defer_url_extractor and not opts.extract_time and not opts.custom_stages
    )

    # ONE batch-local Options copy, url swapped per row: from_document
    # itself copies its opts argument before any mutation (extract.py:60,
    # carrying every field incl. date_parser_config / custom_stages), so
    # a second per-row replace() here would be pure overhead.
    batch_opts = replace(opts)

    for i in range(batch.num_rows):
        url = urls[i] or ""
        if url and url_fast_ok:
            try:
                url_dt = extract_url_date(url, opts)
            except Exception:
                url_dt = None
            if url_dt is not None:
                d = url_dt
                date_strs.append(f"{d.year:04d}-{d.month:02d}-{d.day:02d}")
                iso_strs.append(d.isoformat())
                has_times.append(False)
                has_tzs.append(False)
                src_strings.append(normalize_spaces(url))
                src_stages.append("url")
                continue
        raw = htmls[i]
        try:
            batch_opts.url = url
            res = from_html(raw or b"", batch_opts)
        except Exception:
            res = None
        if res is None or res.date_time is None:
            date_strs.append(None)
            iso_strs.append(None)
            has_times.append(False)
            has_tzs.append(False)
            src_strings.append("" if res is None else res.src_string)
            src_stages.append("" if res is None else res.src_stage)
        else:
            date_strs.append(res.format())
            iso_strs.append(res.date_time.isoformat())
            has_times.append(res.has_time)
            has_tzs.append(res.has_timezone)
            src_strings.append(res.src_string)
            src_stages.append(res.src_stage)

    out = batch
    for name, arr in (
        ("date_str", pa.array(date_strs, pa.string())),
        ("datetime_iso", pa.array(iso_strs, pa.string())),
        ("has_time", pa.array(has_times, pa.bool_())),
        ("has_timezone", pa.array(has_tzs, pa.bool_())),
        ("src_string", pa.array(src_strings, pa.string())),
    ):
        out = out.append_column(name, arr)
    if return_trace:
        out = out.append_column("src_stage", pa.array(src_stages, pa.string()))
    return out


class HtmldateExtractor:
    """Stateful actor-pool callable: options resolved once per actor."""

    def __init__(
        self,
        use_original_date: bool = True,
        skip_extensive_search: bool = True,
        extract_time: bool = False,
        defer_url_extractor: bool = False,
        return_trace: bool = False,
        enable_log: bool = False,
        options: Optional[Options] = None,
    ):
        # `options` passes the FULL config surface (date_parser_config,
        # custom_stages, min/max dates …) through in one object; the
        # keyword shortcuts cover the common flags.
        self.opts = (
            replace(options)
            if options is not None
            else Options(
                use_original_date=use_original_date,
                skip_extensive_search=skip_extensive_search,
                extract_time=extract_time,
                defer_url_extractor=defer_url_extractor,
                enable_log=enable_log,
            )
        ).with_defaults()
        self.return_trace = return_trace

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_batch(batch, self.opts, self.return_trace)
