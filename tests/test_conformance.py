"""Conformance against the reference's own integration corpus.

Cases are mechanically extracted from the reference's test suite
(core_test.go Test_HtmlDate) into tests/data/core_cases.json by
tools/extract_core_cases.py; mock pages are read from the reference's
test-files directory (read-only).  The engine must reproduce the golden
date for every case, and the cases that need no mock page must come out
the same through the Ray stage's batch kernel (URL fast path and partial
parse included).
"""

import json
from datetime import datetime, timezone
from pathlib import Path

import pyarrow as pa
import pytest

from go_htmldate_ray import Options, from_html
from go_htmldate_ray.sources import reference_files
from go_htmldate_ray.stages.extract_stage import extract_batch

DATA = Path(__file__).parent / "data"

CASES = json.loads((DATA / "core_cases.json").read_text())
MOCK_MAP = json.loads((DATA / "mock_files.json").read_text())


def build_opts(case: dict) -> Options:
    opts_dict = dict(case["opts"])
    if "min_date" in opts_dict:
        opts_dict["min_date"] = datetime.strptime(
            opts_dict["min_date"], "%Y-%m-%d"
        ).replace(tzinfo=timezone.utc)
    if case["kind"] == "url":
        opts_dict["url"] = case["input"]
    return Options(**opts_dict)


def load_input(case: dict) -> bytes | str:
    if case["kind"] == "mock":
        return (reference_files.MOCK_DIR / MOCK_MAP[case["input"]]).read_bytes()
    if case["kind"] == "url":
        return ""
    return case["input"]


def case_id(i: int, case: dict) -> str:
    tag = case["input"][:48].replace("\n", " ")
    return f"{i:03d}-{case['kind']}-{tag}"


_NEEDS_MOCK = pytest.mark.skipif(
    not reference_files.available(), reason=reference_files.ABSENT
)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(c, id=case_id(i, c), marks=_NEEDS_MOCK if c["kind"] == "mock" else ())
        for i, c in enumerate(CASES)
    ],
)
def test_conformance_case(case):
    result = from_html(load_input(case), build_opts(case))
    assert result.format() == case["expected"]


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, id=case_id(i, c)) for i, c in enumerate(CASES) if c["kind"] != "mock"],
)
def test_conformance_case_batch_stage(case):
    """One-row ``extract_batch`` with the case's options, its URL in the
    ``url`` column: the same date as ``from_html`` and as expected."""
    opts = build_opts(case)
    single = from_html(load_input(case), opts)
    batch = pa.table({
        "url": pa.array([opts.url], pa.string()),
        "html": pa.array([load_input(case)], pa.string()),
    })
    opts.url = ""
    out = extract_batch(batch, opts.with_defaults())
    assert (out.column("date_str")[0].as_py() or "") == single.format() == case["expected"]
