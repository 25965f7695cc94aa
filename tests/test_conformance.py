"""Conformance against the reference's own integration corpus.

Cases are mechanically extracted from the reference's test suite
(core_test.go Test_HtmlDate) into tests/data/core_cases.json by
tools/extract_core_cases.py; mock pages are read from the reference's
test-files directory (read-only).  The engine must reproduce the golden
date for every case.
"""

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

from go_htmldate_ray import Options, from_html
from go_htmldate_ray.sources import reference_files

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
