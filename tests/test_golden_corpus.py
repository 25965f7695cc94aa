"""Golden-corpus parity gate: the engine must stay byte-identical to the
reference's recorded outputs on ≥99% of the 1000-doc evaluation corpus
(scripts/comparison/data-*.go), and match the published aggregate metrics
(README.md:115-116) exactly.

Residual mismatches (6/1000, tests/golden_mismatches.json): four of them
(1805697156, nmb-media.de.ebay, d20cc651..., handelsblatt.com.grenz...)
reproduce the reference's recorded output exactly when run with
UseOriginalDate=false — i.e. those corpus rows were recorded without the
harness's stated UseOriginalDate=true, so the recorded values are
internally inconsistent and this engine's outputs are the behaviorally
correct ones (three of the four match the golden date where the recorded
output does not)."""

import json
from pathlib import Path

import pytest

from go_htmldate_ray import Options, from_html
from go_htmldate_ray.sources import reference_files

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def corpus_results():
    if not reference_files.available():
        pytest.skip(reference_files.ABSENT)
    entries = json.loads((DATA / "comparison_corpus.json").read_text())
    results = []
    for e in entries:
        p = reference_files.corpus_path(e["file"])
        if p is None:
            continue
        raw = p.read_bytes()
        fast = from_html(
            raw, Options(use_original_date=True, skip_extensive_search=True)
        ).format()
        ext = from_html(raw, Options(use_original_date=True)).format()
        results.append((e, fast, ext))
    return results


def _score(pairs):
    tp = fp = fn = 0
    for got, want in pairs:
        if got == "" and want != "":
            fn += 1
        elif got and got == want:
            tp += 1
        elif got:
            fp += 1
    return {
        "precision": round(tp / (tp + fp), 3),
        "recall": round(tp / (tp + fn), 3),
        "f1": round(2 * tp / (2 * tp + fp + fn), 3),
    }


def test_fast_parity(corpus_results):
    n = len(corpus_results)
    assert n == 1000
    matches = sum(fast == e["fast"] for e, fast, _ in corpus_results)
    assert matches / n >= 0.99, f"fast parity {matches}/{n}"


def test_extensive_parity(corpus_results):
    n = len(corpus_results)
    matches = sum(ext == e["extensive"] for e, _, ext in corpus_results)
    assert matches / n >= 0.99, f"extensive parity {matches}/{n}"


def test_fast_metrics_match_published_baseline(corpus_results):
    s = _score([(fast, e["date"]) for e, fast, _ in corpus_results])
    assert s == {"precision": 0.882, "recall": 0.925, "f1": 0.903}


def test_extensive_metrics_match_published_baseline(corpus_results):
    s = _score([(ext, e["date"]) for e, _, ext in corpus_results])
    assert s == {"precision": 0.870, "recall": 0.993, "f1": 0.928}
