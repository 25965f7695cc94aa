"""Run the engine over the reference's 1000-doc golden corpus and score
parity against the reference's own recorded fast/extensive outputs plus
the golden dates (precision/recall/accuracy/F1 as in the reference's
evaluation harness, scripts/comparison/result.go:54-70)."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from go_htmldate_ray import Options, from_html
from go_htmldate_ray.sources import reference_files

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def score(results: list[tuple[str, str]]) -> dict:
    tp = fp = fn = tn = 0
    for got, want in results:
        if got == "" and want == "":
            tn += 1
        elif got == "" and want != "":
            fn += 1
        elif got == want:
            tp += 1
        else:
            fp += 1
    total = tp + fp + fn + tn
    return {
        "tp": tp, "fp": fp, "fn": fn, "tn": tn,
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "accuracy": (tp + tn) / total if total else 0.0,
        "f1": 2 * tp / (2 * tp + fp + fn) if tp else 0.0,
    }


def main(limit: int | None = None, show_mismatches: int = 0) -> None:
    if not reference_files.available():
        raise SystemExit(reference_files.ABSENT)
    entries = json.loads((DATA / "comparison_corpus.json").read_text())
    if limit:
        entries = entries[:limit]

    missing = 0
    vs_golden_fast, vs_golden_ext = [], []
    parity_fast, parity_ext = [], []
    mism = []
    t_fast = t_ext = 0.0

    for e in entries:
        p = reference_files.corpus_path(e["file"])
        if p is None:
            missing += 1
            continue
        raw = p.read_bytes()
        t0 = time.perf_counter()
        fast = from_html(raw, Options(use_original_date=True, skip_extensive_search=True)).format()
        t1 = time.perf_counter()
        ext = from_html(raw, Options(use_original_date=True)).format()
        t2 = time.perf_counter()
        t_fast += t1 - t0
        t_ext += t2 - t1

        vs_golden_fast.append((fast, e["date"]))
        vs_golden_ext.append((ext, e["date"]))
        parity_fast.append(fast == e["fast"])
        parity_ext.append(ext == e["extensive"])
        if (fast != e["fast"] or ext != e["extensive"]) and len(mism) < 2000:
            mism.append({"file": e["file"], "url": e["url"], "golden": e["date"],
                         "fast": fast, "ref_fast": e["fast"],
                         "ext": ext, "ref_ext": e["extensive"]})

    n = len(parity_fast)
    print(f"docs scored: {n} (missing files: {missing})")
    print(f"fast parity vs reference output: {sum(parity_fast)}/{n} = {sum(parity_fast)/n:.3f}")
    print(f"ext  parity vs reference output: {sum(parity_ext)}/{n} = {sum(parity_ext)/n:.3f}")
    print("fast vs golden:", {k: round(v, 3) if isinstance(v, float) else v for k, v in score(vs_golden_fast).items()})
    print("ext  vs golden:", {k: round(v, 3) if isinstance(v, float) else v for k, v in score(vs_golden_ext).items()})
    print(f"time: fast {t_fast:.2f}s ({n/t_fast:.0f} docs/s), ext {t_ext:.2f}s ({n/t_ext:.0f} docs/s)")
    (DATA.parent / "golden_mismatches.json").write_text(json.dumps(mism, indent=1))
    print(f"{len(mism)} docs with parity mismatch -> tests/golden_mismatches.json")


if __name__ == "__main__":
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else None
    main(limit)
