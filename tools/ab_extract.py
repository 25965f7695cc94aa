"""Same-process extraction A/B: another checkout's engine against this one.

Usage::

    python tools/ab_extract.py <other-checkout> [--seed N] [--rounds R]

Loads the ``go_htmldate_ray`` package of ``<other-checkout>`` (for example a
``git archive`` of the parent commit) under a private name next to this
working tree's package, then runs both over the perfbench pages: the 140
deep pages in extensive mode and the first 1,000 shallow pages in fast mode,
as the ``extract_deep`` and ``extract_shallow`` workloads configure them.
The two engines alternate page by page, and which one goes first alternates
too, so both see the same cache and CPU-frequency state.  Every ``Result``
field must be equal on every page; a difference stops the run.

Prints, per page set and round, the summed per-page time of each engine and
the ratio this/other (below 1 = this tree is faster), then the ratio of the
totals over all rounds, and the same totals split by the cascade stage that
dated each page in this tree (``Result.src_stage``; "none" for an undated
page), which shows which kind of page a saving sits on.  The engine that
runs second on a page runs a few percent faster on small pages, and which
engine that is flips from round to round, so only the total over an even
number of rounds is free of that bias.  Timings taken in separate processes on a shared machine swing by
tens of percent; this ratio repeats far more tightly, because both sides
share one process.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import go_htmldate_ray as this_engine  # noqa: E402
import perfbench.inputs as I  # noqa: E402


def load_engine(checkout: str, alias: str = "ab_other_engine"):
    """Import ``<checkout>/go_htmldate_ray`` as package ``alias``.  The
    package's imports of its own modules are relative, so they resolve
    inside the alias, including the ones made lazily at call time."""
    pkg_dir = os.path.join(os.path.abspath(checkout), "go_htmldate_ray")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def page_sets(seed: int):
    from go_htmldate_ray.sources.pages import synthesize_pages_batch

    docs = I.make_documents(seed, I.n_docs_for(0.1))
    deep, _ = I.make_deep_pages(seed, docs, 20)
    shallow = synthesize_pages_batch(docs.select(["doc_id", "text", "lang"]), docs.num_rows)
    shallow = shallow.slice(0, 1000)
    for name, table, extensive in (("deep", deep, True), ("shallow", shallow, False)):
        urls = table.column("url").to_pylist() if "url" in table.column_names else None
        htmls = table.column("html").to_pylist()
        yield name, [(urls[i] if urls else "") or "" for i in range(len(htmls))], htmls, extensive


def _fields(result) -> tuple:
    return (
        result.date_time, result.has_time, result.has_timezone,
        result.src_string, result.src_stage,
    )


def run_round(engines, urls, htmls, extensive: bool, flip: bool, by_stage: dict) -> list[float]:
    """Summed seconds per engine over one pass of the pages; each page's
    seconds are also added to ``by_stage[stage]``, keyed by the stage that
    dated it in this tree.  The cyclic garbage collector is paused for the
    pass, so neither side pays for collecting the other's DOM trees."""
    opts = [
        e.Options(use_original_date=True, skip_extensive_search=not extensive).with_defaults()
        for e in engines
    ]
    totals = [0.0, 0.0]
    clock = time.perf_counter
    gc.collect()
    gc.disable()
    for i, html in enumerate(htmls):
        order = (0, 1) if (i % 2 == 0) != flip else (1, 0)
        got = [None, None]
        took = [0.0, 0.0]
        for k in order:
            opts[k].url = urls[i]
            t = clock()
            got[k] = engines[k].from_html(html, opts[k])
            took[k] = clock() - t
        if _fields(got[0]) != _fields(got[1]):
            raise SystemExit(
                f"page {i}: results differ\n  other: {_fields(got[0])}\n  this:  {_fields(got[1])}"
            )
        stage = got[1].src_stage if got[1].date_time is not None else "none"
        split = by_stage.setdefault(stage or "none", [0.0, 0.0, 0])
        for k in (0, 1):
            totals[k] += took[k]
            split[k] += took[k]
        split[2] += 1
    gc.enable()
    return totals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="checkout whose engine is the baseline")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=6, help="an even number")
    args = ap.parse_args(argv)
    if args.rounds < 2 or args.rounds % 2:
        ap.error("--rounds must be even, so each engine runs first equally often")

    other = load_engine(args.other)
    engines = (other, this_engine)
    for name, urls, htmls, extensive in page_sets(args.seed):
        run_round(engines, urls, htmls, extensive, False, {})  # warm-up, checks equality
        n = len(htmls)
        totals = [0.0, 0.0]
        by_stage: dict[str, list] = {}
        for r in range(args.rounds):
            t_other, t_this = run_round(engines, urls, htmls, extensive, r % 2 == 1, by_stage)
            totals[0] += t_other
            totals[1] += t_this
            print(
                f"{name} round {r + 1}: other {1e3 * t_other / n:.3f} ms/page, "
                f"this {1e3 * t_this / n:.3f} ms/page, ratio {t_this / t_other:.3f}"
            )
        print(
            f"{name}: {n} pages, results equal, other {1e3 * totals[0] / (n * args.rounds):.3f} "
            f"ms/page, this {1e3 * totals[1] / (n * args.rounds):.3f} ms/page, "
            f"ratio {totals[1] / totals[0]:.3f}"
        )
        for stage, (t_other, t_this, pages) in sorted(by_stage.items()):
            print(
                f"  {name} {stage}: {pages // args.rounds} pages, other {t_other:.3f} s, "
                f"this {t_this:.3f} s, ratio {t_this / t_other:.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
