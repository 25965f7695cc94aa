"""Distributed EXACT quantiles without a full sort.

``exact_quantiles`` computes ``percentile_disc``-style quantiles (the
q-quantile is the element at 1-based rank ``ceil(q*n)``, i.e. the first
element whose cumulative distribution reaches q) with a bounded number
of column scans instead of a total-order sort:

1. count + global min/max              (2 cheap aggregates)
2. one histogram pass: every batch bins its values with the SAME fixed
   arithmetic and emits partial (bin, count) rows; a Sum groupby yields
   one row per bin (8192 bins) on the driver
3. locate each target rank's bin from the cumulative counts, then ONE
   collect pass pulls only those bins' values (expected n/8192 rows
   each) and selects in-memory with np.partition arithmetic

A bin whose float64 values do not fit
:data:`~go_htmldate_ray.stages.blocks.LIGHT_TABLE_BYTES` (heavy skew /
duplicate pileups) is REFINED recursively — re-histogrammed within its
own range — rather than collected, down to a range too narrow to split.
Total scans: 3 + refinement depth (rare).  At 100 TB pass the column
projection pre-materialized if re-scan cost matters; the operator itself
only ever drives one row per bin plus collected-bin rows to the driver.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from . import blocks

# histogram bins: over the whole column, and per group
_BINS, _GROUP_BINS = 8192, 1024


def _collectable(rows: int) -> bool:
    """A bin is collected on the driver when its float64 values fit the
    one driver budget; a larger bin is refined."""
    return rows * 8 <= blocks.LIGHT_TABLE_BYTES


def _bin_index(vals: np.ndarray, lo: float, hi: float, n_bins: int) -> np.ndarray:
    """The shared binning arithmetic — histogram and collect passes MUST
    use the identical expression or float rounding could disagree on a
    boundary value's bin."""
    if hi <= lo:
        return np.zeros(len(vals), dtype=np.int64)
    idx = ((vals - lo) * (n_bins / (hi - lo))).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1)


def _histogram(ds, col: str, lo: float, hi: float, n_bins: int) -> np.ndarray:
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch.column(col), dtype=np.float64)
        idx = _bin_index(vals, lo, hi, n_bins)
        bins, counts = np.unique(idx, return_counts=True)
        return pa.table(
            {
                "bin": pa.array(bins, pa.int64()),
                "cnt": pa.array(counts, pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("cnt"))
        .take_all()
    )  # ≤ n_bins rows by construction
    hist = np.zeros(n_bins, dtype=np.int64)
    for r in rows:
        hist[r["bin"]] = r["sum(cnt)"]
    return hist


def _collect_bins(ds, col: str, lo: float, hi: float, n_bins: int, wanted: set):
    wanted_arr = pa.array(sorted(wanted), pa.int64())

    def pick(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vals = np.asarray(batch.column(col), dtype=np.float64)
        idx = _bin_index(vals, lo, hi, n_bins)
        t = pa.table(
            {"bin": pa.array(idx, pa.int64()), "val": pa.array(vals, pa.float64())}
        )
        return t.filter(pc.is_in(t.column("bin"), value_set=wanted_arr))

    out: dict[int, list[float]] = {b: [] for b in wanted}
    for r in ds.map_batches(pick, batch_format="pyarrow").take_all():
        out[r["bin"]].append(r["val"])
    return out


def _refine_rank(
    ds, col: str, rank: int, lo: float, hi: float, hist: np.ndarray,
    n_bins: int, depth: int = 0,
) -> float:
    """Element at 1-based ``rank`` of the values in [lo, hi] whose
    histogram over that range is ``hist`` — the recursive path for bins
    too heavy to collect (heavy skew)."""
    cum = np.cumsum(hist)
    b = int(np.searchsorted(cum, rank))
    rank_in_bin = rank - (int(cum[b - 1]) if b else 0)
    width = (hi - lo) / n_bins
    blo = lo + b * width
    bhi = hi if b == n_bins - 1 else lo + (b + 1) * width
    if _collectable(hist[b]) or depth >= 8 or bhi <= blo:
        vals = _collect_bins(ds, col, lo, hi, n_bins, {b})[b]
        vals = np.asarray(vals)
        return float(np.partition(vals, rank_in_bin - 1)[rank_in_bin - 1])
    # refine: restrict to the bin (by the SAME bin arithmetic) and recurse
    def only_bin(batch: pa.Table) -> pa.Table:
        vals = np.asarray(batch.column(col), dtype=np.float64)
        keep = _bin_index(vals, lo, hi, n_bins) == b
        return batch.filter(pa.array(keep))

    sub = ds.map_batches(only_bin, batch_format="pyarrow")
    sub_hist = _histogram(sub, col, blo, bhi, n_bins)
    return _refine_rank(
        sub, col, rank_in_bin, blo, bhi, sub_hist, n_bins, depth + 1
    )


def exact_quantiles(ds, col: str, qs: list[float]):
    """Dataset → pandas DataFrame (q, value) of exact discrete quantiles
    of ``col`` (see module docstring).  The result is len(qs) rows — a
    driver-side DataFrame is the honest type for it."""
    import pandas as pd
    from ray.data.aggregate import Max, Min

    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")

    # Materialize the single-column projection once: count, min/max,
    # histogram and collect are all scans over it, and an unmaterialized
    # projection would re-read the source per pass.
    proj = ds.select_columns([col]).materialize()
    n = proj.count()
    if n == 0:
        return pd.DataFrame(
            {"q": pd.Series([], dtype="float64"), "value": pd.Series([], dtype="float64")}
        )
    mm = proj.aggregate(Min(col), Max(col))
    lo, hi = float(mm[f"min({col})"]), float(mm[f"max({col})"])
    hist = _histogram(proj, col, lo, hi, _BINS)

    # ranks → bins; all light bins are collected in ONE pass, heavy bins
    # go through recursive refinement individually
    cum = np.cumsum(hist)
    rank_of = {q: max(1, math.ceil(q * n)) for q in qs}
    bin_of = {q: int(np.searchsorted(cum, r)) for q, r in rank_of.items()}
    light = {b for b in bin_of.values() if _collectable(hist[b])}
    collected = _collect_bins(proj, col, lo, hi, _BINS, light) if light else {}

    out = []
    for q in qs:
        rank, b = rank_of[q], bin_of[q]
        if b in collected:
            rank_in_bin = rank - (int(cum[b - 1]) if b else 0)
            vals = np.asarray(collected[b])
            value = float(np.partition(vals, rank_in_bin - 1)[rank_in_bin - 1])
        else:
            value = _refine_rank(proj, col, rank, lo, hi, hist, _BINS)
        out.append({"q": q, "value": value})
    return pd.DataFrame(out)


def grouped_quantiles(ds, key: str, col: str, qs: list[float]):
    """Per-group exact discrete quantiles → pandas DataFrame
    (key, q, value) — the grouped generalization of
    :func:`exact_quantiles`, in the same bounded number of scans for ALL
    groups together (not per group): one (key,count,min,max) aggregate,
    ONE histogram pass emitting (key, bin, cnt) partials, one combined
    collect pass for every group's light target bins; only heavy-skew
    bins fall back to per-group recursive refinement.

    Contract: ``key`` is low-cardinality (event types, languages —
    result rows = n_groups × len(qs) land on the driver by definition).
    """
    import math

    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min, Sum

    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")

    proj = ds.select_columns([key, col]).materialize()
    stats = {
        r[key]: (int(r["count()"]), float(r[f"min({col})"]), float(r[f"max({col})"]))
        for r in proj.groupby(key).aggregate(Count(), Min(col), Max(col)).take_all()
    }
    if not stats:
        return pd.DataFrame(
            {
                key: pd.Series([], dtype="object"),
                "q": pd.Series([], dtype="float64"),
                "value": pd.Series([], dtype="float64"),
            }
        )
    bounds = {k: (lo, hi) for k, (_, lo, hi) in stats.items()}

    def partial_hist(batch: pa.Table) -> pa.Table:
        keys_np = np.asarray(batch.column(key).to_pylist())
        vals = np.asarray(batch.column(col), dtype=np.float64)
        out_k, out_b, out_c = [], [], []
        for k in np.unique(keys_np):
            lo, hi = bounds[k]
            mask = keys_np == k
            bins, counts = np.unique(
                _bin_index(vals[mask], lo, hi, _GROUP_BINS), return_counts=True
            )
            out_k.extend([k] * len(bins))
            out_b.extend(bins.tolist())
            out_c.extend(counts.tolist())
        return pa.table(
            {
                # explicit type: an empty batch must not infer a null-typed
                # key column (schema mismatch across blocks)
                key: pa.array(list(out_k), type=batch.schema.field(key).type),
                "bin": pa.array(out_b, pa.int64()),
                "cnt": pa.array(out_c, pa.int64()),
            }
        )

    hist_rows = (
        proj.map_batches(partial_hist, batch_format="pyarrow")
        .groupby([key, "bin"])
        .aggregate(Sum("cnt"))
        .take_all()
    )  # ≤ n_groups × _GROUP_BINS rows
    hists = {k: np.zeros(_GROUP_BINS, dtype=np.int64) for k in stats}
    for r in hist_rows:
        hists[r[key]][r["bin"]] = r["sum(cnt)"]

    # per group: ranks → bins; light (key, bin) targets collected in ONE pass
    plan = {}
    light: dict = {}
    for k, (n, lo, hi) in stats.items():
        cum = np.cumsum(hists[k])
        rank_of = {q: max(1, math.ceil(q * n)) for q in qs}
        bin_of = {q: int(np.searchsorted(cum, r)) for q, r in rank_of.items()}
        plan[k] = (cum, rank_of, bin_of)
        lt = {b for b in bin_of.values() if _collectable(hists[k][b])}
        if lt:
            light[k] = lt

    collected: dict = {}
    if light:
        def pick(batch: pa.Table) -> pa.Table:
            keys_np = np.asarray(batch.column(key).to_pylist())
            vals = np.asarray(batch.column(col), dtype=np.float64)
            keep = np.zeros(len(vals), dtype=bool)
            idx = np.zeros(len(vals), dtype=np.int64)
            for k, wanted in light.items():
                lo, hi = bounds[k]
                mask = keys_np == k
                b = _bin_index(vals[mask], lo, hi, _GROUP_BINS)
                idx[mask] = b
                keep[mask] = np.isin(b, list(wanted))
            t = pa.table(
                {
                    key: batch.column(key),
                    "bin": pa.array(idx, pa.int64()),
                    "val": pa.array(vals, pa.float64()),
                }
            )
            return t.filter(pa.array(keep))

        for r in proj.map_batches(pick, batch_format="pyarrow").take_all():
            collected.setdefault((r[key], r["bin"]), []).append(r["val"])

    out = []
    for k in stats:
        n, lo, hi = stats[k]
        cum, rank_of, bin_of = plan[k]
        for q in qs:
            rank, b = rank_of[q], bin_of[q]
            if (k, b) in collected:
                rank_in_bin = rank - (int(cum[b - 1]) if b else 0)
                vals = np.asarray(collected[(k, b)])
                value = float(np.partition(vals, rank_in_bin - 1)[rank_in_bin - 1])
            else:
                # heavy bin: refine within this group's rows only
                sub = proj.map_batches(
                    lambda t, kk=k: t.filter(pc.equal(t.column(key), kk)),
                    batch_format="pyarrow",
                )
                value = _refine_rank(sub, col, rank, lo, hi, hists[k], _GROUP_BINS)
            out.append({key: k, "q": q, "value": value})
    return pd.DataFrame(out)
