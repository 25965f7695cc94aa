"""Deterministic sampling operators (SURVEY §2.7's sampling slot).

Ray's built-in ``Dataset.random_sample`` draws per-run randomness; a
training-data pipeline wants REPRODUCIBLE samples — rerunning a failed
shard must keep the same rows.  Both operators here key the keep/drop
decision on ``md5(seed:id)``, a pure function of (row id, seed): no
shuffle, streams batch-by-batch, and a DuckDB oracle reproduces the
exact row set from the same formula.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

_HALF_RANGE = 1 << 63  # md5 prefix >> 1 is uniform on [0, 2^63)


def _keep_hash(seed: int, row_id) -> int:
    return (
        int.from_bytes(hashlib.md5(f"{seed}:{row_id}".encode()).digest()[:8], "big")
        >> 1
    )


def bernoulli_sample(ds, *, rate: float, seed: int = 42, id_col: str = "doc_id"):
    """Keep each row independently with probability ``rate``,
    deterministically in (id, seed)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    threshold = int(rate * _HALF_RANGE)

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        keep = [_keep_hash(seed, i) < threshold for i in ids]
        return batch.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(f, batch_format="pyarrow")


def stratified_sample(
    ds,
    *,
    strata_col: str,
    rates: dict,
    default_rate: float = 0.0,
    seed: int = 42,
    id_col: str = "doc_id",
):
    """Per-stratum Bernoulli rates (e.g. keep 50% of ``en`` docs, 10% of
    the rest) — the language-rebalancing sampler of a web-corpus
    pipeline.  Same deterministic keep rule as :func:`bernoulli_sample`;
    the stratum only selects the rate."""
    thresholds = {k: int(v * _HALF_RANGE) for k, v in rates.items()}
    default_threshold = int(default_rate * _HALF_RANGE)

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        strata = batch.column(strata_col).to_pylist()
        keep = [
            _keep_hash(seed, i) < thresholds.get(s, default_threshold)
            for i, s in zip(ids, strata)
        ]
        return batch.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(f, batch_format="pyarrow")


def dataset_split(
    ds,
    *,
    fractions: tuple[float, float] = (0.8, 0.1),
    seed: int = 11,
    id_col: str = "doc_id",
):
    """Assign every row a deterministic train/val/test split label
    (train = ``fractions[0]``, val = ``fractions[1]``, test = the rest).
    Same md5(seed:id) uniform draw as the samplers: reproducible across
    reruns and shard retries, no shuffle, streams batch-by-batch."""
    if (
        len(fractions) != 2
        or min(fractions) < 0
        or fractions[0] + fractions[1] > 1
    ):
        raise ValueError(
            f"fractions must be two non-negative values summing to <= 1, "
            f"got {fractions!r}"
        )
    t_train = int(fractions[0] * _HALF_RANGE)
    t_val = int((fractions[0] + fractions[1]) * _HALF_RANGE)

    def f(batch: pa.Table) -> pa.Table:
        labels = []
        for i in batch.column(id_col).to_pylist():
            u = _keep_hash(seed, i)
            labels.append("train" if u < t_train else "val" if u < t_val else "test")
        return batch.append_column("split", pa.array(labels, pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def grouped_split(
    ds,
    *,
    group_col: str,
    fractions: tuple[float, float] = (0.8, 0.1),
    seed: int = 11,
):
    """Leakage-safe train/val/test split: EVERY row of a group
    (host / domain / source) lands in the same split — md5(seed:group)
    decides once per group, so near-duplicate pages from one site can
    never straddle train and eval (the contamination mode a per-row
    split like :func:`dataset_split` permits).  Deterministic across
    reruns and shard retries; no shuffle, streams batch-by-batch.

    Note the fractions are honored in expectation over GROUPS, not
    rows — a skewed group carries all its rows with it, which is the
    point.  A NULL group is labelled ``test``, as SQL's
    ``'seed:' || NULL`` is NULL and falls through every threshold."""
    if (
        len(fractions) != 2
        or min(fractions) < 0
        or fractions[0] + fractions[1] > 1
    ):
        raise ValueError(
            f"fractions must be two non-negative values summing to <= 1, "
            f"got {fractions!r}"
        )
    t_train = int(fractions[0] * _HALF_RANGE)
    t_val = int((fractions[0] + fractions[1]) * _HALF_RANGE)

    def f(batch: pa.Table) -> pa.Table:
        labels = []
        for g in batch.column(group_col).to_pylist():
            if g is None:
                labels.append("test")
                continue
            u = _keep_hash(seed, g)
            labels.append(
                "train" if u < t_train else "val" if u < t_val else "test"
            )
        return batch.append_column("split", pa.array(labels, pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


_SALT_BUCKETS = 16  # cap_per_group's phase-1 sub-buckets per group


def cap_per_group(
    ds,
    *,
    group_col: str,
    cap: int,
    id_col: str = "doc_id",
):
    """Per-group quota: keep at most ``cap`` rows per ``group_col`` value
    (the domain-quota curation rule — "no single host may dominate the
    corpus"), preferring the smallest ``id_col`` deterministically.
    Returns the kept rows with the input's columns.

    Skew-safe two-phase shape: phase 1 groups on the SALTED key
    ``md5(group) * _SALT_BUCKETS + id % _SALT_BUCKETS`` and keeps the
    ``cap`` smallest ids per (group, sub-bucket), so a mega-group's rows
    split across ``_SALT_BUCKETS`` tasks and at most
    ``_SALT_BUCKETS × cap`` rows per group survive into phase 2; phase 2
    groups on a HASH BUCKET of the group value (never one Python call
    per group value).  Both phases resolve their caps with one
    group-aware lexsort + run-boundary rank per task — a salt-key hash
    collision merging two groups therefore stays correct, it just ranks
    them side by side.
    """
    import numpy as np

    from .cleaning import _hash63_cached
    from .joins import SHUFFLE_BUCKETS, _bucket_of

    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    schema = ds.schema()
    names = list(schema.names)
    types = dict(zip(schema.names, schema.types))
    empty = pa.table({c: pa.array([], types[c]) for c in names})

    def _group_hashes(batch: pa.Table) -> "np.ndarray":
        return np.array(
            [_hash63_cached(str(g)) for g in batch.column(group_col).to_pylist()],
            dtype=np.int64,
        )

    def _rank_cap(group: pa.Table, drop: str) -> pa.Table:
        if group.num_rows == 0:
            return empty
        g = np.asarray(group.column(group_col).to_pylist())
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        order = np.lexsort((ids, g))
        g_s = g[order]
        starts = np.flatnonzero(np.r_[True, g_s[1:] != g_s[:-1]])
        rank = np.arange(len(g_s)) - np.repeat(
            starts, np.diff(np.r_[starts, len(g_s)])
        )
        keep = pa.array(np.sort(order[rank < cap]), pa.int64())
        return group.take(keep).drop_columns([drop])

    def salt(batch: pa.Table) -> pa.Table:
        gh = _group_hashes(batch)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        # truncate the hash so the packed key can't overflow int64
        key = (gh % (1 << 40)) * _SALT_BUCKETS + ids % _SALT_BUCKETS
        return batch.append_column("__salt", pa.array(key, pa.int64()))

    def bucket(batch: pa.Table) -> pa.Table:
        gh = pa.array(_group_hashes(batch), pa.int64())
        return batch.append_column("__bkt", _bucket_of(gh, SHUFFLE_BUCKETS))

    phase1 = (
        ds.map_batches(salt, batch_format="pyarrow")
        .groupby("__salt")
        .map_groups(lambda g: _rank_cap(g, "__salt"), batch_format="pyarrow")
    )
    return (
        phase1.map_batches(bucket, batch_format="pyarrow")
        .groupby("__bkt")
        .map_groups(lambda g: _rank_cap(g, "__bkt"), batch_format="pyarrow")
    )

def weighted_sample(ds, *, weight_col: str, k: int, seed: int = 7, id_col: str = "doc_id"):
    """Distributed weighted sampling without replacement
    (Efraimidis–Spirakis): the k rows with the largest ln(u)/w keys win,
    where u = md5(seed:id)-uniform on (0,1] — deterministic in
    (seed, id), so reruns and shard retries pick the same sample.

    Shape: stateless per-batch key computation + per-block top-k
    (ships ≤ k light rows per block) → one k×n_blocks sort; the only
    driver materialization is the k-row result.  Keys are nano
    fixed-point on IEEE-identical arithmetic so the SQL oracle
    reproduces the exact ranking.  Rows with weight ≤ 0 are excluded.
    Returns a pandas DataFrame (rank, id).
    """
    import math

    import numpy as np
    import pandas as pd

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        ws = batch.column(weight_col).to_pylist()
        out_ids, out_nano = [], []
        for i, w in zip(ids, ws):
            if w is None or w <= 0:
                continue
            u = float(_keep_hash(seed, i) + 1) / float(_HALF_RANGE)
            nano = int(math.floor(math.log(u) / float(w) * 1e9 + 0.5))
            out_ids.append(i)
            out_nano.append(nano)
        if len(out_ids) > k:  # local top-k: largest nano (closest to 0)
            order = np.lexsort((np.asarray(out_ids), -np.asarray(out_nano)))[:k]
            out_ids = [out_ids[j] for j in order]
            out_nano = [out_nano[j] for j in order]
        return pa.table(
            {
                id_col: pa.array(out_ids, pa.int64()),
                "nano": pa.array(out_nano, pa.int64()),
            }
        )

    top = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .sort(key=["nano", id_col], descending=[True, False])
        .limit(k)
        .take_all()
    )
    return pd.DataFrame(
        {
            "rank": pd.array(range(1, len(top) + 1), dtype="int64"),
            id_col: pd.array([r[id_col] for r in top], dtype="int64"),
        }
    )


def temperature_sample(ds, *, alpha: float = 0.5, seed: int = 42, lang_col: str = "lang", id_col: str = "doc_id"):
    """Multilingual temperature sampling (mT5 / XLM-R corpus
    rebalancing): downsample high-resource languages so the kept corpus
    approaches the alpha-tempered distribution q_l ∝ p_l^alpha.

    The per-language keep rate that maps p → q while keeping the
    LOWEST-resource language intact is r_l = (c_min / c_l)^(1-alpha);
    at the canonical alpha = 0.5 that is sqrt(c_min / c_l) — a single
    IEEE sqrt both the engine and a SQL oracle evaluate bit-identically.
    Rates quantize to ppm (floor(x·10⁶ + 0.5)) and the keep decision is
    an integer compare of md5(seed:id) mod 10⁶ — no float boundary can
    flip between engines.

    Shape: one tiny language-count groupby (≤ n_langs rows to the
    driver), then a stateless broadcast-threshold filter pass."""
    import math

    counts = {
        r[lang_col]: r["count()"]
        for r in ds.groupby(lang_col).count().take_all()
    }
    if not counts:
        return ds
    c_min = min(counts.values())

    def _rate(c: int) -> float:
        # alpha = 0.5 → correctly-rounded IEEE sqrt (bit-identical to
        # SQL sqrt); generic alpha falls back to pow
        if alpha == 0.5:
            return math.sqrt(c_min / c)
        return (c_min / c) ** (1.0 - alpha)

    thresholds = {
        lang: int(math.floor(1_000_000 * _rate(c) + 0.5))
        for lang, c in counts.items()
    }

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        langs = batch.column(lang_col).to_pylist()
        keep = [
            _keep_hash(seed, i) % 1_000_000 < thresholds.get(lg, 0)
            for i, lg in zip(ids, langs)
        ]
        return batch.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(f, batch_format="pyarrow")


def budget_allocation(ds, *, budget: int, group_col: str = "host"):
    """Proportional crawl-budget apportionment: split a global per-wave
    fetch ``budget`` across hosts in exact proportion to their frontier
    share, by the cumulative-rounding method — allocate
    ``rnd(cum_k·B/total) − rnd(cum_{k−1}·B/total)`` over the hosts in a
    fixed order (``rnd`` = round-half-up).  Every host lands within ±1
    of its exact fractional share and the allocations sum to EXACTLY
    ``budget`` (the sum telescopes), with no iterative seat-by-seat loop
    — the property that makes the method distributable.

    Order is ascending ``_hash63(host)`` (unique w.h.p.), the same
    md5-int63 the SQL oracle can recompute, so both sides rank hosts
    identically without shipping strings through the exchange.

    Shape: per-batch host-count partials → ONE keyed Sum groupby →
    :func:`~go_htmldate_ray.stages.packing.ordered_cumsum` over the
    per-host rows (bucketed prefix sums, ≤SHUFFLE_BUCKETS driver rows) → a
    stateless vectorized allocate map.  Exact int64 arithmetic holds
    while ``2·total·budget < 2⁶³`` (e.g. a 10¹⁰-URL frontier with a
    10⁸ budget); beyond that, promote the two products to Python ints.

    Output: ``(host, n_urls, allocated)``.
    """
    from ray.data.aggregate import Sum

    from ..stages.cleaning import _hash63_cached
    from ..stages.packing import ordered_cumsum

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col]).group_by([group_col]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "host": t.column(group_col).cast(pa.string()),
                "c": t.column("count_all").cast(pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("c"))
    )

    def add_order(batch: pa.Table) -> pa.Table:
        hosts = batch.column("host").to_pylist()
        return pa.table(
            {
                "host": batch.column("host"),
                "n_urls": batch.column("sum(c)").cast(pa.int64()),
                "h63": pa.array(
                    [_hash63_cached(h or "") for h in hosts], pa.int64()
                ),
            }
        )

    # materialize: the total aggregate and ordered_cumsum's internal
    # passes otherwise re-execute the full frontier scan + groupby ~4x;
    # keyed is tiny (<= n_hosts rows)
    keyed = counts.map_batches(add_order, batch_format="pyarrow").materialize()
    stats = keyed.aggregate(Sum("n_urls"))
    total = stats.get("sum(n_urls)") if stats else None
    if not total:  # empty frontier (budget=0 flows through: all-zero allocs)
        import ray

        return ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "n_urls": pa.array([], pa.int64()),
                    "allocated": pa.array([], pa.int64()),
                }
            )
        )

    cum = ordered_cumsum(keyed, order_col="h63", value_col="n_urls")

    def allocate(batch: pa.Table) -> pa.Table:
        import numpy as np

        c = np.asarray(batch.column("cum"), dtype=np.int64)
        n = np.asarray(batch.column("n_urls"), dtype=np.int64)
        hi = (2 * c * budget + total) // (2 * total)
        lo = (2 * (c - n) * budget + total) // (2 * total)
        return pa.table(
            {
                "host": batch.column("host"),
                "n_urls": batch.column("n_urls"),
                "allocated": pa.array(hi - lo, pa.int64()),
            }
        )

    return cum.map_batches(allocate, batch_format="pyarrow")
