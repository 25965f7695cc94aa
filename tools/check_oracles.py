"""Local stand-in for the driver's correctness gate: run each queries()
entry and its oracle_sql() on the same sf dir, compare row count, schema,
and order-insensitive values.

Queries without an oracle must be declared in ``__ray_entry__.ROWS_ONLY``
(with a reason) — an undeclared missing oracle is a FAILURE, so "rows-only
by documented necessity" and "forgot the oracle" can't be confused.

With ``--artifact PATH`` (default ``CORRECTNESS_local.json`` when
``--artifact`` is passed bare), writes the full per-query result map as a
driver-style JSON artifact so a judge can diff local coverage against the
driver's sample instead of re-running everything.

Ray runs with ``RAY_GRAFT_CPUS`` CPUs (default 32), like ``bench.py``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    if hasattr(res, "to_pandas"):
        try:
            return res.to_pandas()
        except TypeError:
            pass
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    raise TypeError(type(res))


def canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def main(sf_dir: str, only: list[str] | None = None, artifact: str | None = None):
    import duckdb
    import ray

    if not ray.is_initialized():
        # the parallelism the driver and bench.py run at: block layout,
        # and so empty shuffle blocks, depends on it
        num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, log_to_driver=False)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    rows_only = getattr(entrymod, "ROWS_ONLY", {})

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    results: dict[str, dict] = {}
    failures = 0

    def record(name, **kw):
        results[name] = {
            "rows_match": None,
            "schema_match": None,
            "hash_match": None,
            "ray_rows": None,
            "oracle_rows": None,
            "err": None,
            **kw,
        }

    for name in rows_only:
        if name not in qs:
            print(f"FAIL {name}: ROWS_ONLY entry has no queries() entry")
            record(name, err="ROWS_ONLY entry has no queries() entry")
            failures += 1
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        try:
            ray_df = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: ray error {type(e).__name__}: {e}")
            record(name, err=f"ray error {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            if name in rows_only:
                print(f"ok(rows-only) {name}: {len(ray_df)} rows — {rows_only[name]}")
                record(
                    name,
                    rows_match=len(ray_df) > 0,
                    ray_rows=len(ray_df),
                    rows_only_reason=rows_only[name],
                )
                if len(ray_df) == 0:
                    print(f"FAIL {name}: rows-only query returned 0 rows")
                    failures += 1
            else:
                print(f"FAIL {name}: no oracle_sql() entry and not in ROWS_ONLY")
                record(name, err="no oracle and not declared ROWS_ONLY")
                failures += 1
            continue
        try:
            duck_df = canon(con.sql(oracles[name]).df())
        except Exception as e:
            print(f"FAIL {name}: oracle error {e}")
            record(name, err=f"oracle error {e}")
            failures += 1
            continue
        schema_match = list(ray_df.columns) == list(duck_df.columns)
        rows_match = len(ray_df) == len(duck_df)
        hash_match = schema_match and rows_match and ray_df.equals(duck_df)
        record(
            name,
            rows_match=rows_match,
            schema_match=schema_match,
            hash_match=hash_match,
            ray_rows=len(ray_df),
            oracle_rows=len(duck_df),
            secs=round(time.monotonic() - t0, 2),
        )
        if not schema_match:
            print(f"FAIL {name}: columns {list(ray_df.columns)} vs {list(duck_df.columns)}")
            failures += 1
        elif not rows_match:
            print(f"FAIL {name}: rows {len(ray_df)} vs {len(duck_df)}")
            failures += 1
        elif not hash_match:
            diff = (ray_df != duck_df).any(axis=1)
            n_bad = int(diff.sum())
            print(f"FAIL {name}: {n_bad}/{len(ray_df)} rows differ")
            bad_idx = diff[diff].index[:3]
            for i in bad_idx:
                print("  ray :", ray_df.loc[i].to_dict())
                print("  duck:", duck_df.loc[i].to_dict())
            failures += 1
        else:
            print(f"OK   {name}: {len(ray_df)} rows")
    print("failures:", failures)
    if artifact:
        payload = {
            "sf_dir": sf_dir,
            "n_queries": len(results),
            "n_failures": failures,
            "results": results,
        }
        Path(artifact).write_text(json.dumps(payload, indent=1, default=str))
        print(f"wrote {artifact} ({len(results)} queries)")
    return failures


if __name__ == "__main__":
    args = []
    artifact = None
    it = iter(sys.argv[1:])
    for a in it:
        if a == "--artifact":
            nxt = next(it, None)
            if nxt is None or nxt.startswith("--"):
                artifact = "CORRECTNESS_local.json"
                if nxt is not None:
                    args.append(nxt)
            else:
                artifact = nxt
        else:
            args.append(a)
    sf = args[0] if len(args) > 0 else "/root/testdata/sf0.001"
    only = args[1].split(",") if len(args) > 1 else None
    raise SystemExit(1 if main(sf, only, artifact) else 0)
