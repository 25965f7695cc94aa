"""Local stand-in for the driver's correctness gate: run each queries()
entry and its oracle_sql() on the same sf dir, compare row count, schema,
and order-insensitive values.

Each ``__ray_entry__.REGISTRY`` record carries exactly one of an oracle
and a documented rows-only reason (its constructor rejects anything
else), so "rows-only by necessity" and "forgot the oracle" cannot be
confused; rows-only queries must return at least one row.

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


TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def connect(sf_dir: str):
    """A DuckDB connection with one view per fixture table of ``sf_dir``."""
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


_FIELDS = ("rows_match", "schema_match", "hash_match", "ray_rows", "oracle_rows", "err")


def check(con, fn, sql: str, sf_dir: str) -> tuple[dict, str | None]:
    """Run one query and its oracle on ``sf_dir`` and compare them the
    way the driver does: column names, row count, then every value of
    the ``canon`` forms, dtypes included (DuckDB's are not cast to
    Ray's).  Returns the result record and, for a failure, why."""
    res = dict.fromkeys(_FIELDS)
    try:
        ray_df = canon(to_pandas(fn(sf_dir)))
    except Exception as e:
        res["err"] = f"ray error {type(e).__name__}: {e}"
        return res, res["err"]
    try:
        duck_df = canon(con.sql(sql).df())
    except Exception as e:
        res["err"] = f"oracle error {e}"
        return res, res["err"]
    schema_match = list(ray_df.columns) == list(duck_df.columns)
    rows_match = len(ray_df) == len(duck_df)
    res.update(
        rows_match=rows_match,
        schema_match=schema_match,
        hash_match=schema_match and rows_match and ray_df.equals(duck_df),
        ray_rows=len(ray_df),
        oracle_rows=len(duck_df),
    )
    if not schema_match:
        return res, f"columns {list(ray_df.columns)} vs {list(duck_df.columns)}"
    if not rows_match:
        return res, f"rows {len(ray_df)} vs {len(duck_df)}"
    if not res["hash_match"]:
        diff = (ray_df != duck_df).any(axis=1)
        why = [f"{int(diff.sum())}/{len(ray_df)} rows differ"]
        for i in diff[diff].index[:3]:
            why.append(f"  ray : {ray_df.loc[i].to_dict()}")
            why.append(f"  duck: {duck_df.loc[i].to_dict()}")
        if not diff.any():
            why.append(f"  dtypes {dict(ray_df.dtypes)} vs {dict(duck_df.dtypes)}")
        return res, "\n".join(why)
    return res, None


def main(sf_dir: str, only: list[str] | None = None, artifact: str | None = None):
    import ray

    if not ray.is_initialized():
        # the parallelism the driver and bench.py run at: block layout,
        # and so empty shuffle blocks, depends on it
        num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, log_to_driver=False)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql(sf_dir)
    rows_only = entrymod.ROWS_ONLY
    con = connect(sf_dir)

    results: dict[str, dict] = {}
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        if name in rows_only:
            res = dict.fromkeys(_FIELDS)
            try:
                n = len(to_pandas(fn(sf_dir)))
            except Exception as e:
                res["err"] = f"ray error {type(e).__name__}: {e}"
                print(f"FAIL {name}: {res['err']}")
                failures += 1
            else:
                print(f"ok(rows-only) {name}: {n} rows — {rows_only[name]}")
                res.update(rows_match=n > 0, ray_rows=n, rows_only_reason=rows_only[name])
                if n == 0:
                    print(f"FAIL {name}: rows-only query returned 0 rows")
                    failures += 1
            results[name] = res
            continue
        res, why = check(con, fn, oracles[name], sf_dir)
        if res["err"] is None:
            res["secs"] = round(time.monotonic() - t0, 2)
        results[name] = res
        if why is None:
            print(f"OK   {name}: {res['ray_rows']} rows")
        else:
            print(f"FAIL {name}: {why}")
            failures += 1
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
