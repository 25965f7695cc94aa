#!/usr/bin/env python3
"""Crawl + date-extraction benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: extract_shallow, extract_deep,
crawl, curate (see workloads.py for what each loads and why).

One run:

1. stages the workload's inputs for ``--seed`` (once per seed; reused from
   ``.perfbench_work/`` afterwards) together with the expected answers,
   computed without the engine;
2. sets up three times - Ray init sized from ``nproc`` plus one warm-up
   pass - and reports the import time plus the median set-up as
   ``setup_s``;
3. runs whole passes that fit in ``--seconds`` (at least one) and reports the median pass
   throughput, the peak RSS of the driver and every Ray process, and checks
   each pass's output against the expected answer.

``--trace 1`` additionally repeats the passes with spans on, reports the
tracing overhead, and times every layer on its own (layers.py).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary and a
detail record (host load, output digest, span self times).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
OBJECT_STORE_BYTES = 256 * 1024 * 1024


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=0.1,
                   help="corpus size in sf units (sf0.1 = 5,000 documents)")
    return p.parse_args(argv)


def _ray_temp_dir() -> str | None:
    """A Ray session directory inside the checkout when its socket paths
    stay under the 107-byte Unix limit; otherwise Ray's default."""
    path = os.path.join(ROOT, ".perfbench_work", "ray")
    return path if len(path) <= 40 else None


def _ray_init(nproc: int) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=nproc,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        _temp_dir=_ray_temp_dir(),
    )


def _stage(wl, workload: str, seed: int, scale: float) -> tuple[str, float]:
    from perfbench import inputs

    wdir = inputs.work_dir(ROOT, workload, seed, scale)
    t0 = time.perf_counter()
    if not os.path.exists(os.path.join(wdir, "staged")):
        os.makedirs(wdir, exist_ok=True)
        wl.stage(wdir, seed, scale)
        open(os.path.join(wdir, "staged"), "w").close()
    wl.load(wdir)
    return wdir, time.perf_counter() - t0


def _measure(wl, seconds: float, tracer) -> dict:
    from perfbench import inputs

    rates, pass_s, digests = [], [], set()
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with tracer.span("pass", workload=wl.name):
            rows, n_items = wl.run_pass(tracer)
        dt = time.perf_counter() - t0
        a, f = wl.check(rows)
        attempted += a
        failed += f
        digests.add(inputs.digest(rows))
        rates.append(n_items / dt)
        pass_s.append(dt)
        # start another pass only if it should end within the window
        if time.perf_counter() - t_start + statistics.median(pass_s) > seconds:
            break
    return {"rates": rates, "pass_s": pass_s, "attempted": attempted,
            "failed": failed, "digests": sorted(digests), "items": n_items}


def _op_walls(ds) -> dict:
    """Per-operator wall seconds from the public ``Dataset.stats()`` text."""
    import re

    out: dict[str, float] = {}
    op = None
    for line in ds.stats().splitlines():
        m = re.match(r"Operator \d+ (.+?):", line)
        if m:
            op = m.group(1)
        m = re.search(r"Remote wall time: .*?([\d.]+)(us|ms|s) total", line)
        if m and op:
            scale = {"us": 1e-6, "ms": 1e-3, "s": 1.0}[m.group(2)]
            out[op] = out.get(op, 0.0) + float(m.group(1)) * scale
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    t_import = time.perf_counter()
    try:
        import logging

        import ray
        import ray.data

        import go_htmldate_ray  # noqa: F401
        from perfbench import sysprobe
        from perfbench.tracing import Tracer, count_executions
        from perfbench.workloads import WORKLOADS
    except ImportError as e:
        print(f"perfbench: cannot import the engine or Ray: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    # Ray workers import the engine and these workload functions by name.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )

    # BENCHMARK.json names the metrics a run reports and their units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wl = WORKLOADS[args.workload]()
    wdir, stage_s = _stage(wl, args.workload, args.seed, args.scale)
    host_before = sysprobe.host_snapshot()
    nproc = host_before["nproc"]

    setups = []
    try:
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _ray_init(nproc)
            wl.warmup()
            setups.append(time.perf_counter() - t0)
            if i < SETUP_REPEATS - 1:
                ray.shutdown()
        setup_s = import_s + statistics.median(setups)

        with sysprobe.RssSampler() as rss:
            plain = _measure(wl, args.seconds, Tracer(False))
        detail = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "item": wl.item, "items_per_pass": plain["items"],
            "passes": len(plain["rates"]), "stage_s": stage_s,
            "import_s": import_s, "setup_runs_s": setups,
            "digest": plain["digests"], "pass_s": plain["pass_s"],
        }
        attempted, failed = plain["attempted"], plain["failed"]
        untraced_rate = statistics.median(plain["rates"])
        peak_rss_mb = rss.peak / 2**20
        metrics = {"setup_s": setup_s, "docs_per_s": untraced_rate, "peak_rss_mb": peak_rss_mb}
        if args.trace:
            from perfbench.layers import Calibration

            tracer = Tracer(True)
            with count_executions() as execs:
                traced = _measure(wl, args.seconds, tracer)
            attempted += traced["attempted"]
            failed += traced["failed"]
            detail["digest"] = sorted(set(plain["digests"]) | set(traced["digests"]))
            calib_dir = os.path.join(ROOT, ".perfbench_work", "calibration")
            os.makedirs(calib_dir, exist_ok=True)
            calib = Calibration(calib_dir)
            layer = calib.run()
            passes = len(traced["rates"])
            pass_s = statistics.median(traced["pass_s"])
            execs_per_pass = execs["n"] / passes
            spinup_s = execs_per_pass * layer["ray_data.empty_exec_s"]
            kernel_s = traced["items"] * calib.kernel_s_per_item(args.workload)
            layer.update({
                "trace.overhead_share": 1 - statistics.median(traced["rates"]) / untraced_rate,
                "wl.pass_s": pass_s,
                "wl.executions": execs_per_pass,
                "wl.spinup_s": spinup_s,
                "wl.kernel_s": kernel_s,
                "wl.residual_s": pass_s - spinup_s - kernel_s,
            })
            detail["self_s"] = {k: v / passes for k, v in tracer.self_times().items()}
            if hasattr(wl, "last_dataset"):
                detail["op_wall_s"] = _op_walls(wl.last_dataset)
            if hasattr(wl, "last_stats"):
                detail["crawl_stats"] = wl.last_stats
            detail["spans"] = len(tracer.spans)
            with open(os.path.join(ROOT, ".perfbench_work",
                                   f"trace-{args.workload}-s{args.seed}.json"), "w") as f:
                json.dump({"detail": detail, "spans": tracer.export()}, f, default=str)
            metrics = layer
    finally:
        ray.shutdown()
        left = sysprobe.wait_descendants()
        if left:
            print(f"perfbench: processes still running after shutdown: {left}", file=sys.stderr)
        if _ray_temp_dir():
            # session logs of every init in this run; runs do not share them
            shutil.rmtree(_ray_temp_dir(), ignore_errors=True)

    detail["host"] = sysprobe.host_report(host_before, sysprobe.host_snapshot())
    error_rate = failed / attempted
    correct = failed == 0 and len(detail["digest"]) == 1
    print(f"{args.workload}: setup_s={setup_s:.3f} s  docs_per_s={untraced_rate:.1f} 1/s "
          f"({wl.item})  peak_rss_mb={peak_rss_mb:.0f} MB  "
          f"error_rate={error_rate:.4f} ({failed}/{attempted})")
    print("detail " + json.dumps(detail, default=str, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
