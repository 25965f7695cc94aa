"""Host facts and memory sampling read straight from ``/proc``.

``psutil`` is not assumed: process trees, RSS, load average and CPU steal
come from the Linux proc files.
"""

from __future__ import annotations

import os
import threading

_PAGE = os.sysconf("SC_PAGE_SIZE")


def nproc() -> int:
    """What GNU ``nproc`` prints: the CPUs this process may run on, capped
    by ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(omp) if omp.isdigit() and int(omp) > 0 else n


def host_snapshot() -> dict:
    """``nproc``, online CPUs, 1-minute load average and cumulative CPU
    steal ticks."""
    steal = None
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        # cpu user nice system idle iowait irq softirq steal ...
        steal = int(fields[8]) if len(fields) > 8 else None
    except OSError:
        pass
    return {"nproc": nproc(), "cpus_online": os.cpu_count(), "loadavg_1m": os.getloadavg()[0], "steal_ticks": steal}


def host_report(before: dict, after: dict) -> dict:
    nproc = before["nproc"]
    steal = None
    if before["steal_ticks"] is not None and after["steal_ticks"] is not None:
        steal = after["steal_ticks"] - before["steal_ticks"]
    load = max(before["loadavg_1m"], after["loadavg_1m"])
    return {
        "nproc": nproc,
        "cpus_online": before["cpus_online"],
        "loadavg_before": before["loadavg_1m"],
        "loadavg_after": after["loadavg_1m"],
        "steal_ticks": steal,
        "oversubscribed": load > nproc,
    }


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after the last ')'
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def tree_rss_bytes(root: int) -> int:
    """Summed RSS of ``root`` and all its descendants (Ray's GCS, raylet and
    workers are descendants of the driver that started them)."""
    kids = _children_map()
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        stack.extend(kids.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except OSError:
            continue
    return total


def wait_descendants(timeout_s: float = 20.0) -> list[int]:
    """Wait until this process has no live descendants (Ray's GCS, raylet
    and workers after ``ray.shutdown()``); returns any still alive."""
    import time

    deadline = time.monotonic() + timeout_s
    while True:
        kids = _children_map()
        live, stack = [], list(kids.get(os.getpid(), ()))
        while stack:
            pid = stack.pop()
            stack.extend(kids.get(pid, ()))
            try:
                with open(f"/proc/{pid}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state != "Z":
                live.append(pid)
        if not live or time.monotonic() > deadline:
            return live
        time.sleep(0.1)


class RssSampler:
    """Background thread recording the peak of :func:`tree_rss_bytes`."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while True:
            self.peak = max(self.peak, tree_rss_bytes(me))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
