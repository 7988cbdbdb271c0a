"""/proc readers: Ray process discovery, summed RSS and VM-wide busy CPU time.

``psutil`` is not installed, so everything here parses ``/proc`` directly.
"""

from __future__ import annotations

import os

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")
_RAY_DAEMONS = ("/raylet", "/gcs_server")


def _cmdline(pid: str) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _is_ray_worker(cmd: str) -> bool:
    # Ray renames worker processes to "ray::<task or actor>"; a worker that
    # has not started a task yet still shows its default_worker.py command
    return cmd.startswith("ray::") or "default_worker.py" in cmd


def ray_processes() -> list[int]:
    """Pids of every Ray worker, raylet and GCS server on this machine."""
    out = []
    for pid in os.listdir("/proc"):
        if pid.isdigit() and int(pid) != os.getpid():
            cmd = _cmdline(pid)
            first = cmd.split(" ", 1)[0]
            if _is_ray_worker(cmd) or first.endswith(_RAY_DAEMONS):
                out.append(int(pid))
    return out


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) pids of process group ``pgid``."""
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(pid))
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def job_rss(job: int) -> int:
    """Summed RSS of a job process and the Ray workers of its session.

    The job process leads its own process group, and every process of its
    Ray session (daemons and workers) stays in that group."""
    return sum(
        _rss_bytes(pid)
        for pid in group_members(job)
        if pid == job or _is_ray_worker(_cmdline(str(pid)))
    )


def busy_cpu_s() -> tuple[float, float]:
    """VM-wide (busy, steal) CPU seconds since boot, from ``/proc/stat``.
    Steal is time the hypervisor ran something else on this VM's CPUs."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    idle = fields[3] + fields[4]  # idle + iowait
    return (sum(fields[:8]) - idle) / _TICK, fields[7] / _TICK
