"""CPU time and peak resident memory of processes, read from ``/proc``."""

from __future__ import annotations

import os
from typing import List

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at index 3 (state).
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so the
    peak excludes preparation work.  Where the kernel refuses, the peak
    covers the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def children(pid: int) -> List[int]:
    """Direct children of ``pid``."""
    found = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return found
