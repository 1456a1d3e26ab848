"""Host fingerprint, memory and teardown observations."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Set

SHM_DIR = Path("/dev/shm")
#: Name prefix CPython gives anonymous shared-memory segments.
SHM_PREFIX = "psm_"
#: The line the multiprocessing resource tracker prints per leak report.
TRACKER_MARK = "UserWarning: resource_tracker"


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git
    ("unknown" outside a git work tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(allow_none=True) or "unset",
        "platform": sys.platform,
        "git_sha": git_sha(root),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest peak among
    its reaped descendants (the server process or a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def children_left() -> int:
    """Live multiprocessing children of this process."""
    return len(multiprocessing.active_children())


def tracker_warnings(stderr: str) -> int:
    return sum(1 for line in stderr.splitlines() if TRACKER_MARK in line)
