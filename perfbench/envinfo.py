"""The environment block recorded with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int | None:
    """Size of the last-level cache seen by CPU 0, from sysfs, if present."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                text = (index / "size").read_text().strip()
                units = {"K": 1024, "M": 1024**2, "G": 1024**3}
                return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        except (OSError, ValueError):
            continue
    return None


def environment(threads_at_start: dict) -> dict:
    """Versions, BLAS, thread settings as the process started, and the CPU."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env_at_start": threads_at_start,
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
    }
