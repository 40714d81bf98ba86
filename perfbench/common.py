"""Shared helpers: repository paths, the work directory, statistics, memory.

The benchmark runs from the root of a source checkout and imports the
program from ``src/``; everything it writes goes under ``.perfbench/`` in
that checkout (per-run scratch under ``work-<pid>/``, removed at exit; trace
files under ``traces/``, kept).
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, a server that never came up)."""


def import_program() -> None:
    """Make ``repro`` importable from the checkout's ``src/``, or fail."""

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - import check only


def program_env() -> Dict[str, str]:
    """Environment for child processes that run the program from ``src/``."""

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkDir:
    """A per-run scratch directory under ``.perfbench/``, removed on exit."""

    def __init__(self) -> None:
        self.path = OUT / f"work-{os.getpid()}"
        self._count = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            OUT.rmdir()  # only when nothing else (traces) lives there
        except OSError:
            pass

    def fresh(self, stem: str) -> Path:
        """A new, empty directory inside the work dir."""

        self._count += 1
        path = self.path / f"{stem}-{self._count}"
        path.mkdir()
        return path


def report(text: str) -> None:
    """A diagnostic on standard error (standard output carries the result)."""

    print(f"perfbench: {text}", file=sys.stderr)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of exact samples."""

    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def loglog_slope(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""

    points = [(math.log(s), math.log(t)) for s, t in zip(sizes, times) if s > 0 and t > 0]
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (MiB)."""

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
