"""Opt-in recording of benchmark measurements into the ``BENCH_*.json``
files at the repository root.

The benchmarks assert their floors on every run, but they write a
record only when ``REPRO_BENCH_RECORD=1`` is set, so a routine test run
leaves the committed trajectories alone::

    REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest -q \\
        benchmarks/test_bench_server.py --benchmark-disable

Every record is stamped with an ``environment`` block naming the
interpreter, the machine, the CPU count and the git revision it was
measured at (``-dirty`` when the working tree had local changes).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Set to ``1`` to write records; anything else only measures and asserts.
RECORD_ENV_VAR = "REPRO_BENCH_RECORD"

#: Records kept per history, oldest dropped first.
HISTORY_LENGTH = 20


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity")
                      else os.cpu_count()),
        "git_sha": _git_revision(),
    }


def record(filename: str, entry: Dict, *, block: Optional[str] = None,
           section: Optional[str] = None) -> bool:
    """Append ``entry`` to ``filename`` (a ``BENCH_*.json`` at the
    repository root) when recording is on; returns whether it was
    written.

    ``section`` names a sub-document with its own ``latest``/``history``
    (the top-level document otherwise).  ``block`` stores the entry as
    one named block of the latest record — ``latest[block]``, history
    item ``{block: entry}`` — beside the record another benchmark
    writes; without it the entry *is* the latest record.  Sibling keys
    of the document are kept.
    """
    if os.environ.get(RECORD_ENV_VAR) != "1":
        return False
    path = REPO_ROOT / filename
    document: Dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict):
                document = loaded
        except json.JSONDecodeError:
            pass
    target = document.setdefault(section, {}) if section else document
    entry = {**entry, "environment": environment()}
    if block is None:
        target["latest"] = entry
        item = entry
    else:
        target.setdefault("latest", {})[block] = entry
        item = {block: entry}
    target["history"] = (target.get("history", []) + [item])[-HISTORY_LENGTH:]
    path.write_text(json.dumps(document, indent=2) + "\n")
    return True
