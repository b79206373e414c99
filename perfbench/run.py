#!/usr/bin/env python3
"""End-to-end warp-job benchmark.

    python3 perfbench/run.py --workload suite-fresh --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``perfbench.worker``); with ``--trace 0`` set-up is repeated in fresh
processes and ``setup_s`` is their median.  Every timing is scaled to
reference-host seconds by a host-speed probe (``perfbench/probe.py``),
so that the load other tenants put on a shared host cancels out; the
unscaled host seconds are printed beside.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).  Any failed
correctness or workload-property check makes the run exit with status 1;
a run that overruns its deadline (:func:`deadline_s`) is killed and exits
with status 3.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.probe import SETUP_PROBES, host_scale, probe_samples  # noqa: E402

WORKLOADS = ("suite-fresh", "mesh-repeat", "fuzz-fleet")
READY = "PERFBENCH-READY"
PROBE = "PERFBENCH-PROBE"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Exit status of a run killed at its deadline, distinct from the status 1
#: of a failed check.
TIMEOUT_STATUS = 3

#: The paper's averages over its six applications (Lysecky & Vahid, DATE
#: 2005): 5.8x speedup and 57% less energy than the soft core alone.  The
#: simulator's model is unvalidated against hardware; these are the only
#: reference its modelled figures have.
PAPER_REFERENCE = {"sim_speedup_mean": 5.8, "sim_energy_norm_mean": 0.43}


class RunTimeout(RuntimeError):
    """A child was killed at the run's deadline."""


def deadline_s(seconds: int) -> float:
    """Seconds the whole run, every child included, may take.  Ops scale
    with ``--seconds``, and a run spends up to about five times that on
    them (three set-ups and the timed pass, or a timed and a traced pass
    with replays), so the deadline grows with it over a fixed margin for
    imports and gateway spawns."""
    return 60 + 6 * seconds


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and wait until it
    is gone, so the next child finds the ports free."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        _kill_group(proc)
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(args, role: str, work_dir: Path, env: Dict[str, str],
              deadline: float) -> Tuple[float, float, Optional[Dict]]:
    """Start one worker process; return its set-up seconds (process start
    to ready, less the child's own probing), unscaled and scaled by host
    probes taken just before the start, at the start, between set-up steps
    and after set-up, and, for the measuring role, its result payload."""
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--role", role, "--work-dir", str(work_dir),
               "--spans-out", str(ROOT / "perfbench" / "_work" / "spans"
                                  / f"{args.workload}-seed{args.seed}.jsonl")]
    probes = probe_samples(SETUP_PROBES)
    started = time.perf_counter()
    # A session of its own, so the whole tree (gateways and their pool
    # workers included) can be stopped at once.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    expired = threading.Event()

    def on_deadline() -> None:
        expired.set()
        _kill_group(proc)

    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            on_deadline)
    timer.start()
    setup_s, child_probes, lines = None, None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == READY:
                setup_s = time.perf_counter() - started
            elif child_probes is None and line.startswith(PROBE):
                child_probes = json.loads(line[len(PROBE):])
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        _kill_group(proc)
        proc.wait()
        _stop_group(proc)
    if expired.is_set():
        raise RunTimeout(f"{role} process killed at the run's deadline of "
                         f"{deadline_s(args.seconds):.0f} s")
    if proc.returncode != 0 or child_probes is None:
        raise RuntimeError(f"{role} process exited with {proc.returncode}"
                           + ("" if child_probes is not None
                              else " before set-up finished"))
    setup_s -= child_probes["probing_s"]
    scaled = setup_s * host_scale(probes + child_probes["probes"])
    if role == "setup":
        return setup_s, scaled, None
    if not lines:
        raise RuntimeError("measuring process printed no result")
    return setup_s, scaled, json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / "perfbench" / "_work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(run_dir / "tmp"),
               PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    deadline = time.monotonic() + deadline_s(args.seconds)
    repeats = 1 if args.trace else SETUP_REPEATS
    setups, scaled_setups = [], []
    try:
        for index in range(repeats):
            role = "measure" if index == repeats - 1 else "setup"
            setup_s, scaled, payload = run_child(
                args, role, run_dir / str(index), env, deadline)
            setups.append(setup_s)
            scaled_setups.append(scaled)
    except RunTimeout as error:
        print(f"perfbench: {args.workload} seed {args.seed}: timed out: "
              f"{error}", file=sys.stderr)
        return TIMEOUT_STATUS
    except (RuntimeError, ValueError) as error:
        print(f"perfbench: {args.workload} seed {args.seed}: {error}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = dict(payload["end_to_end"],
                    setup_s=statistics.median(scaled_setups))
    if args.trace:
        measured = payload["per_layer"]
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in measured]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: {payload['attempted']} ops, "
          f"{payload['failed']} failed, trace {args.trace}")
    for note in payload["notes"]:
        print(f"  {note}")
    for name, value in sorted(payload["end_to_end"].items()):
        line = f"  {name} = {value:.6g}"
        if name in PAPER_REFERENCE and args.workload != "fuzz-fleet":
            paper = PAPER_REFERENCE[name]
            line += (f" (paper {paper}, error {100 * (value / paper - 1):+.1f}%;"
                     " model unvalidated against hardware)")
        print(line)
    for name, value in sorted(payload["per_layer"].items()):
        print(f"  {name} = {value:.6g}")
    if not args.trace:
        print(f"  setup_s = {measured['setup_s']:.6g} (median of "
              f"{', '.join(f'{s:.3f}' for s in scaled_setups)}; host "
              f"seconds, unscaled: {', '.join(f'{s:.3f}' for s in setups)})")
    for problem in payload["problems"]:
        print(f"  FAILED CHECK: {problem}", file=sys.stderr)
    correct = not payload["problems"] and payload["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {metric["name"]: {"value": measured[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
