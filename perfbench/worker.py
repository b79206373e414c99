"""One workload run in a process of its own, started by ``run.py``.

Prints :data:`READY` once set-up is done (so the parent can time set-up
from process start), then the host probes taken at the start of the
process, between set-up steps and, with everything idle, after set-up
(the parent scales set-up by them and takes the seconds spent probing
before :data:`READY` out of it), then, unless
``--role setup``, runs the ops and prints one JSON line with the results.
Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .probe import SETUP_PROBES, probe_samples

READY = "PERFBENCH-READY"
PROBE = "PERFBENCH-PROBE"


def main(argv=None) -> int:
    began = time.perf_counter()
    probes = probe_samples(SETUP_PROBES)
    probing_s = time.perf_counter() - began
    # Imported only now: importing ``repro`` is part of set-up.
    from .spans import SpanRecorder
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"),
                        default="measure")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                        args.work_dir)
    try:
        workload.setup()
        print(READY, flush=True)
        probes += workload.setup_probes + probe_samples(SETUP_PROBES)
        print(PROBE, json.dumps({
            "probes": probes,
            "probing_s": probing_s + workload.probing_s}), flush=True)
        if args.role == "setup":
            return 0
        recorder = SpanRecorder() if args.trace else None
        primary, end_to_end, per_layer = workload.run(recorder)
        if recorder is not None and args.spans_out is not None:
            recorder.write_jsonl(args.spans_out)
    finally:
        workload.close()
    workload.notes.append(
        f"failed_share {workload.failed_share(primary):.4f} "
        f"({workload.failed_count(primary)} failed of "
        f"{len(primary.results)} attempted)")
    print(json.dumps({
        "problems": workload.problems,
        "attempted": len(primary.results),
        "failed": workload.failed_count(primary),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "notes": workload.notes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
