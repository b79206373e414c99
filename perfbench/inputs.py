"""Seeded inputs: everything a workload feeds the system derives from the
workload seed through :func:`derive`, so one seed always gives the same
job sources, fuzz seeds and mesh addresses."""

from __future__ import annotations

import hashlib
import math
import random
import socket
from typing import List, Tuple

from repro.apps import PAPER_ORDER, Benchmark, build_benchmark
from repro.service import WarpJob

#: The round index of the warm-up jobs; timed rounds count from 0.
WARMUP_ROUND = -1

#: Every percentile the benchmark reports needs this many ops (p90 with
#: ten samples beyond it).
MIN_OPS = 100


def derive(*parts: object) -> int:
    """A stable 48-bit integer from ``parts`` (independent of
    ``PYTHONHASHSEED`` and of the Python version)."""
    text = "/".join(str(part) for part in ("perfbench",) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def op_count(seconds: int, nominal_ops_per_s: float, round_size: int) -> int:
    """Ops in one run: ``seconds`` at the workload's nominal rate, whole
    rounds only, never fewer than :data:`MIN_OPS`.  Fixed by the arguments
    alone, so a seed always measures the same inputs whatever the host's
    speed."""
    wanted = max(MIN_OPS, seconds * nominal_ops_per_s)
    return math.ceil(wanted / round_size) * round_size


def warp_round(workload: str, seed: int,
               round_index: int) -> List[Tuple[WarpJob, Benchmark]]:
    """One job per paper application, at the paper's default sizes, with
    data drawn from ``(workload, seed, round_index)``.  Jobs name no
    engine, so they run on the service's default.  The apps come in a
    seeded order per round, so on the mesh every app meets every other as
    the concurrent job rather than always the same neighbour."""
    apps = list(PAPER_ORDER)
    random.Random(derive(workload, seed, round_index, "order")).shuffle(apps)
    jobs = []
    for app in apps:
        bench = build_benchmark(app, seed=derive(workload, seed, round_index,
                                                 app))
        jobs.append((WarpJob(name=f"{app}#{round_index}",
                             source=bench.source), bench))
    return jobs


def warp_stream(workload: str, seed: int,
                ops: int) -> List[Tuple[WarpJob, Benchmark]]:
    rounds = ops // len(PAPER_ORDER)
    return [pair for index in range(rounds)
            for pair in warp_round(workload, seed, index)]


def fuzz_seed_ranges(seed: int, warmup: int,
                     *passes: int) -> List[range]:
    """Consecutive, disjoint generator seed ranges: the warm-up first,
    then one range per timed or traced pass."""
    start = 10_000 * (derive("fuzz-fleet", seed) % 100_000)
    ranges = []
    for size in (warmup,) + passes:
        ranges.append(range(start, start + size))
        start += size
    return ranges


def _port_free(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def mesh_ports(seed: int, members: int) -> List[int]:
    """Listening ports for the mesh members, drawn from the seed below the
    kernel's ephemeral range.  Ring positions hash the addresses, so the
    same seed splits jobs the same way; a port found busy is skipped for
    the next draw (the run records the addresses it used)."""
    rng = random.Random(derive("mesh-ports", seed))
    ports: List[int] = []
    while len(ports) < members:
        port = rng.randrange(20_000, 32_000)
        if port not in ports and _port_free(port):
            ports.append(port)
    return ports
