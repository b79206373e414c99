"""The benchmark's three workloads.

Each workload sets itself up (imports are paid by the process, warm-up and
gateway spawn here), runs a timed pass of untraced ops through the system's
public entry points, and, for ``--trace 1``, a traced pass whose spans give
the per-layer breakdown.  Every check that fails is collected in
``problems``; a run with problems is reported as incorrect.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import Benchmark, uwrap32
from repro.cad import (SOURCE_BUNDLE, SOURCE_DISK, SOURCE_HIT, SOURCE_MISS,
                       SOURCE_NEGATIVE, SOURCE_PEER, SOURCE_UNCACHED,
                       CadArtifactCache)
from repro.compiler import clear_compile_cache, compile_source_cached
from repro.fabric.hw_exec import WclaPeripheral
from repro.fuzz import (REFERENCE_ENGINE, classify_divergence,
                        generate_program, observe, resolve_profile)
from repro.fuzz.harness import compare_observations
from repro.microblaze.engines import engine_names
from repro.microblaze.system import MicroBlazeSystem
from repro.power.energy import microblaze_energy, warp_energy
from repro.server import GatewayClient
from repro.server.mesh import MeshBackend
from repro.server.protocol import GatewayBusyError, ProtocolError
from repro.service import ServiceResult, WarpJob
from repro.service.pool import execute_job
from repro.warp.processor import WarpProcessor, WarpRunResult

from .inputs import (MIN_OPS, WARMUP_ROUND, fuzz_seed_ranges, mesh_ports,
                     op_count, warp_round, warp_stream)
from .measure import failed_share, latency_summary
from .probe import (PROBE_REFERENCE_S, SETUP_PROBES, host_scale, probe_host,
                    probe_samples)
from .spans import SpanRecorder

#: Stage sources that mean "served from the stage cache".
STAGE_HIT_SOURCES = frozenset({SOURCE_HIT, SOURCE_BUNDLE, SOURCE_NEGATIVE,
                               SOURCE_DISK, SOURCE_PEER})

#: Engines whose observe time the fuzz breakdown reports by name.
FUZZ_ENGINES = ("interp", "threaded", "jit", "region")
FUZZ_PROFILE = "mixed"

#: The CAD flow's stages, in flow order.
CAD_STAGES = ("decompile", "synthesis", "place", "route", "implement",
              "binary-update")


@dataclass
class Pass:
    """The untraced ops of one run.  ``results[i]`` is ``None`` for an op
    the gateway refused.  ``scales[i]`` turns op ``i``'s host seconds into
    reference-host seconds (``measure.host_scale`` of the probes around
    it); ``scaled_window_s`` is the timed window so scaled."""
    latencies: List[float] = field(default_factory=list)
    results: List[Optional[ServiceResult]] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    window_s: float = 0.0
    scaled_window_s: float = 0.0

    @property
    def refused(self) -> int:
        return sum(1 for result in self.results if result is None)

    @property
    def scaled_latencies(self) -> List[float]:
        return [latency * scale
                for latency, scale in zip(self.latencies, self.scales)]

    def scaled_job_walls(self) -> List[Tuple[int, float, float]]:
        """``(index, worker-reported job wall, op latency)`` of every op
        that ran, both in reference-host seconds."""
        return [(index, result.wall_seconds * scale, latency * scale)
                for index, (result, latency, scale) in enumerate(
                    zip(self.results, self.latencies, self.scales))
                if result is not None]


@dataclass
class TracedWarp:
    warp: WarpRunResult
    speedup: float
    normalized_energy: float


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, in MiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------------ traced paths
def traced_warp_job(recorder: SpanRecorder, job: WarpJob,
                    cache: CadArtifactCache) -> TracedWarp:
    """The warp job of ``execute_job``, phase by phase with a span around
    each public call: the steps of ``WarpProcessor.run`` followed by the
    service's Figure-5 energy evaluation."""
    processor = WarpProcessor(config=job.config, wcla=job.wcla,
                              engine=job.engine, artifact_cache=cache,
                              stage_names=job.stages)
    with recorder.span("compiler.compile"):
        program = compile_source_cached(job.source, name=job.name,
                                        config=job.config).program
    with recorder.span("microblaze.profile_run"):
        software, profiler = processor.profile(program, job.max_instructions)
    region = profiler.most_critical_region()
    patched = program.copy()
    with recorder.span("cad.partition"):
        outcome = processor.dpm.partition(patched, region)
    warp = WarpRunResult(program_name=program.name, config=job.config,
                         software_result=software, partitioning=outcome)
    clock_mhz = job.config.clock_mhz
    mb_energy = microblaze_energy(warp.software_seconds, clock_mhz)
    if not outcome.success:
        w_energy = microblaze_energy(warp.software_seconds, clock_mhz,
                                     label="MicroBlaze (Warp)")
        return TracedWarp(warp, warp.speedup, w_energy.normalized_to(mb_energy))

    system = MicroBlazeSystem(config=job.config, engine=job.engine)
    system.load(patched)
    peripheral = WclaPeripheral(processor.wcla_base_address,
                                outcome.implementation, system.data_bram)
    execute = peripheral.engine.execute

    def timed_execute(*args, **kwargs):
        with recorder.span("fabric.hw_exec"):
            return execute(*args, **kwargs)

    peripheral.engine.execute = timed_execute
    system.attach_peripheral(peripheral)
    with recorder.span("microblaze.warped_run"):
        warp.warp_mb_result = system.run(max_instructions=job.max_instructions)
    warp.hw_cycles = peripheral.total_hw_cycles
    warp.hw_clock_mhz = outcome.implementation.clock_mhz
    warp.hw_invocations = peripheral.invocations
    warp.hw_iterations = peripheral.total_iterations
    synthesis = outcome.synthesis
    w_energy = warp_energy(mb_active_seconds=warp.microblaze_seconds,
                           hw_seconds=warp.hw_seconds, clock_mhz=clock_mhz,
                           wcla_luts=synthesis.total_luts,
                           uses_mac=synthesis.mac_operations > 0)
    return TracedWarp(warp, warp.speedup, w_energy.normalized_to(mb_energy))


def traced_fuzz_program(recorder: SpanRecorder, job: WarpJob) -> Dict:
    """One fuzzed program checked across the engine registry, as
    ``run_campaign`` does it, with a span around each public call."""
    profile = resolve_profile(job.fuzz_profile)
    with recorder.span("fuzz.generate"):
        program = generate_program(job.fuzz_seed, profile)

    def run(engine: str):
        with recorder.span(f"microblaze.observe.{engine}"):
            return observe(program, engine, config=job.config,
                           with_opb=profile.opb_traffic,
                           max_instructions=job.max_instructions)

    reference = run(REFERENCE_ENGINE)
    instructions = reference.stats["instructions"]
    unexplained = 0
    for engine in engine_names():
        if engine == REFERENCE_ENGINE:
            continue
        observed = run(engine)
        instructions += observed.stats["instructions"]
        with recorder.span("fuzz.compare"):
            fields = compare_observations(reference, observed)
        if fields and not classify_divergence(
                fields, precise_fault_stats=False,
                reference_outcome=reference.outcome,
                engine_outcome=observed.outcome):
            unexplained += 1
    return {"instructions": instructions, "unexplained": unexplained}


# --------------------------------------------------------------------- workloads
class Workload:
    name = ""
    #: Ops per second the run length is planned at (see inputs.op_count).
    nominal_ops_per_s = 1.0
    round_size = 1

    def __init__(self, seed: int, seconds: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.ops = op_count(seconds, self.nominal_ops_per_s, self.round_size)
        self.problems: List[str] = []
        self.notes: List[str] = []
        #: Host probes taken between set-up steps, and the seconds they took.
        self.setup_probes: List[float] = []
        self.probing_s = 0.0

    # Subclasses: setup(), timed_pass(), check(), traced_pass(), close(),
    # and run() where the traced pass replaces the timed one.
    def run(self, recorder: Optional[SpanRecorder],
            ) -> Tuple[Pass, Dict[str, float], Dict[str, float]]:
        """The checked timed pass and its end-to-end metrics; with a
        recorder, the traced pass's per-layer metrics too."""
        primary = self.timed_pass()
        self.check(primary)
        end_to_end = self.end_to_end(primary)
        per_layer = {} if recorder is None \
            else self.traced_pass(primary, recorder)
        return primary, end_to_end, per_layer

    def setup(self) -> None:
        raise NotImplementedError

    def timed_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, primary: Pass) -> None:
        raise NotImplementedError

    def traced_pass(self, primary: Pass,
                    recorder: SpanRecorder) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def probe_setup(self) -> None:
        """Probe the host between two set-up steps; the seconds this takes
        are taken out of set-up time."""
        began = time.perf_counter()
        self.setup_probes += probe_samples(SETUP_PROBES)
        self.probing_s += time.perf_counter() - began

    # ------------------------------------------------------------ shared bits
    def end_to_end(self, primary: Pass) -> Dict[str, float]:
        """Timings in reference-host seconds; the host seconds they were
        scaled from go to the notes."""
        done = [result for result in primary.results if result is not None]
        host = latency_summary(primary.latencies)
        self.notes.append(
            f"host seconds, unscaled: ops_per_s "
            f"{len(primary.latencies) / primary.window_s:.4g}, "
            f"p50 {host['op_latency_p50_s']:.4g}, "
            f"p90 {host['op_latency_p90_s']:.4g}; host probe "
            f"{PROBE_REFERENCE_S / statistics.median(primary.scales) * 1e3:.3g}"
            f" ms (reference {PROBE_REFERENCE_S * 1e3:g} ms)")
        metrics = {
            "ops_per_s": len(primary.latencies) / primary.scaled_window_s,
            **latency_summary(primary.scaled_latencies),
            "peak_rss_mb": self.peak_rss_mb(),
            "sim_speedup_mean": statistics.fmean(r.speedup for r in done),
            "sim_energy_norm_mean": statistics.fmean(
                r.normalized_warp_energy for r in done),
        }
        return metrics

    @staticmethod
    def serial_pass(items: List, run_op: Callable) -> Pass:
        """``run_op`` over ``items``, one after another, with a host probe
        between ops; each op is scaled by the probes either side of it."""
        primary = Pass()
        before = probe_host()
        for item in items:
            began = time.perf_counter()
            result = run_op(item)
            primary.latencies.append(time.perf_counter() - began)
            after = probe_host()
            primary.results.append(result)
            primary.scales.append(host_scale((before, after)))
            before = after
        primary.window_s = sum(primary.latencies)
        primary.scaled_window_s = sum(primary.scaled_latencies)
        return primary

    @staticmethod
    def failed_count(primary: Pass) -> int:
        return sum(1 for result in primary.results
                   if result is None or not result.ok)

    @staticmethod
    def failed_share(primary: Pass) -> float:
        errors = sum(1 for result in primary.results
                     if result is not None and not result.ok)
        return failed_share(len(primary.results), errors, primary.refused)

    def check_warp_results(self, primary: Pass) -> None:
        for result in primary.results:
            if result is None:
                self.problem("op refused by the gateway")
            elif not (result.ok and result.partitioned
                      and result.checksum_ok):
                self.problem(
                    f"{result.job_name}: ok={result.ok} partitioned="
                    f"{result.partitioned} checksum_ok={result.checksum_ok}"
                    f" error={result.error} reason={result.partition_reason}")

    def compare_traced(self, job: WarpJob, bench: Benchmark,
                       traced: TracedWarp,
                       untraced: Dict[str, Optional[ServiceResult]]) -> None:
        """The traced job must return the app's independent checksum (both
        sides as unsigned 32-bit words) and agree with the untraced result
        of every path in ``untraced``."""
        expected = uwrap32(bench.expected_checksum)
        warp = traced.warp
        returned = [warp.software_result.return_value]
        if warp.warp_mb_result is not None:
            returned.append(warp.warp_mb_result.return_value)
        if any(uwrap32(value) != expected for value in returned):
            self.problem(f"{job.name}: traced return values "
                         f"{[uwrap32(v) for v in returned]} != expected "
                         f"checksum {expected}")
        for path, result in untraced.items():
            if result is None:
                continue
            if (traced.speedup, traced.normalized_energy) != \
                    (result.speedup, result.normalized_warp_energy):
                self.problem(
                    f"{job.name}: traced speedup/energy "
                    f"{traced.speedup!r}/{traced.normalized_energy!r} != "
                    f"{path} {result.speedup!r}/"
                    f"{result.normalized_warp_energy!r}")

    def replay_traced(self, recorder: SpanRecorder,
                      cache_for: Callable[[], CadArtifactCache],
                      timed: Optional[Pass] = None,
                      ops: Optional[int] = None,
                      ) -> Tuple[List[TracedWarp], Pass, float, float]:
        """The first ``ops`` warp ops of the stream (all by default) in this
        process, untraced through ``execute_job`` and traced, back to back,
        taking turns at going first, so host drift and order effects cancel
        out of the tracing overhead.  The compile cache is cleared before each, so each
        compiles as a timed op does.  A host probe runs between ops.
        Returns the traced ops, the untraced replays as a pass, the
        tracing overhead share, and the scale of the traced spans."""
        traced, replay = [], Pass()
        probes = [probe_host()]
        for index, (job, bench) in enumerate(self.stream[:ops]):
            for traced_turn in ((False, True) if index % 2 else (True, False)):
                clear_compile_cache()
                if traced_turn:
                    with recorder.op(job.name):
                        outcome = traced_warp_job(recorder, job, cache_for())
                else:
                    began = time.perf_counter()
                    replayed = execute_job(job, artifact_cache=cache_for())
                    replay.latencies.append(time.perf_counter() - began)
                    replay.results.append(replayed)
            probes.append(probe_host())
            replay.scales.append(host_scale(probes[-2:]))
            traced.append(outcome)
            untraced = {"execute_job": replayed}
            if timed is not None:
                untraced[self.timed_path] = timed.results[index]
            self.compare_traced(job, bench, outcome, untraced)
        replay.window_s = sum(replay.latencies)
        replay.scaled_window_s = sum(replay.scaled_latencies)
        return (traced, replay, recorder.op_seconds() / replay.window_s - 1.0,
                host_scale(probes))

    @staticmethod
    def stage_hit_ratio(results: List[Optional[ServiceResult]]) -> float:
        hits = lookups = 0
        for result in results:
            if result is None:
                continue
            for source in result.stage_cache.values():
                if source in STAGE_HIT_SOURCES:
                    hits += 1
                    lookups += 1
                elif source == SOURCE_MISS:
                    lookups += 1
        return hits / lookups if lookups else 0.0

    def layer_metrics(self, primary: Pass, recorder: SpanRecorder,
                      traced: List[TracedWarp], overhead_share: float,
                      span_scale: float) -> Dict[str, float]:
        """The per-layer breakdown, per op, from the traced pass's spans and
        the primary pass's worker-reported results, in reference-host
        seconds: ``span_scale`` scales the spans, the pass's own scales its
        results.  Layers a workload does not reach report 0."""
        totals = recorder.totals()
        roots = recorder.roots()
        ops = len(roots)

        def total(name: str, key: str = "total_s") -> float:
            return totals.get(name, {}).get(key, 0.0) * span_scale

        op_total = recorder.op_seconds() * span_scale
        by_parent = recorder.children()
        phase_total = span_scale * sum(
            child.duration for root in roots
            for child in by_parent.get(root.span_id, ()))

        hw_s = total("fabric.hw_exec")
        iterations = sum(t.warp.hw_iterations for t in traced)
        profile_s = total("microblaze.profile_run")
        profile_instructions = sum(t.warp.software_result.instructions
                                   for t in traced)
        warped_instructions = sum(t.warp.warp_mb_result.instructions
                                  for t in traced
                                  if t.warp.warp_mb_result is not None)
        metrics = {
            "fabric.hw_exec_s": hw_s / ops,
            "fabric.hw_invocations":
                sum(t.warp.hw_invocations for t in traced) / ops,
            "fabric.hw_iterations": iterations / ops,
            "fabric.hw_exec_us_per_iter":
                hw_s / iterations * 1e6 if iterations else 0.0,
        }
        for stage in CAD_STAGES:
            metrics[f"cad.{stage}_s"] = span_scale * sum(
                record.wall_seconds for t in traced
                for record in t.warp.partitioning.stage_records
                if record.stage == stage) / ops
        metrics.update({
            "cad.partition_s": total("cad.partition") / ops,
            "cad.stage_hit_ratio": self.stage_hit_ratio(primary.results),
            "compiler.compile_s": total("compiler.compile") / ops,
            "microblaze.profile_run_s": profile_s / ops,
            "microblaze.profile_run_ips":
                profile_instructions / profile_s if profile_s else 0.0,
            "microblaze.warped_run_self_s":
                total("microblaze.warped_run", "self_s") / ops,
            "microblaze.instructions":
                (profile_instructions + warped_instructions) / ops,
            "fuzz.generate_s": total("fuzz.generate") / ops,
            "fuzz.compare_s": total("fuzz.compare") / ops,
        })
        for engine in FUZZ_ENGINES:
            metrics[f"microblaze.observe_s.{engine}"] = \
                total(f"microblaze.observe.{engine}") / ops
        metrics.update({
            "service.job_wall_s": statistics.fmean(
                wall for _, wall, _ in primary.scaled_job_walls()),
            "service.residual_s": (op_total - phase_total) / ops,
            "trace.span_coverage": phase_total / op_total,
            "trace.overhead_share": overhead_share,
            "server.overhead_s": 0.0,
            "server.refused": 0.0,
            "mesh.member_share_max": 0.0,
            "mesh.member_busy_s.m0": 0.0,
            "mesh.member_busy_s.m1": 0.0,
            "mesh.peer_hits": 0.0,
            "mesh.forwards": 0.0,
        })
        return metrics


class SuiteFresh(Workload):
    """Serial in-process warp jobs, each new to the CAD flow."""

    name = "suite-fresh"
    nominal_ops_per_s = 15.0
    round_size = 6

    def setup(self) -> None:
        for job, _ in warp_round(self.name, self.seed, WARMUP_ROUND):
            result = execute_job(job, artifact_cache=CadArtifactCache())
            if not result.ok:
                raise RuntimeError(f"warm-up {job.name}: {result.error}")
            self.probe_setup()
        self.stream = warp_stream(self.name, self.seed, self.ops)

    def timed_pass(self) -> Pass:
        # An empty cache per job: the paper's on-chip DPM, no cache.
        return self.serial_pass(
            [job for job, _ in self.stream],
            lambda job: execute_job(job, artifact_cache=CadArtifactCache()))

    def check(self, primary: Pass) -> None:
        self.check_warp_results(primary)
        for result in primary.results:
            cacheable = {stage: source
                         for stage, source in result.stage_cache.items()
                         if source != SOURCE_UNCACHED}
            if not cacheable or any(source != SOURCE_MISS
                                    for source in cacheable.values()):
                self.problem(f"{result.job_name}: not fresh to the CAD "
                             f"flow: {result.stage_cache}")

    def run(self, recorder: Optional[SpanRecorder],
            ) -> Tuple[Pass, Dict[str, float], Dict[str, float]]:
        """Traced, the untraced replays of ``replay_traced`` stand in for
        the timed pass: they take the same ``execute_job`` path with an
        empty cache, so a separate timed pass would check nothing new.
        Its end-to-end metrics are not reported."""
        if recorder is None:
            return super().run(None)
        traced, replay, overhead, span_scale = self.replay_traced(
            recorder, CadArtifactCache)
        self.check(replay)
        return replay, {}, self.layer_metrics(replay, recorder, traced,
                                              overhead, span_scale)


class MeshRepeat(Workload):
    """Closed-loop clients against a two-member ``repro-warp serve`` mesh
    whose stores are warm for every kernel; each job carries new data."""

    name = "mesh-repeat"
    timed_path = "gateway"
    nominal_ops_per_s = 28.0
    round_size = 6
    members = 2
    #: Rounds the clients share between two host probes.
    segment_rounds = 1
    #: Probes in a row at each segment boundary; the fastest counts, as
    #: a gateway may still be finishing the last reply's bookkeeping.
    boundary_probes = 3

    def __init__(self, seed: int, seconds: int, work_dir: Path):
        super().__init__(seed, seconds, work_dir)
        self.clients = len(os.sched_getaffinity(0))
        self.procs: List[subprocess.Popen] = []
        self.addresses: List[str] = []
        self.worker_member: Dict[int, str] = {}

    # --------------------------------------------------------------- gateways
    def _spawn(self, index: int, port: int) -> str:
        address = f"127.0.0.1:{port}"
        store = self.work_dir / f"store-{index}"
        command = [sys.executable, "-m", "repro.service.cli", "serve",
                   "--port", str(port), "--workers", "1",
                   "--store", str(store)]
        for peer in self.addresses:
            command += ["--peer", peer]
        log_path = self.work_dir / f"gateway-{index}.log"
        with open(log_path, "w") as log:
            proc = subprocess.Popen(command, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL)
        self.procs.append(proc)
        # The gateway announces itself only once it listens and has joined
        # its peers.
        deadline = time.monotonic() + 60
        while "listening on" not in log_path.read_text():
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"gateway {address} did not come up: "
                                   f"{log_path.read_text()[-2000:]}")
            time.sleep(0.02)
        return address

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for index, port in enumerate(mesh_ports(self.seed, self.members)):
            self.addresses.append(self._spawn(index, port))
            self.probe_setup()
        with GatewayClient(self.addresses[0]) as client:
            members = client.mesh_peers().get("members", [])
        if sorted(members) != sorted(self.addresses):
            raise RuntimeError(f"mesh did not form: {members}")
        # Warm every member for every kernel, one member after the other,
        # so each worker's stage cache holds all six before timing starts.
        warmup = [job for job, _ in warp_round(self.name, self.seed,
                                                WARMUP_ROUND)]
        for address in self.addresses:
            with GatewayClient(address) as client:
                report = client.submit(warmup)
            for result in report.results:
                if not result.ok:
                    raise RuntimeError(f"warm-up {result.job_name} on "
                                       f"{address}: {result.error}")
                self.worker_member[result.worker_pid] = address
            self.probe_setup()
        self.stream = warp_stream(self.name, self.seed, self.ops)

    def _mesh_counters(self) -> Dict[str, float]:
        totals = {"peer_hits": 0.0, "forwards": 0.0}
        for address in self.addresses:
            with GatewayClient(address) as client:
                families = client.metrics(include_spans=False)["metrics"]
            for sample in families.get("warp_mesh_peer_fetches_total",
                                       {}).get("samples", ()):
                if sample["labels"].get("result") == "hit":
                    totals["peer_hits"] += sample["value"]
            for sample in families.get("warp_mesh_forwards_total",
                                       {}).get("samples", ()):
                totals["forwards"] += sample["value"]
        return totals

    def timed_pass(self) -> Pass:
        """The clients work through the stream a segment at a time; between
        segments, with the mesh idle, the load generator probes the host,
        and a segment's ops are scaled by the probes either side of it."""
        jobs = [job for job, _ in self.stream]
        primary = Pass(latencies=[0.0] * len(jobs), results=[None] * len(jobs),
                       scales=[0.0] * len(jobs))
        self.route = [None] * len(jobs)
        self.round_trips = [(0.0, 0.0)] * len(jobs)
        backends = [MeshBackend(self.addresses, client_id=f"perfbench-{index}")
                    for index in range(self.clients)]
        lock = threading.Lock()
        cursor = iter(())
        errors: List[BaseException] = []

        def client(backend: MeshBackend) -> None:
            try:
                while True:
                    with lock:
                        op = next(cursor, None)
                    if op is None:
                        return
                    self.route[op] = "%s:%d" % backend.address_for(jobs[op])
                    began = time.perf_counter()
                    try:
                        result = backend(jobs[op])
                    except GatewayBusyError:
                        result = None
                    ended = time.perf_counter()
                    primary.latencies[op] = ended - began
                    primary.results[op] = result
                    self.round_trips[op] = (began, ended)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        counted = self._mesh_counters()
        segment = self.segment_rounds * self.round_size
        probe = probe_host(self.boundary_probes)
        for first in range(0, len(jobs), segment):
            ops = range(first, min(len(jobs), first + segment))
            cursor = iter(ops)
            threads = [threading.Thread(target=client, args=(backend,))
                       for backend in backends]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window_s = time.perf_counter() - start
            if errors:
                raise errors[0]
            after = probe_host(self.boundary_probes)
            scale = host_scale((probe, after))
            probe = after
            for op in ops:
                primary.scales[op] = scale
            primary.window_s += window_s
            primary.scaled_window_s += window_s * scale
        counters = self._mesh_counters()
        self.mesh_deltas = {key: counters[key] - counted[key]
                            for key in counters}
        for result in primary.results:
            if result is not None:
                self.worker_member.setdefault(result.worker_pid, "?")
        self._note_split(primary)
        return primary

    def _member_split(self, primary: Pass) -> Tuple[Dict[str, int],
                                                    Dict[str, float]]:
        jobs = {address: 0 for address in self.addresses}
        busy = {address: 0.0 for address in self.addresses}
        for address in self.route:
            jobs[address] = jobs.get(address, 0) + 1
        for index, wall, _ in primary.scaled_job_walls():
            pid = primary.results[index].worker_pid
            member = self.worker_member.get(pid, "?")
            busy[member] = busy.get(member, 0.0) + wall
        return jobs, busy

    def _note_split(self, primary: Pass) -> None:
        jobs, busy = self._member_split(primary)
        self.notes.append(f"mesh members (from seed {self.seed}): "
                          + ", ".join(self.addresses)
                          + f"; {self.clients} closed-loop clients")
        for index, address in enumerate(self.addresses):
            self.notes.append(f"  m{index} {address}: {jobs[address]} jobs, "
                              f"{busy[address]:.3f} s busy (reference host)")

    def check(self, primary: Pass) -> None:
        self.check_warp_results(primary)
        for result in primary.results:
            if result is None:
                continue
            cacheable = [source for source in result.stage_cache.values()
                         if source != SOURCE_UNCACHED]
            if not cacheable or any(source not in STAGE_HIT_SOURCES
                                    for source in cacheable):
                self.problem(f"{result.job_name}: not served from the "
                             f"stage cache: {result.stage_cache}")

    def peak_rss_mb(self) -> float:
        pids = [proc.pid for proc in self.procs] + \
            [pid for pid in self.worker_member if pid]
        return _own_peak_rss_mb() + sum(_vm_hwm_mb(pid) for pid in pids)

    def traced_pass(self, primary: Pass,
                    recorder: SpanRecorder) -> Dict[str, float]:
        """The timed pass's client round trips become spans; the layers
        behind the gateway are broken down by replaying the first
        :data:`MIN_OPS` ops, in whole rounds, in this process against a
        cache warmed like the members' caches.  Replaying all of them would
        take the traced run past its deadline on a slow host; every op's
        gateway result is still checked by :meth:`check`."""
        for (job, _), (began, ended) in zip(self.stream, self.round_trips):
            recorder.record("server.round_trip", job.name, began, ended)
        cache = CadArtifactCache()
        for job, _ in warp_round(self.name, self.seed, WARMUP_ROUND):
            execute_job(job, artifact_cache=cache)
        replayed = math.ceil(MIN_OPS / self.round_size) * self.round_size
        traced, _, overhead, span_scale = self.replay_traced(
            recorder, lambda: cache, primary, ops=replayed)
        metrics = self.layer_metrics(primary, recorder, traced, overhead,
                                     span_scale)
        jobs, busy = self._member_split(primary)
        walls = primary.scaled_job_walls()
        metrics.update({
            "server.overhead_s": statistics.fmean(
                latency - wall for _, wall, latency in walls),
            "server.refused": float(primary.refused + sum(
                primary.results[index].retries for index, _, _ in walls)),
            "mesh.member_share_max":
                max(jobs.values()) / (len(self.route) / self.members),
            "mesh.peer_hits": self.mesh_deltas["peer_hits"],
            "mesh.forwards": self.mesh_deltas["forwards"],
        })
        for index, address in enumerate(self.addresses):
            metrics[f"mesh.member_busy_s.m{index}"] = busy[address]
        return metrics

    def close(self) -> None:
        for address, proc in zip(self.addresses, self.procs):
            if proc.poll() is None:
                try:
                    with GatewayClient(address, timeout=10) as client:
                        client.shutdown()
                except (OSError, ProtocolError):
                    pass  # it is killed below if it does not exit
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


class FuzzFleet(Workload):
    """Differential fuzz campaigns over never-seen generator seeds."""

    name = "fuzz-fleet"
    nominal_ops_per_s = 30.0
    warmup_programs = 10

    def setup(self) -> None:
        self.warm_seeds, self.timed_seeds, self.traced_seeds = \
            fuzz_seed_ranges(self.seed, self.warmup_programs, self.ops,
                             self.ops)
        for seed in self.warm_seeds:
            result = execute_job(self.job(seed))
            if not result.ok:
                raise RuntimeError(f"warm-up fuzz seed {seed}: "
                                   f"{result.error}")
            self.probe_setup()

    @staticmethod
    def job(seed: int) -> WarpJob:
        return WarpJob(name=f"fuzz-{seed}", fuzz_profile=FUZZ_PROFILE,
                       fuzz_seed=seed, fuzz_count=1)

    def timed_pass(self) -> Pass:
        return self.serial_pass(list(self.timed_seeds),
                                lambda seed: execute_job(self.job(seed)))

    def check(self, primary: Pass) -> None:
        if set(self.warm_seeds) & set(self.timed_seeds):
            self.problem("timed fuzz seeds overlap the warm-up seeds")
        for result in primary.results:
            unexplained = result.fuzz_divergences \
                - result.fuzz_known_divergences
            if not result.ok or unexplained or result.fuzz_programs != 1:
                self.problem(f"{result.job_name}: ok={result.ok} "
                             f"unexplained={unexplained} error={result.error}")

    def traced_pass(self, primary: Pass,
                    recorder: SpanRecorder) -> Dict[str, float]:
        """Fresh seeds again: re-running the timed ones would find their
        translations in the engines' code caches."""
        instructions = 0
        durations = []
        probes = [probe_host()]
        for seed in self.traced_seeds:
            with recorder.op(f"fuzz-{seed}") as root:
                outcome = traced_fuzz_program(recorder, self.job(seed))
            probes.append(probe_host())
            durations.append(root.duration)
            instructions += outcome["instructions"]
            if outcome["unexplained"]:
                self.problem(f"traced fuzz seed {seed}: "
                             f"{outcome['unexplained']} unexplained "
                             f"divergence(s)")
        # Different programs on the two sides, so compare medians.
        span_scale = host_scale(probes)
        overhead = statistics.median(durations) * span_scale \
            / statistics.median(primary.scaled_latencies) - 1.0
        metrics = self.layer_metrics(primary, recorder, [], overhead,
                                     span_scale)
        metrics["microblaze.instructions"] = instructions / len(durations)
        return metrics


WORKLOADS = {workload.name: workload
             for workload in (SuiteFresh, MeshRepeat, FuzzFleet)}
