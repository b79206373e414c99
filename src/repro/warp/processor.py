"""The MicroBlaze-based warp processor (Figure 2 of the paper).

A warp processor is a normal MicroBlaze system plus the on-chip profiler,
the dynamic partitioning module and the warp configurable logic
architecture.  Execution proceeds exactly as the paper describes:

1. the application runs on the MicroBlaze alone while the profiler watches
   backward branches;
2. the DPM picks the single most critical region, decompiles it from the
   binary, synthesises/places/routes it onto the WCLA, and patches the
   binary;
3. the application keeps running — now the patched binary ships the kernel
   to hardware each time it reaches the loop.

:class:`WarpProcessor` performs those phases and reports both functional
results (checksums must match the software-only run) and the performance
breakdown (MicroBlaze cycles, WCLA cycles at the WCLA's own clock,
per-invocation communication overhead), from which the experiment harness
derives Figure 6.

Like the paper's warp processor, which keeps running the same binary, the
phases run on *warm* systems once a program recurs: a process-wide pool
keeps idle :class:`~repro.microblaze.system.MicroBlazeSystem` instances
keyed by ``(config, engine, program text)``, and a run checks one out and
back in.  Re-loading the same text keeps the system's decodes and engine
translations (:meth:`MicroBlazeSystem.load`), so the next job of the same
application — new data, same code — translates nothing: the
translate-once, run-many step of a persistent code cache.  A text's first
run is treated as one-off: it gets a system of its own, not pooled, on the
engine cheapest to translate (:data:`COLD_ENGINE`) unless the job names
one.  The profile run uses the original text's system, the warped run the
patched text's.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from .. import obs
from ..fabric.architecture import DEFAULT_WCLA, WclaParameters
from ..fabric.hw_exec import WclaPeripheral
from ..isa.program import Program
from ..microblaze.config import MicroBlazeConfig, PAPER_CONFIG
from ..microblaze.engines import validate_engine_name
from ..microblaze.opb import OPB_BASE_ADDRESS
from ..microblaze.system import ExecutionResult, MicroBlazeSystem
from ..partition.dpm import DynamicPartitioningModule, PartitioningOutcome
from ..profiler.branch_cache import BranchFrequencyCache
from ..profiler.profiler import OnChipProfiler


#: Idle warm systems kept per process, over all keys.  Each costs its two
#: BRAMs (64 KiB each at the paper's configuration) plus its translations;
#: the six paper applications need twelve (original and patched text).
MAX_WARM_SYSTEMS = 16

#: Program texts the pool remembers having seen (as hashes), so that a
#: text's second arrival is recognised as recurring.
MAX_SEEN_TEXTS = 256

#: Engine of a text's first run when the job names none.  That run's
#: system is not pooled, so the engine cheapest to translate wins: cold,
#: with the profiler attached, the six paper applications take 0.105 s on
#: ``threaded`` against 0.125 s on ``region``.
COLD_ENGINE = "threaded"


class WarmSystemPool:
    """Idle :class:`MicroBlazeSystem` instances keyed by
    ``(config, engine, program text)``, least recently used evicted first.

    A text is pooled only once it recurs.  Its first checkout builds a
    system that is not returned (on :data:`COLD_ENGINE` unless the caller
    names an engine), so one-off programs neither pay for a translation
    that would never be reused nor push recurring texts' systems out.
    From its second checkout on, a text runs on a pooled system of the
    named engine, or of the default engine if none is named.

    :meth:`checkout` hands a system to exactly one caller at a time (the
    gateway's concurrent batch executors run warp jobs on several threads
    of one process).  A system comes back to the pool only when its run
    returned; one whose run raised is dropped, as is the least recently
    used one past :data:`MAX_WARM_SYSTEMS`.  Outcomes are counted in
    ``warp_warm_systems_total{outcome="cold|built|reused|dropped"}``.
    """

    def __init__(self):
        self._idle: "OrderedDict[Tuple, List[MicroBlazeSystem]]" = OrderedDict()
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        self._size = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    @contextmanager
    def checkout(self, config: MicroBlazeConfig, engine: Optional[str],
                 text: Sequence[int]) -> Iterator[MicroBlazeSystem]:
        text = tuple(text)
        key = (config, validate_engine_name(engine), text)
        # A hash collision only makes a one-off text look recurring.
        seen_key = hash((config, text))
        system = None
        with self._lock:
            recurring = seen_key in self._seen
            if recurring:
                self._seen.move_to_end(seen_key)
                idle = self._idle.get(key)
                if idle:
                    system = idle.pop()
                    self._size -= 1
                    if not idle:
                        del self._idle[key]
            else:
                self._seen[seen_key] = None
                if len(self._seen) > MAX_SEEN_TEXTS:
                    self._seen.popitem(last=False)
        if not recurring:
            _count_system("cold")
            yield MicroBlazeSystem(
                config=config,
                engine=COLD_ENGINE if engine is None else key[1])
            return
        if system is None:
            system = MicroBlazeSystem(config=config, engine=key[1])
            _count_system("built")
        else:
            _count_system("reused")
        try:
            yield system
        except BaseException:
            _count_system("dropped")
            raise
        with self._lock:
            self._idle.setdefault(key, []).append(system)
            self._idle.move_to_end(key)
            self._size += 1
            evict = self._size > MAX_WARM_SYSTEMS
            if evict:
                oldest_key, oldest = next(iter(self._idle.items()))
                oldest.pop(0)
                if not oldest:
                    del self._idle[oldest_key]
                self._size -= 1
        if evict:
            _count_system("dropped")

    def clear(self) -> None:
        """Drop every idle system and forget every text seen."""
        with self._lock:
            self._idle.clear()
            self._seen.clear()
            self._size = 0


def _count_system(outcome: str) -> None:
    if obs.ACTIVE is not None:
        obs.inc("warp_warm_systems_total",
                help_text="Warm-system checkouts (cold first run of a "
                          "text, built or reused pooled system) and "
                          "pooled systems dropped (failed run or evicted)",
                outcome=outcome)


#: The process-wide pool every :class:`WarpProcessor` runs on.
WARM_SYSTEMS = WarmSystemPool()


def _collect_warm_system_metrics(registry) -> None:
    registry.gauge(
        "warp_warm_systems_pooled",
        "Idle warm MicroBlaze systems in this process's pool",
    ).set(float(len(WARM_SYSTEMS)))


obs.add_collector(_collect_warm_system_metrics)


@dataclass
class WarpRunResult:
    """Outcome of running one program on a warp processor."""

    program_name: str
    config: MicroBlazeConfig
    software_result: ExecutionResult
    partitioning: PartitioningOutcome
    warp_mb_result: Optional[ExecutionResult] = None
    hw_cycles: int = 0
    hw_clock_mhz: float = 0.0
    hw_invocations: int = 0
    hw_iterations: int = 0

    # ------------------------------------------------------------------- times
    @property
    def software_seconds(self) -> float:
        return self.software_result.time_seconds

    @property
    def hw_seconds(self) -> float:
        if self.hw_clock_mhz <= 0:
            return 0.0
        return self.hw_cycles / (self.hw_clock_mhz * 1e6)

    @property
    def microblaze_seconds(self) -> float:
        """Time the MicroBlaze itself is busy in the warp-processed run."""
        if self.warp_mb_result is None:
            return self.software_seconds
        return self.warp_mb_result.time_seconds

    @property
    def warp_seconds(self) -> float:
        """Total warp-processed execution time (MicroBlaze + WCLA)."""
        if not self.partitioning.success or self.warp_mb_result is None:
            return self.software_seconds
        return self.microblaze_seconds + self.hw_seconds

    @property
    def speedup(self) -> float:
        warp = self.warp_seconds
        return self.software_seconds / warp if warp > 0 else 1.0

    @property
    def kernel_time_fraction(self) -> float:
        """Fraction of the software run eliminated by hardware execution."""
        if not self.partitioning.success or self.warp_mb_result is None:
            return 0.0
        removed = self.software_result.cycles - self.warp_mb_result.cycles
        return max(0.0, removed / self.software_result.cycles)

    @property
    def checksums_match(self) -> bool:
        if self.warp_mb_result is None:
            return True
        return self.software_result.return_value == self.warp_mb_result.return_value

    def summary(self) -> str:
        lines = [
            f"{self.program_name}: software {self.software_seconds * 1e3:.3f} ms, "
            f"warp {self.warp_seconds * 1e3:.3f} ms, speedup {self.speedup:.2f}x",
        ]
        if self.partitioning.success:
            lines.append(
                f"  kernel on WCLA @ {self.hw_clock_mhz:.0f} MHz: "
                f"{self.hw_invocations} invocations, {self.hw_iterations} iterations, "
                f"{self.hw_cycles} HW cycles"
            )
            lines.append(f"  checksums match: {self.checksums_match}")
        else:
            lines.append(f"  ran in software only ({self.partitioning.reason})")
        return "\n".join(lines)


class WarpProcessor:
    """Single-processor MicroBlaze-based warp processing system."""

    def __init__(
        self,
        config: MicroBlazeConfig = PAPER_CONFIG,
        wcla: WclaParameters = DEFAULT_WCLA,
        wcla_base_address: int = OPB_BASE_ADDRESS,
        profiler_cache_entries: int = 16,
        engine: Optional[str] = None,
        artifact_cache=None,
        stage_names=None,
        dpm: Optional[DynamicPartitioningModule] = None,
    ):
        self.config = config
        self.profiler_cache_entries = profiler_cache_entries
        self.engine = engine
        if dpm is not None:
            if wcla is not DEFAULT_WCLA or wcla_base_address != OPB_BASE_ADDRESS \
                    or artifact_cache is not None or stage_names is not None:
                raise ValueError(
                    "pass either a prebuilt dpm or the wcla/"
                    "wcla_base_address/artifact_cache/stage_names it would "
                    "be built from, not both")
            # A shared DPM (e.g. the one a MultiProcessorWarpSystem serves
            # all its cores with): the processor adopts its flow, WCLA and
            # cache wholesale.
            self.dpm = dpm
            self.wcla = dpm.wcla
            self.wcla_base_address = dpm.wcla_base_address
        else:
            self.wcla = wcla
            self.wcla_base_address = wcla_base_address
            # The optional content-addressed CAD cache (see repro.cad) lets
            # repeated partitionings of the same kernel skip
            # synthesis/place/route stage by stage; the warp service's
            # workers pass their per-process instance here.  ``stage_names``
            # swaps registered flow passes (e.g. "route-greedy").
            self.dpm = DynamicPartitioningModule(wcla=wcla,
                                                 wcla_base_address=wcla_base_address,
                                                 artifact_cache=artifact_cache,
                                                 stage_names=stage_names)

    # ----------------------------------------------------------------- phases
    def profile(self, program: Program,
                max_instructions: int = 50_000_000) -> tuple[ExecutionResult, OnChipProfiler]:
        """Phase 1: run the program on the MicroBlaze alone while profiling.

        The profiler subscribes through the branch-hook protocol, so this
        run stays on a block engine: branch handlers feed the profiler
        scalars directly and no trace events are allocated.  The system
        comes from :data:`WARM_SYSTEMS`, warm if ``program``'s text
        recurs.
        """
        profiler = OnChipProfiler(
            BranchFrequencyCache(num_entries=self.profiler_cache_entries)
        )
        with WARM_SYSTEMS.checkout(self.config, self.engine,
                                   program.text) as system:
            result = system.run(program, listeners=[profiler],
                                max_instructions=max_instructions)
        return result, profiler

    def run(self, program: Program,
            max_instructions: int = 50_000_000) -> WarpRunResult:
        """Run the full warp-processing flow on ``program``."""
        software_result, profiler = self.profile(program, max_instructions)
        region = profiler.most_critical_region()

        patched = program.copy()
        outcome = self.dpm.partition(patched, region)
        result = WarpRunResult(
            program_name=program.name,
            config=self.config,
            software_result=software_result,
            partitioning=outcome,
        )
        if not outcome.success:
            return result

        with WARM_SYSTEMS.checkout(self.config, self.engine,
                                   patched.text) as system:
            system.load(patched)
            peripheral = WclaPeripheral(self.wcla_base_address,
                                        outcome.implementation,
                                        system.data_bram)
            system.attach_peripheral(peripheral)
            try:
                warp_mb_result = system.run(max_instructions=max_instructions)
            finally:
                system.detach_peripheral(peripheral)
        peripheral.publish_totals()

        result.warp_mb_result = warp_mb_result
        result.hw_cycles = peripheral.total_hw_cycles
        result.hw_clock_mhz = outcome.implementation.clock_mhz
        result.hw_invocations = peripheral.invocations
        result.hw_iterations = peripheral.total_iterations
        return result
