"""Warm pooled MicroBlaze systems against fresh systems, run by run.

:class:`~repro.warp.WarpProcessor` runs both phases of a warp job on
systems checked out of the process-wide :data:`~repro.warp.processor.
WARM_SYSTEMS` pool, which keep their decodes and engine translations
across jobs of the same program text once that text recurs.  For every
registered engine, the six paper applications over several data seeds,
interleaved, must give exactly what :func:`fresh_warp_run` — the same
flow on a newly built system per phase — gives: both
:class:`ExecutionResult` records in full, the hardware invocations,
iterations and cycles, the speedup and the normalized energy.  Further
tests cover a text's unpooled first run, one-off texts next to a
recurring one, a run that raises, a live patch of a pooled system's
instruction BRAM, and four threads running one application at once.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
import threading

import pytest

from repro import obs
from repro.apps import benchmark_names, build_benchmark
from repro.compiler import compile_to_program
from repro.fabric.architecture import DEFAULT_WCLA
from repro.fabric.hw_exec import WclaPeripheral
from repro.microblaze import PAPER_CONFIG, MicroBlazeSystem
from repro.microblaze.cpu import ExecutionLimitExceeded
from repro.microblaze.engines import DEFAULT_ENGINE, engine_names
from repro.partition.binary_patch import patch_live_words
from repro.partition.dpm import DynamicPartitioningModule
from repro.power.energy import microblaze_energy, warp_energy
from repro.profiler.branch_cache import BranchFrequencyCache
from repro.profiler.profiler import CriticalRegion, OnChipProfiler
from repro.warp import WarpProcessor, WarpRunResult
from repro.warp.processor import (
    COLD_ENGINE,
    MAX_WARM_SYSTEMS,
    WARM_SYSTEMS,
    WarmSystemPool,
)

SEEDS = (1, 2, 3, 4)

_PROGRAMS = {}


def program_for(name: str, seed: int):
    key = (name, seed)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = compile_to_program(
            build_benchmark(name, small=True, seed=seed).source,
            name=name, config=PAPER_CONFIG)
    return _PROGRAMS[key]


@pytest.fixture(autouse=True)
def empty_pool():
    WARM_SYSTEMS.clear()
    yield
    WARM_SYSTEMS.clear()


def fresh_warp_run(program, engine) -> WarpRunResult:
    """The warp flow on a newly built system for each phase."""
    profiler = OnChipProfiler(BranchFrequencyCache(num_entries=16))
    software = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine).run(
        program, listeners=[profiler])
    patched = program.copy()
    dpm = DynamicPartitioningModule()
    outcome = dpm.partition(patched, profiler.most_critical_region())
    result = WarpRunResult(program_name=program.name, config=PAPER_CONFIG,
                           software_result=software, partitioning=outcome)
    if outcome.success:
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        system.load(patched)
        peripheral = WclaPeripheral(dpm.wcla_base_address,
                                    outcome.implementation, system.data_bram)
        system.attach_peripheral(peripheral)
        result.warp_mb_result = system.run()
        result.hw_cycles = peripheral.total_hw_cycles
        result.hw_clock_mhz = outcome.implementation.clock_mhz
        result.hw_invocations = peripheral.invocations
        result.hw_iterations = peripheral.total_iterations
    return result


def normalized_energy(result: WarpRunResult) -> float:
    clock_mhz = PAPER_CONFIG.clock_mhz
    software = microblaze_energy(result.software_seconds, clock_mhz)
    if not result.partitioning.success:
        return 1.0
    synthesis = result.partitioning.synthesis
    warp = warp_energy(mb_active_seconds=result.microblaze_seconds,
                       hw_seconds=result.hw_seconds, clock_mhz=clock_mhz,
                       wcla_luts=synthesis.total_luts,
                       uses_mac=synthesis.mac_operations > 0)
    return warp.normalized_to(software)


def assert_same_warp(warm: WarpRunResult, fresh: WarpRunResult) -> None:
    assert warm.software_result == fresh.software_result
    assert warm.partitioning.success == fresh.partitioning.success
    assert warm.warp_mb_result == fresh.warp_mb_result
    assert (warm.hw_invocations, warm.hw_iterations, warm.hw_cycles,
            warm.hw_clock_mhz) == (fresh.hw_invocations, fresh.hw_iterations,
                                   fresh.hw_cycles, fresh.hw_clock_mhz)
    assert warm.speedup == fresh.speedup
    assert normalized_energy(warm) == normalized_energy(fresh)


def _samples(snapshot, family):
    return {tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in snapshot.get(family, {}).get("samples", [])}


@pytest.mark.parametrize("engine", engine_names())
def test_warm_runs_match_fresh_runs(engine):
    processor = WarpProcessor(config=PAPER_CONFIG, engine=engine)
    with obs.active_telemetry() as telemetry:
        for seed in SEEDS:
            for name in benchmark_names():
                program = program_for(name, seed)
                warm = processor.run(program)
                assert warm.partitioning.success, (name, warm.partitioning)
                assert_same_warp(warm, fresh_warp_run(program, engine))
        outcomes = _samples(telemetry.snapshot(), "warp_warm_systems_total")
    apps = len(benchmark_names())
    # Two texts per application (original and patched): a cold unpooled
    # system for the first seed, a pooled one built for the second and
    # reused by every later seed.
    assert outcomes[(("outcome", "cold"),)] == 2 * apps
    assert outcomes[(("outcome", "built"),)] == 2 * apps
    assert outcomes[(("outcome", "reused"),)] == 2 * apps * (len(SEEDS) - 2)
    assert (("outcome", "dropped"),) not in outcomes
    assert len(WARM_SYSTEMS) == 2 * apps


def test_first_run_of_a_text_is_cold_and_not_pooled():
    pool = WarmSystemPool()
    text = program_for("brev", 1).text
    with pool.checkout(PAPER_CONFIG, None, text) as first:
        assert first.cpu.engine == COLD_ENGINE
    assert len(pool) == 0
    with pool.checkout(PAPER_CONFIG, None, text) as second:
        assert second.cpu.engine == DEFAULT_ENGINE
    assert len(pool) == 1
    with pool.checkout(PAPER_CONFIG, DEFAULT_ENGINE, text) as third:
        assert third is second
    # A named engine is honoured on the first run too.
    with pool.checkout(PAPER_CONFIG, "jit", [1, 2, 3]) as named:
        assert named.cpu.engine == "jit"
    assert len(pool) == 1


def test_one_off_texts_leave_a_recurring_text_warm():
    pool = WarmSystemPool()
    text = program_for("idct", 1).text
    for _ in range(2):
        with pool.checkout(PAPER_CONFIG, None, text) as warm:
            pass
    for index in range(2 * MAX_WARM_SYSTEMS):
        with pool.checkout(PAPER_CONFIG, None, [index]):
            pass
    assert len(pool) == 1
    with pool.checkout(PAPER_CONFIG, None, text) as again:
        assert again is warm


def test_failed_run_drops_its_system():
    program = program_for("brev", 1)
    processor = WarpProcessor(config=PAPER_CONFIG)
    processor.profile(program)
    assert len(WARM_SYSTEMS) == 0
    processor.profile(program)
    assert len(WARM_SYSTEMS) == 1
    with obs.active_telemetry() as telemetry:
        with pytest.raises(ExecutionLimitExceeded):
            processor.profile(program, max_instructions=500)
        assert len(WARM_SYSTEMS) == 0
        for seed in SEEDS:
            again = program_for("brev", seed)
            assert_same_warp(processor.run(again),
                             fresh_warp_run(again, None))
        outcomes = _samples(telemetry.snapshot(), "warp_warm_systems_total")
    assert outcomes[(("outcome", "dropped"),)] == 1
    assert len(WARM_SYSTEMS) == 2


def test_live_patch_forces_a_reload():
    program = program_for("matmul", 1)
    image = struct.pack(f"<{len(program.text)}I", *program.text)
    system = MicroBlazeSystem(config=PAPER_CONFIG)
    first = system.run(program)
    assert system.cpu._blocks
    # Same text: the translations survive the load.
    system.load(program)
    assert system.cpu._blocks
    assert system.run() == first
    # A live patch leaves the BRAM different from the text, so the next
    # load rewrites it and drops every translation.
    patch_live_words(system, program.entry_point,
                     [program.text[program.entry_point // 4] ^ 1])
    system.load(program)
    assert not system.cpu._blocks
    storage = system.instr_bram.storage
    assert storage[:len(image)] == image
    assert not any(storage[len(image):])
    assert system.run() == first


def test_stale_words_past_the_text_force_a_reload():
    program = program_for("idct", 1)
    longer = program.copy()
    longer.text = list(program.text) + [0xDEADBEEF]
    system = MicroBlazeSystem(config=PAPER_CONFIG)
    first = system.run(program)
    assert system.run(longer).stats == first.stats
    assert system.cpu._blocks
    # The BRAM starts with ``program``'s text but holds one more word.
    system.load(program)
    assert not system.cpu._blocks
    assert not any(system.instr_bram.storage[4 * len(program.text):])
    assert system.run() == first


def test_four_threads_on_one_application_get_exact_results():
    programs = [program_for("g3fax", seed) for seed in SEEDS]
    expected = [fresh_warp_run(program, None) for program in programs]
    barrier = threading.Barrier(4)
    failures = []

    def worker(index):
        processor = WarpProcessor(config=PAPER_CONFIG)
        barrier.wait()
        try:
            for round_index in range(6):
                which = (index + round_index) % len(SEEDS)
                assert_same_warp(processor.run(programs[which]),
                                 expected[which])
        except BaseException as error:  # pragma: no cover - reported below
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    # Every system came back exactly once: two texts, at most one system
    # per thread each, and the pool's count matches its contents.
    idle = [system for systems in WARM_SYSTEMS._idle.values()
            for system in systems]
    assert len(idle) == len(WARM_SYSTEMS)
    assert len(set(map(id, idle))) == len(idle)
    assert 2 <= len(idle) <= 8


def test_pool_is_bounded_and_evicts_least_recently_used():
    pool = WarmSystemPool()
    texts = [[index] for index in range(MAX_WARM_SYSTEMS + 1)]
    systems = []
    with obs.active_telemetry() as telemetry:
        for text in texts:
            with pool.checkout(PAPER_CONFIG, None, text):
                pass
            with pool.checkout(PAPER_CONFIG, None, text) as system:
                systems.append(system)
        assert len(pool) == MAX_WARM_SYSTEMS
        # The first text's system was evicted; the others are reused
        # (``None`` and the default engine's name share one key).
        for text, previous in zip(texts[1:], systems[1:]):
            with pool.checkout(PAPER_CONFIG, DEFAULT_ENGINE, text) as system:
                assert system is previous
        with pool.checkout(PAPER_CONFIG, None, texts[0]) as system:
            assert system is not systems[0]
        snapshot = telemetry.snapshot()
    assert _samples(snapshot, "warp_warm_systems_total") == {
        (("outcome", "cold"),): MAX_WARM_SYSTEMS + 1,
        (("outcome", "built"),): MAX_WARM_SYSTEMS + 2,
        (("outcome", "reused"),): MAX_WARM_SYSTEMS,
        (("outcome", "dropped"),): 2,
    }
    assert _samples(snapshot, "warp_warm_systems_pooled") \
        == {(): float(len(WARM_SYSTEMS))}


def test_partition_rejections_are_counted_by_reason():
    program = program_for("matmul", 1)
    _, profiler = WarpProcessor(config=PAPER_CONFIG).profile(program)
    region = profiler.most_critical_region()
    tiny = dataclasses.replace(
        DEFAULT_WCLA,
        fabric=dataclasses.replace(DEFAULT_WCLA.fabric, rows=2, columns=2))
    with obs.active_telemetry() as telemetry:
        DynamicPartitioningModule().partition(program.copy(), None)
        DynamicPartitioningModule().partition(
            program.copy(), CriticalRegion(program.entry_point,
                                           program.entry_point + 8, 100))
        DynamicPartitioningModule(wcla=tiny).partition(program.copy(), region)
        assert DynamicPartitioningModule().partition(program.copy(),
                                                     region).success
        snapshot = telemetry.snapshot()
    assert _samples(snapshot, "warp_partition_rejections_total") == {
        (("reason", "no-region"),): 1,
        (("reason", "decompile"),): 1,
        (("reason", "capacity"),): 1,
    }
