"""Simulator throughput trajectory — interp vs threaded vs jit vs region.

Measures, at full benchmark size:

* **cold** simulated instructions per second over the six-application
  suite on the reference interpreter and the threaded-code engine (the
  PR-1 metric, kept for trajectory continuity: fresh system per run,
  translation included), plus the translation-cost breakdown of the two
  source-generating engines (``codegen_stats()``: compiles, cache hits
  and ``compile_seconds`` for jit and region separately);
* **steady-state** throughput of the block engines — threaded, the
  source-generating jit and the region-fusing engine — with warm
  translation caches (one warm-up run, then timed repeats through the
  same system).  This is the service's operating model: worker processes
  keep systems and the process-wide code cache warm across jobs, so
  steady state is what repeated sweeps actually pay;
* the wall time of the full ``run_evaluation()`` pipeline (Figures 6 and
  7) on all four engines, asserting the checksums along the way;
* differential fuzzing campaign throughput (``repro.fuzz``): generated
  programs per second and fuzzed instructions per second with every
  registered engine cross-checked per program — the fleet's programs/s
  budget planner, asserted divergence-free along the way;
* the warp job's profile run on a warm pooled system (default engine,
  :data:`repro.warp.processor.WARM_SYSTEMS`) against a cold ``threaded``
  system built for the run — the service's operating point before and
  after warm systems — with a warm pooled ``threaded`` system beside
  them, recorded under ``warm_profile``.

Bit-exactness of the fast engines is asserted before any speed is
compared.  With ``REPRO_BENCH_RECORD=1`` results are appended to
``BENCH_simulator.json`` at the repository root (the previous record is
preserved under ``history``), and
the acceptance floors — at least 5x cold throughput for the threaded
engine (ISSUE 1), at least 1.5x steady-state suite throughput of jit over
threaded (ISSUE 5), and at least 1.8x steady-state suite throughput of
region over jit (ISSUE 8) — are asserted here so a regression cannot
land silently, as is the warm-pooled profile run's floor of at least 2x
over a cold threaded one.
"""

from __future__ import annotations

import time

import pytest

from repro.apps import build_suite
from repro.compiler import compile_source_cached
from repro.eval import run_evaluation
from repro.fuzz import run_campaign
from repro.microblaze import PAPER_CONFIG, MicroBlazeSystem, run_program
from repro.microblaze.engines import DEFAULT_ENGINE
from repro.microblaze.engines.jit import codegen_stats, reset_codegen_stats
from repro.profiler.branch_cache import BranchFrequencyCache
from repro.profiler.profiler import OnChipProfiler
from repro.warp import WarpProcessor

import bench_record


#: Acceptance thresholds of the threaded-code engine work (ISSUE 1).
MIN_THROUGHPUT_SPEEDUP = 5.0
MIN_EVALUATION_SPEEDUP = 3.0
#: Acceptance threshold of the source-generating jit engine (ISSUE 5):
#: steady-state suite throughput over the threaded engine.
MIN_JIT_OVER_THREADED = 1.5
#: Acceptance threshold of the region-fusing engine (ISSUE 8):
#: steady-state suite throughput over the jit engine.  Measured at
#: 2.2x-2.3x on the reference container; the floor leaves noise headroom.
MIN_REGION_OVER_JIT = 1.8

#: Acceptance threshold of warm pooled systems: profile-run throughput on
#: a warm pooled system (default engine) over a cold threaded system.
MIN_WARM_OVER_COLD_PROFILE = 2.0

#: Seeds per fuzz-campaign throughput measurement (every program runs on
#: all four registered engines, so the per-seed cost is a fleet-width
#: cross-check, not a single simulation).
FUZZ_CAMPAIGN_SEEDS = 40

#: Steady-state timed repeats per benchmark (after one warm-up run).
#: The per-engine time is the *minimum* over the repeats, and the
#: engines' repeats are interleaved, so scheduler noise and frequency
#: drift from the surrounding benchmark session cannot bias the ratio.
STEADY_REPEATS = 7


def _suite_programs():
    return [(benchmark.name,
             compile_source_cached(benchmark.source, name=benchmark.name,
                                   config=PAPER_CONFIG).program)
            for benchmark in build_suite()]


def _measure_cold(programs, engine):
    """Total instructions and wall seconds, fresh system per run."""
    instructions = 0
    seconds = 0.0
    results = {}
    for name, program in programs:
        start = time.perf_counter()
        result = run_program(program, PAPER_CONFIG, engine=engine)
        seconds += time.perf_counter() - start
        instructions += result.instructions
        results[name] = result
    return instructions, seconds, results


def _measure_steady(programs, engines, repeats=STEADY_REPEATS):
    """Steady-state: per program and engine, one warm-up run through a
    fresh system, then ``repeats`` timed re-runs through the *same*
    system (translation caches stay warm, exactly like a warm service
    worker).  Engines are timed in interleaved rounds and the per-program
    cost is the minimum over the rounds — the least-interfered estimate
    of each engine's true steady-state cost.

    Returns ``{engine: (total_instructions, best_seconds)}``.
    """
    totals = {engine: [0, 0.0] for engine in engines}
    for name, program in programs:
        systems = {}
        reference = {}
        pristine = {}
        for engine in engines:
            system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
            system.load(program)
            # The canonical pre-run data image: repeats restore it in
            # place (BRAM identity is stable, so the warm translations
            # survive; a full load() would invalidate them).
            pristine[engine] = bytes(system.data_bram.storage)
            result = system.run()  # warm-up: compile superblocks
            systems[engine] = system
            reference[engine] = (result.stats.instructions,
                                 result.return_value)
        times = {engine: [] for engine in engines}
        instructions = {}
        for _ in range(repeats):
            for engine in engines:
                system = systems[engine]
                system.data_bram.storage[:] = pristine[engine]
                system.cpu.reset(entry_point=program.entry_point,
                                 stack_pointer=system.data_bram.size - 4)
                start = time.perf_counter()
                stats = system.cpu.run()
                times[engine].append(time.perf_counter() - start)
                # Every timed repeat must be the canonical workload, not
                # a re-run over mutated data memory.
                assert (stats.instructions, system.cpu.read_register(3)) \
                    == reference[engine], (name, engine)
                instructions[engine] = stats.instructions
        for engine in engines:
            totals[engine][0] += instructions[engine]
            totals[engine][1] += min(times[engine])
    return {engine: tuple(values) for engine, values in totals.items()}


def test_simulator_throughput_and_evaluation_walltime():
    programs = _suite_programs()

    reset_codegen_stats()
    interp_instr, interp_seconds, interp_results = \
        _measure_cold(programs, "interp")
    threaded_instr, threaded_seconds, threaded_results = \
        _measure_cold(programs, "threaded")
    jit_instr, jit_seconds, jit_results = _measure_cold(programs, "jit")
    region_instr, region_seconds, region_results = \
        _measure_cold(programs, "region")
    # Translation-cost breakdown of the cold suite runs: the region
    # engine pays block compiles (its cold dispatch) *plus* region
    # fusion; both are reported per engine label.
    codegen = codegen_stats()

    # The engines must agree bit-for-bit before their speeds are compared.
    assert threaded_instr == interp_instr == jit_instr == region_instr
    for name, _ in programs:
        for results in (threaded_results, jit_results, region_results):
            assert results[name].stats == interp_results[name].stats, name
            assert results[name].return_value \
                == interp_results[name].return_value, name

    interp_ips = interp_instr / interp_seconds
    threaded_ips = threaded_instr / threaded_seconds
    jit_cold_ips = jit_instr / jit_seconds
    region_cold_ips = region_instr / region_seconds
    throughput_speedup = threaded_ips / interp_ips

    # Steady state: the jit and region engines' acceptance metric (warm
    # translation caches, the service's operating model).
    steady = _measure_steady(programs, ("threaded", "jit", "region"))
    steady_threaded_instr, steady_threaded_seconds = steady["threaded"]
    steady_jit_instr, steady_jit_seconds = steady["jit"]
    steady_region_instr, steady_region_seconds = steady["region"]
    assert steady_threaded_instr == steady_jit_instr == steady_region_instr
    steady_threaded_ips = steady_threaded_instr / steady_threaded_seconds
    steady_jit_ips = steady_jit_instr / steady_jit_seconds
    steady_region_ips = steady_region_instr / steady_region_seconds
    jit_speedup = steady_jit_ips / steady_threaded_ips
    region_speedup = steady_region_ips / steady_jit_ips

    # Evaluation pipeline wall time (compile cache warmed by all paths
    # equally via the shared compile_source_cached above).
    evaluation = {}
    for engine in ("interp", "threaded", "jit", "region"):
        start = time.perf_counter()
        suite = run_evaluation(engine=engine)
        evaluation[engine] = time.perf_counter() - start
        assert suite.all_checksums_match, engine
    evaluation_speedup = evaluation["interp"] / evaluation["threaded"]

    # Differential fuzzing campaign throughput: one mixed-profile seed
    # range, every registered engine cross-checked per program.  The
    # campaign must stay divergence-free before its speed is recorded.
    fuzz_report = run_campaign(FUZZ_CAMPAIGN_SEEDS, profile="mixed")
    assert fuzz_report.unexplained_divergences == 0, fuzz_report.divergences

    record = {
        "suite": {
            "instructions": threaded_instr,
            "interp_seconds": round(interp_seconds, 4),
            "threaded_seconds": round(threaded_seconds, 4),
            "jit_seconds": round(jit_seconds, 4),
            "region_seconds": round(region_seconds, 4),
            "interp_kips": round(interp_ips / 1e3, 1),
            "threaded_kips": round(threaded_ips / 1e3, 1),
            "jit_kips": round(jit_cold_ips / 1e3, 1),
            "region_kips": round(region_cold_ips / 1e3, 1),
            "throughput_speedup": round(throughput_speedup, 2),
        },
        "compile_seconds": {
            engine: {
                "compiles": int(bucket["compiles"]),
                "cache_hits": int(bucket["cache_hits"]),
                "compile_seconds": round(bucket["compile_seconds"], 4),
                "regions": int(bucket["regions"]),
                "region_blocks": int(bucket["region_blocks"]),
            }
            for engine, bucket in sorted(codegen.items())
        },
        "steady_state": {
            "repeats": STEADY_REPEATS,
            "threaded_kips": round(steady_threaded_ips / 1e3, 1),
            "jit_kips": round(steady_jit_ips / 1e3, 1),
            "region_kips": round(steady_region_ips / 1e3, 1),
            "jit_over_threaded": round(jit_speedup, 2),
            "region_over_jit": round(region_speedup, 2),
        },
        "evaluation": {
            "interp_seconds": round(evaluation["interp"], 4),
            "threaded_seconds": round(evaluation["threaded"], 4),
            "jit_seconds": round(evaluation["jit"], 4),
            "region_seconds": round(evaluation["region"], 4),
            "speedup": round(evaluation_speedup, 2),
        },
        "fuzz_campaign": {
            "profile": fuzz_report.profile,
            "programs": fuzz_report.programs,
            "engines": list(fuzz_report.engines),
            "instructions": fuzz_report.instructions,
            "wall_seconds": round(fuzz_report.wall_seconds, 4),
            "programs_per_second":
                round(fuzz_report.programs_per_second, 2),
            "instructions_per_second":
                round(fuzz_report.instructions_per_second, 1),
            "unexplained_divergences":
                fuzz_report.unexplained_divergences,
        },
        "per_benchmark": {
            name: {
                "instructions": threaded_results[name].instructions,
                "cycles": threaded_results[name].cycles,
            }
            for name, _ in programs
        },
        "thresholds": {
            "throughput_speedup": MIN_THROUGHPUT_SPEEDUP,
            "evaluation_speedup": MIN_EVALUATION_SPEEDUP,
            "jit_over_threaded": MIN_JIT_OVER_THREADED,
            "region_over_jit": MIN_REGION_OVER_JIT,
        },
    }
    bench_record.record("BENCH_simulator.json", record)

    assert throughput_speedup >= MIN_THROUGHPUT_SPEEDUP, record["suite"]
    assert evaluation_speedup >= MIN_EVALUATION_SPEEDUP, record["evaluation"]
    assert jit_speedup >= MIN_JIT_OVER_THREADED, record["steady_state"]
    assert region_speedup >= MIN_REGION_OVER_JIT, record["steady_state"]
    # The breakdown must actually have seen both source-generating
    # engines translate, and region fusion must have fired.
    assert codegen["jit"]["compiles"] + codegen["jit"]["cache_hits"] > 0
    assert codegen["region"]["regions"] > 0
    assert fuzz_report.programs == FUZZ_CAMPAIGN_SEEDS
    assert fuzz_report.programs_per_second > 0


def _timed_profile(run):
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def test_warm_pooled_profile_run_beats_cold_threaded():
    """The warp job's profile run, as the service ran it before warm
    systems (a cold ``threaded`` system built for the run) and after (a
    warm pooled system on the default engine), back to back per
    application, best of :data:`STEADY_REPEATS` alternating rounds.  A
    warm pooled ``threaded`` system is timed alongside, so the record
    separates what pooling alone gains from what the default engine adds."""
    programs = _suite_programs()
    processors = {"warm": WarpProcessor(config=PAPER_CONFIG),
                  "warm_threaded": WarpProcessor(config=PAPER_CONFIG,
                                                 engine="threaded")}

    def cold(program):
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="threaded")
        profiler = OnChipProfiler(BranchFrequencyCache(num_entries=16))
        return system.run(program, listeners=[profiler])

    apps = {}
    instructions = 0
    totals = {"cold": 0.0, "warm": 0.0, "warm_threaded": 0.0}
    for name, program in programs:
        # A text is pooled from its second run on; the third is warm.
        for processor in processors.values():
            processor.profile(program)
            processor.profile(program)
        best = dict.fromkeys(totals, float("inf"))
        for _ in range(STEADY_REPEATS):
            seconds, cold_result = _timed_profile(lambda: cold(program))
            best["cold"] = min(best["cold"], seconds)
            for label, processor in processors.items():
                seconds, (warm_result, _) = _timed_profile(
                    lambda: processor.profile(program))
                best[label] = min(best[label], seconds)
                # Bit-identical before any speed is compared.
                assert warm_result.stats == cold_result.stats, name
                assert warm_result.return_value == cold_result.return_value
                assert warm_result.data_image == cold_result.data_image, name
        count = cold_result.instructions
        instructions += count
        for label in totals:
            totals[label] += best[label]
        apps[name] = {
            "instructions": count,
            "cold_threaded_kips": round(count / best["cold"] / 1e3, 1),
            "warm_threaded_kips": round(count / best["warm_threaded"] / 1e3,
                                        1),
            "warm_pooled_kips": round(count / best["warm"] / 1e3, 1),
            "ratio": round(best["cold"] / best["warm"], 2),
        }
    ratio = totals["cold"] / totals["warm"]
    block = {
        "engine": DEFAULT_ENGINE,
        "repeats": STEADY_REPEATS,
        "apps": apps,
        "cold_threaded_kips": round(instructions / totals["cold"] / 1e3, 1),
        "warm_threaded_kips": round(
            instructions / totals["warm_threaded"] / 1e3, 1),
        "warm_pooled_kips": round(instructions / totals["warm"] / 1e3, 1),
        "warm_threaded_over_cold": round(
            totals["cold"] / totals["warm_threaded"], 2),
        "warm_over_cold": round(ratio, 2),
        "thresholds": {"warm_over_cold": MIN_WARM_OVER_COLD_PROFILE},
    }
    bench_record.record("BENCH_simulator.json", block, block="warm_profile")

    assert ratio >= MIN_WARM_OVER_COLD_PROFILE, block


@pytest.mark.parametrize("engine", ["threaded", "jit", "region"])
def test_engine_throughput_floor(benchmark, engine):
    """Absolute per-run throughput of both fast engines (trend metric).

    Both non-reference engines sit in the benchmark matrix so a
    regression in either shows up in the recorded trend, not just in the
    relative floors above.
    """
    name, program = _suite_programs()[0]  # brev

    result = benchmark(run_program, program, PAPER_CONFIG, engine=engine)
    assert result.stats.halted
