"""WCLA hardware-model benchmark: generated kernel code vs the oracle.

The warped run of every paper application executes its kernel through
:class:`~repro.fabric.hw_exec.WclaExecutionEngine`, which runs one
generated Python function per kernel body.  This benchmark times that
hardware model against an ``evaluate()``-driven reference loop (the
dataflow oracle of :mod:`repro.decompile.expr`) on the same full-size
warped runs, back to back in one process, and asserts the floor:

* **per application**, the generated engine's hardware-model time is at
  least :data:`MIN_SPEEDUP` times below the reference loop's.

Both runs must leave the same data memory and the same iteration counts.
The per-application ratios and microseconds per kernel iteration are
appended to ``BENCH_cad.json`` at the repository root.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.decompile.expr import evaluate
from repro.fabric.hw_exec import (
    HardwareExecutionError,
    KernelInvocation,
    WclaPeripheral,
)
from repro.microblaze import PAPER_CONFIG
from repro.microblaze.system import MicroBlazeSystem
from repro.warp import WarpProcessor

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cad.json"

#: Acceptance floor: reference-loop time / generated-engine time, per app.
MIN_SPEEDUP = 5.0

#: Alternating timed repetitions per engine (best-of damps scheduler noise).
REPEATS = 3


def reference_execute(body, live_in, memory_read, memory_write,
                      max_iterations):
    """The WCLA's registered semantics, each root through ``evaluate()``."""
    state = dict(live_in)
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise HardwareExecutionError(
                f"exceeded {max_iterations} iterations")
        loads = {}
        updates = {register: evaluate(expr, state, memory_read, loads)
                   for register, expr in body.register_updates.items()}
        for store in body.stores:
            if store.guard is not None \
                    and not evaluate(store.guard, state, memory_read, loads):
                continue
            address = evaluate(store.address, state, memory_read, loads)
            value = evaluate(store.value, state, memory_read, loads)
            memory_write(address, value, store.width)
        keep_running = evaluate(body.continue_condition, state, memory_read,
                                loads)
        state.update(updates)
        if not keep_running:
            return ({register: state[register]
                     for register in body.register_updates}, iterations)


def _timed_warped_run(program, outcome, base_address, reference):
    """One warped run; returns (hardware-model seconds, iterations, data
    memory bytes)."""
    system = MicroBlazeSystem(config=PAPER_CONFIG)
    system.load(program)
    implementation = outcome.implementation
    peripheral = WclaPeripheral(base_address, implementation,
                                system.data_bram)
    engine = peripheral.engine
    execute = engine.execute
    if reference:
        def execute(live_in, memory_read, memory_write):
            live_out, iterations = reference_execute(
                implementation.kernel.body, live_in, memory_read,
                memory_write, engine.max_iterations)
            return live_out, KernelInvocation(
                iterations=iterations,
                hw_cycles=implementation.cycles_for_iterations(iterations))

    elapsed = [0.0]

    def timed(live_in, memory_read, memory_write):
        start = time.perf_counter()
        try:
            return execute(live_in, memory_read, memory_write)
        finally:
            elapsed[0] += time.perf_counter() - start

    engine.execute = timed
    system.attach_peripheral(peripheral)
    system.run()
    return (elapsed[0], peripheral.total_iterations,
            bytes(system.data_bram.storage))


def test_generated_hw_model_beats_reference_loop(compiled_programs):
    processor = WarpProcessor(config=PAPER_CONFIG)
    base = processor.wcla_base_address
    apps = {}
    for name, program in compiled_programs.items():
        _, profiler = processor.profile(program)
        patched = program.copy()
        outcome = processor.dpm.partition(patched,
                                          profiler.most_critical_region())
        assert outcome.success, (name, outcome.reason)
        seconds = {False: [], True: []}
        states = set()
        for _ in range(REPEATS):
            for reference in (False, True):
                elapsed, iterations, image = _timed_warped_run(
                    patched, outcome, base, reference)
                seconds[reference].append(elapsed)
                states.add((iterations, image))
        # Both hardware models must leave the same state on every run
        # before their speeds are compared.
        assert len(states) == 1, name
        ((iterations, _),) = states
        generated, reference = min(seconds[False]), min(seconds[True])
        apps[name] = {
            "iterations": iterations,
            "generated_us_per_iter": round(generated * 1e6 / iterations, 3),
            "reference_us_per_iter": round(reference * 1e6 / iterations, 3),
            "speedup": round(reference / generated, 2),
        }

    block = {
        "apps": apps,
        "min_speedup": min(app["speedup"] for app in apps.values()),
        "thresholds": {"min_speedup_vs_reference": MIN_SPEEDUP},
    }
    payload = {"latest": {}, "history": []}
    if BENCH_PATH.exists():
        try:
            payload = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            pass
    payload.setdefault("latest", {})["hw_model"] = block
    history = payload.setdefault("history", [])
    history.append({
        "hw_model": block,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    })
    payload["history"] = history[-20:]
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    for name, app in apps.items():
        assert app["speedup"] >= MIN_SPEEDUP, (name, app)
