"""Differential tests of the WCLA hardware model's generated kernel code.

:class:`~repro.fabric.hw_exec.WclaExecutionEngine` compiles each kernel
body into one generated Python function.  These tests run random kernel
bodies, and the six paper applications end to end, both through the engine
and through :func:`reference_execute` below — the WCLA's registered
semantics written directly over the :func:`~repro.decompile.expr.evaluate`
oracle — and require identical live-out registers, iteration counts,
memory bytes and port-B access counts.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.decompile.expr import ExpressionBuilder, OpKind, StoreOp, evaluate
from repro.decompile.symexec import SymbolicLoopBody
from repro.fabric.hw_exec import (
    HardwareExecutionError,
    KernelInvocation,
    WclaExecutionEngine,
    WclaPeripheral,
)
from repro.microblaze import PAPER_CONFIG
from repro.microblaze.memory import BlockRAM
from repro.microblaze.system import MicroBlazeSystem
from repro.warp import WarpProcessor

UNARY_OPS = (OpKind.NEG, OpKind.NOT, OpKind.SEXT8, OpKind.SEXT16)
BINARY_OPS = tuple(op for op in OpKind if op not in UNARY_OPS)
RELATIONS = ("eq", "ne", "lt", "le", "gt", "ge")
WIDTHS = (1, 2, 4)
MEMORY_BYTES = 64
#: Address mask keeping every access of every width inside the memory.
ADDRESS_MASK = MEMORY_BYTES - 4
#: Registers the random bodies read and write; ``live_in`` supplies only
#: some of them, so absent registers read as 0.
REGISTERS = tuple(range(1, 7))
KERNEL_START = 0x40


def reference_execute(body, live_in, memory_read, memory_write,
                      max_iterations):
    """One invocation: register updates, stores, continue condition, then
    the registered commit, each root evaluated by ``evaluate()``."""
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


def _engine(body, max_iterations):
    kernel = SimpleNamespace(body=body,
                             region=SimpleNamespace(start_address=KERNEL_START))
    implementation = SimpleNamespace(
        kernel=kernel, cycles_for_iterations=lambda n: 3 + 2 * n)
    return WclaExecutionEngine(implementation,
                               max_iterations_per_invocation=max_iterations)


def _body(builder, register_updates, stores, continue_condition):
    return SymbolicLoopBody(builder=builder, region=None,
                            register_updates=register_updates,
                            stores=stores,
                            continue_condition=continue_condition)


def _run_both(body, live_in, image, max_iterations):
    """(outcome, memory bytes, port-B accesses) of the engine and of the
    reference; an outcome is ``(live_out, iterations)`` or the exception
    type raised."""
    runs = []
    for hardware in (True, False):
        bram = BlockRAM(len(image))
        bram.storage[:] = image
        try:
            if hardware:
                live_out, invocation = _engine(body, max_iterations).execute(
                    dict(live_in), bram.load_port_b, bram.store_port_b)
                outcome = (live_out, invocation.iterations)
            else:
                outcome = reference_execute(
                    body, dict(live_in), bram.load_port_b,
                    bram.store_port_b, max_iterations)
        except HardwareExecutionError as error:
            outcome = type(error)
        runs.append((outcome, bytes(bram.storage), bram.port_b_accesses))
    return runs


# ------------------------------------------------------------ random bodies
@st.composite
def kernel_cases(draw):
    """A random kernel body, live-in registers and memory image.

    Nodes draw their operands from every node built so far, so the DAG
    shares sub-terms; Loads, Muxes and Conditions mix freely, which puts
    Loads inside Mux arms, guards and store values, and puts a Load's
    first demand before or after stores to the same address.
    """
    builder = ExpressionBuilder()
    sequence = itertools.count()
    pool = [builder.live_in(register) for register in REGISTERS]
    pool += [builder.const(draw(st.integers(0, 0xFFFFFFFF)))
             for _ in range(2)]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    def address():
        return builder.binary(OpKind.AND, pick(), builder.const(ADDRESS_MASK))

    def condition():
        return builder.condition(pick(), draw(st.sampled_from(RELATIONS)))

    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(
            ("binary", "unary", "load", "mux", "condition")))
        if kind == "binary":
            node = builder.binary(draw(st.sampled_from(BINARY_OPS)),
                                  pick(), pick())
        elif kind == "unary":
            node = builder.unary(draw(st.sampled_from(UNARY_OPS)), pick())
        elif kind == "load":
            node = builder.load(address(), draw(st.sampled_from(WIDTHS)),
                                next(sequence))
        elif kind == "mux":
            test = condition() if draw(st.booleans()) else pick()
            node = builder.mux(test, pick(), pick())
        else:
            node = condition()
        pool.append(node)

    # Register 7 is written but never supplied: it exercises an update
    # target absent from ``live_in``.
    targets = draw(st.lists(st.sampled_from(REGISTERS + (7,)), unique=True,
                            max_size=5))
    register_updates = {register: pick() for register in targets}
    stores = []
    for _ in range(draw(st.integers(0, 4))):
        guard = None
        if draw(st.booleans()):
            guard = condition() if draw(st.booleans()) else pick()
        stores.append(StoreOp(address=address(), value=pick(),
                              width=draw(st.sampled_from(WIDTHS)),
                              guard=guard, sequence=next(sequence)))
    if draw(st.booleans()):
        # A counted loop on register 1, stopping within the budget.
        step = builder.binary(OpKind.ADD, builder.live_in(1),
                              builder.const(-1))
        register_updates[1] = step
        continue_condition = builder.condition(step, "gt")
        live_in = {1: draw(st.integers(1, 6))}
    else:
        # An arbitrary condition: the loop may exceed the budget.
        continue_condition = condition() if draw(st.booleans()) else pick()
        live_in = {}
    for register in draw(st.lists(st.sampled_from(REGISTERS), unique=True)):
        live_in.setdefault(register, draw(st.integers(0, 0xFFFFFFFF)))
    image = draw(st.binary(min_size=MEMORY_BYTES, max_size=MEMORY_BYTES))
    body = _body(builder, register_updates, stores, continue_condition)
    return body, live_in, image


@given(kernel_cases())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_kernel_matches_reference(case):
    body, live_in, image = case
    hardware, reference = _run_both(body, live_in, image, max_iterations=8)
    assert hardware == reference


# -------------------------------------------------------- directed shapes
def test_every_operator_and_relation_matches_reference():
    builder = ExpressionBuilder()
    a, b = builder.live_in(1), builder.live_in(2)
    values = [builder.binary(op, a, b) for op in BINARY_OPS]
    values += [builder.unary(op, a) for op in UNARY_OPS]
    values += [builder.condition(value, relation)
               for value in (a, b) for relation in RELATIONS]
    register_updates = {3 + index: value for index, value in enumerate(values)}
    body = _body(builder, register_updates, [], builder.const(0))
    samples = (0, 1, 31, 32, 0x7F, 0x80, 0x7FFF, 0x8000, 0x7FFFFFFF,
               0x80000000, 0xFFFFFFFE, 0xFFFFFFFF)
    for left, right in itertools.product(samples, repeat=2):
        hardware, reference = _run_both(body, {1: left, 2: right},
                                        bytes(MEMORY_BYTES), 1)
        assert hardware == reference, (left, right)


def test_load_first_demanded_after_a_store_sees_the_stored_value():
    builder = ExpressionBuilder()
    address = builder.const(8)
    loaded = builder.load(address, 4, 0)
    stores = [
        StoreOp(address=address, value=builder.live_in(1), sequence=1),
        StoreOp(address=builder.const(12),
                value=builder.binary(OpKind.ADD, loaded, builder.const(1)),
                sequence=2),
    ]
    body = _body(builder, {}, stores, builder.condition(loaded, "eq"))
    hardware, reference = _run_both(body, {1: 41}, bytes(MEMORY_BYTES), 4)
    assert hardware == reference
    (live_out, iterations), image, accesses = hardware
    assert iterations == 1
    assert int.from_bytes(image[12:16], "little") == 42
    # store, load (once, despite two consumers), store
    assert accesses == 3


def test_mux_reads_only_the_chosen_arm_and_guards_skip_stores():
    builder = ExpressionBuilder()
    selector = builder.condition(builder.live_in(1), "ne")
    loaded = {offset: builder.load(builder.const(offset), 4, offset)
              for offset in (0, 4)}
    chosen = builder.mux(selector, loaded[0], loaded[4])
    guarded = StoreOp(address=builder.const(16), value=loaded[4],
                      guard=builder.condition(builder.live_in(1), "eq"))
    body = _body(builder, {2: chosen}, [guarded], builder.const(0))
    image = bytes(range(MEMORY_BYTES))
    for selected in (0, 1):
        hardware, reference = _run_both(body, {1: selected}, image, 1)
        assert hardware == reference
        # One arm read; when the false arm ran, the guarded store reuses
        # its load and writes.
        assert hardware[2] == (1 if selected else 2)


def test_exceeding_max_iterations_raises():
    # The loop runs exactly five iterations: a budget of five completes,
    # a budget of four raises before a fifth iteration starts.
    builder = ExpressionBuilder()
    counter = builder.binary(OpKind.ADD, builder.live_in(1), builder.const(1))
    body = _body(builder, {1: counter}, [],
                 builder.condition(builder.binary(OpKind.SUB, counter,
                                                  builder.const(5)), "ne"))
    bram = BlockRAM(MEMORY_BYTES)
    live_out, invocation = _engine(body, max_iterations=5).execute(
        {1: 0}, bram.load_port_b, bram.store_port_b)
    assert live_out == {1: 5}
    assert invocation == KernelInvocation(iterations=5, hw_cycles=13)
    with pytest.raises(HardwareExecutionError,
                       match=f"kernel at {KERNEL_START:#x} exceeded 4 "
                             "iterations"):
        _engine(body, max_iterations=4).execute(
            {1: 0}, bram.load_port_b, bram.store_port_b)
    hardware, reference = _run_both(body, {1: 0}, bytes(MEMORY_BYTES), 4)
    assert hardware == reference
    assert hardware[0] is HardwareExecutionError


# ---------------------------------------------------------- paper apps
def _warped_state(program, outcome, base_address, reference):
    system = MicroBlazeSystem(config=PAPER_CONFIG)
    system.load(program)
    peripheral = WclaPeripheral(base_address, outcome.implementation,
                                system.data_bram)
    if reference:
        engine = peripheral.engine
        implementation = outcome.implementation

        def execute(live_in, memory_read, memory_write):
            live_out, iterations = reference_execute(
                implementation.kernel.body, live_in, memory_read,
                memory_write, engine.max_iterations)
            return live_out, KernelInvocation(
                iterations=iterations,
                hw_cycles=implementation.cycles_for_iterations(iterations))

        engine.execute = execute
    system.attach_peripheral(peripheral)
    result = system.run()
    return {
        "bram": bytes(system.data_bram.storage),
        "port_b_accesses": system.data_bram.port_b_accesses,
        "register_file": list(peripheral.register_file),
        "invocations": peripheral.invocations,
        "iterations": peripheral.total_iterations,
        "hw_cycles": peripheral.total_hw_cycles,
        "return_value": result.return_value,
        "cycles": result.stats.cycles,
    }


@pytest.mark.parametrize("name", ["brev", "g3fax", "canrdr", "bitmnp",
                                  "idct", "matmul"])
def test_paper_apps_match_reference_end_to_end(name, compiled_small_programs):
    processor = WarpProcessor(config=PAPER_CONFIG)
    program = compiled_small_programs[name]
    _, profiler = processor.profile(program)
    patched = program.copy()
    outcome = processor.dpm.partition(patched,
                                      profiler.most_critical_region())
    assert outcome.success, outcome.reason
    base = processor.wcla_base_address
    hardware = _warped_state(patched, outcome, base, reference=False)
    reference = _warped_state(patched, outcome, base, reference=True)
    assert hardware["invocations"] > 0
    assert hardware == reference


def test_kernel_translations_and_hw_totals_reach_live_metrics(
        compiled_small_programs):
    with obs.active_telemetry() as telemetry:
        result = WarpProcessor(config=PAPER_CONFIG).run(
            compiled_small_programs["matmul"].copy())
        snapshot = telemetry.snapshot()

    def samples(family):
        return {tuple(sorted(sample["labels"].items())): sample["value"]
                for sample in snapshot[family]["samples"]}

    assert result.hw_invocations > 0
    assert samples("warp_hw_invocations_total") == {(): result.hw_invocations}
    assert samples("warp_hw_iterations_total") == {(): result.hw_iterations}
    kernel = (("engine", "wcla"), ("kind", "kernel"))
    translations = sum(samples(family).get(kernel, 0)
                       for family in ("warp_codegen_compiles",
                                      "warp_codegen_cache_hits")
                       if family in snapshot)
    assert translations == 1
    assert samples("warp_codegen_cache_entries")[kernel] >= 1
    assert kernel in {tuple(sorted(sample["labels"].items()))
                      for sample in snapshot["warp_codegen_compile_ms"]
                      ["samples"]}
    events = samples("warp_codegen_events")
    assert events[(("engine", "wcla"), ("kind", "compiles"))] \
        + events[(("engine", "wcla"), ("kind", "cache_hits"))] >= 1
