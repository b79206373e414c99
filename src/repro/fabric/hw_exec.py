"""Cycle-counted functional execution of hardware kernels.

Two pieces live here:

* :class:`WclaExecutionEngine` — runs the decompiled kernel's dataflow
  graph against the data block RAM, iteration by iteration, exactly as the
  configured WCLA would, and converts the iteration count into WCLA clock
  cycles using the implementation's initiation interval and pipeline depth.
* :class:`WclaPeripheral` — the on-chip-peripheral-bus face of the WCLA
  (Figure 2): the patched application writes the kernel's live-in registers
  into the peripheral's register file, pokes the start register, reads the
  live-out registers back, and continues after the loop.  The peripheral
  accumulates the hardware cycles and invocation counts that the warp
  execution model and the energy model consume.

The engine lifts each kernel body once into the source of one
straight-line Python function that runs the whole invocation loop
(:func:`compile_kernel_body`) — the datapath analogue of the jit CPU
engine's one function per superblock.  Live-in registers become locals,
every DAG node becomes one local statement computed at most once per
iteration (a sub-term shared by many consumers costs one evaluation, as
one adder feeding many wires does in the hardware), and each Mux arm and
each guarded store becomes an ``if`` block.  The generated code keeps the
WCLA's evaluation order exactly:

* per iteration, the register updates in dict order, then the stores in
  list order, then the continue condition, then the registered commit of
  the updates; an invocation that would start iteration
  ``max_iterations + 1`` raises :class:`HardwareExecutionError` instead;
* a Mux evaluates only its chosen arm, and a guarded store evaluates its
  address and value only when its guard holds;
* a Load reads memory at most once per iteration, at its first demand
  point, so a load first demanded after a store sees the stored value and
  the data BRAM's port-B access count is that of the reference semantics.

:func:`repro.decompile.expr.evaluate` stays the independent oracle the
generated code is tested against.

Because the engine executes the *decompiled* dataflow graph rather than the
original instructions, a matching checksum between the software-only run
and the warp-processed run is genuine evidence that decompilation,
synthesis and binary patching preserved the application's semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

from .. import obs
from ..caching import BoundedLRU
from ..decompile.expr import (
    WORD_MASK,
    BinExpr,
    Condition,
    Const,
    LiveIn,
    Load,
    Mux,
    Node,
    OpKind,
    UnExpr,
)
from ..decompile.symexec import SymbolicLoopBody
from ..microblaze.engines.jit import record_translation
from ..microblaze.memory import BlockRAM
from .implementation import HardwareImplementation


class HardwareExecutionError(Exception):
    """Raised when a hardware kernel fails to terminate within its budget."""


@dataclass
class KernelInvocation:
    """Statistics of one hardware invocation of the kernel."""

    iterations: int
    hw_cycles: int


# Operand sources are unsigned 32-bit words (locals, or masked literals), so
# results that cannot leave that range carry no mask.  ``x ^ 0x80000000``
# maps signed order onto unsigned order, and ``(x ^ 0x80000000) -
# 0x80000000`` is the signed value of ``x``.
_BINARY = {
    OpKind.ADD: "({a} + {b}) & 0xFFFFFFFF",
    OpKind.SUB: "({a} - {b}) & 0xFFFFFFFF",
    OpKind.MUL: "({a} * {b}) & 0xFFFFFFFF",
    OpKind.AND: "{a} & {b}",
    OpKind.OR: "{a} | {b}",
    OpKind.XOR: "{a} ^ {b}",
    OpKind.ANDN: "{a} & ~{b}",
    OpKind.SHL: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    OpKind.SHR_LOGICAL: "{a} >> ({b} & 31)",
    OpKind.SHR_ARITH:
        "((({a} ^ 0x80000000) - 0x80000000) >> ({b} & 31)) & 0xFFFFFFFF",
    OpKind.CMP_SIGN: "1 if ({b} ^ 0x80000000) > ({a} ^ 0x80000000) "
                     "else 0 if {a} == {b} else 0xFFFFFFFF",
    OpKind.CMP_SIGN_U: "1 if {b} > {a} else 0 if {a} == {b} else 0xFFFFFFFF",
}

_UNARY = {
    OpKind.NEG: "-{a} & 0xFFFFFFFF",
    OpKind.NOT: "{a} ^ 0xFFFFFFFF",
    OpKind.SEXT8: "{a} | 0xFFFFFF00 if {a} & 0x80 else {a} & 0xFF",
    OpKind.SEXT16: "{a} | 0xFFFF0000 if {a} & 0x8000 else {a} & 0xFFFF",
}

#: ``value <relation> 0`` over the signed reading of an unsigned word.
_RELATIONS = {
    "eq": "{a} == 0",
    "ne": "{a} != 0",
    "lt": "{a} >= 0x80000000",
    "le": "{a} >= 0x80000000 or {a} == 0",
    "gt": "0 < {a} < 0x80000000",
    "ge": "{a} < 0x80000000",
}


class _KernelEmitter:
    """Emits the statements of one loop iteration, one local per DAG node.

    Locals are named in first-demand order (``v0``, ``v1``, ...), so
    structurally equal bodies produce identical source.  An ``available``
    set holds the nodes whose locals are assigned on every path to the
    current point of the iteration; a node outside it is computed where it
    is demanded.  Recomputing is free of side effects for every node but a
    Load, so a Load whose read already sits on some earlier path, but not
    on every one, is guarded by a per-iteration ``-1`` sentinel instead
    and reads memory at most once per iteration.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.names: Dict[int, str] = {}
        self.registers: Set[int] = set()
        self.read_loads: Set[int] = set()
        self.sentinels: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def value(self, node: Node, available: Set[int], indent: int) -> str:
        """Source of ``node``'s value, emitting the statements computing it."""
        if isinstance(node, Const):
            return str(node.value & WORD_MASK)
        if isinstance(node, LiveIn):
            self.registers.add(node.register)
            return f"s{node.register}"
        key = id(node)
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"v{len(self.names)}"
        if key in available:
            return name
        if isinstance(node, Load):
            self._load(node, name, available, indent)
        elif isinstance(node, Mux):
            self._mux(node, name, available, indent)
        elif isinstance(node, Condition):
            test = self.test(node, available, indent)
            self.emit(indent, f"{name} = 1 if {test} else 0")
        elif isinstance(node, BinExpr):
            template = _BINARY.get(node.op)
            if template is None:
                raise ValueError(f"unknown binary op {node.op}")
            left = self.value(node.left, available, indent)
            right = self.value(node.right, available, indent)
            self.emit(indent, f"{name} = " + template.format(a=left, b=right))
        elif isinstance(node, UnExpr):
            template = _UNARY.get(node.op)
            if template is None:
                raise ValueError(f"unknown unary op {node.op}")
            operand = self.value(node.operand, available, indent)
            self.emit(indent, f"{name} = " + template.format(a=operand))
        else:
            raise TypeError(f"cannot compile node {node!r}")
        available.add(key)
        return name

    def test(self, node: Node, available: Set[int], indent: int) -> str:
        """Source of ``node`` as a branch condition."""
        if isinstance(node, Condition) and id(node) not in available:
            template = _RELATIONS.get(node.relation)
            if template is None:
                raise ValueError(
                    f"unknown condition relation {node.relation!r}")
            return template.format(a=self.value(node.value, available, indent))
        return self.value(node, available, indent)

    def _load(self, node: Load, name: str, available: Set[int],
              indent: int) -> None:
        read = f"{name} = rd({{}}, {node.width}) & 0xFFFFFFFF"
        if id(node) in self.read_loads:
            if name not in self.sentinels:
                self.sentinels.append(name)
            self.emit(indent, f"if {name} < 0:")
            address = self.value(node.address, set(available), indent + 1)
            self.emit(indent + 1, read.format(address))
        else:
            address = self.value(node.address, available, indent)
            self.emit(indent, read.format(address))
            self.read_loads.add(id(node))

    def _mux(self, node: Mux, name: str, available: Set[int],
             indent: int) -> None:
        self.emit(indent, f"if {self.test(node.condition, available, indent)}:")
        chosen = set(available)
        arm = self.value(node.if_true, chosen, indent + 1)
        self.emit(indent + 1, f"{name} = {arm}")
        self.emit(indent, "else:")
        other = set(available)
        arm = self.value(node.if_false, other, indent + 1)
        self.emit(indent + 1, f"{name} = {arm}")
        available |= chosen & other


def kernel_source(body: SymbolicLoopBody) -> str:
    """Python source of ``_kernel(live_in, rd, wr, limit)`` for ``body``.

    The function runs the whole invocation loop and returns
    ``(iterations, live_out)``, or ``None`` when the loop would start
    iteration ``limit + 1``.  Each iteration keeps the WCLA's order:
    register updates in dict order, then stores in list order (a guarded
    store computes its address and value only when its guard holds), then
    the continue condition, then the registered commit of the updates.  A
    Mux computes only its chosen arm, and a Load reads memory at its first
    demand point, so a load first demanded after a store sees the stored
    value.
    """
    emitter = _KernelEmitter()
    top: Set[int] = set()
    updates = [(register, emitter.value(expr, top, 2))
               for register, expr in body.register_updates.items()]
    for store in body.stores:
        indent, scope = 2, top
        if store.guard is not None:
            emitter.emit(2, f"if {emitter.test(store.guard, top, 2)}:")
            indent, scope = 3, set(top)
        address = emitter.value(store.address, scope, indent)
        value = emitter.value(store.value, scope, indent)
        emitter.emit(indent, f"wr({address}, {value}, {store.width})")
    keep_running = emitter.test(body.continue_condition, top, 2)
    live_out = ", ".join(f"{register}: {value}" for register, value in updates)
    emitter.emit(2, f"if not ({keep_running}):")
    emitter.emit(3, f"return it, {{{live_out}}}")
    commit = [(register, value) for register, value in updates
              if register in emitter.registers]
    if commit:
        emitter.emit(2, ", ".join(f"s{register}" for register, _ in commit)
                     + " = " + ", ".join(value for _, value in commit))
    lines = ["def _kernel(live_in, rd, wr, limit):"]
    lines += [f"    s{register} = live_in.get({register}, 0) & 0xFFFFFFFF"
              for register in sorted(emitter.registers)]
    lines.append("    for it in range(1, limit + 1):")
    lines += [f"        {name} = -1" for name in emitter.sentinels]
    lines += emitter.lines
    lines.append("    return None")
    return "\n".join(lines) + "\n"


#: Process-wide source -> function cache.  The source names no kernel
#: address and binds no state (memory ports and the iteration limit arrive
#: as arguments), so it is a complete content address for the function:
#: re-running a kernel — a fresh system per service job, repeated sweeps —
#: skips the byte-compile.
_KERNEL_CACHE = BoundedLRU(maxsize=1024)


def _define(source: str) -> Callable:
    namespace: Dict[str, object] = {}
    exec(compile(source, "<wcla kernel>", "exec"), namespace)
    return namespace["_kernel"]


def compile_kernel_body(body: SymbolicLoopBody) -> Callable:
    """The generated invocation loop of ``body`` (see :func:`kernel_source`).

    Translations are counted in the ``warp_codegen_*`` accounting under
    engine ``wcla``, kind ``kernel``.
    """
    start = time.perf_counter()
    source = kernel_source(body)
    hits_before = _KERNEL_CACHE.hits
    kernel = _KERNEL_CACHE.get_or_create(source, lambda: _define(source))
    record_translation("wcla", "kernel", _KERNEL_CACHE.hits > hits_before,
                       time.perf_counter() - start)
    return kernel


def _collect_kernel_cache_metrics(registry) -> None:
    registry.gauge(
        "warp_codegen_cache_entries",
        "Entries in the process-wide generated-source code cache",
    ).set(float(len(_KERNEL_CACHE)), engine="wcla", kind="kernel")


obs.add_collector(_collect_kernel_cache_metrics)


class WclaExecutionEngine:
    """Functionally executes one kernel's dataflow graph.

    The body is compiled once, at engine construction, into one generated
    function (:func:`compile_kernel_body`) that runs a whole invocation in
    the WCLA's evaluation order (see the module docstring).  An invocation
    that would run more than ``max_iterations`` iterations raises
    :class:`HardwareExecutionError`.
    """

    def __init__(self, implementation: HardwareImplementation,
                 max_iterations_per_invocation: int = 5_000_000):
        self.implementation = implementation
        self.kernel = implementation.kernel
        self.body = implementation.kernel.body
        self.max_iterations = max_iterations_per_invocation
        self._run = compile_kernel_body(self.body)

    def execute(
        self,
        live_in: Dict[int, int],
        memory_read: Callable[[int, int], int],
        memory_write: Callable[[int, int, int], None],
    ) -> Tuple[Dict[int, int], KernelInvocation]:
        """Run the kernel until its continue condition fails.

        ``live_in`` maps architectural register numbers to their values at
        loop entry; the returned dictionary holds the values of every
        register the loop writes, as of loop exit.
        """
        outcome = self._run(live_in, memory_read, memory_write,
                            self.max_iterations)
        if outcome is None:
            raise HardwareExecutionError(
                f"kernel at {self.kernel.region.start_address:#x} exceeded "
                f"{self.max_iterations} iterations"
            )
        iterations, live_out = outcome
        invocation = KernelInvocation(
            iterations=iterations,
            hw_cycles=self.implementation.cycles_for_iterations(iterations),
        )
        return live_out, invocation


class WclaPeripheral:
    """The WCLA as a memory-mapped peripheral on the on-chip peripheral bus.

    Register map (word offsets within the peripheral window):

    ========  ====================================================
    offset    contents
    ========  ====================================================
    0x00-0x7C the 32-entry register file mirroring MicroBlaze
              architectural registers (live-in written by the
              invocation stub, live-out read back by it)
    0x80      control: writing 1 starts the configured kernel
    0x84      status: reads 1 once the kernel has completed
    0x88      total hardware cycles consumed so far (low 32 bits)
    0x8C      number of kernel invocations so far
    ========  ====================================================
    """

    CONTROL_OFFSET = 0x80
    STATUS_OFFSET = 0x84
    CYCLES_OFFSET = 0x88
    INVOCATIONS_OFFSET = 0x8C
    WINDOW_SIZE = 0x100

    def __init__(self, base_address: int, implementation: HardwareImplementation,
                 data_bram: BlockRAM, name: str = "wcla"):
        self.base_address = base_address
        self.window_size = self.WINDOW_SIZE
        self.name = name
        self.implementation = implementation
        self.data_bram = data_bram
        self.engine = WclaExecutionEngine(implementation)
        self.register_file = [0] * 32
        self.done = True
        self.invocations = 0
        self.total_hw_cycles = 0
        self.total_iterations = 0

    # ------------------------------------------------------------------- bus API
    def read(self, offset: int) -> int:
        if offset < 0x80:
            return self.register_file[(offset // 4) % 32]
        if offset == self.STATUS_OFFSET:
            return 1 if self.done else 0
        if offset == self.CYCLES_OFFSET:
            return self.total_hw_cycles & 0xFFFFFFFF
        if offset == self.INVOCATIONS_OFFSET:
            return self.invocations & 0xFFFFFFFF
        return 0

    def write(self, offset: int, value: int) -> None:
        if offset < 0x80:
            self.register_file[(offset // 4) % 32] = value & 0xFFFFFFFF
            return
        if offset == self.CONTROL_OFFSET and value & 1:
            self._run_kernel()

    def tick(self, cycles: int) -> None:  # pragma: no cover - time handled analytically
        return None

    # ------------------------------------------------------------ checkpointing
    def snapshot_state(self) -> Dict:
        """Device state for the system checkpoint (configuration — the
        implementation and its compiled kernel function — is rebuilt by
        whoever reconstructs the peripheral, not carried in the blob)."""
        return {
            "register_file": list(self.register_file),
            "done": self.done,
            "invocations": self.invocations,
            "total_hw_cycles": self.total_hw_cycles,
            "total_iterations": self.total_iterations,
        }

    def restore_state(self, state: Dict) -> None:
        self.register_file[:] = state["register_file"]
        self.done = state["done"]
        self.invocations = state["invocations"]
        self.total_hw_cycles = state["total_hw_cycles"]
        self.total_iterations = state["total_iterations"]

    # ------------------------------------------------------------------- engine
    def _run_kernel(self) -> None:
        kernel = self.implementation.kernel
        live_in = {register: self.register_file[register]
                   for register in kernel.live_in_registers}
        live_out, invocation = self.engine.execute(
            live_in, self.data_bram.load_port_b, self.data_bram.store_port_b
        )
        for register, value in live_out.items():
            self.register_file[register] = value & 0xFFFFFFFF
        self.invocations += 1
        self.total_iterations += invocation.iterations
        self.total_hw_cycles += invocation.hw_cycles
        self.done = True

    # ------------------------------------------------------------------ results
    @property
    def total_hw_seconds(self) -> float:
        return self.total_hw_cycles / (self.implementation.clock_mhz * 1e6)

    def publish_totals(self) -> None:
        """Count this peripheral's kernel invocations and iterations in the
        live metrics.  Called once per warped run, so the per-invocation
        path carries no telemetry gate."""
        if obs.ACTIVE is not None:
            obs.inc("warp_hw_invocations_total", self.invocations,
                    help_text="Hardware-kernel invocations on the WCLA")
            obs.inc("warp_hw_iterations_total", self.total_iterations,
                    help_text="Hardware-kernel loop iterations on the WCLA")
