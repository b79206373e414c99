"""The host-speed probe every timing is scaled by.

The benchmark runs on a few cores of a shared host.  Other tenants slow
the whole host down and up again, within seconds, by up to 1.9x, and
code like the simulator's (pure Python, dispatching through tables,
touching a working set of its own) slows more than a tight loop does.
The probe is such code: a tiny register machine, written here and sharing
no code with ``repro``, runs one fixed program over a fixed memory.  How
long it takes says how fast the host runs that kind of code at that
moment; no change to the program under test can move it.

A timing taken while the probe read ``p`` seconds is reported as
``timing * PROBE_REFERENCE_S / p``: seconds on a host on which the probe
takes :data:`PROBE_REFERENCE_S`.  Ops are scaled by the probes taken just
before and just after them, set-ups by probes before, at the start of,
during and after them.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, List, Sequence, Tuple

#: Seconds one probe takes on the reference host.  It is about the probe's
#: time on an idle 2-CPU container, so that scaled figures there read
#: close to host seconds.
PROBE_REFERENCE_S = 0.002
#: Probes taken at each probe point of a set-up: before its process
#: starts, when it starts, between set-up steps and when it is done.
SETUP_PROBES = 5

#: Words of the machine's memory; addresses wrap within it.
MEMORY_WORDS = 1 << 16
MASK32 = 0xFFFFFFFF
#: Passes over the program per probe.
PASSES = 160


def _add(regs: List[int], memory: List[int], a: int, b: int, c: int) -> None:
    regs[a] = (regs[b] + regs[c]) & MASK32


def _xor(regs: List[int], memory: List[int], a: int, b: int, c: int) -> None:
    regs[a] = regs[b] ^ ((regs[c] << 1) & MASK32)


def _addi(regs: List[int], memory: List[int], a: int, b: int, c: int) -> None:
    regs[a] = (regs[b] + c) & MASK32


def _load(regs: List[int], memory: List[int], a: int, b: int, c: int) -> None:
    regs[a] = memory[(regs[b] + c) & (MEMORY_WORDS - 1)]


def _store(regs: List[int], memory: List[int], a: int, b: int, c: int) -> None:
    memory[(regs[b] + c) & (MEMORY_WORDS - 1)] = regs[a]


Instruction = Tuple[Callable, int, int, int]


def _program() -> List[Instruction]:
    """64 instructions drawn once from a fixed seed: register operands for
    ``add``/``xor``, a 12-bit immediate for the others."""
    rng = random.Random("perfbench-probe")
    program = []
    for _ in range(64):
        op = rng.choice((_add, _xor, _addi, _load, _store))
        a, b = rng.randrange(1, 8), rng.randrange(8)
        c = rng.randrange(8) if op in (_add, _xor) else rng.randrange(4096)
        program.append((op, a, b, c))
    return program


PROGRAM = _program()
#: The machine's memory, allocated once so that a probe times the run and
#: not an allocation.  Stores change its contents, which no probe's time
#: depends on.
MEMORY = [0] * MEMORY_WORDS


def _run() -> float:
    began = time.perf_counter()
    regs = [0, 1, 2, 3, 4, 5, 6, 7]
    memory = MEMORY
    for _ in range(PASSES):
        for op, a, b, c in PROGRAM:
            op(regs, memory, a, b, c)
    return time.perf_counter() - began


def probe_samples(count: int) -> List[float]:
    """Seconds each of ``count`` probes in a row takes."""
    return [_run() for _ in range(count)]


def probe_host(repeats: int = 1) -> float:
    """Seconds one probe takes now: the fastest of ``repeats`` probes in a
    row, since a probe that something else interrupted reads slow."""
    return min(probe_samples(repeats))


def host_scale(probes: Sequence[float]) -> float:
    """The factor that turns host seconds, timed while the probe read
    ``probes`` (their median), into reference-host seconds."""
    return PROBE_REFERENCE_S / statistics.median(probes)
