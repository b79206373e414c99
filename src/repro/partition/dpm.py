"""The dynamic partitioning module (DPM).

The DPM is the embedded processor that runs the Riverside on-chip
partitioning tools (ROCPART): it reads the profiler's results, selects the
most critical region, decompiles it from the application binary, runs
synthesis / technology mapping / placement / routing for the WCLA, and
finally updates the application binary to invoke the new hardware
(Section 3 of the paper).  In the paper's system the DPM is itself another
MicroBlaze with its own memories; we model the tool *flow* exactly and the
DPM's own execution time analytically (so studies of how long on-chip CAD
takes, and whether one DPM can serve several processors round-robin, remain
possible).

The flow itself lives in :mod:`repro.cad`: an explicit pass pipeline
(decompile → synthesis → place → route → implement → binary update) with
per-stage content-addressed caching, per-stage host wall time and modelled
DPM cycles, and a registry of alternate passes.  This module is the thin
driver that runs one :class:`~repro.cad.CadFlow` per critical region and
translates stage failures into :class:`PartitioningOutcome` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .. import obs
from ..cad import (
    CadFlow,
    DpmCostModel,
    FlowContext,
    FlowError,
    KernelDoesNotFitError,
    KernelRejectedError,
    StageRecord,
    build_flow,
)
from ..decompile.kernel import HardwareKernel
from ..decompile.symexec import DecompilationError
from ..fabric.architecture import DEFAULT_WCLA, WclaParameters
from ..fabric.implementation import HardwareImplementation
from ..fabric.place import FabricCapacityError, PlacementResult
from ..fabric.route import RoutingResult
from ..isa.program import Program
from ..microblaze.opb import OPB_BASE_ADDRESS
from ..profiler.profiler import CriticalRegion
from ..synthesis.datapath import SynthesisResult
from .binary_patch import BinaryPatch, PatchError

__all__ = ["DpmCostModel", "DynamicPartitioningModule", "PartitioningOutcome"]


@dataclass
class PartitioningOutcome:
    """Everything the DPM produced for one critical region."""

    success: bool
    region: CriticalRegion
    reason: Optional[str] = None
    kernel: Optional[HardwareKernel] = None
    synthesis: Optional[SynthesisResult] = None
    placement: Optional[PlacementResult] = None
    routing: Optional[RoutingResult] = None
    implementation: Optional[HardwareImplementation] = None
    patch: Optional[BinaryPatch] = None
    dpm_seconds: float = 0.0
    #: Whether the CAD artifacts came from the content-addressed cache
    #: (host-side memoization; the *modelled* on-chip tool time
    #: ``dpm_seconds`` is unaffected, it is a property of the simulated
    #: system, not of how fast this process produced the artifacts).
    cad_cache_hit: bool = False
    #: Content address of the (kernel, WCLA) pair when a cache was in use.
    cad_cache_key: Optional[str] = None
    #: Per-stage accounting of the flow run that produced this outcome:
    #: host wall time, modelled DPM cycles, and how each stage was
    #: satisfied (executed, per-stage cache hit, bundle fast path, memoized
    #: capacity rejection).
    stage_records: List[StageRecord] = field(default_factory=list)

    def summary(self) -> str:
        if not self.success:
            return f"partitioning rejected: {self.reason}"
        lines = [
            self.kernel.summary(),
            self.synthesis.summary(),
            self.implementation.summary(),
            f"on-chip tool time: {self.dpm_seconds * 1e3:.1f} ms (modelled)",
        ]
        return "\n".join(lines)


class DynamicPartitioningModule:
    """Runs the ROCPART flow for one program and one critical region.

    ``artifact_cache`` (a :class:`~repro.cad.CadArtifactCache`) memoizes
    the CAD stage outputs under content addresses of the kernel's dataflow
    graph and the WCLA parameters: repeated partitioning of the same loop
    body — across service jobs, across the cores of a multiprocessor
    system, across sweep repetitions — skips the CAD work, stage by stage
    or (on an exact repeat) as a whole bundle.  Without a cache the flow
    always runs, exactly as before.

    The flow is pluggable: pass ``stage_names`` (registry names, e.g.
    swapping ``"route"`` for ``"route-greedy"``) or a prebuilt ``flow`` to
    replace passes; ``trace_hooks`` observe every stage record.
    """

    def __init__(self, wcla: WclaParameters = DEFAULT_WCLA,
                 wcla_base_address: int = OPB_BASE_ADDRESS,
                 cost_model: Optional[DpmCostModel] = None,
                 artifact_cache=None,
                 flow: Optional[CadFlow] = None,
                 stage_names: Optional[Sequence[str]] = None,
                 trace_hooks: Sequence = ()):
        if flow is not None and (stage_names is not None
                                 or len(tuple(trace_hooks)) > 0):
            raise ValueError("pass either a prebuilt flow or the "
                             "stage_names/trace_hooks it would be built "
                             "with, not both")
        self.wcla = wcla
        self.wcla_base_address = wcla_base_address
        self.cost_model = cost_model if cost_model is not None else DpmCostModel()
        self.artifact_cache = artifact_cache
        self.flow = flow if flow is not None \
            else build_flow(stage_names, trace_hooks=trace_hooks)

    def partition(self, program: Program,
                  region: Optional[CriticalRegion]) -> PartitioningOutcome:
        """Run the full flow and patch ``program`` in place on success.

        On any failure the program is left untouched and the outcome records
        the reason, mirroring a warp processor that silently keeps executing
        the software-only binary.
        """
        if region is None:
            _count_rejection("no-region")
            return PartitioningOutcome(success=False, region=None,
                                       reason="profiler found no critical region")
        context = FlowContext(
            wcla=self.wcla,
            wcla_base_address=self.wcla_base_address,
            cost_model=self.cost_model,
            cache=self.artifact_cache,
            program=program,
            region=region,
        )
        try:
            self.flow.run(context)
        except FlowError as error:
            return self._failure_outcome(context, error)
        return PartitioningOutcome(
            success=True,
            region=region,
            kernel=context.kernel,
            synthesis=context.synthesis,
            placement=context.placement,
            routing=context.routing,
            implementation=context.implementation,
            patch=context.patch,
            dpm_seconds=context.modelled_seconds(),
            cad_cache_hit=context.served_from_cache(),
            cad_cache_key=context.bundle_key,
            stage_records=list(context.records),
        )

    # ------------------------------------------------------------- failures
    def _failure_outcome(self, context: FlowContext,
                         error: FlowError) -> PartitioningOutcome:
        """Translate a stage failure into the outcome shape the rest of the
        system expects (the same fields the monolithic flow reported)."""
        cause = error.cause
        region = context.region
        records = list(context.records)
        if isinstance(cause, DecompilationError):
            _count_rejection("decompile")
            return PartitioningOutcome(
                success=False, region=region,
                reason=f"decompilation failed: {cause}",
                stage_records=records)
        if isinstance(cause, KernelRejectedError):
            _count_rejection("kernel-rejected")
            return PartitioningOutcome(
                success=False, region=region,
                reason=context.kernel.rejection_reason,
                kernel=context.kernel, stage_records=records)
        if isinstance(cause, FabricCapacityError):
            _count_rejection("capacity")
            return PartitioningOutcome(
                success=False, region=region, reason=str(cause),
                kernel=context.kernel, synthesis=context.synthesis,
                cad_cache_key=context.bundle_key, stage_records=records)
        if isinstance(cause, KernelDoesNotFitError):
            _count_rejection("capacity")
            return PartitioningOutcome(
                success=False, region=region,
                reason="kernel does not fit the fabric",
                kernel=context.kernel, synthesis=context.synthesis,
                placement=context.placement, routing=context.routing,
                cad_cache_key=context.bundle_key, stage_records=records)
        if isinstance(cause, PatchError):
            _count_rejection("binary-update")
            return PartitioningOutcome(
                success=False, region=region,
                reason=f"binary update failed: {cause}",
                kernel=context.kernel, synthesis=context.synthesis,
                placement=context.placement, routing=context.routing,
                implementation=context.implementation,
                cad_cache_hit=context.served_from_cache(),
                cad_cache_key=context.bundle_key, stage_records=records)
        _count_rejection("stage")
        return PartitioningOutcome(
            success=False, region=region,
            reason=f"CAD stage {error.stage!r} failed: {cause}",
            kernel=context.kernel, synthesis=context.synthesis,
            placement=context.placement, routing=context.routing,
            implementation=context.implementation,
            cad_cache_key=context.bundle_key, stage_records=records)


def _count_rejection(reason: str) -> None:
    """Count one rejected region under a bounded reason class: no-region,
    decompile, kernel-rejected, capacity, binary-update or stage."""
    if obs.ACTIVE is not None:
        obs.inc("warp_partition_rejections_total",
                help_text="Critical regions the DPM left in software, by "
                          "reason class",
                reason=reason)
