"""Greedy placement for the simple configurable logic fabric.

The on-chip placement algorithm of the warp processor has to run in very
little memory and time, so it is a constructive placer rather than an
annealer: components are placed one after another in decreasing
connectivity order, each at the free location that minimises the
half-perimeter wirelength (HPWL) of its already-placed neighbours, followed
by a bounded pass of improving pairwise swaps.

The placement operates on a *component netlist* derived from the synthesis
result: each datapath component occupies a contiguous group of CLBs sized
by its LUT count, the control unit is one more component, and the fixed
WCLA resources (the three registers, the MAC and the DADG) occupy dedicated
sites on the fabric's edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..decompile.expr import BinExpr, Condition, Mux, Node, UnExpr, walk
from ..synthesis.datapath import SynthesisResult
from .architecture import AreaReport, FabricParameters, WclaParameters


@dataclass
class PlacedComponent:
    """One placeable component and, after placement, its CLB location."""

    name: str
    luts: int
    clbs: int
    fixed: bool = False
    location: Optional[Tuple[int, int]] = None  # (row, column) of its anchor


@dataclass
class Net:
    """A two-point connection between components."""

    driver: str
    sink: str

    def endpoints(self) -> Tuple[str, str]:
        return self.driver, self.sink


@dataclass
class PlacementResult:
    """Outcome of placing one kernel's netlist."""

    components: Dict[str, PlacedComponent]
    nets: List[Net]
    total_wirelength: int
    area: AreaReport

    def component_location(self, name: str) -> Tuple[int, int]:
        location = self.components[name].location
        if location is None:
            raise ValueError(f"component {name!r} was not placed")
        return location


def build_component_netlist(synthesis: SynthesisResult,
                            fabric: FabricParameters) -> Tuple[List[PlacedComponent], List[Net]]:
    """Derive placeable components and connecting nets from a synthesis result."""
    components: List[PlacedComponent] = []
    nets: List[Net] = []
    by_node: Dict[int, str] = {}

    # Fixed WCLA resources sit on the fabric edge (row -1 conceptually, but we
    # model them as zero-area anchors at fixed columns of row 0).
    for index, name in enumerate(("reg0", "reg1", "reg2", "dadg", "mac")):
        components.append(PlacedComponent(name=name, luts=0, clbs=0, fixed=True,
                                          location=(0, index)))

    for component in synthesis.components:
        if component.luts <= 0 and not component.uses_mac:
            continue
        name = f"n{component.node_id}_{component.kind}"
        clbs = max(1, math.ceil(component.luts / fabric.luts_per_clb))
        if component.uses_mac:
            # MAC-bound operations use the dedicated MAC, not fabric CLBs.
            by_node[component.node_id] = "mac"
            continue
        components.append(PlacedComponent(name=name, luts=component.luts, clbs=clbs))
        by_node[component.node_id] = name

    if synthesis.control is not None and synthesis.control.luts > 0:
        clbs = max(1, math.ceil(synthesis.control.luts / fabric.luts_per_clb))
        components.append(PlacedComponent(name="control", luts=synthesis.control.luts,
                                          clbs=clbs))

    # Nets follow the dataflow edges between bound components; operands that
    # are live-in registers come from reg0-2, loads come from the DADG.
    def component_of(node: Node) -> Optional[str]:
        kind = node.__class__.__name__
        if kind == "LiveIn":
            return "reg0"
        if kind == "Load":
            return "dadg"
        return by_node.get(node.node_id)

    seen_nodes: Set[int] = set()
    for root in synthesis.kernel.body.roots():
        for node in walk(root):
            if node.node_id in seen_nodes:
                continue
            seen_nodes.add(node.node_id)
            sink = by_node.get(node.node_id)
            if sink is None:
                continue
            children: Sequence[Node] = ()
            if isinstance(node, BinExpr):
                children = (node.left, node.right)
            elif isinstance(node, UnExpr):
                children = (node.operand,)
            elif isinstance(node, Mux):
                children = (node.condition, node.if_true, node.if_false)
            elif isinstance(node, Condition):
                children = (node.value,)
            for child in children:
                driver = component_of(child)
                if driver is not None and driver != sink:
                    nets.append(Net(driver=driver, sink=sink))
    # Results leave through the output registers.
    for component in components:
        if not component.fixed and component.name != "control":
            nets.append(Net(driver=component.name, sink="reg1"))
    if any(c.name == "control" for c in components):
        nets.append(Net(driver="control", sink="dadg"))
    return components, nets


class GreedyPlacer:
    """Constructive placer with a bounded improvement pass.

    Candidate sites are scored separably: Manhattan distance splits by
    axis, so a site's summed distance to the placed neighbours is
    ``rowcost[row] + colcost[column]``, and each row's best free site is
    the first free column in ``colcost`` order.  Ties go to the first
    site in row-major order.  A swap is judged on the nets incident to
    the two swapped components, the only ones whose length can change.
    """

    def __init__(self, fabric: FabricParameters):
        self.fabric = fabric

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _distance(a: Tuple[int, int], b: Tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def _wirelength(self, components: Dict[str, PlacedComponent],
                    nets: Sequence[Net]) -> int:
        total = 0
        for net in nets:
            driver = components[net.driver].location
            sink = components[net.sink].location
            if driver is not None and sink is not None:
                total += self._distance(driver, sink)
        return total

    # ------------------------------------------------------------------ place
    def place(self, components: Sequence[PlacedComponent],
              nets: Sequence[Net]) -> PlacementResult:
        by_name = {component.name: component for component in components}
        rows, columns = self.fabric.rows, self.fabric.columns
        # Occupancy of the placeable area (row 0 holds the fixed WCLA
        # resources and is never a candidate site).
        taken = [[False] * columns for _ in range(rows)]
        row_free = [0] + [columns] * (rows - 1)

        def occupy(row: int, column: int) -> None:
            if 1 <= row < rows and 0 <= column < columns \
                    and not taken[row][column]:
                taken[row][column] = True
                row_free[row] -= 1

        for component in components:
            if component.fixed and component.location is not None:
                occupy(*component.location)

        # Per component, the other endpoint of every net it is on (one
        # entry per net; a net from a component to itself has none).
        neighbours: Dict[str, List[PlacedComponent]] = {
            name: [] for name in by_name}
        for net in nets:
            if net.driver != net.sink:
                neighbours[net.driver].append(by_name[net.sink])
                neighbours[net.sink].append(by_name[net.driver])

        # Connectivity-ordered constructive placement.
        connectivity: Dict[str, int] = {name: 0 for name in by_name}
        for net in nets:
            connectivity[net.driver] = connectivity.get(net.driver, 0) + 1
            connectivity[net.sink] = connectivity.get(net.sink, 0) + 1
        movable = [c for c in components if not c.fixed]
        movable.sort(key=lambda c: connectivity.get(c.name, 0), reverse=True)

        for component in movable:
            if not any(row_free):
                raise FabricCapacityError(
                    f"fabric out of CLB sites while placing {component.name!r}"
                )
            placed = [other.location for other in neighbours[component.name]
                      if other.location is not None]
            if placed:
                rowcost = [sum(abs(row - r) for r, _ in placed)
                           for row in range(rows)]
                colcost = [sum(abs(column - c) for _, c in placed)
                           for column in range(columns)]
            else:
                rowcost, colcost = range(rows), range(columns)
            column_order = sorted(range(columns), key=colcost.__getitem__)
            cheapest_column = colcost[column_order[0]]
            best_site, best_cost = None, None
            for row in range(1, rows):
                if not row_free[row]:
                    continue
                base = rowcost[row]
                if best_cost is not None \
                        and base + cheapest_column >= best_cost:
                    continue
                row_taken = taken[row]
                for column in column_order:
                    if not row_taken[column]:
                        cost = base + colcost[column]
                        if best_cost is None or cost < best_cost:
                            best_site, best_cost = (row, column), cost
                        break
            component.location = best_site
            best_row, best_column = best_site
            occupy(best_row, best_column)
            # Large components occupy additional adjacent sites: the free
            # sites within distance 2, in row-major order.
            extra_needed = component.clbs - 1
            for row in range(max(1, best_row - 2), min(rows, best_row + 3)):
                reach = 2 - abs(row - best_row)
                for column in range(max(0, best_column - reach),
                                    min(columns, best_column + reach + 1)):
                    if extra_needed > 0 and not taken[row][column]:
                        occupy(row, column)
                        extra_needed -= 1

        def local_wirelength(a: PlacedComponent, b: PlacedComponent) -> int:
            """Length of the nets from ``a`` or ``b`` to other components."""
            total = 0
            for here, others in ((a.location, neighbours[a.name]),
                                 (b.location, neighbours[b.name])):
                here_row, here_column = here
                for other in others:
                    location = other.location
                    if location is not None and other is not a \
                            and other is not b:
                        total += abs(here_row - location[0]) \
                            + abs(here_column - location[1])
            return total

        # Improvement pass: pairwise swaps that reduce total wirelength.
        improved = True
        passes = 0
        while improved and passes < 3:
            improved = False
            passes += 1
            for i in range(len(movable)):
                for j in range(i + 1, len(movable)):
                    a, b = movable[i], movable[j]
                    before = local_wirelength(a, b)
                    a.location, b.location = b.location, a.location
                    after = local_wirelength(a, b)
                    if after >= before:
                        a.location, b.location = b.location, a.location
                    else:
                        improved = True

        clbs_used = sum(c.clbs for c in movable)
        area = AreaReport(
            luts_used=sum(c.luts for c in movable),
            clbs_used=clbs_used,
            clbs_available=(self.fabric.rows - 1) * self.fabric.columns,
            mac_used=any(n.driver == "mac" or n.sink == "mac" for n in nets),
            registers_used=3,
        )
        return PlacementResult(
            components=by_name,
            nets=list(nets),
            total_wirelength=self._wirelength(by_name, nets),
            area=area,
        )


class FabricCapacityError(Exception):
    """Raised when a kernel does not fit the configurable logic fabric."""


def place_kernel(synthesis: SynthesisResult,
                 wcla: WclaParameters) -> PlacementResult:
    """Build the component netlist for ``synthesis`` and place it."""
    components, nets = build_component_netlist(synthesis, wcla.fabric)
    return GreedyPlacer(wcla.fabric).place(components, nets)
