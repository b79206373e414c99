"""The greedy placer against a frozen copy of its original algorithm.

:class:`~repro.fabric.place.GreedyPlacer` scores candidate sites as
``rowcost[row] + colcost[column]`` and judges swaps on incident nets only.
Both are exact rewrites, so every placement must match
:func:`reference_place` below — the algorithm as first written, rescanning
all nets and summing Manhattan distances per site — in every component
location, the total wirelength and the area report.  The inputs are the
six paper applications' kernels over several data seeds and random
netlists, including fixed components without a location, self nets and
duplicate nets.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import benchmark_names, build_benchmark
from repro.compiler import compile_to_program
from repro.fabric.architecture import (
    AreaReport,
    DEFAULT_WCLA,
    FabricParameters,
)
from repro.fabric.place import (
    FabricCapacityError,
    GreedyPlacer,
    Net,
    PlacedComponent,
    build_component_netlist,
)
from repro.microblaze import PAPER_CONFIG
from repro.warp import WarpProcessor

SEEDS = (1, 2, 3)


def _free_sites(fabric, occupied):
    return [(row, column) for row in range(1, fabric.rows)
            for column in range(fabric.columns)
            if (row, column) not in occupied]


def _distance(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _wirelength(components, nets):
    total = 0
    for net in nets:
        driver = components[net.driver].location
        sink = components[net.sink].location
        if driver is not None and sink is not None:
            total += _distance(driver, sink)
    return total


def reference_place(fabric: FabricParameters,
                    components: Sequence[PlacedComponent],
                    nets: Sequence[Net]):
    """The original placement: ``(by_name, total_wirelength, area)``."""
    by_name = {component.name: component for component in components}
    occupied: Set[Tuple[int, int]] = set()
    for component in components:
        if component.fixed and component.location is not None:
            occupied.add(component.location)
    connectivity: Dict[str, int] = {name: 0 for name in by_name}
    for net in nets:
        connectivity[net.driver] = connectivity.get(net.driver, 0) + 1
        connectivity[net.sink] = connectivity.get(net.sink, 0) + 1
    movable = [c for c in components if not c.fixed]
    movable.sort(key=lambda c: connectivity.get(c.name, 0), reverse=True)
    for component in movable:
        best_site: Optional[Tuple[int, int]] = None
        best_cost = None
        free = _free_sites(fabric, occupied)
        if not free:
            raise FabricCapacityError(component.name)
        neighbours = [
            by_name[other].location
            for net in nets
            for other in net.endpoints()
            if other != component.name
            and component.name in net.endpoints()
            and by_name[other].location is not None
        ]
        for site in free:
            if neighbours:
                cost = sum(_distance(site, n) for n in neighbours)
            else:
                cost = site[0] + site[1]
            if best_cost is None or cost < best_cost:
                best_site, best_cost = site, cost
        component.location = best_site
        occupied.add(best_site)
        extra_needed = component.clbs - 1
        for site in _free_sites(fabric, occupied):
            if extra_needed <= 0:
                break
            if _distance(site, best_site) <= 2:
                occupied.add(site)
                extra_needed -= 1
    improved = True
    passes = 0
    while improved and passes < 3:
        improved = False
        passes += 1
        for i in range(len(movable)):
            for j in range(i + 1, len(movable)):
                a, b = movable[i], movable[j]
                before = _wirelength(by_name, nets)
                a.location, b.location = b.location, a.location
                after = _wirelength(by_name, nets)
                if after >= before:
                    a.location, b.location = b.location, a.location
                else:
                    improved = True
    area = AreaReport(
        luts_used=sum(c.luts for c in movable),
        clbs_used=sum(c.clbs for c in movable),
        clbs_available=(fabric.rows - 1) * fabric.columns,
        mac_used=any(n.driver == "mac" or n.sink == "mac" for n in nets),
        registers_used=3,
    )
    return by_name, _wirelength(by_name, nets), area


def assert_same_placement(fabric, components: List[PlacedComponent],
                          nets: List[Net]) -> None:
    expected_error = None
    try:
        expected = reference_place(fabric, copy.deepcopy(components),
                                   copy.deepcopy(nets))
    except FabricCapacityError as error:
        expected_error = error
    if expected_error is not None:
        with pytest.raises(FabricCapacityError):
            GreedyPlacer(fabric).place(copy.deepcopy(components),
                                       copy.deepcopy(nets))
        return
    by_name, wirelength, area = expected
    result = GreedyPlacer(fabric).place(copy.deepcopy(components),
                                        copy.deepcopy(nets))
    assert {name: c.location for name, c in result.components.items()} \
        == {name: c.location for name, c in by_name.items()}
    assert result.total_wirelength == wirelength
    assert result.area == area


def _kernel_synthesis(name: str, seed: int):
    program = compile_to_program(build_benchmark(name, seed=seed).source,
                                 name=name, config=PAPER_CONFIG)
    processor = WarpProcessor(config=PAPER_CONFIG)
    _, profiler = processor.profile(program)
    outcome = processor.dpm.partition(program.copy(),
                                      profiler.most_critical_region())
    assert outcome.success, (name, outcome.reason)
    return outcome.synthesis


@pytest.mark.parametrize("name", benchmark_names())
def test_paper_kernels_place_exactly_as_before(name):
    fabric = DEFAULT_WCLA.fabric
    for seed in SEEDS:
        synthesis = _kernel_synthesis(name, seed)
        components, nets = build_component_netlist(synthesis, fabric)
        assert_same_placement(fabric, components, nets)


@st.composite
def netlists(draw):
    rows = draw(st.integers(min_value=2, max_value=7))
    columns = draw(st.integers(min_value=1, max_value=7))
    fabric = FabricParameters(rows=rows, columns=columns)
    components: List[PlacedComponent] = []
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        located = draw(st.booleans())
        location = (draw(st.integers(min_value=-1, max_value=rows)),
                    draw(st.integers(min_value=-1, max_value=columns))) \
            if located else None
        components.append(PlacedComponent(name=f"f{index}", luts=0, clbs=0,
                                          fixed=True, location=location))
    for index in range(draw(st.integers(min_value=0, max_value=12))):
        clbs = draw(st.integers(min_value=0, max_value=5))
        components.append(PlacedComponent(name=f"m{index}", luts=4 * clbs,
                                          clbs=clbs))
    names = [component.name for component in components] + ["mac"]
    if not any(component.name == "mac" for component in components):
        components.append(PlacedComponent(name="mac", luts=0, clbs=0,
                                          fixed=True, location=(0, 0)))
    endpoint = st.sampled_from(names)
    nets = [Net(driver=driver, sink=sink) for driver, sink in draw(
        st.lists(st.tuples(endpoint, endpoint), max_size=30))]
    # Duplicate some nets outright.
    nets += draw(st.lists(st.sampled_from(nets), max_size=6)) if nets else []
    return fabric, components, nets


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(netlists())
def test_random_netlists_place_exactly_as_before(case):
    fabric, components, nets = case
    assert_same_placement(fabric, components, nets)
