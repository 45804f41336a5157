"""Tests for the columnar geometry core (``repro.layout.arrays``).

Three groups:

* property tests comparing :class:`UniformGridIndex` nearest/range queries
  against brute force on random point sets (including heavy ties);
* legacy-vs-columnar equivalence tests — proximity assignments, connected
  gate distances, distance stats, HPWL, legality, wirelength — on **every**
  ISCAS-85 circuit in the registry;
* the ``geometry_version`` invalidation contract.
"""

import math
import pickle
import random
import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.proximity import proximity_attack, proximity_attack_reference
from repro.circuits import c17_netlist, iscas85_netlist
from repro.circuits.iscas85 import ISCAS85_PROFILES
from repro.layout import build_layout
from repro.layout.arrays import (
    PlacementArrays,
    PlacementSkeleton,
    UniformGridIndex,
    netlist_skeleton,
    placement_arrays,
)
from repro.layout.geometry import Point, manhattan
from repro.layout.placer import (
    PlacementColumns,
    PlacementResult,
    check_legality,
    placement_hpwl,
)
from repro.metrics.distances import distance_histogram, distance_stats
from repro.metrics.wirelength import wirelength_by_layer
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.sm.split import FEOLView, VPin, extract_feol

ISCAS_CIRCUITS = tuple(ISCAS85_PROFILES)

SPLIT_LAYER = 4


@pytest.fixture(scope="module")
def iscas_layouts():
    """One routed layout + FEOL view per ISCAS-85 circuit (built once)."""
    artefacts = {}
    for name in ISCAS_CIRCUITS:
        netlist = iscas85_netlist(name, seed=1)
        layout = build_layout(netlist, seed=1)
        artefacts[name] = (netlist, layout, extract_feol(layout, SPLIT_LAYER))
    return artefacts


# ---------------------------------------------------------------------------
# UniformGridIndex property tests
# ---------------------------------------------------------------------------


def _brute_nearest(points, queries):
    """First-occurrence Manhattan nearest, the reference semantics."""
    indices = []
    distances = []
    for qx, qy in queries:
        best_i, best_d = -1, math.inf
        for i, (px, py) in enumerate(points):
            d = abs(qx - px) + abs(qy - py)
            if d < best_d:
                best_d = d
                best_i = i
        indices.append(best_i)
        distances.append(best_d)
    return indices, distances


def _random_points(rng, count, snap=None):
    points = []
    for _ in range(count):
        x = rng.uniform(0.0, 100.0)
        y = rng.uniform(0.0, 100.0)
        if snap:
            x = round(x / snap) * snap
            y = round(y / snap) * snap
        points.append((x, y))
    return points


class TestUniformGridIndex:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("snap", [None, 10.0])
    def test_nearest_matches_brute_force(self, seed, snap):
        """Random layouts; snapped variants force many exact distance ties."""
        rng = random.Random(seed)
        points = _random_points(rng, rng.randrange(1, 400), snap=snap)
        queries = _random_points(rng, 200, snap=snap)
        index = UniformGridIndex(np.asarray(points))
        got_idx, got_dist = index.nearest(np.asarray(queries))
        want_idx, want_dist = _brute_nearest(points, queries)
        assert got_idx.tolist() == want_idx
        assert got_dist.tolist() == want_dist

    def test_nearest_forced_ring_walk_matches_brute_force(self):
        """Push past BRUTE_FORCE_LIMIT=0 so the grid ring walk itself is used."""
        rng = random.Random(42)
        points = _random_points(rng, 300, snap=5.0)
        queries = _random_points(rng, 150, snap=5.0)
        index = UniformGridIndex(np.asarray(points))
        try:
            index.BRUTE_FORCE_LIMIT = 0
            got_idx, got_dist = index.nearest(np.asarray(queries))
        finally:
            del index.BRUTE_FORCE_LIMIT
        want_idx, want_dist = _brute_nearest(points, queries)
        assert got_idx.tolist() == want_idx
        assert got_dist.tolist() == want_dist

    def test_tie_breaks_to_lowest_index(self):
        # Four candidates at identical distance 1 from the query; a duplicate
        # pair guarantees an exact tie no matter the float representation.
        points = np.asarray([(2.0, 1.0), (1.0, 2.0), (1.0, 0.0), (2.0, 1.0)])
        index = UniformGridIndex(points)
        idx, dist = index.nearest(np.asarray([(1.0, 1.0)]))
        assert idx[0] == 0
        assert dist[0] == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_query_radius_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        points = _random_points(rng, rng.randrange(1, 300), snap=2.0)
        index = UniformGridIndex(np.asarray(points))
        for _ in range(50):
            qx = rng.uniform(-10.0, 110.0)
            qy = rng.uniform(-10.0, 110.0)
            radius = rng.uniform(0.0, 40.0)
            want = sorted(
                i for i, (px, py) in enumerate(points)
                if abs(qx - px) + abs(qy - py) <= radius
            )
            assert index.query_radius(qx, qy, radius).tolist() == want

    def test_collinear_points_stay_bounded_and_correct(self):
        """Near-collinear sets must not blow the grid up to O(span) cells."""
        rng = random.Random(3)
        points = [(rng.uniform(0.0, 5000.0), 1.4) for _ in range(2000)]
        index = UniformGridIndex(np.asarray(points))
        assert index.nx * index.ny <= 16 * len(points) + 16
        queries = [(rng.uniform(0.0, 5000.0), rng.uniform(0.0, 3.0))
                   for _ in range(50)]
        got_idx, got_dist = index.nearest(np.asarray(queries))
        want_idx, want_dist = _brute_nearest(points, queries)
        assert got_idx.tolist() == want_idx
        assert got_dist.tolist() == want_dist

    def test_single_point_and_degenerate_extent(self):
        index = UniformGridIndex(np.asarray([(5.0, 5.0)] * 3))
        idx, dist = index.nearest(np.asarray([(0.0, 0.0), (5.0, 5.0)]))
        assert idx.tolist() == [0, 0]
        assert dist.tolist() == [10.0, 0.0]

    def test_empty_index_rejects_nearest(self):
        index = UniformGridIndex(np.empty((0, 2)))
        with pytest.raises(ValueError):
            index.nearest(np.asarray([(0.0, 0.0)]))
        assert index.query_radius(0.0, 0.0, 10.0).size == 0


# ---------------------------------------------------------------------------
# Legacy vs columnar equivalence on every ISCAS circuit
# ---------------------------------------------------------------------------


def _legacy_connected_gate_distances(layout, nets=None):
    """The historical per-pair loop over netlist.nets (seed semantics)."""
    distances = []
    for net_name, net in layout.netlist.nets.items():
        if nets is not None and net_name not in nets:
            continue
        if net.driver is None:
            continue
        driver_pos = layout.placement.gate_positions.get(net.driver[0])
        if driver_pos is None:
            continue
        for sink_gate, _pin in net.sinks:
            sink_pos = layout.placement.gate_positions.get(sink_gate)
            if sink_pos is not None:
                distances.append(manhattan(driver_pos, sink_pos))
    return distances


def _legacy_placement_hpwl(netlist, placement):
    total = 0.0
    for net in netlist.nets.values():
        xs, ys = [], []
        if net.driver is not None:
            p = placement.gate_positions.get(net.driver[0])
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        elif net.is_primary_input:
            p = placement.port_positions.get(net.name)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for sink_gate, _pin in net.sinks:
            p = placement.gate_positions.get(sink_gate)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for po in net.primary_outputs:
            p = placement.port_positions.get(po)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        if len(xs) >= 2:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def _legacy_check_legality(netlist, placement, tolerance=1e-6):
    problems = []
    fp = placement.floorplan
    by_row = {}
    for name, pos in placement.gate_positions.items():
        width = netlist.gates[name].cell.width_um
        if pos.x < fp.die.x_min - tolerance or pos.x + width > fp.die.x_max + width + tolerance:
            problems.append(f"{name} outside die in x")
        if pos.y < fp.die.y_min - tolerance or pos.y > fp.die.y_max + tolerance:
            problems.append(f"{name} outside die in y")
        row = fp.nearest_row(pos.y)
        by_row.setdefault(row, []).append((pos.x, width, name))
    for row, cells in by_row.items():
        cells.sort()
        for (x1, w1, n1), (x2, _w2, n2) in zip(cells, cells[1:]):
            if x2 < x1 + w1 * 0.5 - tolerance:
                problems.append(f"severe overlap between {n1} and {n2} in row {row}")
    return problems


@pytest.mark.parametrize("circuit", ISCAS_CIRCUITS)
class TestColumnarEquivalence:
    def test_proximity_assignment_bit_exact(self, iscas_layouts, circuit):
        _netlist, _layout, view = iscas_layouts[circuit]
        vectorized = proximity_attack(view)
        reference = proximity_attack_reference(view)
        assert vectorized.assignment == reference.assignment
        assert vectorized.num_sinks == reference.num_sinks
        assert vectorized.num_drivers == reference.num_drivers

    def test_connected_gate_distances_bit_exact(self, iscas_layouts, circuit):
        _netlist, layout, _view = iscas_layouts[circuit]
        assert layout.connected_gate_distances() == _legacy_connected_gate_distances(layout)

    def test_restricted_distances_bit_exact(self, iscas_layouts, circuit):
        _netlist, layout, view = iscas_layouts[circuit]
        nets = view.cut_nets
        assert layout.connected_gate_distances(nets) == _legacy_connected_gate_distances(
            layout, nets
        )

    def test_distance_stats_match_statistics_module(self, iscas_layouts, circuit):
        _netlist, layout, _view = iscas_layouts[circuit]
        stats = distance_stats(layout)
        values = _legacy_connected_gate_distances(layout)
        assert stats.count == len(values)
        assert stats.values == values
        assert stats.mean == pytest.approx(statistics.mean(values), rel=1e-12)
        assert stats.median == pytest.approx(statistics.median(values), rel=1e-12)
        assert stats.std_dev == pytest.approx(statistics.pstdev(values), rel=1e-9)

    def test_hpwl_matches_legacy(self, iscas_layouts, circuit):
        netlist, layout, _view = iscas_layouts[circuit]
        assert placement_hpwl(netlist, layout.placement) == pytest.approx(
            _legacy_placement_hpwl(netlist, layout.placement), rel=1e-12
        )

    def test_legality_matches_legacy(self, iscas_layouts, circuit):
        netlist, layout, _view = iscas_layouts[circuit]
        assert check_legality(netlist, layout.placement) == _legacy_check_legality(
            netlist, layout.placement
        )

    def test_wirelength_by_layer_matches_legacy(self, iscas_layouts, circuit):
        _netlist, layout, view = iscas_layouts[circuit]
        legacy = {layer: 0.0 for layer in range(1, NUM_METAL_LAYERS + 1)}
        for routed in layout.routing.values():
            for layer, length in routed.wirelength_by_layer().items():
                legacy[layer] += length
        columnar = wirelength_by_layer(layout)
        assert set(columnar) == set(legacy)
        for layer in legacy:
            assert columnar[layer] == pytest.approx(legacy[layer], rel=1e-12, abs=1e-9)
        # Restricted to the cut nets as well.
        restricted = wirelength_by_layer(layout, view.cut_nets)
        legacy_cut = {layer: 0.0 for layer in range(1, NUM_METAL_LAYERS + 1)}
        for net_name, routed in layout.routing.items():
            if net_name not in view.cut_nets:
                continue
            for layer, length in routed.wirelength_by_layer().items():
                legacy_cut[layer] += length
        for layer in legacy_cut:
            assert restricted[layer] == pytest.approx(legacy_cut[layer], rel=1e-12, abs=1e-9)

    def test_via_counts_exact(self, iscas_layouts, circuit):
        _netlist, layout, view = iscas_layouts[circuit]
        legacy = {(layer, layer + 1): 0 for layer in range(1, NUM_METAL_LAYERS)}
        for routed in layout.routing.values():
            for key, count in routed.via_counts().items():
                legacy[key] = legacy.get(key, 0) + count
        assert layout.via_counts() == legacy
        # Net-restricted variant against a per-net legacy accumulation.
        legacy_cut = {(layer, layer + 1): 0 for layer in range(1, NUM_METAL_LAYERS)}
        for net_name, routed in layout.routing.items():
            if net_name not in view.cut_nets:
                continue
            for key, count in routed.via_counts().items():
                legacy_cut[key] = legacy_cut.get(key, 0) + count
        assert layout.arrays().via_counts(NUM_METAL_LAYERS, view.cut_nets) == legacy_cut


# ---------------------------------------------------------------------------
# Tie-breaking of the proximity attack (explicit determinism contract)
# ---------------------------------------------------------------------------


def _vpin(identifier, kind, x, y):
    return VPin(identifier=identifier, kind=kind, position=Point(x, y),
                gate=None, pin=None, cell=None, direction=None)


def test_proximity_tie_breaks_to_first_driver(iscas_layouts):
    """Equidistant drivers: the first vpin in driver_vpins order must win."""
    _netlist, layout, _view = iscas_layouts["c432"]
    view = FEOLView(layout=layout, split_layer=SPLIT_LAYER)
    # Drivers 10/11/12 are all at Manhattan distance 2 from the sink; driver
    # 13 at the same position as 10 duplicates the winning distance exactly.
    view.driver_vpins = [
        _vpin(10, "driver", 2.0, 0.0),
        _vpin(11, "driver", 0.0, 2.0),
        _vpin(12, "driver", 1.0, 1.0),
        _vpin(13, "driver", 2.0, 0.0),
    ]
    view.sink_vpins = [_vpin(20, "sink", 0.0, 0.0)]
    assert proximity_attack(view).assignment == {20: 10}
    assert proximity_attack_reference(view).assignment == {20: 10}


# ---------------------------------------------------------------------------
# Netlist skeleton remapped per placement == per-placement net walk
# ---------------------------------------------------------------------------


def _reference_skeleton(netlist, placement):
    """The per-placement net walk the remapped skeleton replaces (oracle)."""
    gate_names = list(placement.gate_positions)
    gate_index = {name: i for i, name in enumerate(gate_names)}
    gates = netlist.gates
    port_names = list(placement.port_positions)
    port_index = {name: i for i, name in enumerate(port_names)}
    num_gates = len(gate_names)
    pair_driver, pair_sink, pair_net = [], [], []
    term_idx, term_offsets = [], [0]
    for net_idx, net in enumerate(netlist.nets.values()):
        driver_idx = (
            gate_index.get(net.driver[0]) if net.driver is not None else None
        )
        if driver_idx is not None:
            for sink_gate, _pin in net.sinks:
                sink_idx = gate_index.get(sink_gate)
                if sink_idx is not None:
                    pair_driver.append(driver_idx)
                    pair_sink.append(sink_idx)
                    pair_net.append(net_idx)
        if driver_idx is not None:
            term_idx.append(driver_idx)
        elif net.is_primary_input:
            pi = port_index.get(net.name)
            if pi is not None:
                term_idx.append(num_gates + pi)
        for sink_gate, _pin in net.sinks:
            sink_idx = gate_index.get(sink_gate)
            if sink_idx is not None:
                term_idx.append(sink_idx)
        for po in net.primary_outputs:
            pi = port_index.get(po)
            if pi is not None:
                term_idx.append(num_gates + pi)
        term_offsets.append(len(term_idx))
    return {
        "gate_names": gate_names,
        "gate_widths": [gates[name].cell.width_um if name in gates else 0.0
                        for name in gate_names],
        "missing_gates": [name for name in gate_names if name not in gates],
        "port_names": port_names,
        "net_names": list(netlist.nets),
        "pair_driver": pair_driver,
        "pair_sink": pair_sink,
        "pair_net": pair_net,
        "term_indices": term_idx,
        "term_offsets": term_offsets,
    }


def _assert_skeleton_matches_oracle(netlist, placement, skeleton=None):
    if skeleton is None:
        skeleton = PlacementSkeleton.build(netlist, placement)
    expected = _reference_skeleton(netlist, placement)  # materializes
    for name, value in expected.items():
        actual = getattr(skeleton, name)
        if isinstance(actual, np.ndarray):
            assert actual.tolist() == value, name
            assert actual.dtype == (np.float64 if name == "gate_widths"
                                    else np.intp), name
        else:
            assert actual == value, name


@st.composite
def _placement_variants(draw, netlist, base):
    """A placement of ``netlist`` with shuffled, dropped and foreign gates
    and ports, as an eager dict or as lazy columns."""
    gates = list(base.gate_positions)
    kept = draw(st.lists(st.sampled_from(gates), unique=True,
                         max_size=len(gates)))
    extra = [f"extra_{i}" for i in range(draw(st.integers(0, 3)))]
    order = draw(st.permutations(kept + extra))
    ports = list(base.port_positions)
    kept_ports = draw(st.lists(st.sampled_from(ports), unique=True,
                               max_size=len(ports)))
    port_order = draw(st.permutations(
        kept_ports + [f"extra_port_{i}" for i in range(draw(st.integers(0, 2)))]
    ))

    def position(table, name):
        return table.get(name, Point(1.5, 2.5))

    gate_positions = {name: position(base.gate_positions, name) for name in order}
    port_positions = {name: position(base.port_positions, name) for name in port_order}
    if not draw(st.booleans()):
        return PlacementResult(base.floorplan, gate_positions, port_positions,
                               base.config)
    # Lazy columns index a name table that need not be the netlist's own.
    table = list(netlist.gates) + extra if draw(st.booleans()) else list(order)
    return PlacementResult.from_columns(
        base.floorplan,
        PlacementColumns(
            gate_names=table,
            gate_order=np.asarray([table.index(n) for n in order], dtype=np.int64),
            gate_x=np.asarray([p.x for p in gate_positions.values()], dtype=np.float64),
            gate_y=np.asarray([p.y for p in gate_positions.values()], dtype=np.float64),
            port_names=list(port_order),
            port_x=np.asarray([p.x for p in port_positions.values()], dtype=np.float64),
            port_y=np.asarray([p.y for p in port_positions.values()], dtype=np.float64),
        ),
        base.config,
    )


@pytest.fixture(scope="module")
def c17_layout():
    netlist = c17_netlist()
    return netlist, build_layout(netlist, seed=2)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_remapped_skeleton_equals_net_walk(c17_layout, data):
    netlist, layout = c17_layout
    placement = data.draw(_placement_variants(netlist, layout.placement))
    lazy = placement.lazy_columns("gate_positions") is not None
    arrays = PlacementArrays.build(netlist, placement)
    # Columns stay unmaterialized through the remap and the gather.
    assert (placement.lazy_columns("gate_positions") is not None) == lazy
    _assert_skeleton_matches_oracle(netlist, placement, arrays.skeleton)
    # Coordinates line up with the skeleton's gate and port order.
    for index, name in enumerate(arrays.gate_names):
        point = placement.gate_positions[name]
        assert tuple(arrays.gate_xy[index]) == (point.x, point.y)
    for index, name in enumerate(arrays.port_names):
        point = placement.port_positions[name]
        assert tuple(arrays.port_xy[index]) == (point.x, point.y)


def test_remapped_skeleton_on_every_iscas_layout(iscas_layouts):
    for netlist, layout, _view in iscas_layouts.values():
        _assert_skeleton_matches_oracle(netlist, layout.placement)


def test_skeleton_handles_net_references_outside_the_netlist(c17_layout):
    """Nets naming a gate ``netlist.gates`` lacks: placed, it still gets
    its pairs and terminals, like the net walk gives it."""
    import copy

    netlist, layout = c17_layout
    broken = copy.deepcopy(netlist)
    dropped = next(iter(broken.gates))
    del broken.gates[dropped]
    _assert_skeleton_matches_oracle(broken, layout.placement)
    assert PlacementSkeleton.build(broken, layout.placement).missing_gates == [dropped]


def test_skeleton_pi_net_with_unplaced_driver_falls_back_to_port(c17_layout):
    """The driver slot takes the PI port when the net's driver gate is not
    placed — and the gate when it is."""
    import copy

    netlist, layout = c17_layout
    broken = copy.deepcopy(netlist)
    gate = next(iter(broken.gates))
    for name in broken.primary_inputs:
        broken.nets[name].driver = (gate, "Y")
    _assert_skeleton_matches_oracle(broken, layout.placement)
    placement = PlacementResult(
        layout.placement.floorplan,
        {name: p for name, p in layout.placement.gate_positions.items()
         if name != gate},
        dict(layout.placement.port_positions),
        layout.placement.config,
    )
    _assert_skeleton_matches_oracle(broken, placement)


def test_netlist_skeleton_cached_per_netlist_and_topology(c17):
    first = netlist_skeleton(c17)
    assert netlist_skeleton(c17) is first
    c17._bump_version()
    assert netlist_skeleton(c17) is not first


# ---------------------------------------------------------------------------
# geometry_version invalidation contract
# ---------------------------------------------------------------------------


class TestGeometryVersion:
    def test_placement_cache_reused_until_bumped(self, c432):
        layout = build_layout(c432, seed=1)
        first = placement_arrays(c432, layout.placement)
        assert placement_arrays(c432, layout.placement) is first
        layout.placement.bump_geometry_version()
        assert placement_arrays(c432, layout.placement) is not first

    def test_moved_gate_reflected_after_bump(self, c432):
        layout = build_layout(c432, seed=1)
        baseline = layout.connected_gate_distances()
        gate = next(iter(layout.placement.gate_positions))
        old = layout.placement.gate_positions[gate]
        layout.placement.gate_positions[gate] = Point(old.x + 11.0, old.y)
        layout.placement.bump_geometry_version()
        moved = layout.connected_gate_distances()
        assert moved == _legacy_connected_gate_distances(layout)
        assert moved != baseline
        # Restore for sibling tests (fixture netlist is shared).
        layout.placement.gate_positions[gate] = old
        layout.placement.bump_geometry_version()

    def test_layout_arrays_cache_keyed_on_versions(self, c432):
        layout = build_layout(c432, seed=1)
        first = layout.arrays()
        assert layout.arrays() is first
        layout.bump_geometry_version()
        assert layout.arrays() is not first

    def test_feol_view_cache_keyed_on_geometry_version(self, iscas_layouts):
        from repro.sm.split import feol_arrays

        _netlist, layout, _shared = iscas_layouts["c432"]
        view = extract_feol(layout, SPLIT_LAYER)
        first = feol_arrays(view)
        assert feol_arrays(view) is first
        # An in-place vpin edit (same counts) must invalidate after a bump.
        moved = view.sink_vpins[0]
        view.sink_vpins[0] = VPin(
            identifier=moved.identifier, kind=moved.kind,
            position=Point(moved.position.x + 5.0, moved.position.y),
            gate=moved.gate, pin=moved.pin, cell=moved.cell,
            direction=moved.direction, capacitance_ff=moved.capacitance_ff,
            net=moved.net,
        )
        view.bump_geometry_version()
        rebuilt = feol_arrays(view)
        assert rebuilt is not first
        assert proximity_attack(view).assignment == (
            proximity_attack_reference(view).assignment
        )

    def test_cached_arrays_not_pickled(self, c432):
        layout = build_layout(c432, seed=1)
        layout.arrays()
        assert "_geometry_cache" in layout.__dict__
        clone = pickle.loads(pickle.dumps(layout))
        assert "_geometry_cache" not in clone.__dict__
        assert "_geometry_cache" not in clone.placement.__dict__
        # And the clone rebuilds identical geometry.
        assert clone.connected_gate_distances() == layout.connected_gate_distances()


def test_distance_histogram_matches_legacy_binning():
    rng = random.Random(7)
    values = [rng.uniform(0.0, 50.0) for _ in range(500)] + [0.0, 50.0]
    num_bins = 16
    top = max(values) or 1.0
    legacy = [0] * num_bins
    for value in values:
        legacy[min(int(num_bins * value / top), num_bins - 1)] += 1
    assert distance_histogram(values, num_bins) == legacy
    assert distance_histogram([], num_bins) == [0] * num_bins
