"""Columnar FEOL extraction against the per-connection object walk.

``extract_feol`` reads cut masks, stub tips and stub headings from
per-connection columns: straight from a clean ``RoutingArrays`` backing
(``route()`` and store-decoded layouts, no net materialized), or from one
gather walk over the ``RoutedNet`` objects of any other routing (restored
and lifted layouts).  :func:`_reference_extract_feol` below is the former
per-connection object walk, kept as the oracle: every view must equal it
field for field — net sets, vpin lists (``==`` and ``repr``), open
connections and the seeded ``FEOLArrays`` cache.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.crouting import crouting_attack
from repro.attacks.network_flow import network_flow_attack
from repro.attacks.proximity import proximity_attack
from repro.circuits import iscas85_netlist
from repro.circuits.iscas85 import ISCAS85_PROFILES
from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.circuits.superblue import superblue_netlist
from repro.layout import build_layout
from repro.layout.arrays import routing_backing
from repro.layout.geometry import Point
from repro.layout.router import RoutedConnection, RoutedNet
from repro.sm.split import (
    DEFAULT_STUB_FRACTION,
    DIRECTION_QUANTIZATION,
    FEOLArrays,
    FEOLView,
    OpenConnection,
    VPin,
    extract_feol,
)
from repro.store import codec

ISCAS_CIRCUITS = tuple(ISCAS85_PROFILES)
SPLIT_LAYERS = tuple(range(1, 9))


# ---------------------------------------------------------------------------
# The oracle: the per-connection object walk
# ---------------------------------------------------------------------------


def _quantized_direction(source: Point, towards: Point
                         ) -> Optional[Tuple[float, float]]:
    dx = towards.x - source.x
    dy = towards.y - source.y
    if abs(dx) < 1e-9 and abs(dy) < 1e-9:
        return None
    angle = math.atan2(dy, dx)
    step = 2.0 * math.pi / DIRECTION_QUANTIZATION
    snapped = round(angle / step) * step
    return (math.cos(snapped), math.sin(snapped))


def _stub_tip(anchor: Point, towards: Optional[Point],
              stub_fraction: float) -> Point:
    if towards is None or stub_fraction <= 0.0:
        return anchor
    fraction = min(max(stub_fraction, 0.0), 0.5)
    return Point(
        anchor.x + fraction * (towards.x - anchor.x),
        anchor.y + fraction * (towards.y - anchor.y),
    )


def _reference_extract_feol(layout, split_layer: int,
                            stub_fraction: float = DEFAULT_STUB_FRACTION
                            ) -> FEOLView:
    """The former ``extract_feol``: walks ``routed.connections`` per net."""
    if split_layer < 1:
        raise ValueError("split_layer must be >= 1")
    view = FEOLView(layout=layout, split_layer=split_layer)
    netlist = layout.netlist
    next_id = 0
    for net_name, routed in layout.routing.items():
        cut_connections = [
            c for c in routed.connections
            if c.h_layer > split_layer or c.v_layer > split_layer
        ]
        if not cut_connections:
            view.visible_nets.add(net_name)
            continue
        view.cut_nets.add(net_name)
        protected = net_name in layout.protected_nets
        net = netlist.nets[net_name]
        driver_gate = driver_pin = driver_cell = None
        if net.driver is not None:
            driver_gate, driver_pin = net.driver
            driver_cell = netlist.gates[driver_gate].cell
        elif net.is_primary_input:
            driver_pin = net_name
        source = (routed.driver_point if routed.driver_point is not None
                  else Point(0.0, 0.0))
        for connection in cut_connections:
            hint = connection.source_hint
            driver_position = _stub_tip(source, hint, stub_fraction)
            driver_vpin = VPin(
                identifier=next_id,
                kind="driver",
                position=driver_position,
                gate=driver_gate,
                pin=driver_pin,
                cell=driver_cell.name if driver_cell is not None else None,
                direction=(_quantized_direction(driver_position, hint)
                           if hint is not None else None),
                max_load_ff=(driver_cell.max_load_ff
                             if driver_cell is not None else 1e9),
                drive_resistance_kohm=(driver_cell.drive_resistance_kohm
                                       if driver_cell is not None else 0.0),
                net=net_name,
            )
            next_id += 1
            view.driver_vpins.append(driver_vpin)
            sink_gate = sink_pin = sink_cell = None
            cap = 0.0
            if connection.sink[0] == "PO":
                sink_pin = connection.sink[1]
            else:
                sink_gate, sink_pin = connection.sink
                sink_cell = netlist.gates[sink_gate].cell
                cap = sink_cell.pin(sink_pin).capacitance_ff
            hint = connection.target_hint
            sink_position = _stub_tip(connection.target, hint, stub_fraction)
            sink_vpin = VPin(
                identifier=next_id,
                kind="sink",
                position=sink_position,
                gate=sink_gate,
                pin=sink_pin,
                cell=sink_cell.name if sink_cell is not None else None,
                direction=(_quantized_direction(sink_position, hint)
                           if hint is not None else None),
                capacitance_ff=cap,
                net=net_name,
            )
            next_id += 1
            view.sink_vpins.append(sink_vpin)
            view.open_connections.append(OpenConnection(
                net=net_name,
                driver_vpin=driver_vpin.identifier,
                sink_vpin=sink_vpin.identifier,
                protected=protected and connection.protected,
            ))
    return view


def assert_views_equal(view: FEOLView, reference: FEOLView) -> None:
    """Field-for-field equality, including the seeded arrays cache."""
    assert view.split_layer == reference.split_layer
    assert view.visible_nets == reference.visible_nets
    assert view.cut_nets == reference.cut_nets
    assert view.driver_vpins == reference.driver_vpins
    assert view.sink_vpins == reference.sink_vpins
    assert repr(view.driver_vpins) == repr(reference.driver_vpins)
    assert repr(view.sink_vpins) == repr(reference.sink_vpins)
    assert view.open_connections == reference.open_connections
    cached = view.__dict__.get("_geometry_cache")
    assert cached is not None, "extract_feol must seed the arrays cache"
    key, seeded = cached
    assert key == (view.geometry_version, len(view.driver_vpins),
                   len(view.sink_vpins))
    expected = FEOLArrays.build(reference)
    for name in ("driver_ids", "driver_xy", "driver_dir", "driver_has_dir",
                 "driver_max_load", "driver_gate_idx", "sink_ids", "sink_xy",
                 "sink_dir", "sink_has_dir", "sink_cap", "sink_gate_idx"):
        ours, theirs = getattr(seeded, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        # Bit patterns, not values: -0.0 and NaN must match too.
        assert ours.tobytes() == theirs.tobytes(), name


def assert_matches_oracle(layout, split_layer: int,
                          stub_fraction: float = DEFAULT_STUB_FRACTION
                          ) -> FEOLView:
    """Extract first (the oracle materializes a lazy routing), then compare."""
    view = extract_feol(layout, split_layer, stub_fraction)
    assert_views_equal(
        view, _reference_extract_feol(layout, split_layer, stub_fraction))
    return view


def _decoded_layout(netlist, layout):
    from repro.api.schemes import SchemeBuild

    build = SchemeBuild(scheme="original", layout=layout, baseline=layout)
    record, arrays = codec.encode_build(build, netlist)
    return codec.decode_build(record, arrays, netlist).layout


# ---------------------------------------------------------------------------
# Clean backings: route() and store-decoded layouts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("circuit", ISCAS_CIRCUITS)
def test_route_layouts_match_oracle_at_every_split(circuit):
    netlist = iscas85_netlist(circuit, seed=1)
    layout = build_layout(netlist, seed=1)
    backing = routing_backing(layout.routing)
    assert backing is not None
    views = [extract_feol(layout, split) for split in SPLIT_LAYERS]
    # The column path never builds a net's object graph.
    assert backing.materialized_count == 0
    for split, view in zip(SPLIT_LAYERS, views):
        assert_views_equal(view, _reference_extract_feol(layout, split))


@pytest.mark.parametrize("stub_fraction", [0.0, 0.3, 0.47, 0.5, 0.9, -1.0])
def test_stub_fractions_match_oracle(stub_fraction):
    netlist = iscas85_netlist("c880", seed=2)
    layout = build_layout(netlist, seed=2)
    for split in (2, 4):
        assert_matches_oracle(layout, split, stub_fraction)


def test_stub_fraction_above_half_is_clamped():
    netlist = iscas85_netlist("c432", seed=1)
    layout = build_layout(netlist, seed=1)
    clamped = extract_feol(layout, 3, stub_fraction=0.9)
    half = extract_feol(layout, 3, stub_fraction=0.5)
    assert clamped.driver_vpins == half.driver_vpins
    assert clamped.sink_vpins == half.sink_vpins


def test_routing_perturbation_overridden_hints_match_oracle():
    from repro.defenses.routing_perturbation import routing_perturbation_defense

    netlist = iscas85_netlist("c1355", seed=1)
    layout = routing_perturbation_defense(netlist, seed=5)
    backing = routing_backing(layout.routing)
    assert backing is not None and not backing.hint_default.all()
    view = extract_feol(layout, 4)
    assert backing.materialized_count == 0
    assert_views_equal(view, _reference_extract_feol(layout, 4))


def test_store_decoded_layout_matches_oracle():
    netlist = iscas85_netlist("c1908", seed=1)
    decoded = _decoded_layout(netlist, build_layout(netlist, seed=1))
    backing = routing_backing(decoded.routing)
    assert backing is not None
    assert backing.driver_points is None
    assert backing.conn_net_names is not None
    views = [extract_feol(decoded, split) for split in (3, 5)]
    assert backing.materialized_count == 0
    for split, view in zip((3, 5), views):
        assert_views_equal(view, _reference_extract_feol(decoded, split))


def test_missing_driver_anchors_at_origin():
    netlist = iscas85_netlist("c432", seed=1)
    decoded = _decoded_layout(netlist, build_layout(netlist, seed=1))
    backing = routing_backing(decoded.routing)
    backing.has_driver[:] = False  # every net loses its driver pin
    unstubbed = extract_feol(decoded, 2, stub_fraction=0.0)
    view = extract_feol(decoded, 2)
    assert unstubbed.driver_vpins
    assert all(v.position == Point(0.0, 0.0) for v in unstubbed.driver_vpins)
    assert_views_equal(unstubbed, _reference_extract_feol(decoded, 2, 0.0))
    assert_views_equal(view, _reference_extract_feol(decoded, 2))


def test_superblue_slice_with_port_terminals_matches_oracle():
    netlist = superblue_netlist("superblue18", scale=0.002, seed=1)
    layout = build_layout(netlist, seed=1)
    view = assert_matches_oracle(layout, 4)
    assert any(v.gate is None for v in view.driver_vpins), "no PI driver"
    assert any(v.gate is None for v in view.sink_vpins), "no PO sink"


# ---------------------------------------------------------------------------
# Object routings: restored, lifted and hand-built layouts
# ---------------------------------------------------------------------------


def test_restored_proposed_layout_matches_oracle():
    from repro.core import ProtectionConfig, protect

    netlist = iscas85_netlist("c432", seed=3)
    result = protect(netlist, ProtectionConfig(
        lift_layer=6, swap_fraction_steps=(0.08,), oer_patterns=256, seed=3))
    protected = result.protected_layout
    assert routing_backing(protected.routing) is None  # object source
    for split in (3, 4, 6):
        view = assert_matches_oracle(protected, split)
        assert any(oc.protected for oc in view.open_connections)
    assert result.naive_lifted_layout is not None
    assert_matches_oracle(result.naive_lifted_layout, 4)


def test_dirty_backing_and_hand_built_nets_match_oracle():
    netlist = iscas85_netlist("c499", seed=1)
    layout = build_layout(netlist, seed=1)
    routing = dict(layout.routing)
    name = next(n for n, net in routing.items()
                if any(c.h_layer > 2 for c in net.connections))
    # A hand-built net without a driver pin and with one missing hint.
    original = routing[name]
    connections = [dict(c.__dict__) for c in original.connections]
    for fields in connections:
        fields["target_hint"] = None
    routing[name] = RoutedNet(
        name=name, driver_point=None,
        connections=[RoutedConnection(**fields) for fields in connections],
        driver_vias=list(original.driver_vias),
    )
    layout.routing = routing
    assert routing_backing(layout.routing) is None
    view = assert_matches_oracle(layout, 2)
    hand_built = [v for v in view.sink_vpins if v.net == name]
    assert hand_built and all(v.direction is None for v in hand_built)


# ---------------------------------------------------------------------------
# Attacks on the seeded arrays never touch the routing objects
# ---------------------------------------------------------------------------


def test_attacks_after_extraction_never_materialize():
    netlist = iscas85_netlist("c880", seed=1)
    layout = build_layout(netlist, seed=1)
    backing = routing_backing(layout.routing)
    view = extract_feol(layout, 3)
    proximity_attack(view)
    network_flow_attack(view)
    crouting_attack(view)
    assert backing.materialized_count == 0
    # The attacks read the arrays seeded at extraction time.
    assert view.arrays() is view.__dict__["_geometry_cache"][1]


def test_empty_cut_set_yields_empty_columns():
    netlist = iscas85_netlist("c432", seed=1)
    layout = build_layout(netlist, seed=1)
    view = assert_matches_oracle(layout, 10)
    assert not view.cut_nets and not view.open_connections
    arrays = view.arrays()
    assert arrays.driver_xy.shape == (0, 2)
    assert arrays.sink_dir.shape == (0, 2)


# ---------------------------------------------------------------------------
# Property: generated netlists, seeds, splits and stub fractions
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    gates=st.integers(min_value=8, max_value=60),
    netlist_seed=st.integers(min_value=0, max_value=10_000),
    place_seed=st.integers(min_value=0, max_value=10_000),
    split=st.integers(min_value=1, max_value=9),
    stub_fraction=st.sampled_from([0.0, 0.25, DEFAULT_STUB_FRACTION, 0.5, 0.8]),
    decoded=st.booleans(),
)
def test_generated_netlists_match_oracle(gates, netlist_seed, place_seed,
                                         split, stub_fraction, decoded):
    netlist = generate_random_logic(RandomLogicSpec(
        name=f"rnd{gates}", num_gates=gates, num_inputs=max(3, gates // 4),
        num_outputs=max(2, gates // 6), seed=netlist_seed))
    layout = build_layout(netlist, seed=place_seed)
    if decoded:
        layout = _decoded_layout(netlist, layout)
    backing = routing_backing(layout.routing)
    view = extract_feol(layout, split, stub_fraction)
    assert backing is None or backing.materialized_count == 0
    assert_views_equal(
        view, _reference_extract_feol(layout, split, stub_fraction))
    assert np.array_equal(
        view.arrays().driver_ids,
        [v.identifier for v in view.driver_vpins])
