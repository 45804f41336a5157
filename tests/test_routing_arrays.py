"""Columnar routing end-to-end: lazy materialization and array-native consumers.

The router returns :class:`~repro.layout.arrays.RoutingArrays`-backed
``RoutedNet`` shells; per-object graphs are materialized only on first
attribute access.  These tests pin the contract:

* every array-native consumer (net lengths, top layers, the layout's
  columnar view, the codec encode path, the routing-perturbation defense)
  is bit-exact with the per-object walk **and never materializes** — the
  backing's ``materialized_count`` stays zero;
* consumers may run in any order, on any batch size, with identical
  results (Hypothesis property);
* laziness is observation-invisible: attribute access, pickling and the
  codec round-trip behave exactly like eager objects.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import iscas85_netlist
from repro.layout import arrays as arrays_module
from repro.layout.arrays import placement_arrays, routing_backing
from repro.layout.floorplan import build_floorplan
from repro.layout.geometry import Point
from repro.layout.layout import build_layout, build_layout_batch
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route, route_reference
from repro.store import codec

CIRCUIT = "c432"


@pytest.fixture(scope="module")
def netlist():
    return iscas85_netlist(CIRCUIT, seed=1)


@pytest.fixture(scope="module")
def placement(netlist):
    floorplan = build_floorplan(netlist, 0.70)
    return place(netlist, floorplan, 0.70, PlacerConfig(seed=3))


def _reference_routing(netlist, placement):
    return route_reference(netlist, placement, RouterConfig())


# -- laziness: array-native consumers never build objects -------------------


def test_route_returns_clean_backing(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    backing = routing_backing(routing)
    assert backing is not None
    assert backing.materialized_count == 0
    assert backing.num_nets == len(routing)


def test_metric_consumers_never_materialize(netlist):
    layout = build_layout(netlist, seed=3)
    backing = routing_backing(layout.routing)
    assert backing is not None
    layout.net_lengths_um()
    layout.net_top_layers()
    layout.total_wirelength_um()
    layout.wirelength_by_layer()
    layout.via_counts()
    layout.arrays()
    assert backing.materialized_count == 0


def test_codec_encode_never_materializes(netlist):
    from repro.api.schemes import SchemeBuild

    layout = build_layout(netlist, seed=3)
    backing = routing_backing(layout.routing)
    build = SchemeBuild(scheme="original", layout=layout, baseline=layout)
    codec.encode_build(build, netlist)
    assert backing.materialized_count == 0


def test_defense_never_materializes(netlist):
    from repro.defenses.routing_perturbation import routing_perturbation_defense

    layout = routing_perturbation_defense(netlist, seed=5)
    backing = routing_backing(layout.routing)
    assert backing is not None
    assert backing.materialized_count == 0


def test_attribute_access_materializes_and_dirties_backing(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    backing = routing_backing(routing)
    name = next(iter(routing))
    _ = routing[name].connections
    assert backing.materialized_count == 1
    # A dirtied backing is rejected by the clean lookup (fast paths must not
    # trust columns whose object twins may have been edited)...
    assert routing_backing(routing) is None
    # ...but remains reachable for callers that handle staleness themselves.
    assert routing_backing(routing, require_clean=False) is backing


# -- bit-exactness vs the reference object walk -----------------------------


def test_lazy_equals_reference_objects(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    reference = _reference_routing(netlist, placement)
    assert list(routing) == list(reference)
    for name in reference:
        lazy, ref = routing[name], reference[name]
        assert lazy.driver_point == ref.driver_point
        assert lazy.driver_vias == ref.driver_vias
        assert len(lazy.connections) == len(ref.connections)
        for a, b in zip(lazy.connections, ref.connections):
            assert a.segments == b.segments and a.vias == b.vias
            assert a.source_hint == b.source_hint
            assert a.target_hint == b.target_hint


def test_lazy_shell_pickles_like_eager_net(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    reference = _reference_routing(netlist, placement)
    for name in list(reference)[:5]:
        assert pickle.dumps(routing[name]) == pickle.dumps(reference[name])


def test_fast_metrics_match_object_walk(netlist):
    layout = build_layout(netlist, seed=3)
    lengths = layout.net_lengths_um()
    tops = layout.net_top_layers()
    # The per-object fallback on fully materialized nets is the ground truth.
    assert lengths == {
        name: routed.length for name, routed in layout.routing.items()
    }
    assert tops == {
        name: routed.top_layer for name, routed in layout.routing.items()
    }


# -- consumer-order / batch-size equivalence property -----------------------

_CONSUMERS = {
    "net_lengths": lambda layout: layout.net_lengths_um(),
    "net_top_layers": lambda layout: layout.net_top_layers(),
    "total_wirelength": lambda layout: layout.total_wirelength_um(),
    "via_counts": lambda layout: layout.via_counts(),
    "wirelength_by_layer": lambda layout: layout.wirelength_by_layer(),
}


@settings(max_examples=15, deadline=None)
@given(
    order=st.permutations(sorted(_CONSUMERS)),
    batch_size=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_columnar_consumers_equal_materialized_any_order(order, batch_size, data):
    """Any consumer order, any batch size: columnar == fully materialized."""
    netlist = iscas85_netlist("c17", seed=1)
    seeds = list(range(batch_size))
    layouts = build_layout_batch(netlist, seeds)
    # Interleave: optionally materialize some layouts *before* consuming,
    # forcing those onto the per-object fallback paths mid-sequence.
    for layout in layouts:
        eager = data.draw(st.booleans())
        if eager:
            for routed in layout.routing.values():
                _ = routed.connections  # dirties the backing
    for layout, seed in zip(layouts, seeds):
        expected = build_layout(netlist, seed=seed)
        for routed in expected.routing.values():
            _ = routed.connections
        for name in order:
            assert _CONSUMERS[name](layout) == _CONSUMERS[name](expected), name


# -- codec: byte identity and lazy decode -----------------------------------


def _build_of(layout):
    from repro.api.schemes import SchemeBuild

    return SchemeBuild(scheme="original", layout=layout, baseline=layout)


def _assert_payloads_identical(a, b):
    record_a, arrays_a = a
    record_b, arrays_b = b
    assert record_a == record_b
    assert sorted(arrays_a) == sorted(arrays_b)
    for key in arrays_a:
        assert arrays_a[key].dtype == arrays_b[key].dtype, key
        assert np.array_equal(
            arrays_a[key], arrays_b[key]
        ), key


def test_encode_fast_path_byte_identical_to_object_walk(netlist):
    lazy = build_layout(netlist, seed=3)
    eager = build_layout(netlist, seed=3)
    for routed in eager.routing.values():
        _ = routed.connections  # force the legacy object-walk encoder
    assert routing_backing(eager.routing) is None
    _assert_payloads_identical(
        codec.encode_build(_build_of(lazy), netlist),
        codec.encode_build(_build_of(eager), netlist),
    )


def test_decode_yields_clean_lazy_backing(netlist):
    layout = build_layout(netlist, seed=3)
    record, arrays = codec.encode_build(_build_of(layout), netlist)
    decoded = codec.decode_build(record, arrays, netlist)
    backing = routing_backing(decoded.layout.routing)
    assert backing is not None and backing.materialized_count == 0
    # Warm-decode consumers stay columnar...
    assert decoded.layout.net_lengths_um() == layout.net_lengths_um()
    re_record, re_arrays = codec.encode_build(_build_of(decoded.layout), netlist)
    assert backing.materialized_count == 0
    _assert_payloads_identical((record, arrays), (re_record, re_arrays))
    # ...and the decoded objects still equal the in-memory ones on demand.
    for name in list(layout.routing)[:5]:
        ours, theirs = layout.routing[name], decoded.layout.routing[name]
        assert ours.driver_vias == theirs.driver_vias
        assert ours.connections == theirs.connections


# -- columnar decoded placement and lazy driver points ----------------------


def _decoded(netlist, layout):
    record, arrays = codec.encode_build(_build_of(layout), netlist)
    return (record, arrays), codec.decode_build(record, arrays, netlist).layout


def test_decoded_placement_arrays_equal_eager_twin(netlist):
    layout = build_layout(netlist, seed=3)
    _payload, decoded = _decoded(netlist, layout)
    placement = decoded.placement
    lazy = placement_arrays(netlist, placement)
    assert placement.lazy_columns("gate_positions") is not None
    assert placement.lazy_columns("port_positions") is not None
    eager = placement_arrays(netlist, layout.placement)
    assert lazy.gate_names == eager.gate_names
    assert lazy.port_names == eager.port_names
    for name in ("gate_xy", "port_xy", "term_x", "term_y", "gate_widths",
                 "pair_driver", "pair_sink", "pair_net", "term_offsets"):
        ours, theirs = getattr(lazy, name), getattr(eager, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name
    assert pickle.dumps(placement) == pickle.dumps(layout.placement)
    assert placement == layout.placement


def test_decoded_driver_points_built_on_access(netlist):
    layout = build_layout(netlist, seed=3)
    _payload, decoded = _decoded(netlist, layout)
    _payload, twin = _decoded(netlist, layout)
    assert routing_backing(decoded.routing).driver_points is None
    for name, net in decoded.routing.items():
        assert "driver_point" not in net.__dict__
        assert net.driver_point == layout.routing[name].driver_point
    # Laziness is pickle-invisible: an untouched twin pickles identically.
    for name in list(decoded.routing)[:10]:
        assert "driver_point" not in twin.routing[name].__dict__
        assert pickle.dumps(twin.routing[name]) == pickle.dumps(decoded.routing[name])


def test_store_replay_builds_no_points(netlist, monkeypatch):
    """decode -> distances / wirelength / vias -> re-encode: zero Points,
    and the re-encoded payload is byte-identical."""
    from repro.layout.geometry import Point
    from repro.metrics.distances import distance_stats
    from repro.metrics.vias import via_counts_by_name
    from repro.metrics.wirelength import wirelength_share_by_layer

    layout = build_layout(netlist, seed=3)
    payload = codec.encode_build(_build_of(layout), netlist)
    built = []
    # Every Point comes from its __init__ or from arrays._fast_point (the
    # one __dict__ fast path); count both.
    init = Point.__init__
    fast_point = arrays_module._fast_point

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_fast_point(x, y):
        built.append("fast")
        return fast_point(x, y)

    monkeypatch.setattr(Point, "__init__", counting_init)
    monkeypatch.setattr(arrays_module, "_fast_point", counting_fast_point)
    decoded = codec.decode_build(*payload, netlist).layout
    nets = set(list(netlist.nets)[::3])
    for subset in (None, nets):
        distance_stats(decoded, subset)
        wirelength_share_by_layer(decoded, subset)
    via_counts_by_name(decoded)
    decoded.total_vias()
    replay = codec.encode_build(_build_of(decoded), netlist)
    assert built == []
    # The counters do see both construction paths.
    Point(0.0, 0.0)
    _ = next(net.driver_point for net in decoded.routing.values()
             if net.driver_point is not None)
    assert built == ["init", "fast"]
    _assert_payloads_identical(payload, replay)
    assert routing_backing(decoded.routing).materialized_count == 0


def test_materialized_placement_is_authoritative(netlist):
    layout = build_layout(netlist, seed=3)
    payload, decoded = _decoded(netlist, layout)
    placement = decoded.placement
    before = placement_arrays(netlist, placement)
    gate = next(iter(placement.gate_positions))  # materializes the gates
    assert placement.lazy_columns("gate_positions") is None
    old = placement.gate_positions[gate]
    placement.gate_positions[gate] = Point(old.x + 7.0, old.y)
    # The cache holds until the geometry_version bump, then sees the move.
    assert placement_arrays(netlist, placement) is before
    placement.bump_geometry_version()
    after = placement_arrays(netlist, placement)
    assert after is not before
    index = after.gate_names.index(gate)
    assert after.gate_xy[index, 0] == old.x + 7.0
    # Assigned ports win over the columns too, in the view and the encoder.
    placement.port_positions = {
        name: Point(point.x, point.y + 1.0)
        for name, point in layout.placement.port_positions.items()
    }
    assert placement.lazy_columns("port_positions") is None
    placement.bump_geometry_version()
    _record, arrays = codec.encode_build(_build_of(decoded), netlist)
    order = arrays["layout.gate_order"].tolist()
    moved = order.index(list(netlist.gates).index(gate))
    assert arrays["layout.gate_x"][moved] == old.x + 7.0
    assert np.array_equal(arrays["layout.port_y"], payload[1]["layout.port_y"] + 1.0)


# -- defense: columnar hint overrides == object-path hints -------------------


def test_defense_backing_path_matches_object_path(netlist, monkeypatch):
    from repro.defenses import routing_perturbation as rp

    fast = rp.routing_perturbation_defense(netlist, seed=7)
    monkeypatch.setattr(rp, "routing_backing", lambda routing: None)
    slow = rp.routing_perturbation_defense(netlist, seed=7)
    assert list(fast.routing) == list(slow.routing)
    for name in fast.routing:
        for a, b in zip(fast.routing[name].connections,
                        slow.routing[name].connections):
            assert a.source_hint == b.source_hint, name
            assert a.target_hint == b.target_hint, name
            assert a.segments == b.segments, name
