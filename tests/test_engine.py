"""Tests for the compiled simulation engine.

The contract under test: the engine's compiled arc program is **bit-for-bit
identical** to the historical per-gate interpreter (:func:`_simulate_legacy`,
kept here as the oracle) at equal seed, on every ISCAS circuit as well as on
netlists with dangling/X nets, combinational loops and custom cells.  The
vectorized attack cost matrix is checked against the historical per-pair
construction.
"""

from __future__ import annotations

import functools
import pickle
from typing import Dict

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.network_flow import (
    NetworkFlowAttackConfig,
    _direction_penalty,
    _visible_reachability,
    build_cost_matrix,
    network_flow_attack,
)
from repro.circuits import c17_netlist, iscas85_netlist
from repro.circuits.iscas85 import PAPER_ISCAS85_SET
from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.netlist import engine
from repro.netlist.cells import Cell, CellLibrary, CellPin, NaryLogicFn, default_library
from repro.netlist.graph import (
    netlist_to_digraph,
    pseudo_topological_order,
    transitive_closure_bitmap,
)
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import (
    SimulationResult,
    _resolved_inputs,
    hamming_distance,
    output_error_rate,
    simulate,
    toggle_rates,
)
from repro.sm.split import extract_feol


def _simulate_legacy(netlist: Netlist, inputs: Dict[str, int],
                     num_patterns: int, x_value: int) -> SimulationResult:
    """Oracle: per-gate evaluation over Python bigints and a values dict."""
    mask = (1 << num_patterns) - 1
    values: Dict[str, int] = dict(inputs)

    # The pseudo-topological order degrades gracefully on (attacker-induced)
    # combinational loops instead of refusing to simulate.
    order = pseudo_topological_order(netlist)
    for gate_name in order:
        gate = netlist.gates[gate_name]
        if gate.cell.is_sequential:
            continue  # Outputs already seeded as pseudo inputs.
        gate_inputs: Dict[str, int] = {}
        for pin in gate.input_pin_names:
            net_name = gate.net_on(pin)
            if net_name is None:
                gate_inputs[pin] = x_value & mask
            else:
                gate_inputs[pin] = values.get(net_name, x_value & mask)
        outputs = gate.cell.evaluate(gate_inputs, mask)
        for pin, value in outputs.items():
            net_name = gate.net_on(pin)
            if net_name is not None:
                values[net_name] = value & mask

    observed: Dict[str, int] = {}
    for po in netlist.primary_outputs:
        net_name = netlist.output_nets[po]
        observed[po] = values.get(net_name, x_value & mask)

    return SimulationResult(
        num_patterns=num_patterns,
        inputs=inputs,
        outputs=observed,
        net_values=values,
    )


def _assert_matches_oracle(netlist, num_patterns, seed=7, x_value=0):
    """A freshly compiled plan must replay the oracle exactly."""
    engine._PLAN_CACHE.pop(netlist, None)
    expected = _simulate_legacy(
        netlist, _resolved_inputs(netlist, None, num_patterns, seed),
        num_patterns, x_value,
    )
    for _run in range(2):  # compiled, then served from the plan cache
        result = simulate(netlist, None, num_patterns, seed, x_value)
        assert result.inputs == expected.inputs
        assert result.outputs == expected.outputs
        assert result.net_values == expected.net_values


def _library_with(*cells):
    return CellLibrary("with_custom", list(default_library()) + list(cells))


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", ("c17",) + PAPER_ISCAS85_SET)
    def test_every_iscas_circuit_bit_exact(self, name):
        netlist = c17_netlist() if name == "c17" else iscas85_netlist(name, seed=1)
        _assert_matches_oracle(netlist, num_patterns=128, seed=3)

    @pytest.mark.parametrize("num_patterns", (8, 63, 64, 65, 100, 512))
    def test_non_word_aligned_pattern_counts(self, num_patterns):
        netlist = iscas85_netlist("c432", seed=1)
        _assert_matches_oracle(netlist, num_patterns)

    @pytest.mark.parametrize("x_value_kind", ("zero", "ones", "pattern"))
    def test_dangling_inputs_and_x_values(self, x_value_kind):
        netlist = Netlist("dangling")
        netlist.add_primary_input("a")
        netlist.add_gate("g1", "NAND2_X1", {"A1": "a", "ZN": "n1"})  # A2 open
        netlist.add_gate("g2", "MUX2_X1", {"A": "n1", "S": "a", "Z": "n2"})  # B open
        netlist.add_gate("g3", "INV_X1", {"A": "n2", "ZN": "n3"})
        netlist.add_primary_output("o", "n3")
        num_patterns = 96
        x_value = {"zero": 0, "ones": (1 << num_patterns) - 1,
                   "pattern": 0x5A5A5A5A5A5A5A5A5A5A}[x_value_kind]
        _assert_matches_oracle(netlist, num_patterns, x_value=x_value)

    def test_undriven_output_net_reads_x(self):
        netlist = Netlist("floating_po")
        netlist.add_primary_input("a")
        netlist.add_gate("g", "BUF_X1", {"A": "a", "Z": "n1"})
        netlist.add_primary_output("o1", "n1")
        netlist.add_net("floating")
        netlist.add_primary_output("o2", "floating")
        _assert_matches_oracle(netlist, 64, x_value=(1 << 64) - 1)

    def test_combinational_loop_two_gate(self):
        netlist = Netlist("loop2")
        netlist.add_primary_input("a")
        netlist.add_primary_input("b")
        netlist.add_gate("g1", "NAND2_X1", {"A1": "a", "A2": "n2", "ZN": "n1"})
        netlist.add_gate("g2", "NAND2_X1", {"A1": "n1", "A2": "b", "ZN": "n2"})
        netlist.add_gate("g3", "NOR2_X1", {"A1": "n1", "A2": "n2", "ZN": "n3"})
        netlist.add_primary_output("o", "n3")
        for num_patterns in (16, 64, 100):
            _assert_matches_oracle(netlist, num_patterns)

    def test_combinational_loop_self(self):
        netlist = Netlist("selfloop")
        netlist.add_primary_input("a")
        netlist.add_gate("g1", "OR2_X1", {"A1": "a", "A2": "n1", "ZN": "n1"})
        netlist.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
        netlist.add_primary_output("o", "n2")
        _assert_matches_oracle(netlist, 64)

    def test_loop_in_attack_recovered_shape(self):
        """A larger ring with taps, as network-flow recovery can produce."""
        netlist = Netlist("ring")
        netlist.add_primary_input("a")
        previous = "a"
        for index in range(6):
            netlist.add_gate(
                f"r{index}", "NAND2_X1",
                {"A1": previous, "A2": "ring5", "ZN": f"ring{index}"},
            )
            previous = f"ring{index}"
        netlist.add_gate("tap", "XOR2_X1", {"A1": "ring2", "A2": "ring5", "Z": "out_net"})
        netlist.add_primary_output("o", "out_net")
        for num_patterns in (32, 128):
            _assert_matches_oracle(netlist, num_patterns)

    def test_simulate_matches_legacy_through_public_api(self, c432):
        inputs = _resolved_inputs(c432, None, 256, 11)
        legacy = _simulate_legacy(c432, dict(inputs), 256, 0)
        fast = simulate(c432, None, 256, 11)
        assert fast.outputs == legacy.outputs
        assert fast.net_values == legacy.net_values
        assert fast.inputs == legacy.inputs

    def test_custom_cell_compiles_and_matches_oracle(self):
        """Cells without logic_ops compile to arcs that call their function."""
        custom = Cell(
            name="MAJ3_CUSTOM",
            pins=(
                CellPin("A", "input", 1.0), CellPin("B", "input", 1.0),
                CellPin("C", "input", 1.0), CellPin("Z", "output"),
            ),
            function=lambda inputs, mask: {
                "Z": ((inputs["A"] & inputs["B"]) | (inputs["A"] & inputs["C"])
                      | (inputs["B"] & inputs["C"])) & mask
            },
            area_um2=1.0,
            width_um=1.0,
        )
        netlist = Netlist("custom", _library_with(custom))
        netlist.add_primary_input("a")
        netlist.add_primary_input("b")
        netlist.add_primary_input("c")
        netlist.add_gate("g", "MAJ3_CUSTOM", {"A": "a", "B": "b", "C": "c", "Z": "n"})
        netlist.add_gate("h", "MAJ3_CUSTOM", {"A": "n", "B": "b", "Z": "m"})  # C open
        netlist.add_primary_output("o", "n")
        netlist.add_primary_output("p", "m")
        plan = engine.compile_plan(netlist)
        assert [type(op) for op, _ins, _out in plan.arc_program] == [engine.CellArc] * 2
        for x_value in (0, (1 << 64) - 1):
            _assert_matches_oracle(netlist, 64, seed=1, x_value=x_value)

    def test_two_output_custom_cell_matches_oracle(self):
        """Each output pin of a multi-output custom cell is its own arc."""
        half_adder = Cell(
            name="HA_CUSTOM",
            pins=(
                CellPin("A", "input", 1.0), CellPin("B", "input", 1.0),
                CellPin("S", "output"), CellPin("CO", "output"),
            ),
            function=lambda inputs, mask: {
                "S": (inputs["A"] ^ inputs["B"]) & mask,
                "CO": inputs["A"] & inputs["B"] & mask,
            },
            area_um2=1.0,
            width_um=1.0,
        )
        netlist = Netlist("half_adders", _library_with(half_adder))
        for name in ("a", "b", "c"):
            netlist.add_primary_input(name)
        netlist.add_gate("ha1", "HA_CUSTOM", {"A": "a", "B": "b", "S": "s1", "CO": "c1"})
        netlist.add_gate("ha2", "HA_CUSTOM", {"A": "s1", "B": "c", "S": "sum"})  # CO open
        netlist.add_gate("or", "OR2_X1", {"A1": "c1", "A2": "s1", "ZN": "carry"})
        netlist.add_primary_output("sum", "sum")
        netlist.add_primary_output("carry", "carry")
        plan = engine.compile_plan(netlist)
        assert len(plan.arc_program) == 4  # ha1.S, ha1.CO, ha2.S, or.ZN
        for num_patterns in (1, 100):
            _assert_matches_oracle(netlist, num_patterns)


@functools.lru_cache(maxsize=None)
def _generated_netlist(num_gates, sequential_fraction, seed):
    spec = RandomLogicSpec(
        name="prop", num_gates=num_gates, num_inputs=6, num_outputs=4, seed=seed,
        sequential_fraction=sequential_fraction,
    )
    return generate_random_logic(spec)


@st.composite
def _rewired_netlists(draw):
    """A generated netlist after random ``move_sink`` rewirings.

    Targets are drawn from every net plus one undriven net, so rewirings
    close combinational loops and leave dangling sink pins, the shapes the
    randomizer and the attacks produce.
    """
    netlist = _generated_netlist(
        draw(st.integers(min_value=8, max_value=60)),
        draw(st.sampled_from((0.0, 0.12))),
        draw(st.integers(min_value=0, max_value=2**16)),
    ).copy("rewired")
    netlist.add_net("floating")
    sinks = [
        (gate.name, pin)
        for gate in netlist.gates.values()
        for pin in gate.input_pin_names
        if gate.net_on(pin) is not None
    ]
    targets = sorted(netlist.nets)
    moves = draw(st.lists(
        st.tuples(st.sampled_from(sinks), st.sampled_from(targets)), max_size=12,
    ))
    for (gate_name, pin), target in moves:
        netlist.move_sink(gate_name, pin, target)
    return netlist


class TestOracleProperty:
    @given(
        netlist=_rewired_netlists(),
        num_patterns=st.integers(min_value=1, max_value=300),
        x_kind=st.sampled_from(("zero", "ones", "pattern")),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rewired_netlists_match_oracle(self, netlist, num_patterns, x_kind, seed):
        x_value = {"zero": 0, "ones": (1 << num_patterns) - 1,
                   "pattern": 0x5A5A5A5A5A5A5A5A5A5A}[x_kind]
        _assert_matches_oracle(netlist, num_patterns, seed=seed, x_value=x_value)


class TestPlanCache:
    def test_plan_cached_until_mutation(self, c432):
        plan_a = engine.compile_plan(c432)
        assert engine.compile_plan(c432) is plan_a

    def test_mutation_invalidates_plan(self):
        netlist = iscas85_netlist("c432", seed=1)
        baseline = simulate(netlist, None, 128, 5).outputs
        plan_a = engine.compile_plan(netlist)
        gate = next(
            g for g in netlist.gates.values()
            if g.input_pin_names and g.net_on(g.input_pin_names[0]) is not None
        )
        source_net = gate.net_on(gate.input_pin_names[0])
        target_net = next(
            name for name, net in netlist.nets.items()
            if name != source_net and net.has_driver()
        )
        netlist.move_sink(gate.name, gate.input_pin_names[0], target_net)
        plan_b = engine.compile_plan(netlist)
        assert plan_b is not plan_a
        mutated = simulate(netlist, None, 128, 5)
        expected = _simulate_legacy(
            netlist, _resolved_inputs(netlist, None, 128, 5), 128, 0
        )
        assert mutated.outputs == expected.outputs
        assert mutated.outputs != baseline or mutated.net_values != {}

    def test_topology_version_bumps(self):
        netlist = Netlist("versioned")
        v0 = netlist.topology_version
        netlist.add_primary_input("a")
        netlist.add_gate("g", "INV_X1", {"A": "a", "ZN": "n"})
        netlist.add_primary_output("o", "n")
        assert netlist.topology_version > v0
        v1 = netlist.topology_version
        netlist.disconnect_pin("g", "A")
        assert netlist.topology_version > v1


class TestMetricsBitExact:
    def test_oer_hd_match_legacy_formulas(self, c432):
        candidate = c432.copy("candidate")
        gate = next(
            g for g in candidate.gates.values()
            if g.input_pin_names and g.net_on(g.input_pin_names[0]) is not None
        )
        current = gate.net_on(gate.input_pin_names[0])
        other = next(
            name for name, net in candidate.nets.items()
            if name != current and net.has_driver()
        )
        candidate.move_sink(gate.name, gate.input_pin_names[0], other)

        from repro.netlist.simulate import _shared_input_patterns

        for num_patterns in (100, 512):
            patterns = _shared_input_patterns(c432, candidate, num_patterns, 0)
            ref = _simulate_legacy(
                c432, _resolved_inputs(c432, patterns, num_patterns, 0), num_patterns, 0
            )
            cand = _simulate_legacy(
                candidate, _resolved_inputs(candidate, patterns, num_patterns, 0),
                num_patterns, 0,
            )
            error_mask = 0
            differing = 0
            for po, ref_value in ref.outputs.items():
                error_mask |= ref_value ^ cand.outputs[po]
                differing += (ref_value ^ cand.outputs[po]).bit_count()
            expected_oer = 100.0 * error_mask.bit_count() / num_patterns
            expected_hd = 100.0 * differing / (num_patterns * len(ref.outputs))
            assert output_error_rate(c432, candidate, num_patterns, 0) == expected_oer
            assert hamming_distance(c432, candidate, num_patterns, 0) == expected_hd

    def test_toggle_rates_match_legacy(self, c432):
        for num_patterns in (256, 4096):
            rates = toggle_rates(c432, num_patterns, 2)
            legacy = _simulate_legacy(
                c432, _resolved_inputs(c432, None, num_patterns, 2), num_patterns, 0
            )
            expected = {}
            for net, value in legacy.net_values.items():
                p = value.bit_count() / num_patterns
                expected[net] = 2.0 * p * (1.0 - p)
            assert rates == expected


class TestGraphHelpers:
    def test_pseudo_topological_order_matches_networkx_reference(self):
        def reference(netlist):
            graph = netlist_to_digraph(netlist)
            sequential = [n for n, d in graph.nodes(data=True) if d.get("sequential")]
            comb = graph.copy()
            comb.remove_nodes_from(sequential)
            in_degree = dict(comb.in_degree())
            ready = sorted((n for n, d in in_degree.items() if d == 0), reverse=True)
            scheduled = set(ready)
            order = []
            while len(order) < comb.number_of_nodes():
                if not ready:
                    victim = min(
                        (n for n in in_degree if n not in scheduled),
                        key=lambda n: (in_degree[n], n),
                    )
                    scheduled.add(victim)
                    ready.append(victim)
                gate = ready.pop()
                order.append(gate)
                for succ in comb.successors(gate):
                    if succ in scheduled:
                        continue
                    in_degree[succ] -= 1
                    if in_degree[succ] <= 0:
                        scheduled.add(succ)
                        ready.append(succ)
            return sequential + order

        for name in ("c432", "c880", "c1908"):
            netlist = iscas85_netlist(name, seed=1)
            assert pseudo_topological_order(netlist) == reference(netlist)

        loopy = Netlist("loopy")
        loopy.add_primary_input("a")
        loopy.add_gate("g1", "NAND2_X1", {"A1": "a", "A2": "n2", "ZN": "n1"})
        loopy.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
        loopy.add_primary_output("o", "n1")
        assert pseudo_topological_order(loopy) == reference(loopy)

    def test_transitive_closure_bitmap_matches_descendants(self):
        netlist = iscas85_netlist("c880", seed=1)
        graph = netlist_to_digraph(netlist)
        index, bitmap = transitive_closure_bitmap(graph)
        assert set(index) == set(graph.nodes)
        sample = sorted(index)[:25]
        for node in sample:
            row = index[node]
            got = {
                other for other, bit in index.items()
                if (bitmap[row, bit >> 6] >> np.uint64(bit & 63)) & np.uint64(1)
            }
            assert got == nx.descendants(graph, node)

    def test_transitive_closure_bitmap_with_cycle(self):
        graph = nx.DiGraph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        index, bitmap = transitive_closure_bitmap(graph)

        def reachable(node):
            row = index[node]
            return {
                other for other, bit in index.items()
                if (bitmap[row, bit >> 6] >> np.uint64(bit & 63)) & np.uint64(1)
            }

        for node in graph.nodes:
            assert reachable(node) == nx.descendants(graph, node)


class TestAttackCostMatrixRegression:
    @staticmethod
    def _legacy_cost_matrix(view, config):
        """The historical per-pair construction, kept as the reference."""
        drivers = view.driver_vpins
        sinks = view.sink_vpins
        half_perimeter = view.layout.floorplan.half_perimeter_um
        reach = _visible_reachability(view) if config.use_loop_hint else None
        cache = {}

        def descendants(gate):
            if gate not in cache:
                if reach is None or gate not in reach:
                    cache[gate] = set()
                else:
                    cache[gate] = set(nx.descendants(reach, gate))
            return cache[gate]

        base_costs = np.zeros((len(sinks), len(drivers)))
        excluded = 0
        for si, sink in enumerate(sinks):
            for di, driver in enumerate(drivers):
                distance = (
                    abs(sink.position.x - driver.position.x)
                    + abs(sink.position.y - driver.position.y)
                )
                pair_cost = distance
                infeasible = False
                if config.use_direction_hint:
                    penalty, sink_angle = _direction_penalty(driver, sink)
                    pair_cost += config.direction_weight * half_perimeter * 0.1 * penalty
                    if (
                        sink_angle > config.direction_tolerance_deg
                        and distance > config.direction_min_distance_um
                    ):
                        infeasible = True
                if distance > config.timing_fraction * half_perimeter:
                    pair_cost += config.timing_penalty
                if (
                    config.use_load_hint
                    and driver.max_load_ff > 0
                    and sink.capacitance_ff > driver.max_load_ff
                ):
                    infeasible = True
                if sink.gate is not None and driver.gate is not None:
                    if sink.gate == driver.gate:
                        infeasible = True
                    elif config.use_loop_hint and driver.gate in descendants(sink.gate):
                        infeasible = True
                if infeasible:
                    pair_cost = config.infeasible_cost
                    excluded += 1
                base_costs[si, di] = pair_cost
        return base_costs, excluded

    @pytest.mark.parametrize("split_layer", (3, 5))
    def test_matches_legacy_construction(self, protection_c432, split_layer):
        view = extract_feol(protection_c432.protected_layout, split_layer)
        for config in (
            NetworkFlowAttackConfig(),
            NetworkFlowAttackConfig(use_direction_hint=False),
            NetworkFlowAttackConfig(use_load_hint=False),
            NetworkFlowAttackConfig(use_loop_hint=False),
        ):
            new_costs, new_excluded = build_cost_matrix(view, config)
            old_costs, old_excluded = self._legacy_cost_matrix(view, config)
            assert new_costs.shape == old_costs.shape
            assert new_excluded == old_excluded
            assert np.allclose(new_costs, old_costs, rtol=1e-12, atol=1e-9)

    def test_empty_view_cost_matrix(self, c432_layout):
        view = extract_feol(c432_layout, 10)  # split above everything: no cuts
        costs, excluded = build_cost_matrix(view, NetworkFlowAttackConfig())
        assert costs.size == 0 and excluded == 0
        result = network_flow_attack(view)
        assert result.recovered_netlist is not None


class TestPicklability:
    def test_nary_logic_fn_roundtrip(self):
        fn = NaryLogicFn("NAND", ("A1", "A2"))
        clone = pickle.loads(pickle.dumps(fn))
        assert clone({"A1": 0b1100, "A2": 0b1010}, 0b1111) == fn(
            {"A1": 0b1100, "A2": 0b1010}, 0b1111
        )
        assert clone({"A1": 0b1100, "A2": 0b1010}, 0b1111) == {"ZN": 0b0111}

    def test_netlist_roundtrip(self, c432):
        clone = pickle.loads(pickle.dumps(c432))
        assert clone.stats() == c432.stats()
        assert (
            simulate(clone, None, 64, 3).outputs
            == simulate(c432, None, 64, 3).outputs
        )
