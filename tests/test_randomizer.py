"""Tests for the OER-driven netlist randomizer."""

from typing import Dict, List, Optional, Set

import networkx as nx
import pytest

from repro.circuits import iscas85_netlist, superblue_netlist
from repro.core.flow import _num_eligible_sinks
from repro.core.randomizer import (
    RandomizationResult,
    RandomizerConfig,
    SwapRecord,
    _driver_gate,
    _swappable_sinks,
    randomize_netlist,
)
from repro.netlist.graph import has_combinational_loop, netlist_to_digraph
from repro.netlist.netlist import Netlist, PinRef
from repro.netlist.simulate import output_error_rate
from repro.utils.rng import make_rng


class _ReferenceLoopChecker:
    """The retired networkx loop checker: ``has_path`` on a multiplicity
    graph that swaps edit edge by edge."""

    def __init__(self, netlist: Netlist):
        graph = netlist_to_digraph(netlist)
        graph.remove_nodes_from(
            [name for name, data in graph.nodes(data=True) if data.get("sequential")]
        )
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(graph.nodes())
        for u, v in graph.edges():
            self._graph.add_edge(u, v, count=1)

    def would_create_loop(self, driver_gate: Optional[str], sink_gate: str) -> bool:
        if driver_gate is None:
            return False
        if driver_gate == sink_gate:
            return True
        if driver_gate not in self._graph or sink_gate not in self._graph:
            return False
        return nx.has_path(self._graph, sink_gate, driver_gate)

    def remove_edge(self, driver_gate: Optional[str], sink_gate: str) -> None:
        if driver_gate is None or not self._graph.has_edge(driver_gate, sink_gate):
            return
        data = self._graph[driver_gate][sink_gate]
        data["count"] -= 1
        if data["count"] <= 0:
            self._graph.remove_edge(driver_gate, sink_gate)

    def add_edge(self, driver_gate: Optional[str], sink_gate: str) -> None:
        if driver_gate is None or sink_gate not in self._graph:
            return
        if self._graph.has_edge(driver_gate, sink_gate):
            self._graph[driver_gate][sink_gate]["count"] += 1
        else:
            self._graph.add_edge(driver_gate, sink_gate, count=1)


def randomize_reference(netlist: Netlist, config: RandomizerConfig) -> RandomizationResult:
    """Oracle: the retired randomize loop.

    Swaps go through plain ``move_sink``, so every OER evaluation recompiles
    the erroneous netlist's plan, and loops are checked by
    :class:`_ReferenceLoopChecker` with both removed edges taken out first.
    """
    rng = make_rng(config.seed, "randomizer", netlist.name)
    erroneous = netlist.copy(f"{netlist.name}_erroneous")
    checker = _ReferenceLoopChecker(erroneous)
    swaps: Dict[PinRef, SwapRecord] = {}
    protected: Set[str] = set()
    oer_history: List[float] = []
    oer = 0.0
    eligible_sinks = [sink for _net, sink in _swappable_sinks(erroneous)]

    def attempt_pair() -> bool:
        if len(eligible_sinks) < 2:
            return False
        sink_a, sink_b = rng.sample(eligible_sinks, 2)
        net_a = erroneous.gates[sink_a[0]].net_on(sink_a[1])
        net_b = erroneous.gates[sink_b[0]].net_on(sink_b[1])
        if net_a is None or net_b is None or net_a == net_b:
            return False
        if sink_a in swaps or sink_b in swaps:
            return False
        driver_a = _driver_gate(erroneous, net_a)
        driver_b = _driver_gate(erroneous, net_b)
        checker.remove_edge(driver_a, sink_a[0])
        checker.remove_edge(driver_b, sink_b[0])
        if (checker.would_create_loop(driver_b, sink_a[0])
                or checker.would_create_loop(driver_a, sink_b[0])):
            checker.add_edge(driver_a, sink_a[0])
            checker.add_edge(driver_b, sink_b[0])
            return False
        original_a = erroneous.move_sink(sink_a[0], sink_a[1], net_b)
        original_b = erroneous.move_sink(sink_b[0], sink_b[1], net_a)
        checker.add_edge(driver_b, sink_a[0])
        checker.add_edge(driver_a, sink_b[0])
        swaps[sink_a] = SwapRecord(sink=sink_a, original_net=original_a, erroneous_net=net_b)
        swaps[sink_b] = SwapRecord(sink=sink_b, original_net=original_b, erroneous_net=net_a)
        protected.update((original_a, original_b))
        return True

    max_attempts = config.max_swaps * 8
    attempts = 0
    while len(swaps) < config.max_swaps and attempts < max_attempts:
        accepted = 0
        for _ in range(config.batch_pairs):
            attempts += 1
            if len(swaps) >= config.max_swaps or attempts >= max_attempts:
                break
            if attempt_pair():
                accepted += 1
        if accepted == 0 and attempts >= max_attempts:
            break
        oer = output_error_rate(
            netlist, erroneous, num_patterns=config.oer_patterns, seed=config.seed
        )
        oer_history.append(oer)
        if oer >= config.target_oer_percent and len(swaps) >= config.min_swaps:
            break
    return RandomizationResult(
        original=netlist, erroneous=erroneous, swaps=list(swaps.values()),
        protected_nets=protected, oer_percent=oer, oer_history=oer_history,
    )


def step_config(netlist: Netlist, fraction: float, seed: int,
                oer_patterns: int = 1024) -> RandomizerConfig:
    """The randomizer settings ``protect`` uses for one budget step."""
    target = min(800, max(2, int(_num_eligible_sinks(netlist) * fraction)))
    return RandomizerConfig(
        target_oer_percent=99.0, max_swaps=max(800, target), min_swaps=target,
        batch_pairs=max(8, target // 8), oer_patterns=oer_patterns, seed=seed,
    )


def assert_same_randomization(result: RandomizationResult,
                              expected: RandomizationResult) -> None:
    assert result.swaps == expected.swaps
    assert result.oer_history == expected.oer_history
    assert result.oer_percent == expected.oer_percent
    assert result.protected_nets == expected.protected_nets


class TestRandomizer:
    def test_original_untouched(self, c432):
        before = c432.copy("before")
        randomize_netlist(c432, RandomizerConfig(max_swaps=20, seed=1))
        assert {g: dict(gate.connections) for g, gate in c432.gates.items()} == \
            {g: dict(gate.connections) for g, gate in before.gates.items()}

    def test_erroneous_netlist_is_loop_free(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=60, seed=1))
        assert not has_combinational_loop(result.erroneous)
        assert result.erroneous.validate() == []

    def test_oer_reaches_target(self, c432):
        result = randomize_netlist(
            c432, RandomizerConfig(target_oer_percent=99.0, max_swaps=200, seed=1)
        )
        assert result.oer_percent >= 99.0

    def test_oer_matches_independent_measurement(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=40, seed=2))
        independent = output_error_rate(c432, result.erroneous, num_patterns=1024, seed=7)
        assert independent == pytest.approx(result.oer_percent, abs=5.0)

    def test_swap_records_describe_the_changes(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=40, seed=3))
        assert result.num_swaps > 0
        for record in result.swaps:
            gate, pin = record.sink
            # In the erroneous netlist the sink sits on the erroneous net...
            assert result.erroneous.gates[gate].net_on(pin) == record.erroneous_net
            # ...and in the original it sits on the original net.
            assert c432.gates[gate].net_on(pin) == record.original_net
            assert record.original_net != record.erroneous_net

    def test_swapped_sinks_unique(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=60, seed=4))
        sinks = [record.sink for record in result.swaps]
        assert len(sinks) == len(set(sinks))

    def test_protected_nets_match_swaps(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=40, seed=5))
        from_swaps = {record.original_net for record in result.swaps}
        assert result.protected_nets == from_swaps

    def test_max_swaps_respected(self, c432):
        result = randomize_netlist(
            c432, RandomizerConfig(max_swaps=10, min_swaps=10, target_oer_percent=100.0, seed=6)
        )
        assert result.num_swaps <= 10

    def test_min_swaps_forces_more_randomization(self, c432):
        small = randomize_netlist(
            c432, RandomizerConfig(max_swaps=200, min_swaps=0, target_oer_percent=50.0, seed=7)
        )
        large = randomize_netlist(
            c432, RandomizerConfig(max_swaps=200, min_swaps=60, target_oer_percent=50.0, seed=7)
        )
        assert large.num_swaps >= small.num_swaps
        assert large.num_swaps >= 60

    def test_deterministic(self, c432):
        a = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=11))
        b = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=11))
        assert [r.sink for r in a.swaps] == [r.sink for r in b.swaps]

    def test_seed_changes_swaps(self, c432):
        a = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=1))
        b = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=2))
        assert [r.sink for r in a.swaps] != [r.sink for r in b.swaps]

    def test_dont_touch_marking(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=20, seed=1))
        for record in result.swaps:
            assert result.erroneous.gates[record.sink[0]].dont_touch

    def test_sequential_sinks_never_swapped(self):
        from repro.circuits import superblue_netlist

        netlist = superblue_netlist("superblue18", scale=0.001, seed=1)
        result = randomize_netlist(netlist, RandomizerConfig(max_swaps=30, oer_patterns=128, seed=1))
        for record in result.swaps:
            gate = netlist.gates[record.sink[0]]
            assert not gate.cell.is_sequential

    def test_oer_history_monotone_overall(self, c432):
        result = randomize_netlist(
            c432, RandomizerConfig(max_swaps=120, min_swaps=120,
                                   target_oer_percent=100.0, seed=9)
        )
        assert result.oer_history
        assert result.oer_history[-1] >= result.oer_history[0]


class TestRetiredLoopOracle:
    """The patched-plan loop makes exactly the retired loop's choices."""

    @pytest.mark.parametrize("name,seed", [
        ("c432", 0), ("c432", 3), ("c432", 7),
        ("c880", 1), ("c880", 4),
        ("c1908", 2), ("c1908", 5),
    ])
    @pytest.mark.parametrize("fraction", (0.05, 0.10))
    def test_iscas_matches_retired_loop(self, name, seed, fraction):
        netlist = iscas85_netlist(name, seed=1)
        config = step_config(netlist, fraction, seed)
        result = randomize_netlist(netlist, config)
        assert_same_randomization(result, randomize_reference(netlist, config))
        assert not has_combinational_loop(result.erroneous)

    @pytest.mark.parametrize("seed", (1, 2))
    def test_sequential_superblue_matches_retired_loop(self, seed):
        netlist = superblue_netlist("superblue18", scale=0.001, seed=1)
        config = RandomizerConfig(max_swaps=60, min_swaps=60, target_oer_percent=100.0,
                                  oer_patterns=128, seed=seed)
        result = randomize_netlist(netlist, config)
        assert result.num_swaps > 0
        assert_same_randomization(result, randomize_reference(netlist, config))
