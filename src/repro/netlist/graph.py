"""Graph views of a netlist: DAG construction, loops, reachability.

The randomizer must guarantee that no driver→sink swap introduces a
combinational loop (the paper notes that loops would reveal the modification
to an attacker, as the network-flow attack explicitly excludes loop-forming
candidates).  These helpers provide:

* :func:`netlist_to_digraph` — a :class:`networkx.DiGraph` whose nodes are
  gate names (plus pseudo nodes for primary inputs/outputs);
* :func:`has_combinational_loop` / :func:`combinational_loops` — cycle checks
  restricted to combinational cells (flip-flops break cycles);
* :func:`transitive_fanin` / :func:`transitive_fanout` — reachability sets
  used both by the randomizer (fast loop pre-check) and by the attack's
  loop-avoidance hint;
* :func:`topological_gate_order` — evaluation order for simulation and STA.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.netlist.netlist import Netlist

#: Prefix for pseudo-nodes representing primary inputs/outputs in graph views.
PI_PREFIX = "PI::"
PO_PREFIX = "PO::"


def netlist_to_digraph(netlist: Netlist, include_ports: bool = False) -> nx.DiGraph:
    """Build a gate-level directed graph of ``netlist``.

    Nodes are gate names; an edge ``u → v`` exists when an output net of gate
    ``u`` feeds an input pin of gate ``v``.  Sequential cells are included as
    nodes but — by construction of the callers — their edges are treated as
    cut points when checking for *combinational* loops (see
    :func:`combinational_loops`).

    Args:
        netlist: The netlist to convert.
        include_ports: When True, primary inputs/outputs are added as pseudo
            nodes named ``PI::<name>`` / ``PO::<name>`` with corresponding
            edges, which is convenient for plotting and path queries.
    """
    graph = nx.DiGraph()
    for gate_name, gate in netlist.gates.items():
        graph.add_node(gate_name, cell=gate.cell.name, sequential=gate.cell.is_sequential)
    if include_ports:
        for pi in netlist.primary_inputs:
            graph.add_node(PI_PREFIX + pi, cell="__PI__", sequential=False)
        for po in netlist.primary_outputs:
            graph.add_node(PO_PREFIX + po, cell="__PO__", sequential=False)

    for net in netlist.nets.values():
        driver = net.driver
        if driver is None:
            if not net.is_primary_input or not include_ports:
                driver_node = None
            else:
                driver_node = PI_PREFIX + net.name
        else:
            driver_node = driver[0]
        if driver_node is None and not include_ports:
            # Net driven by a primary input (or floating): no gate-to-gate edge.
            continue
        for sink_gate, _pin in net.sinks:
            if driver_node is not None:
                graph.add_edge(driver_node, sink_gate, net=net.name)
        if include_ports:
            for po in net.primary_outputs:
                if driver_node is not None:
                    graph.add_edge(driver_node, PO_PREFIX + po, net=net.name)
    return graph


def _combinational_subgraph(netlist: Netlist, graph: Optional[nx.DiGraph] = None) -> nx.DiGraph:
    """Return the gate graph with sequential cells removed (cycle cut points)."""
    if graph is None:
        graph = netlist_to_digraph(netlist)
    sequential = [n for n, data in graph.nodes(data=True) if data.get("sequential")]
    if not sequential:
        return graph
    sub = graph.copy()
    sub.remove_nodes_from(sequential)
    return sub


def combinational_loops(netlist: Netlist) -> List[List[str]]:
    """Return a list of combinational cycles (each a list of gate names).

    Sequential cells legitimately close feedback paths and are excluded.  An
    empty list means the combinational portion of the design is acyclic.
    """
    sub = _combinational_subgraph(netlist)
    try:
        cycle = nx.find_cycle(sub, orientation="original")
    except nx.NetworkXNoCycle:
        return []
    # Report the single cycle found; enumerating all simple cycles can blow up
    # and callers only need to know *whether* and *where* a loop exists.
    return [[edge[0] for edge in cycle]]


def has_combinational_loop(netlist: Netlist) -> bool:
    """True when the combinational portion of ``netlist`` contains a cycle."""
    sub = _combinational_subgraph(netlist)
    return not nx.is_directed_acyclic_graph(sub)


def transitive_fanout(netlist: Netlist, gate_name: str,
                      graph: Optional[nx.DiGraph] = None) -> Set[str]:
    """Return all gates reachable downstream of ``gate_name`` (exclusive)."""
    if graph is None:
        graph = netlist_to_digraph(netlist)
    if gate_name not in graph:
        return set()
    return set(nx.descendants(graph, gate_name))


def transitive_fanin(netlist: Netlist, gate_name: str,
                     graph: Optional[nx.DiGraph] = None) -> Set[str]:
    """Return all gates in the upstream cone of ``gate_name`` (exclusive)."""
    if graph is None:
        graph = netlist_to_digraph(netlist)
    if gate_name not in graph:
        return set()
    return set(nx.ancestors(graph, gate_name))


def topological_gate_order(netlist: Netlist) -> List[str]:
    """Return gate names in a valid combinational evaluation order.

    Sequential cells are placed first (their outputs act as pseudo-primary
    inputs for the combinational logic they feed).  The combinational gates
    follow in Kahn order, ready gates first-in first-out, which is the order
    ``nx.topological_sort`` gives on the :func:`netlist_to_digraph` view.
    Raises :class:`networkx.NetworkXUnfeasible` if the combinational logic is
    cyclic.
    """
    sequential = [
        name for name, gate in netlist.gates.items() if gate.cell.is_sequential
    ]
    successors, in_degree = _combinational_adjacency(netlist)
    order = [name for name, degree in in_degree.items() if degree == 0]
    for gate in order:  # Grows while it is walked.
        for succ in successors[gate]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                order.append(succ)
    if len(order) < len(in_degree):
        raise nx.NetworkXUnfeasible("combinational logic contains a cycle")
    return sequential + order


def _combinational_adjacency(netlist: Netlist):
    """Successor lists and in-degrees of the combinational gate graph.

    Pure-dict equivalent of building :func:`netlist_to_digraph` and removing
    the sequential nodes, but ~20x faster — this sits on the hot path of
    simulation-plan compilation.  Iteration order (nets in insertion order,
    sinks in connection order, each edge at its first insertion) matches the
    networkx construction exactly so the resulting evaluation orders are
    identical.  ``successors[u][v]`` counts the sink pins of ``v`` on nets
    driven by ``u``; ``in_degree`` counts distinct predecessors.
    """
    successors: Dict[str, Dict[str, int]] = {
        name: {} for name, gate in netlist.gates.items()
        if not gate.cell.is_sequential
    }
    in_degree: Dict[str, int] = {name: 0 for name in successors}
    for net in netlist.nets.values():
        driver = net.driver
        if driver is None or driver[0] not in successors:
            continue
        fanout = successors[driver[0]]
        for sink_gate, _pin in net.sinks:
            if sink_gate not in in_degree:
                continue
            if sink_gate in fanout:
                fanout[sink_gate] += 1
            else:
                fanout[sink_gate] = 1
                in_degree[sink_gate] += 1
    return successors, in_degree


def pseudo_topological_order(netlist: Netlist) -> List[str]:
    """Evaluation order that tolerates combinational loops.

    Attack-recovered netlists can accidentally contain combinational cycles.
    To still be able to simulate them (and measure their OER/HD), cycles are
    broken greedily: gates are peeled off in Kahn order and, when only cyclic
    gates remain, the gate with the fewest unresolved fan-ins is emitted next
    (its unresolved inputs will read as the simulator's default value).
    """
    sequential = [
        name for name, gate in netlist.gates.items() if gate.cell.is_sequential
    ]
    successors, in_degree = _combinational_adjacency(netlist)
    ready = sorted((n for n, d in in_degree.items() if d == 0), reverse=True)
    scheduled = set(ready)
    order: List[str] = []
    num_comb = len(in_degree)
    while len(order) < num_comb:
        if not ready:
            # Break a cycle: pick the unscheduled gate with the fewest open fanins.
            victim = min(
                (n for n in in_degree if n not in scheduled),
                key=lambda n: (in_degree[n], n),
            )
            scheduled.add(victim)
            ready.append(victim)
        gate = ready.pop()
        order.append(gate)
        for succ in successors[gate]:
            if succ in scheduled:
                continue
            in_degree[succ] -= 1
            if in_degree[succ] <= 0:
                scheduled.add(succ)
                ready.append(succ)
    return sequential + order


def logic_depth(netlist: Netlist) -> int:
    """Return the maximum combinational depth (number of gates on the longest path)."""
    sub = _combinational_subgraph(netlist)
    if sub.number_of_nodes() == 0:
        return 0
    return nx.dag_longest_path_length(sub) + 1


def gate_levels(netlist: Netlist) -> Dict[str, int]:
    """Return the topological level (longest distance from any input) per gate."""
    sub = _combinational_subgraph(netlist)
    levels: Dict[str, int] = {}
    for gate in nx.topological_sort(sub):
        preds = list(sub.predecessors(gate))
        levels[gate] = 0 if not preds else 1 + max(levels[p] for p in preds)
    # Sequential gates sit at level 0 (treated as pseudo inputs).
    for gate_name, gate in netlist.gates.items():
        if gate.cell.is_sequential:
            levels.setdefault(gate_name, 0)
    return levels


def transitive_closure_bitmap(graph: nx.DiGraph) -> Tuple[Dict[str, int], np.ndarray]:
    """Packed transitive closure of ``graph`` in one pass.

    Returns ``(index, bitmap)`` where ``index`` maps each node to a row/bit
    position and ``bitmap`` is a ``(n, ceil(n / 64))`` ``uint64`` array whose
    row *i* has bit *j* set iff node *j* is in ``nx.descendants(graph, i)``
    (reachable from *i*, excluding *i* itself).  Cycles are handled through
    the strongly-connected-component condensation, so the helper is safe on
    attack-recovered graphs; for the common DAG case the condensation is the
    identity.  One call replaces *n* per-node ``nx.descendants`` traversals.
    """
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    words = max(1, (n + 63) // 64)
    bitmap = np.zeros((n, words), dtype=np.uint64)
    if n == 0:
        return index, bitmap

    condensation = nx.condensation(graph)
    # Bits of each component's member nodes, in node-index space.
    member_bits = np.zeros((condensation.number_of_nodes(), words), dtype=np.uint64)
    for comp_id, data in condensation.nodes(data=True):
        for node in data["members"]:
            i = index[node]
            member_bits[comp_id, i >> 6] |= np.uint64(1 << (i & 63))
    # Reachable-set per component, accumulated in reverse topological order.
    comp_reach = np.zeros_like(member_bits)
    for comp_id in reversed(list(nx.topological_sort(condensation))):
        row = comp_reach[comp_id]
        for succ in condensation.successors(comp_id):
            np.bitwise_or(row, comp_reach[succ], out=row)
            np.bitwise_or(row, member_bits[succ], out=row)

    comp_of = condensation.graph["mapping"]
    for node in nodes:
        i = index[node]
        comp_id = comp_of[node]
        row = bitmap[i]
        np.bitwise_or(comp_reach[comp_id], member_bits[comp_id], out=row)
        # A node never counts as its own descendant (nx.descendants semantics).
        row[i >> 6] &= ~np.uint64(1 << (i & 63))
    return index, bitmap


def would_create_loop(netlist: Netlist, driver_gate: Optional[str],
                      sink_gate: str, graph: Optional[nx.DiGraph] = None) -> bool:
    """Check whether connecting ``driver_gate`` output to an input of ``sink_gate``
    would create a combinational loop.

    ``driver_gate`` may be ``None`` (primary-input driver), which can never
    create a loop.  The check is a reachability query: a loop appears iff
    ``driver_gate`` is reachable *from* ``sink_gate``, or they are the same
    combinational gate.
    """
    if driver_gate is None:
        return False
    if driver_gate == sink_gate:
        return not netlist.gates[sink_gate].cell.is_sequential
    if netlist.gates[driver_gate].cell.is_sequential:
        return False
    if netlist.gates[sink_gate].cell.is_sequential:
        return False
    if graph is None:
        graph = _combinational_subgraph(netlist)
    if sink_gate not in graph or driver_gate not in graph:
        return False
    return nx.has_path(graph, sink_gate, driver_gate)
