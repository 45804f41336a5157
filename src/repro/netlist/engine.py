"""Compiled bit-parallel simulation engine.

This module is the executor behind :mod:`repro.netlist.simulate`.  A netlist
is compiled once into an **evaluation plan**:

* every net gets an integer *slot* in a flat value list whose entries are
  Python bigints (pattern *i* lives in bit *i*);
* gates are walked in the loop-tolerant pseudo-topological order of
  :func:`~repro.netlist.graph.pseudo_topological_order`, and every connected
  output pin becomes one *arc* ``(op, input slots, output slot)`` whose ``op``
  is resolved at compile time.

Running a plan interprets the arc list in order: ``vals[out] = op(vals, ins,
mask)``.  CPython bigint bit-ops cost ~0.1 µs per 4096-bit operand, which
suits the narrow, deep netlists the benchmark generators produce.  Reads
before writes (loop-broken edges, undriven and unconnected nets) observe the
X fill.

Cells with :attr:`~repro.netlist.cells.Cell.logic_ops` compile to the
built-in bit-op kernels below.  Any other combinational cell compiles to one
:class:`CellArc` per output pin, which calls the cell's own ``function``, so
every netlist takes the same path.

Plans are cached per netlist, keyed on :attr:`Netlist.topology_version`, so
any structural edit transparently invalidates the cache.  The one exception
is :func:`rewire_sink`, the sink move of the randomize→OER loop: it patches
the moved gate's arcs in the cached plan, restores the evaluation order
locally (Pearce & Kelly, *A Dynamic Topological Sort Algorithm for DAGs*,
JEA 2006) and re-stamps the plan with the new version.  The same maintained
order answers :func:`closes_loop`, the randomizer's swap loop check.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.netlist.cells import Cell
from repro.netlist.graph import _combinational_adjacency, pseudo_topological_order
from repro.netlist.netlist import Gate, Netlist

#: An arc op: ``op(vals, input slots, mask)`` returns the output bit-vector.
Op = Callable[[List[int], Tuple[int, ...], int], int]


# ---------------------------------------------------------------------------
# Ops over bigint bit-vectors.  Inversions XOR with the mask, so values never
# carry bits above ``num_patterns``.
# ---------------------------------------------------------------------------


def _op_buf(vals, ins, M):
    return vals[ins[0]]


def _op_inv(vals, ins, M):
    return vals[ins[0]] ^ M


def _op_and(vals, ins, M):
    r = M
    for s in ins:
        r &= vals[s]
    return r


def _op_nand(vals, ins, M):
    return _op_and(vals, ins, M) ^ M


def _op_or(vals, ins, M):
    r = 0
    for s in ins:
        r |= vals[s]
    return r


def _op_nor(vals, ins, M):
    return _op_or(vals, ins, M) ^ M


def _op_xor(vals, ins, M):
    r = 0
    for s in ins:
        r ^= vals[s]
    return r


def _op_xnor(vals, ins, M):
    return _op_xor(vals, ins, M) ^ M


def _op_aoi21(vals, ins, M):
    return ((vals[ins[0]] & vals[ins[1]]) | vals[ins[2]]) ^ M


def _op_oai21(vals, ins, M):
    return ((vals[ins[0]] | vals[ins[1]]) & vals[ins[2]]) ^ M


def _op_mux2(vals, ins, M):
    sel = vals[ins[2]]
    return (vals[ins[1]] & sel) | (vals[ins[0]] & (sel ^ M))


_OPS: Dict[str, Op] = {
    "BUF": _op_buf,
    "INV": _op_inv,
    "AND": _op_and,
    "NAND": _op_nand,
    "OR": _op_or,
    "NOR": _op_nor,
    "XOR": _op_xor,
    "XNOR": _op_xnor,
    "AOI21": _op_aoi21,
    "OAI21": _op_oai21,
    "MUX2": _op_mux2,
}


@dataclass(frozen=True)
class CellArc:
    """Op for one output pin of a cell without ``logic_ops`` metadata.

    Evaluates the cell's own ``function`` over all of its input pins and keeps
    ``out_pin``.  A multi-output cell compiles to one arc per output, each
    reading the value list when it runs.
    """

    cell: Cell
    in_pins: Tuple[str, ...]
    out_pin: str

    def __call__(self, vals: List[int], ins: Tuple[int, ...], mask: int) -> int:
        inputs = {pin: vals[slot] for pin, slot in zip(self.in_pins, ins)}
        return self.cell.evaluate(inputs, mask)[self.out_pin] & mask


def _cell_arcs(cell: Cell) -> Sequence[Tuple[str, Op, Tuple[str, ...]]]:
    """``(output pin, op, input pins)`` per output arc of ``cell``."""
    if cell.logic_ops is not None:
        return [(out_pin, _OPS[kind], in_pins)
                for out_pin, kind, in_pins in cell.logic_ops]
    in_pins = tuple(pin.name for pin in cell.input_pins)
    return [(pin.name, CellArc(cell, in_pins, pin.name), in_pins)
            for pin in cell.output_pins]


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

#: One compiled arc: ``(op, input slots, output slot)``.
Arc = Tuple[Op, Tuple[int, ...], int]


@dataclass
class Wiring:
    """The combinational gate graph of a plan, kept in step with rewiring.

    ``position`` numbers the plan's ``gate_order``; it is a topological
    order of the graph whenever ``acyclic`` holds.  Edge ``u -> v`` carries
    the number of sink pins of ``v`` on nets driven by ``u``, so moving one
    of several parallel connections keeps the edge.
    """

    position: Dict[str, int]
    successors: Dict[str, Dict[str, int]]
    predecessors: Dict[str, Dict[str, int]]
    acyclic: bool


@dataclass
class SimPlan:
    """A compiled evaluation plan for one netlist topology revision.

    Not slotted, so instrumentation can hold plans through weak references.
    """

    version: int
    #: One slot per net, plus a last slot that always carries the X fill.
    num_slots: int
    #: ``(input name, slot)`` for primary inputs + sequential pseudo inputs.
    input_slots: List[Tuple[str, int]]
    #: ``(primary output name, slot)``.
    output_slots: List[Tuple[str, int]]
    #: ``(net name, slot)`` of every net the simulation records: inputs
    #: first, then driven nets in the evaluation order of the first compile
    #: (rewiring patches arcs, never this list).
    value_slots: List[Tuple[str, int]]
    #: Slot of every net of the compiled revision.
    net_slot: Dict[str, int]
    #: Combinational gates in evaluation order.
    gate_order: List[str]
    #: Arcs of each combinational gate, one per connected output pin.
    gate_arcs: Dict[str, List[Arc]]
    _program: Optional[List[Arc]] = None
    _wiring: Optional[Wiring] = None

    @property
    def arc_program(self) -> List[Arc]:
        """Flat arc list in evaluation order, re-flattened after rewiring."""
        if self._program is None:
            gate_arcs = self.gate_arcs
            self._program = [arc for gate in self.gate_order for arc in gate_arcs[gate]]
        return self._program


_PLAN_CACHE: "weakref.WeakKeyDictionary[Netlist, SimPlan]" = weakref.WeakKeyDictionary()


def plan_input_names(netlist: Netlist) -> List[str]:
    """Primary inputs plus sequential-cell outputs (pseudo primary inputs)."""
    names = list(netlist.primary_inputs)
    for gate in netlist.gates.values():
        if gate.cell.is_sequential:
            net = netlist.gate_output_net(gate.name)
            if net is not None:
                names.append(net)
    return names


def compile_plan(netlist: Netlist) -> SimPlan:
    """Return the (cached) evaluation plan for ``netlist``."""
    cached = _PLAN_CACHE.get(netlist)
    if cached is not None and cached.version == netlist.topology_version:
        return cached
    plan = _compile(netlist)
    _PLAN_CACHE[netlist] = plan
    return plan


def _gate_arcs(gate: Gate, net_slot: Mapping[str, int], x_slot: int) -> List[Arc]:
    """The arcs of one combinational gate under its current connections."""
    connections = gate.connections
    arcs: List[Arc] = []
    for out_pin, op, in_pins in _cell_arcs(gate.cell):
        out_net = connections.get(out_pin)
        if out_net is None:
            continue  # An unconnected output is never recorded.
        in_slots = []
        for pin in in_pins:
            net_name = connections.get(pin)
            in_slots.append(x_slot if net_name is None else net_slot[net_name])
        arcs.append((op, tuple(in_slots), net_slot[out_net]))
    return arcs


def _compile(netlist: Netlist) -> SimPlan:
    net_names = list(netlist.nets)
    net_slot = {name: i for i, name in enumerate(net_names)}
    x_slot = len(net_slot)
    input_slots = [(name, net_slot[name]) for name in plan_input_names(netlist)]
    value_slots: List[Tuple[str, int]] = list(input_slots)
    arc_program: List[Arc] = []
    gate_order: List[str] = []
    gate_arcs: Dict[str, List[Arc]] = {}
    gates = netlist.gates
    for gate_name in pseudo_topological_order(netlist):
        gate = gates[gate_name]
        if gate.cell.is_sequential:
            continue  # Outputs are seeded as pseudo inputs.
        arcs = _gate_arcs(gate, net_slot, x_slot)
        gate_order.append(gate_name)
        gate_arcs[gate_name] = arcs
        arc_program.extend(arcs)
        value_slots.extend((net_names[out], out) for _op, _ins, out in arcs)

    output_slots = [
        (po, net_slot.get(netlist.output_nets[po], x_slot))
        for po in netlist.primary_outputs
    ]
    return SimPlan(
        version=netlist.topology_version,
        num_slots=x_slot + 1,
        input_slots=input_slots,
        output_slots=output_slots,
        value_slots=value_slots,
        net_slot=net_slot,
        gate_order=gate_order,
        gate_arcs=gate_arcs,
        _program=arc_program,
    )


# ---------------------------------------------------------------------------
# Rewiring: sink moves patch the cached plan instead of recompiling it
# ---------------------------------------------------------------------------


def _wiring(netlist: Netlist, plan: SimPlan) -> Wiring:
    """The plan's gate graph, built on first use from the compiled revision."""
    if plan._wiring is None:
        position = {gate: i for i, gate in enumerate(plan.gate_order)}
        successors, _in_degree = _combinational_adjacency(netlist)
        predecessors: Dict[str, Dict[str, int]] = {gate: {} for gate in successors}
        for driver, fanout in successors.items():
            for sink, count in fanout.items():
                predecessors[sink][driver] = count
        acyclic = all(
            position[u] < position[v] for u, fanout in successors.items() for v in fanout
        )
        plan._wiring = Wiring(position, successors, predecessors, acyclic)
    return plan._wiring


def _cone(start: str, adjacency: Mapping[str, Mapping[str, int]],
          position: Mapping[str, int], low: int, high: int) -> Set[str]:
    """Gates reachable from ``start`` through gates positioned in
    ``[low, high]`` (``start`` included)."""
    seen = {start}
    stack = [start]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen and low <= position[other] <= high:
                seen.add(other)
                stack.append(other)
    return seen


def _connect(wiring: Wiring, order: List[str], driver: str, sink: str) -> bool:
    """Add one ``driver -> sink`` connection and restore the topological order.

    Pearce & Kelly's local reorder: only gates positioned between the sink
    and the driver can be out of order, so the forward cone of the sink and
    the backward cone of the driver inside that window swap places.  Returns
    False when the connection closes a loop (the order is then unusable).
    """
    fanout = wiring.successors[driver]
    fanout[sink] = fanout.get(sink, 0) + 1
    fanin = wiring.predecessors[sink]
    fanin[driver] = fanin.get(driver, 0) + 1
    position = wiring.position
    low, high = position[sink], position[driver]
    if low > high:
        return True
    forward = _cone(sink, wiring.successors, position, low, high)
    if driver in forward:
        return False
    backward = _cone(driver, wiring.predecessors, position, low, high)
    moved = sorted(backward, key=position.__getitem__) + sorted(forward, key=position.__getitem__)
    for gate, slot in zip(moved, sorted(position[gate] for gate in moved)):
        position[gate] = slot
        order[slot] = gate
    return True


def _disconnect(wiring: Wiring, driver: str, sink: str) -> None:
    """Remove one ``driver -> sink`` connection."""
    for adjacency, a, b in ((wiring.successors, driver, sink),
                            (wiring.predecessors, sink, driver)):
        edges = adjacency[a]
        if edges[b] == 1:
            del edges[b]
        else:
            edges[b] -= 1


def _gate_driver(netlist: Netlist, net_name: str, wiring: Wiring) -> Optional[str]:
    """The combinational gate driving ``net_name``, if any."""
    driver = netlist.nets[net_name].driver
    if driver is None or driver[0] not in wiring.position:
        return None
    return driver[0]


def rewire_sink(netlist: Netlist, gate_name: str, pin_name: str, new_net: str) -> str:
    """:meth:`Netlist.move_sink`, patching the cached plan instead of dropping it.

    The gate's arcs are rebuilt against the new net and the evaluation order
    is restored locally (:func:`_connect`); the plan is then stamped with the
    new ``topology_version``, so :func:`compile_plan` keeps returning it.  A
    cyclic plan, a loop-closing move, a sequential sink or a net the plan
    has no slot for drops the cached plan instead, and the next
    :func:`compile_plan` compiles from scratch.  Returns the previous net.
    """
    plan = _PLAN_CACHE.get(netlist)
    wiring = None
    if (plan is not None and plan.version == netlist.topology_version
            and new_net in plan.net_slot and gate_name in plan.gate_arcs):
        wiring = _wiring(netlist, plan)
    old_net = netlist.move_sink(gate_name, pin_name, new_net)
    if wiring is None or not wiring.acyclic:
        _PLAN_CACHE.pop(netlist, None)
        return old_net
    old_driver = _gate_driver(netlist, old_net, wiring)
    if old_driver is not None:
        _disconnect(wiring, old_driver, gate_name)
    new_driver = _gate_driver(netlist, new_net, wiring)
    if new_driver is not None and not _connect(wiring, plan.gate_order, new_driver, gate_name):
        _PLAN_CACHE.pop(netlist, None)
        return old_net
    plan.gate_arcs[gate_name] = _gate_arcs(
        netlist.gates[gate_name], plan.net_slot, plan.num_slots - 1)
    plan._program = None
    plan.version = netlist.topology_version
    return old_net


def _reaches(wiring: Wiring, start: str, target: str, low: int, high: int) -> bool:
    """Is ``target`` reachable from ``start`` through gates positioned in
    ``[low, high]``?  Bidirectional: each round grows the smaller frontier."""
    successors, predecessors, position = (
        wiring.successors, wiring.predecessors, wiring.position)
    forward, backward = {start}, {target}
    forward_front, backward_front = [start], [target]
    while forward_front and backward_front:
        if len(forward_front) <= len(backward_front):
            adjacency, seen, other, front = successors, forward, backward, forward_front
        else:
            adjacency, seen, other, front = predecessors, backward, forward, backward_front
        grown = []
        for gate in front:
            for neighbour in adjacency[gate]:
                if neighbour in other:
                    return True
                if neighbour not in seen and low <= position[neighbour] <= high:
                    seen.add(neighbour)
                    grown.append(neighbour)
        if front is forward_front:
            forward_front = grown
        else:
            backward_front = grown
    return False


def closes_loop(netlist: Netlist, driver_gate: Optional[str], sink_gate: str) -> bool:
    """Would connecting ``driver_gate``'s output to ``sink_gate`` close a
    combinational loop?

    True iff both gates are combinational and ``driver_gate`` is
    ``sink_gate`` or reachable from it.  The search runs on the plan's
    wiring; when the graph is acyclic it never leaves the gates positioned
    between the two, since nothing past the driver can reach it.
    """
    if driver_gate is None:
        return False
    wiring = _wiring(netlist, compile_plan(netlist))
    position = wiring.position
    if driver_gate not in position or sink_gate not in position:
        return False
    if driver_gate == sink_gate:
        return True
    if not wiring.acyclic:
        return _reaches(wiring, sink_gate, driver_gate, 0, len(position))
    low, high = position[sink_gate], position[driver_gate]
    return low < high and _reaches(wiring, sink_gate, driver_gate, low, high)


def run_plan(plan: SimPlan, inputs: Mapping[str, int], num_patterns: int,
             x_value: int = 0) -> List[int]:
    """Execute ``plan``; returns the bit-vector of every slot.

    Args:
        plan: A plan from :func:`compile_plan`.
        inputs: Bigint bit-vector per input name; every name in
            ``plan.input_slots`` must be present (extra names are ignored).
        num_patterns: Number of patterns packed per bit-vector.
        x_value: Bigint pattern assumed for undriven/unconnected nets.

    Returns:
        A list indexed by slot; read it through ``plan.output_slots`` and
        ``plan.value_slots``.
    """
    mask = (1 << num_patterns) - 1
    vals = [x_value & mask] * plan.num_slots
    for name, slot in plan.input_slots:
        vals[slot] = inputs[name] & mask
    for op, ins, out in plan.arc_program:
        vals[out] = op(vals, ins, mask)
    return vals
