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
any structural edit transparently invalidates the cache.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.netlist.cells import Cell
from repro.netlist.graph import pseudo_topological_order
from repro.netlist.netlist import Netlist

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
    #: Flat ``(op, input slots, output slot)`` list in evaluation order.
    arc_program: List[Tuple[Op, Tuple[int, ...], int]]
    #: ``(primary output name, slot)``.
    output_slots: List[Tuple[str, int]]
    #: ``(net name, slot)`` of every net the simulation records: inputs
    #: first, then driven nets in evaluation order.
    value_slots: List[Tuple[str, int]]


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


def _compile(netlist: Netlist) -> SimPlan:
    net_slot = {name: i for i, name in enumerate(netlist.nets)}
    x_slot = len(net_slot)
    input_slots = [(name, net_slot[name]) for name in plan_input_names(netlist)]
    value_slots: List[Tuple[str, int]] = list(input_slots)
    arc_program: List[Tuple[Op, Tuple[int, ...], int]] = []
    gates = netlist.gates
    for gate_name in pseudo_topological_order(netlist):
        gate = gates[gate_name]
        if gate.cell.is_sequential:
            continue  # Outputs are seeded as pseudo inputs.
        connections = gate.connections
        for out_pin, op, in_pins in _cell_arcs(gate.cell):
            out_net = connections.get(out_pin)
            if out_net is None:
                continue  # An unconnected output is never recorded.
            in_slots = []
            for pin in in_pins:
                net_name = connections.get(pin)
                in_slots.append(x_slot if net_name is None else net_slot[net_name])
            out_slot = net_slot[out_net]
            value_slots.append((out_net, out_slot))
            arc_program.append((op, tuple(in_slots), out_slot))

    output_slots = [
        (po, net_slot.get(netlist.output_nets[po], x_slot))
        for po in netlist.primary_outputs
    ]
    return SimPlan(
        version=netlist.topology_version,
        num_slots=x_slot + 1,
        input_slots=input_slots,
        arc_program=arc_program,
        output_slots=output_slots,
        value_slots=value_slots,
    )


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
