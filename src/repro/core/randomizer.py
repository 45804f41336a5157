"""Netlist randomization (Fig. 2, step "Randomize").

The randomizer swaps the connectivity between randomly selected pairs of
drivers and their sinks: if driver D1 originally drives sink S1 and driver D2
drives sink S2, after the swap D1 drives S2 and D2 drives S1.  Each swap is
accepted only if it introduces no combinational loop (loops would reveal the
modification to an attacker, and the network-flow attack explicitly prunes
loop-forming candidates).  Swapping continues until the output error rate
(OER) of the modified netlist against the original approaches 100 % — i.e.
the modified netlist produces at least one wrong output bit for essentially
every input pattern — and, optionally, until a requested number of nets has
been perturbed (the PPA-budget loop in :mod:`repro.core.flow` drives this).

Every swap is recorded so the true connectivity can be restored later through
the BEOL (:mod:`repro.core.restore`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.netlist.engine import closes_loop, rewire_sink
from repro.netlist.netlist import Netlist, PinRef
from repro.netlist.simulate import output_error_rate
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class SwapRecord:
    """One sink re-targeted from its original net to an erroneous net."""

    sink: PinRef  # (gate, input pin)
    original_net: str
    erroneous_net: str


@dataclass
class RandomizationResult:
    """Outcome of :func:`randomize_netlist`.

    Attributes:
        original: The untouched input netlist.
        erroneous: The randomized netlist that will be placed and routed.
        swaps: One record per re-targeted sink (restoration undoes these).
        protected_nets: Original nets that had at least one sink swapped —
            these are the nets the paper's security metrics are computed over.
        oer_percent: OER of the erroneous netlist versus the original.
        oer_history: OER after each accepted batch of swaps.
    """

    original: Netlist
    erroneous: Netlist
    swaps: List[SwapRecord] = field(default_factory=list)
    protected_nets: Set[str] = field(default_factory=set)
    oer_percent: float = 0.0
    oer_history: List[float] = field(default_factory=list)

    @property
    def num_swaps(self) -> int:
        return len(self.swaps)

    def swapped_sinks(self) -> Dict[PinRef, SwapRecord]:
        return {record.sink: record for record in self.swaps}


@dataclass
class RandomizerConfig:
    """Knobs of the randomization step."""

    #: Stop once the OER reaches this value (percent).
    target_oer_percent: float = 99.0
    #: Upper bound on the number of sink swaps (pairs count double).
    max_swaps: int = 10_000
    #: Minimum number of sink swaps to perform even if the OER target is hit
    #: earlier (the PPA-budget loop raises this to add more protection).
    min_swaps: int = 0
    #: Number of swap *pairs* attempted between OER evaluations.
    batch_pairs: int = 8
    #: Patterns used for the OER estimate.
    oer_patterns: int = 1024
    #: Random seed.
    seed: int = 0


def _swappable_sinks(netlist: Netlist) -> List[Tuple[str, PinRef]]:
    """Return (net, sink pin) pairs eligible for swapping.

    Sinks are eligible when they are inputs of combinational gates on nets
    driven by a gate or a primary input.  Clock pins of sequential cells and
    the sequential cells' data pins are left alone (the paper similarly skips
    gates with alignment constraints).
    """
    eligible: List[Tuple[str, PinRef]] = []
    for net in netlist.nets.values():
        if not net.has_driver():
            continue
        for sink_gate, sink_pin in net.sinks:
            gate = netlist.gates[sink_gate]
            if gate.cell.is_sequential:
                continue
            eligible.append((net.name, (sink_gate, sink_pin)))
    return eligible


def _driver_gate(netlist: Netlist, net_name: str) -> Optional[str]:
    driver = netlist.nets[net_name].driver
    return driver[0] if driver is not None else None


def randomize_netlist(netlist: Netlist,
                      config: Optional[RandomizerConfig] = None) -> RandomizationResult:
    """Randomize ``netlist`` by swapping driver→sink connections.

    Args:
        netlist: The original design (never modified).
        config: Randomization knobs; see :class:`RandomizerConfig`.

    Returns:
        A :class:`RandomizationResult` whose ``erroneous`` netlist is
        loop-free, has the same gates/nets as the original, and differs only
        in which net each swapped sink pin connects to.
    """
    config = config if config is not None else RandomizerConfig()
    rng = make_rng(config.seed, "randomizer", netlist.name)
    erroneous = netlist.copy(f"{netlist.name}_erroneous")

    swaps: Dict[PinRef, SwapRecord] = {}
    protected: Set[str] = set()
    oer_history: List[float] = []
    oer = 0.0

    # The set of eligible sink pins never changes; only the net each sink is
    # currently attached to does, so it is looked up per attempt.
    eligible_sinks: List[PinRef] = [sink for _net, sink in _swappable_sinks(erroneous)]

    def attempt_pair() -> bool:
        """Try one random pair swap; returns True if accepted."""
        if len(eligible_sinks) < 2:
            return False
        sink_a, sink_b = rng.sample(eligible_sinks, 2)
        net_a = erroneous.gates[sink_a[0]].net_on(sink_a[1])
        net_b = erroneous.gates[sink_b[0]].net_on(sink_b[1])
        if net_a is None or net_b is None or net_a == net_b:
            return False
        # Swapping a sink twice would complicate restoration bookkeeping; the
        # paper likewise marks swapped sinks as do-not-touch.
        if sink_a in swaps or sink_b in swaps:
            return False
        driver_a = _driver_gate(erroneous, net_a)
        driver_b = _driver_gate(erroneous, net_b)
        sink_gate_a, _ = sink_a
        sink_gate_b, _ = sink_b
        # After the swap, net_b drives sink_a and net_a drives sink_b.  Each
        # new connection is checked against the current graph: a loop-closing
        # path runs from the sink to the driver, and such a path never needs
        # an edge into that sink or out of that driver, which are exactly the
        # two connections the swap removes.
        if (closes_loop(erroneous, driver_b, sink_gate_a)
                or closes_loop(erroneous, driver_a, sink_gate_b)):
            return False
        original_a = rewire_sink(erroneous, sink_gate_a, sink_a[1], net_b)
        original_b = rewire_sink(erroneous, sink_gate_b, sink_b[1], net_a)
        erroneous.gates[sink_gate_a].dont_touch = True
        erroneous.gates[sink_gate_b].dont_touch = True
        for gate in (_driver_gate(erroneous, net_a), _driver_gate(erroneous, net_b)):
            if gate is not None:
                erroneous.gates[gate].dont_touch = True
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

    result = RandomizationResult(
        original=netlist,
        erroneous=erroneous,
        swaps=list(swaps.values()),
        protected_nets=protected,
        oer_percent=oer,
        oer_history=oer_history,
    )
    return result
