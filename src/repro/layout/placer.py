"""Global placement and legalization.

The placer stands in for the Innovus ``place_opt_design`` step.  Its job, for
this reproduction, is to give layouts the property that commercial placers
give them and that proximity attacks exploit: *gates that are connected end
up physically close to each other*.  The recipe:

1. **I/O assignment** — primary inputs/outputs are pinned to evenly spaced
   positions on the die boundary (superblue-style peripheral I/O).
2. **Connectivity-driven initial ordering** — gates are ordered by a
   depth-first traversal of the netlist graph, so logically adjacent gates
   are adjacent in the ordering, and the ordering is folded onto the row grid
   along a serpentine curve.  This already yields the "most nets are a few
   cell pitches long, a few nets are global" profile of real placements.
3. **Centroid refinement with interleaved spreading** — a few rounds of
   star-model centroid iterations (each cell moves towards the centroid of
   the nets it belongs to) followed by rank-based spreading back to uniform
   density.  This pulls in the long connections the initial ordering missed
   while never letting the placement collapse.
4. **Row legalization** — cells are packed into non-overlapping site
   positions row by row, preserving their relative order.

The result is deterministic for a given netlist and seed.

Two implementations share this recipe:

* :func:`place` — the default, operating on coordinate *columns*: the
  serpentine fold, the centroid iterations, the rank-based spreading and the
  row packing are all batched NumPy passes (the only per-object Python loops
  left are the DFS ordering and the final ``gate_positions`` dict build).
* :func:`place_reference` — the retained seed implementation with per-gate /
  per-net Python loops.

The vectorized path is **bit-exact** with the reference at equal seed: every
floating-point expression is evaluated with the same operations in the same
order (the legalization cursor chain, for example, is an interleaved
``cumsum`` that reproduces the sequential ``((pos + width) + gap)``
grouping), and the sort-based steps use stable sorts with the reference's
tie-breaking.  ``tests/test_build_vectorized.py`` asserts equality on all
ISCAS-85 circuits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point
from repro.netlist.netlist import Netlist
from repro.utils.degrade import warn_once
from repro.utils.rng import make_rng, spawn_numpy_seed

logger = logging.getLogger("repro.layout")


@dataclass
class PlacerConfig:
    """Tunable knobs of the global placer."""

    #: Initial ordering strategy: "dfs" derives a connectivity-driven ordering
    #: by depth-first traversal (the default — placement must react to the
    #: netlist's connectivity for the paper's scheme to have any effect),
    #: "insertion" follows the netlist's instance order.
    ordering: str = "dfs"
    #: Number of (centroid iterations + spreading) refinement rounds.  The
    #: default of 0 keeps the crisp locality of the DFS ordering; rounds > 0
    #: trade local density for shorter global nets.
    refinement_rounds: int = 0
    #: Centroid iterations per refinement round.
    iterations_per_round: int = 3
    #: Pull of a cell towards its previous position (0 = pure centroid).
    damping: float = 0.5
    #: Nets with more pins than this are ignored during centroid iterations
    #: (clock/reset-like nets would otherwise collapse the placement).
    max_fanout_for_attraction: int = 64
    seed: int = 0


@dataclass(eq=False)
class PlacementColumns:
    """Gate and port positions as coordinate columns (a decoded placement).

    ``gate_order[i]`` indexes ``gate_names`` (the netlist's gate order the
    columns were decoded against) and names the ``i``-th placed gate;
    ``port_names`` holds the port names directly.  Column order is the
    placement's dict insertion order.
    """

    gate_names: Sequence[str]
    gate_order: np.ndarray     # (num_gates,) int64
    gate_x: np.ndarray         # (num_gates,) float64
    gate_y: np.ndarray
    port_names: List[str]
    port_x: np.ndarray         # (num_ports,) float64
    port_y: np.ndarray


#: Instance attributes that are caches or backing state, never pickled.
_TRANSIENT_ATTRS = ("_geometry_cache", "_columns")


@dataclass
class PlacementResult:
    """Placement of every gate plus the fixed I/O pin positions.

    :meth:`from_columns` builds a **lazy** instance over
    :class:`PlacementColumns` (the store codec's decode path):
    ``gate_positions`` and ``port_positions`` are absent until first
    attribute access, at which point ``__getattr__`` materializes the dict
    from the columns.  Array-native consumers (:mod:`repro.layout.arrays`,
    the codec encoder) read the columns through :meth:`lazy_columns` while a
    dict is unmaterialized; once a dict exists — by access or assignment —
    it is authoritative.  Equality, ``repr`` and pickling observe exactly
    the eagerly-built placement.

    Attributes:
        geometry_version: Monotonic counter bumped on every in-place geometry
            mutation (gates moved, positions replaced).  The columnar array
            views in :mod:`repro.layout.arrays` key their caches on it, so
            **any code that mutates ``gate_positions`` or ``port_positions``
            after construction must call :meth:`bump_geometry_version`** —
            the same contract ``Netlist.topology_version`` enforces for
            structural netlist edits.
    """

    floorplan: Floorplan
    gate_positions: Dict[str, Point]
    port_positions: Dict[str, Point]
    config: PlacerConfig = field(default_factory=PlacerConfig)
    geometry_version: int = 0

    @classmethod
    def from_columns(cls, floorplan: Floorplan, columns: PlacementColumns,
                     config: PlacerConfig,
                     geometry_version: int = 0) -> "PlacementResult":
        """A lazy placement whose position dicts materialize on demand."""
        placement = cls.__new__(cls)
        placement.__dict__ = {
            "floorplan": floorplan,
            "config": config,
            "geometry_version": geometry_version,
            "_columns": columns,
        }
        return placement

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: on a lazy placement the two
        # position dicts are missing from __dict__ until materialized.
        columns = self.__dict__.get("_columns")
        if columns is not None and name in ("gate_positions", "port_positions"):
            from repro.layout.arrays import _fast_point

            if name == "gate_positions":
                table = columns.gate_names
                keys = [table[index] for index in columns.gate_order.tolist()]
                xs, ys = columns.gate_x, columns.gate_y
            else:
                keys, xs, ys = columns.port_names, columns.port_x, columns.port_y
            value = {key: _fast_point(x, y)
                     for key, x, y in zip(keys, xs.tolist(), ys.tolist())}
            self.__dict__[name] = value
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def lazy_columns(self, name: str) -> Optional[PlacementColumns]:
        """The columns behind ``name`` (``"gate_positions"`` or
        ``"port_positions"``) while that dict is unmaterialized, else None."""
        if name in self.__dict__:
            return None
        return self.__dict__.get("_columns")

    def position_of(self, gate_name: str) -> Point:
        return self.gate_positions[gate_name]

    def bump_geometry_version(self) -> int:
        """Record an in-place geometry mutation (invalidates array caches)."""
        self.geometry_version += 1
        return self.geometry_version

    def __getstate__(self):
        # The field dict in declaration order (materializing a lazy
        # placement), then any extra attributes: lazy and eager placements
        # pickle to identical bytes, and unpickled placements are eager.
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in self.__dict__.items():
            if key not in state and key not in _TRANSIENT_ATTRS:
                state[key] = value
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


# ---------------------------------------------------------------------------
# Initial ordering
# ---------------------------------------------------------------------------


def _adjacency(netlist: Netlist, max_fanout: int) -> Dict[str, List[str]]:
    """Undirected gate adjacency (both fan-in and fan-out), high-fanout nets cut."""
    adjacency: Dict[str, List[str]] = {name: [] for name in netlist.gates}
    for net in netlist.nets.values():
        members: List[str] = []
        if net.driver is not None:
            members.append(net.driver[0])
        members.extend(sink for sink, _pin in net.sinks)
        if len(members) < 2 or len(members) > max_fanout:
            continue
        driver = members[0]
        for sink in members[1:]:
            adjacency[driver].append(sink)
            adjacency[sink].append(driver)
    return adjacency


def _dfs_starts(netlist: Netlist, gate_names: List[str]) -> List[str]:
    """DFS start order: gates driven by primary inputs first (deduplicated,
    natural left-to-right flow), then every gate as a fallback start."""
    start_candidates: List[str] = []
    for pi in netlist.primary_inputs:
        net = netlist.nets.get(pi)
        if net is None:
            continue
        start_candidates.extend(sink for sink, _pin in net.sinks)
    seen_start: Set[str] = set()
    starts = [g for g in start_candidates
              if not (g in seen_start or seen_start.add(g))]
    starts.extend(gate_names)
    return starts


def _rotated_adjacency(adjacency: Dict[str, List[str]], netlist_name: str,
                       seed: int) -> Dict[str, List[str]]:
    """Seed-rotated copy of a shared adjacency structure.

    A small seed-dependent rotation of each adjacency list makes distinct
    seeds explore distinct (equally good) orderings while staying
    deterministic for a given seed.  The input lists are left untouched so
    one adjacency build can serve a whole seed batch; the RNG consumption
    order (dict order, one draw per multi-neighbour list) is identical to
    rotating in place.
    """
    rng = make_rng(seed, "placer_order", netlist_name)
    rotated: Dict[str, List[str]] = {}
    for name, neighbours in adjacency.items():
        if len(neighbours) > 1:
            offset = rng.randrange(len(neighbours))
            rotated[name] = neighbours[offset:] + neighbours[:offset]
        else:
            rotated[name] = neighbours
    return rotated


def _dfs_walk(adjacency: Dict[str, List[str]], gate_names: List[str],
              starts: List[str]) -> List[str]:
    """The iterative DFS traversal over a (rotated) adjacency structure."""
    remaining: Set[str] = set(gate_names)
    order: List[str] = []
    empty: List[str] = []
    for start in starts:
        if start not in remaining:
            continue
        stack = [start]
        pop = stack.pop
        extend = stack.extend
        append = order.append
        discard = remaining.remove
        get = adjacency.get
        while stack:
            gate = pop()
            if gate not in remaining:
                continue
            discard(gate)
            append(gate)
            # Reverse so the first neighbour is processed next (LIFO stack).
            # Visited neighbours are pushed too and skipped at pop — the
            # traversal order is identical to filtering before the push (a
            # neighbour taken between push and pop is skipped either way).
            extend(reversed(get(gate, empty)))
    # Any stragglers (isolated gates) in deterministic order.
    for gate in gate_names:
        if gate in remaining:
            order.append(gate)
            remaining.remove(gate)
    return order


def _dfs_ordering(netlist: Netlist, max_fanout: int, seed: int) -> List[str]:
    """Order gates by iterative DFS over the connectivity graph.

    Connected gates end up adjacent in the ordering; disconnected components
    are appended one after another.  The traversal is deterministic for a
    given seed.
    """
    adjacency = _adjacency(netlist, max_fanout)
    gate_names = list(netlist.gates.keys())
    return _dfs_walk(
        _rotated_adjacency(adjacency, netlist.name, seed),
        gate_names,
        _dfs_starts(netlist, gate_names),
    )


# ---------------------------------------------------------------------------
# Main entry point
# ---------------------------------------------------------------------------


def _io_assignment(netlist: Netlist, floorplan: Floorplan):
    """Step 1 (shared): pin the primary I/O evenly on the die boundary."""
    port_names = list(netlist.primary_inputs) + [f"PO::{po}" for po in netlist.primary_outputs]
    boundary = floorplan.boundary_positions(len(port_names))
    port_positions = {name: pos for name, pos in zip(port_names, boundary)}
    visible_ports = {
        (name if not name.startswith("PO::") else name[4:]): pos
        for name, pos in port_positions.items()
    }
    return port_positions, visible_ports


def _initial_ordering(netlist: Netlist, gate_names: List[str],
                      config: PlacerConfig) -> List[str]:
    """Step 2 (shared): the connectivity-driven gate ordering."""
    if config.ordering == "dfs":
        return _dfs_ordering(netlist, config.max_fanout_for_attraction, config.seed)
    if config.ordering == "insertion":
        return gate_names
    raise ValueError(f"unknown placer ordering {config.ordering!r}")


def _attraction_nets(netlist: Netlist, gate_index: Dict[str, int],
                     port_positions: Dict[str, Point],
                     max_fanout: int) -> Tuple[List[np.ndarray], List[Tuple[float, float, int]]]:
    """Nets participating in centroid attraction: member indices + fixed pull.

    Mirrors the reference construction exactly (same net gating, same member
    order, same Python ``sum`` over port coordinates).
    """
    net_members: List[np.ndarray] = []
    net_fixed: List[Tuple[float, float, int]] = []
    for net in netlist.nets.values():
        gates: List[str] = []
        ports: List[str] = []
        if net.driver is not None:
            gates.append(net.driver[0])
        elif net.is_primary_input:
            ports.append(net.name)
        gates.extend(sink for sink, _pin in net.sinks)
        ports.extend(f"PO::{po}" for po in net.primary_outputs)
        if len(gates) + len(ports) < 2:
            continue
        if len(gates) + len(ports) > max_fanout:
            continue
        idx = np.array([gate_index[g] for g in gates], dtype=np.int64)
        fx = sum(port_positions[p].x for p in ports if p in port_positions)
        fy = sum(port_positions[p].y for p in ports if p in port_positions)
        fc = sum(1 for p in ports if p in port_positions)
        net_members.append(idx)
        net_fixed.append((fx, fy, fc))
    return net_members, net_fixed


class _CentroidColumns:
    """Batched centroid-iteration state built from the attraction nets.

    Per-net member sums are evaluated by grouping nets of equal pin count
    into ``(num_nets, k)`` index matrices and reducing along the last axis —
    NumPy applies the same pairwise summation to each contiguous row as the
    reference's per-net ``x[idx].sum()``, so the sums are bit-identical.
    The scatter back onto cells runs through ``np.bincount``, whose
    sequential input-order accumulation reproduces the reference's net-major
    ``acc[idx] += c`` loop (duplicate members deduplicated per net, exactly
    like NumPy's buffered fancy assignment).
    """

    def __init__(self, net_members: List[np.ndarray],
                 net_fixed: List[Tuple[float, float, int]], num_cells: int):
        self.num_cells = num_cells
        num_nets = len(net_members)
        self.fixed_x = np.asarray([f[0] for f in net_fixed], dtype=np.float64)
        self.fixed_y = np.asarray([f[1] for f in net_fixed], dtype=np.float64)
        denom = np.asarray(
            [len(idx) + fixed[2] for idx, fixed in zip(net_members, net_fixed)],
            dtype=np.int64,
        )
        self.denom = denom
        # Group nets by member count -> one (m, k) gather matrix per size.
        by_size: Dict[int, List[int]] = {}
        for net_id, idx in enumerate(net_members):
            by_size.setdefault(len(idx), []).append(net_id)
        self.size_groups: List[Tuple[np.ndarray, np.ndarray]] = []
        for size, net_ids in by_size.items():
            ids = np.asarray(net_ids, dtype=np.int64)
            matrix = np.stack([net_members[i] for i in net_ids]) if size else ids[:, None][:, :0]
            self.size_groups.append((ids, matrix))
        # Net-major flat scatter arrays (duplicates within a net collapse to
        # one contribution, matching buffered fancy assignment).
        scatter_cell: List[np.ndarray] = []
        scatter_net: List[np.ndarray] = []
        counts = np.zeros(num_cells, dtype=np.float64)
        for net_id, idx in enumerate(net_members):
            unique = np.unique(idx)
            scatter_cell.append(unique)
            scatter_net.append(np.full(len(unique), net_id, dtype=np.int64))
            counts[unique] += 1.0
        self.scatter_cell = (
            np.concatenate(scatter_cell) if scatter_cell
            else np.empty(0, dtype=np.int64)
        )
        self.scatter_net = (
            np.concatenate(scatter_net) if scatter_net
            else np.empty(0, dtype=np.int64)
        )
        counts[counts == 0] = 1.0
        self.cell_net_count = counts
        self.num_nets = num_nets

    def net_centroids(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        sums_x = np.empty(self.num_nets, dtype=np.float64)
        sums_y = np.empty(self.num_nets, dtype=np.float64)
        for ids, matrix in self.size_groups:
            sums_x[ids] = x[matrix].sum(axis=1)
            sums_y[ids] = y[matrix].sum(axis=1)
        return (sums_x + self.fixed_x) / self.denom, (sums_y + self.fixed_y) / self.denom

    def step(self, x: np.ndarray, y: np.ndarray,
             damping: float) -> Tuple[np.ndarray, np.ndarray]:
        cx, cy = self.net_centroids(x, y)
        acc_x = np.bincount(
            self.scatter_cell, weights=cx[self.scatter_net], minlength=self.num_cells
        )
        acc_y = np.bincount(
            self.scatter_cell, weights=cy[self.scatter_net], minlength=self.num_cells
        )
        new_x = acc_x / self.cell_net_count
        new_y = acc_y / self.cell_net_count
        return (damping * x + (1 - damping) * new_x,
                damping * y + (1 - damping) * new_y)


def _row_partition(x: np.ndarray, row_of: np.ndarray,
                   num_rows: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort cells by (row, x, index) and return (order, sorted_rows, starts).

    ``np.lexsort`` is stable, so full ties keep ascending cell index — the
    same ordering the reference gets from ``np.where`` (ascending members)
    followed by a stable per-row ``argsort`` on x.
    """
    order = np.lexsort((x, row_of))
    sorted_rows = row_of[order]
    counts = np.bincount(sorted_rows, minlength=num_rows)
    starts = np.concatenate(([0], np.cumsum(counts)))
    return order, sorted_rows, starts


# ---------------------------------------------------------------------------
# Seed-batched build path
# ---------------------------------------------------------------------------


class _PlacerSkeleton:
    """Seed-independent placement state shared by a whole seed batch.

    Everything the placer computes that does not depend on the seed lives
    here, built once per (netlist, floorplan, config shape): the I/O
    assignment, the connectivity adjacency (rotated per seed, never mutated),
    the serpentine fold coordinates (the fold *positions* depend only on the
    rank, the seed only permutes which gate lands on which rank), the width
    column and the attraction-net centroid structure.
    """

    def __init__(self, netlist: Netlist, floorplan: Floorplan,
                 config: PlacerConfig):
        self.netlist = netlist
        self.floorplan = floorplan
        self.config = config
        self.gate_names = list(netlist.gates.keys())
        self.n = len(self.gate_names)
        self.gate_index = {name: i for i, name in enumerate(self.gate_names)}
        self.port_positions, self.visible_ports = _io_assignment(netlist, floorplan)
        self._adjacency: Optional[Dict[str, List[str]]] = None
        self._starts: Optional[List[str]] = None
        self._columns: Optional[_CentroidColumns] = None
        if self.n == 0:
            return
        n = self.n
        self.num_rows = floorplan.num_rows
        self.cells_per_row = int(np.ceil(n / self.num_rows))
        self.row_pitch = floorplan.row_height_um
        self.die = floorplan.die
        self.ranks = np.arange(n, dtype=np.int64)
        self.rank_rows = np.minimum(
            self.ranks // self.cells_per_row, self.num_rows - 1
        )
        frac = ((self.ranks - self.rank_rows * self.cells_per_row) + 0.5) \
            / self.cells_per_row
        odd = (self.rank_rows % 2) == 1
        frac[odd] = 1.0 - frac[odd]
        # Fold positions by rank — identical expressions to the reference's
        # per-gate fold; the seed only decides which gate takes which rank.
        self.fold_x = self.die.x_min + frac * self.die.width
        self.fold_y = self.die.y_min + (self.rank_rows + 0.5) * self.row_pitch
        self.widths = np.array(
            [netlist.gates[name].cell.width_um for name in self.gate_names]
        )

    def ordering_ranks(self, seed: int) -> np.ndarray:
        """``rank_gate`` for one seed: gate index at each ordering rank."""
        config = self.config
        if config.ordering == "dfs":
            if self._adjacency is None:
                self._adjacency = _adjacency(
                    self.netlist, config.max_fanout_for_attraction
                )
                self._starts = _dfs_starts(self.netlist, self.gate_names)
            ordering = _dfs_walk(
                _rotated_adjacency(self._adjacency, self.netlist.name, seed),
                self.gate_names, self._starts,
            )
        elif config.ordering == "insertion":
            ordering = self.gate_names
        else:
            raise ValueError(f"unknown placer ordering {config.ordering!r}")
        return np.fromiter(
            (self.gate_index[name] for name in ordering),
            dtype=np.int64, count=self.n,
        )

    def centroid_columns(self) -> _CentroidColumns:
        if self._columns is None:
            net_members, net_fixed = _attraction_nets(
                self.netlist, self.gate_index, self.port_positions,
                self.config.max_fanout_for_attraction,
            )
            self._columns = _CentroidColumns(net_members, net_fixed, self.n)
        return self._columns


def _row_partition_batch(X: np.ndarray, row_of: np.ndarray,
                         num_rows: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-seed :func:`_row_partition` over ``(n_seeds, n)`` coordinate rows.

    One flat ``np.lexsort`` keyed (seed, row, x) reproduces each seed's
    ``np.lexsort((x, row_of))`` exactly: grouping by seed first leaves the
    per-seed (row, x) order untouched, and the stable tie-break on flat
    position equals the per-seed tie-break on cell index.
    """
    n_seeds, n = X.shape
    seed_ids = np.repeat(np.arange(n_seeds, dtype=np.int64), n)
    order_flat = np.lexsort((X.ravel(), row_of.ravel(), seed_ids))
    order = order_flat.reshape(n_seeds, n) - np.arange(n_seeds)[:, None] * n
    sorted_rows = np.take_along_axis(row_of, order, axis=1)
    counts = np.bincount(
        (row_of + np.arange(n_seeds)[:, None] * num_rows).ravel(),
        minlength=n_seeds * num_rows,
    ).reshape(n_seeds, num_rows)
    starts = np.concatenate(
        (np.zeros((n_seeds, 1), dtype=np.int64), np.cumsum(counts, axis=1)),
        axis=1,
    )
    return order, sorted_rows, starts


def _spread_batch(X: np.ndarray, Y: np.ndarray, skeleton: _PlacerSkeleton
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-based spreading over ``(n_seeds, n)`` coordinate rows.

    Per seed this is exactly the reference ``spread``: ``np.argsort`` along
    the last axis applies the same stable sort to each row, and every
    floating-point expression is elementwise, so batching over the leading
    seed axis cannot change any seed's values.
    """
    n_seeds, n = X.shape
    seed_idx = np.arange(n_seeds)[:, None]
    order_y = np.argsort(Y, axis=1, kind="stable")
    row_of = np.empty((n_seeds, n), dtype=np.int64)
    row_of[seed_idx, order_y] = skeleton.rank_rows[None, :]
    order, sorted_rows, starts = _row_partition_batch(
        X, row_of, skeleton.num_rows
    )
    counts = np.diff(starts, axis=1)
    pos = skeleton.ranks[None, :] - np.take_along_axis(starts, sorted_rows, axis=1)
    frac = (pos + 0.5) / np.take_along_axis(counts, sorted_rows, axis=1)
    new_x = np.empty((n_seeds, n))
    new_y = np.empty((n_seeds, n))
    die = skeleton.die
    new_x[seed_idx, order] = die.x_min + frac * die.width
    new_y[seed_idx, order] = die.y_min + (sorted_rows + 0.5) * skeleton.row_pitch
    return new_x, new_y, row_of


def _legalize_rows(order: np.ndarray, starts: np.ndarray,
                   skeleton: _PlacerSkeleton) -> Dict[str, Point]:
    """Row legalization for one seed (pack by x order, scaled to fit)."""
    die = skeleton.die
    floorplan = skeleton.floorplan
    widths = skeleton.widths
    gate_names = skeleton.gate_names
    row_width = die.width
    gate_positions: Dict[str, Point] = {}
    for row in range(skeleton.num_rows):
        members = order[starts[row]:starts[row + 1]]
        count = len(members)
        if count == 0:
            continue
        member_widths = widths[members]
        total_width = member_widths.sum()
        slack = max(row_width - total_width, 0.0)
        gap = slack / (count + 1)
        scale = min(1.0, row_width / total_width) if total_width > 0 else 1.0
        scaled = member_widths * scale
        row_y = float(die.y_min + row * floorplan.row_height_um)
        # The sequential cursor chain  cursor = ((pos + width) + gap)  as an
        # interleaved cumsum: identical left-to-right FP grouping.
        seq = np.empty(2 * count + 1)
        seq[0] = die.x_min + gap
        seq[1::2] = scaled
        seq[2::2] = gap
        cursors = np.cumsum(seq)[0::2][:count]
        limit = die.x_max - scaled
        if np.any(cursors > limit):
            # A cell would spill past the die edge: replay the reference's
            # clamped scalar walk for this row (clamping alters every
            # subsequent cursor, so the closed form no longer applies).
            warn_once(
                logger, "placer.legalize.clamped_row",
                "placer legalization degraded to the scalar clamped walk for "
                "an over-full row (vectorized cursor chain does not apply); "
                "results are unchanged, packing that row is just slower",
            )
            cursor = die.x_min + gap
            for cell, width in zip(members.tolist(), scaled.tolist()):
                pos_x = min(cursor, die.x_max - width)
                gate_positions[gate_names[cell]] = Point(float(pos_x), row_y)
                cursor = pos_x + width + gap
            continue
        for cell, pos_x in zip(members.tolist(), cursors.tolist()):
            gate_positions[gate_names[cell]] = Point(pos_x, row_y)
    return gate_positions


def _place_batch(netlist: Netlist, seeds: Sequence[int],
                 floorplan: Optional[Floorplan], utilization: float,
                 configs: Sequence[PlacerConfig]) -> List[PlacementResult]:
    """Shared core of :func:`place` and :func:`place_batch`.

    ``configs`` carries one config per seed; all must share the same shape
    (ordering, refinement knobs) — only the ``seed`` field may differ, and
    ``seeds[i]`` governs seed ``i``'s ordering.
    """
    shape = configs[0]
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    skeleton = _PlacerSkeleton(netlist, floorplan, shape)
    if skeleton.n == 0:
        return [
            PlacementResult(floorplan, {}, dict(skeleton.visible_ports), config)
            for config in configs
        ]

    n_seeds = len(seeds)
    n = skeleton.n
    seed_idx = np.arange(n_seeds)[:, None]

    # --- 2. Connectivity-driven initial ordering on a serpentine curve -----
    # One DFS per seed over the shared adjacency, then one batched scatter of
    # the shared fold coordinates through each seed's rank permutation.
    rank_gate = np.empty((n_seeds, n), dtype=np.int64)
    for s, seed in enumerate(seeds):
        rank_gate[s] = skeleton.ordering_ranks(seed)
    X = np.empty((n_seeds, n))
    Y = np.empty((n_seeds, n))
    X[seed_idx, rank_gate] = skeleton.fold_x[None, :]
    Y[seed_idx, rank_gate] = skeleton.fold_y[None, :]

    # --- 3. Centroid refinement with interleaved spreading ------------------
    columns: Optional[_CentroidColumns] = None
    if shape.refinement_rounds > 0 and shape.iterations_per_round > 0:
        columns = skeleton.centroid_columns()
    row_of = None
    for _round in range(shape.refinement_rounds):
        for _it in range(shape.iterations_per_round):
            # The centroid gather/scatter runs per seed on contiguous rows of
            # the batch — literally the single-seed step on each row.
            for s in range(n_seeds):
                X[s], Y[s] = columns.step(X[s], Y[s], shape.damping)
        X, Y, row_of = _spread_batch(X, Y, skeleton)
    if row_of is None:
        _, _, row_of = _spread_batch(X, Y, skeleton)

    # --- 4. Row legalization (pack by x order, scaled to fit) ----------------
    order, _sorted_rows, starts = _row_partition_batch(
        X, row_of, skeleton.num_rows
    )
    return [
        PlacementResult(
            floorplan,
            _legalize_rows(order[s], starts[s], skeleton),
            dict(skeleton.visible_ports),
            configs[s],
        )
        for s in range(n_seeds)
    ]


def place(netlist: Netlist, floorplan: Optional[Floorplan] = None,
          utilization: float = 0.70,
          config: Optional[PlacerConfig] = None) -> PlacementResult:
    """Place ``netlist`` and return legal cell positions.

    This is the vectorized build path: refinement, spreading and row packing
    run on coordinate columns (a seed batch of one — see :func:`place_batch`).
    Bit-exact with :func:`place_reference` at equal seed (see the module
    docstring for the equivalence argument).

    Args:
        netlist: Design to place.
        floorplan: Floorplan to place into; built from the netlist and
            ``utilization`` when omitted.  Supplying the *original* design's
            floorplan when placing the protected design reproduces the
            paper's zero-die-area-overhead setup.
        utilization: Used only when ``floorplan`` is None.
        config: Placer knobs.

    Returns:
        A :class:`PlacementResult` with legalized gate positions and fixed
        I/O positions on the boundary.
    """
    config = config if config is not None else PlacerConfig()
    return _place_batch(
        netlist, [config.seed], floorplan, utilization, [config]
    )[0]


def place_batch(netlist: Netlist, seeds: Sequence[int],
                floorplan: Optional[Floorplan] = None,
                utilization: float = 0.70,
                config: Optional[PlacerConfig] = None) -> List[PlacementResult]:
    """Place ``netlist`` once per seed, sharing all seed-independent work.

    Semantically ``[place(netlist, floorplan, utilization,
    replace(config, seed=s)) for s in seeds]`` — and bit-exact with it, seed
    by seed — but the netlist adjacency, attraction-net structure, serpentine
    fold coordinates and I/O assignment are built once, and the coordinate
    math (fold scatter, spreading, row partition) runs on ``(n_seeds, n)``
    arrays with the seed as the leading axis.  Only the DFS traversal, the
    centroid gather/scatter and the final row packing remain per-seed.

    Args:
        netlist: Design to place (the same netlist for every seed).
        seeds: Placer seeds, one batch member per entry (``config.seed`` is
            overridden per member).
        floorplan: Shared floorplan; built from the netlist and
            ``utilization`` when omitted.
        utilization: Used only when ``floorplan`` is None.
        config: Placer knobs shared by the batch (the ``seed`` field is
            replaced per member).

    Returns:
        One :class:`PlacementResult` per seed, in ``seeds`` order.
    """
    if not seeds:
        return []
    config = config if config is not None else PlacerConfig()
    configs = [replace(config, seed=seed) for seed in seeds]
    return _place_batch(netlist, list(seeds), floorplan, utilization, configs)


def place_reference(netlist: Netlist, floorplan: Optional[Floorplan] = None,
                    utilization: float = 0.70,
                    config: Optional[PlacerConfig] = None) -> PlacementResult:
    """The retained seed placer (per-gate / per-net Python loops).

    Kept verbatim as the behavioural reference for :func:`place`; the
    equivalence suite asserts bit-identical results on every ISCAS circuit.
    """
    config = config if config is not None else PlacerConfig()
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)

    gate_names = list(netlist.gates.keys())
    n = len(gate_names)

    # --- 1. I/O assignment -------------------------------------------------
    port_positions, visible_ports = _io_assignment(netlist, floorplan)
    if n == 0:
        return PlacementResult(floorplan, {}, visible_ports, config)

    # --- 2. Connectivity-driven initial ordering on a serpentine curve -----
    ordering = _initial_ordering(netlist, gate_names, config)
    order_index = {name: i for i, name in enumerate(ordering)}
    gate_index = {name: i for i, name in enumerate(gate_names)}

    num_rows = floorplan.num_rows
    cells_per_row = int(np.ceil(n / num_rows))
    x = np.empty(n)
    y = np.empty(n)
    row_pitch = floorplan.row_height_um
    for name, rank in order_index.items():
        row = min(rank // cells_per_row, num_rows - 1)
        pos_in_row = rank - row * cells_per_row
        frac = (pos_in_row + 0.5) / cells_per_row
        if row % 2 == 1:
            frac = 1.0 - frac  # serpentine: alternate direction per row
        i = gate_index[name]
        x[i] = floorplan.die.x_min + frac * floorplan.die.width
        y[i] = floorplan.die.y_min + (row + 0.5) * row_pitch

    # --- 3. Centroid refinement with interleaved spreading ------------------
    net_members, net_fixed = _attraction_nets(
        netlist, gate_index, port_positions, config.max_fanout_for_attraction
    )

    cell_net_count = np.zeros(n)
    for idx in net_members:
        cell_net_count[idx] += 1.0
    cell_net_count[cell_net_count == 0] = 1.0

    def centroid_step(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        acc_x = np.zeros(n)
        acc_y = np.zeros(n)
        for idx, (fx, fy, fc) in zip(net_members, net_fixed):
            cx = (x[idx].sum() + fx) / (len(idx) + fc)
            cy = (y[idx].sum() + fy) / (len(idx) + fc)
            acc_x[idx] += cx
            acc_y[idx] += cy
        new_x = acc_x / cell_net_count
        new_y = acc_y / cell_net_count
        return (config.damping * x + (1 - config.damping) * new_x,
                config.damping * y + (1 - config.damping) * new_y)

    def spread(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank-based spreading back to uniform density; returns row assignment."""
        order_y = np.argsort(y, kind="stable")
        row_of = np.empty(n, dtype=np.int64)
        for rank, cell in enumerate(order_y):
            row_of[cell] = min(rank // cells_per_row, num_rows - 1)
        new_x = np.empty(n)
        new_y = np.empty(n)
        for row in range(num_rows):
            members = np.where(row_of == row)[0]
            if len(members) == 0:
                continue
            members = members[np.argsort(x[members], kind="stable")]
            count = len(members)
            for pos, cell in enumerate(members):
                frac = (pos + 0.5) / count
                new_x[cell] = floorplan.die.x_min + frac * floorplan.die.width
                new_y[cell] = floorplan.die.y_min + (row + 0.5) * row_pitch
        return new_x, new_y, row_of

    row_of = None
    for _round in range(config.refinement_rounds):
        for _it in range(config.iterations_per_round):
            x, y = centroid_step(x, y)
        x, y, row_of = spread(x, y)
    if row_of is None:
        _, _, row_of = spread(x, y)

    # --- 4. Row legalization (pack by x order, scaled to fit) ----------------
    widths = np.array([netlist.gates[name].cell.width_um for name in gate_names])
    row_width = floorplan.die.width
    gate_positions: Dict[str, Point] = {}
    for row in range(num_rows):
        members = np.where(row_of == row)[0]
        if len(members) == 0:
            continue
        members = members[np.argsort(x[members], kind="stable")]
        total_width = widths[members].sum()
        slack = max(row_width - total_width, 0.0)
        gap = slack / (len(members) + 1)
        scale = min(1.0, row_width / total_width) if total_width > 0 else 1.0
        cursor = floorplan.die.x_min + gap
        row_y = floorplan.die.y_min + row * floorplan.row_height_um
        for cell in members:
            width = widths[cell] * scale
            pos_x = min(cursor, floorplan.die.x_max - width)
            gate_positions[gate_names[cell]] = Point(float(pos_x), float(row_y))
            cursor = pos_x + width + gap

    return PlacementResult(floorplan, gate_positions, visible_ports, config)


def placement_hpwl(netlist: Netlist, placement: PlacementResult) -> float:
    """Total half-perimeter wirelength of ``placement`` in µm.

    Computed in one vectorized pass over the CSR terminal arrays of the
    cached columnar placement view (see :mod:`repro.layout.arrays`); per-net
    HPWL values are bit-exact with the historical per-object loop (max/min
    over the same terminals), only the order of the final summation differs.
    """
    from repro.layout.arrays import placement_arrays

    arrays = placement_arrays(netlist, placement)
    _net_indices, hpwl = arrays.net_hpwl()
    return float(np.sum(hpwl)) if hpwl.size else 0.0


def check_legality(netlist: Netlist, placement: PlacementResult,
                   tolerance: float = 1e-6) -> List[str]:
    """Return a list of legality violations (off-die or overlapping cells).

    Operates on the columnar coordinate/width arrays of the placement; the
    produced problem strings and their order are identical to the historical
    per-gate loop (off-die problems in placement order, then per-row overlaps
    with rows in first-encounter order and cells sorted by (x, width, name)).
    """
    from repro.layout.arrays import placement_arrays

    problems: List[str] = []
    fp = placement.floorplan
    arrays = placement_arrays(netlist, placement)
    names = arrays.gate_names
    if not names:
        return problems
    # The cached width column; the legacy loop raised for placed gates the
    # netlist doesn't know, so preserve that loudly.
    if arrays.skeleton.missing_gates:
        raise KeyError(arrays.skeleton.missing_gates[0])
    widths = arrays.gate_widths
    xs = arrays.gate_xy[:, 0]
    ys = arrays.gate_xy[:, 1]
    # NOTE: the width term in the x check cancels algebraically (the
    # condition is xs > x_max + tolerance) — preserved as-is from the legacy
    # check so legality verdicts stay identical to the seed.
    bad_x = (xs < fp.die.x_min - tolerance) | (xs + widths > fp.die.x_max + widths + tolerance)
    bad_y = (ys < fp.die.y_min - tolerance) | (ys > fp.die.y_max + tolerance)
    for i in np.nonzero(bad_x | bad_y)[0]:
        if bad_x[i]:
            problems.append(f"{names[i]} outside die in x")
        if bad_y[i]:
            problems.append(f"{names[i]} outside die in y")

    # One global sort by (row, x, width, name) — the legacy per-row tuple
    # sort, all rows at once — then adjacent-pair comparisons within rows.
    rows = fp.nearest_rows(ys)
    names_arr = np.asarray(names, dtype=object)
    order = np.lexsort((names_arr, widths, xs, rows))
    sorted_rows = rows[order]
    x1 = xs[order[:-1]]
    w1 = widths[order[:-1]]
    x2 = xs[order[1:]]
    overlapping = (sorted_rows[:-1] == sorted_rows[1:]) & (
        x2 < x1 + w1 * 0.5 - tolerance
    )
    by_row: Dict[int, List[str]] = {}
    for k in np.nonzero(overlapping)[0]:
        row = int(sorted_rows[k])
        by_row.setdefault(row, []).append(
            f"severe overlap between {names[order[k]]} and "
            f"{names[order[k + 1]]} in row {row}"
        )
    # Emit rows in first-encounter (placement) order, like the legacy dict.
    _unique_rows, first_pos = np.unique(rows, return_index=True)
    for row in rows[np.sort(first_pos)]:
        problems.extend(by_row.get(int(row), []))
    return problems
