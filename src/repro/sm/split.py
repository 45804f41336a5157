"""FEOL extraction: what an untrusted foundry actually sees.

Given a routed :class:`~repro.layout.layout.Layout` and a split layer, the
FEOL view contains:

* every placed cell with its library master (the foundry fabricates them);
* every net whose routing stays at or below the split layer, in full;
* for every net that crosses the split layer, one **vpin** per open terminal:
  the via stack position in the topmost FEOL layer, whether it is a driver or
  a sink terminal, which gate/pin it belongs to, the direction its dangling
  stub points in, and the electrical facts an attacker can derive from the
  cell library (pin capacitance, driver strength).

The ground-truth pairing (which sink vpin belongs to which driver vpin) is
carried alongside for *scoring only* — attack implementations never read it.

A key subtlety for the paper's protected layouts: the FEOL of those layouts
was placed and routed for the *erroneous* netlist, so the dangling-stub
directions recorded here point towards the erroneous partners (the
``source_hint`` / ``target_hint`` fields the protection flow sets), not the
true ones.  For honest layouts the hints coincide with the true partners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.layout.arrays import (
    RoutingArrays,
    UniformGridIndex,
    _fast_point,
    routing_backing,
)
from repro.layout.geometry import Point
from repro.layout.layout import Layout
from repro.layout.router import RoutedNet

#: Number of discrete compass directions a dangling stub reveals.  A real
#: stub tells an attacker only the rough heading of the missing wire, so the
#: direction hint is quantized (Wang et al. use the same kind of coarse
#: directional information).
DIRECTION_QUANTIZATION = 8

#: Fraction of the way towards the route's continuation that the dangling
#: FEOL stub of a cut connection extends.  In a real layout the lower-layer
#: escape routing and the partially-routed FEOL segments of a cut net carry
#: it a good part of the way towards its BEOL continuation; the vpin (the via
#: location in the topmost FEOL layer) therefore sits *between* the owning
#: cell and the missing partner, which is precisely the proximity leverage
#: the attacks of Wang et al. and Magaña et al. exploit.  For the paper's
#: protected layouts the continuation recorded in the FEOL is the *erroneous*
#: one, so the same mechanism actively misleads the attacker.
DEFAULT_STUB_FRACTION = 0.47


@dataclass(frozen=True)
class VPin:
    """An open terminal in the topmost FEOL layer."""

    identifier: int
    kind: str  # "driver" or "sink"
    position: Point
    gate: Optional[str]  # owning gate instance; None for an I/O port terminal
    pin: Optional[str]  # gate pin name, or the port name for I/O terminals
    cell: Optional[str]  # library cell of the owning gate (attacker knows masters)
    direction: Optional[Tuple[float, float]]  # dangling-stub heading (unit vector)
    capacitance_ff: float = 0.0  # sink pin load
    max_load_ff: float = 0.0  # driver drive capability
    drive_resistance_kohm: float = 0.0
    #: FEOL net the open via belongs to.  The attacker can see which dangling
    #: stubs are electrically connected below the split, so this is an
    #: observable (opaque) identifier, not ground truth.
    net: Optional[str] = None


@dataclass
class OpenConnection:
    """Ground truth for one cut driver→sink connection (scoring only)."""

    net: str
    driver_vpin: int
    sink_vpin: int
    protected: bool


@dataclass
class FEOLView:
    """Everything below the split layer, as seen by the FEOL foundry."""

    layout: Layout
    split_layer: int
    #: Nets fully routed at or below the split layer (attacker sees them whole).
    visible_nets: Set[str] = field(default_factory=set)
    #: Nets with at least one connection crossing the split layer.
    cut_nets: Set[str] = field(default_factory=set)
    driver_vpins: List[VPin] = field(default_factory=list)
    sink_vpins: List[VPin] = field(default_factory=list)
    #: Ground-truth pairing, for scoring only.
    open_connections: List[OpenConnection] = field(default_factory=list)
    #: Monotonic counter keying the cached columnar view (see
    #: :func:`feol_arrays`): any in-place edit of the vpin lists after
    #: extraction — replacing vpins, re-aiming directions — must call
    #: :meth:`bump_geometry_version`, mirroring the contract on
    #: ``PlacementResult`` / ``Layout``.
    geometry_version: int = 0

    def bump_geometry_version(self) -> int:
        """Record an in-place vpin mutation (invalidates the cached arrays)."""
        self.geometry_version += 1
        return self.geometry_version

    @property
    def num_vpins(self) -> int:
        return len(self.driver_vpins) + len(self.sink_vpins)

    def vpins_of_kind(self, kind: str) -> List[VPin]:
        if kind == "driver":
            return self.driver_vpins
        if kind == "sink":
            return self.sink_vpins
        raise ValueError(f"unknown vpin kind {kind!r}")

    def true_driver_of_sink(self) -> Dict[int, int]:
        """Map sink-vpin id → true driver-vpin id (scoring helper)."""
        return {oc.sink_vpin: oc.driver_vpin for oc in self.open_connections}

    def driver_vpin_nets(self) -> Dict[int, str]:
        """Map driver-vpin id → the FEOL net it belongs to."""
        return {
            vpin.identifier: vpin.net
            for vpin in self.driver_vpins
            if vpin.net is not None
        }

    def protected_sink_vpins(self) -> Set[int]:
        """Sink vpins belonging to nets the defense randomized."""
        return {oc.sink_vpin for oc in self.open_connections if oc.protected}

    def stats(self) -> Dict[str, float]:
        return {
            "split_layer": self.split_layer,
            "visible_nets": len(self.visible_nets),
            "cut_nets": len(self.cut_nets),
            "driver_vpins": len(self.driver_vpins),
            "sink_vpins": len(self.sink_vpins),
            "open_connections": len(self.open_connections),
        }

    def arrays(self) -> "FEOLArrays":
        """The cached columnar view of this FEOL view (see :func:`feol_arrays`)."""
        return feol_arrays(self)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_geometry_cache", None)  # cached arrays are rebuilt lazily
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


@dataclass
class FEOLArrays:
    """Array-backed view of a :class:`FEOLView`'s open vpins.

    Driver and sink columns follow ``view.driver_vpins`` /
    ``view.sink_vpins`` list order, so first-occurrence index semantics are
    preserved.  ``*_gate_idx`` maps owning gates to small integers shared
    between the two sides (``-1`` for I/O terminals), which lets the attacks
    compare gate identity without string broadcasting.
    """

    driver_ids: np.ndarray       # (d,) int64 vpin identifiers
    driver_xy: np.ndarray        # (d, 2) float64
    driver_dir: np.ndarray       # (d, 2) float64, (0, 0) when absent
    driver_has_dir: np.ndarray   # (d,) bool
    driver_max_load: np.ndarray  # (d,) float64
    driver_gate_idx: np.ndarray  # (d,) int64, -1 for port terminals
    sink_ids: np.ndarray         # (s,) int64
    sink_xy: np.ndarray          # (s, 2) float64
    sink_dir: np.ndarray         # (s, 2) float64
    sink_has_dir: np.ndarray     # (s,) bool
    sink_cap: np.ndarray         # (s,) float64
    sink_gate_idx: np.ndarray    # (s,) int64
    _driver_grid: Optional[UniformGridIndex] = field(default=None, repr=False)

    def driver_grid(self) -> UniformGridIndex:
        """Lazily built spatial index over the driver-vpin positions."""
        if self._driver_grid is None:
            self._driver_grid = UniformGridIndex(self.driver_xy)
        return self._driver_grid

    @staticmethod
    def build(view: "FEOLView") -> "FEOLArrays":
        gate_index: Dict[str, int] = {}

        def gate_of(vpin: VPin) -> int:
            if vpin.gate is None:
                return -1
            return gate_index.setdefault(vpin.gate, len(gate_index))

        def columns(vpins: List[VPin]):
            ids = np.asarray([v.identifier for v in vpins], dtype=np.int64)
            if vpins:
                xy = np.asarray(
                    [(v.position.x, v.position.y) for v in vpins], dtype=np.float64
                )
                direction = np.asarray(
                    [v.direction if v.direction is not None else (0.0, 0.0)
                     for v in vpins],
                    dtype=np.float64,
                )
            else:
                xy = np.empty((0, 2), dtype=np.float64)
                direction = np.empty((0, 2), dtype=np.float64)
            has_dir = np.asarray(
                [v.direction is not None for v in vpins], dtype=bool
            )
            gates = np.asarray([gate_of(v) for v in vpins], dtype=np.int64)
            return ids, xy, direction, has_dir, gates

        d_ids, d_xy, d_dir, d_has, d_gates = columns(view.driver_vpins)
        s_ids, s_xy, s_dir, s_has, s_gates = columns(view.sink_vpins)
        return FEOLArrays(
            driver_ids=d_ids,
            driver_xy=d_xy,
            driver_dir=d_dir,
            driver_has_dir=d_has,
            driver_max_load=np.asarray(
                [v.max_load_ff for v in view.driver_vpins], dtype=np.float64
            ),
            driver_gate_idx=d_gates,
            sink_ids=s_ids,
            sink_xy=s_xy,
            sink_dir=s_dir,
            sink_has_dir=s_has,
            sink_cap=np.asarray(
                [v.capacitance_ff for v in view.sink_vpins], dtype=np.float64
            ),
            sink_gate_idx=s_gates,
        )


def feol_arrays(view: FEOLView) -> FEOLArrays:
    """Return (and cache) the :class:`FEOLArrays` view of ``view``.

    FEOL views are normally immutable once :func:`extract_feol` returns; the
    cache keys on ``view.geometry_version`` (bump it after any in-place vpin
    edit) with the vpin counts as an extra safety net against list growth.
    """
    key = _feol_cache_key(view)
    cached = view.__dict__.get("_geometry_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    arrays = FEOLArrays.build(view)
    view.__dict__["_geometry_cache"] = (key, arrays)
    return arrays


def _feol_cache_key(view: FEOLView) -> Tuple[int, int, int]:
    return (view.geometry_version, len(view.driver_vpins), len(view.sink_vpins))


# ---------------------------------------------------------------------------
# Extraction: per-connection columns → vpins
# ---------------------------------------------------------------------------

_DIRECTION_STEP = 2.0 * math.pi / DIRECTION_QUANTIZATION

#: Snapped stub headings by compass index ``k = round(angle / step)``.  The
#: entries are ``math.cos``/``math.sin`` at ``k * step`` (NumPy's
#: transcendental ULPs may differ); ``k`` spans both ends of
#: ``atan2``'s range because ``sin(-pi)`` and ``sin(pi)`` differ in sign.
_SNAPPED_DIRECTIONS = {
    k: (math.cos(k * _DIRECTION_STEP), math.sin(k * _DIRECTION_STEP))
    for k in range(-((DIRECTION_QUANTIZATION + 1) // 2),
                   (DIRECTION_QUANTIZATION + 1) // 2 + 1)
}


@dataclass
class _FEOLColumns:
    """What FEOL extraction reads of a routing, one row per connection.

    Per-net columns follow routing iteration order and are CSR-sliced by
    ``conn_starts``.  Hint columns hold 0.0 where the ``*_hint`` mask is
    clear (an absent stub hint).
    """

    net_names: List[str]
    conn_starts: np.ndarray   # (num_nets + 1,) int64
    anchor_x: np.ndarray      # (num_nets,) driver pin, (0, 0) without driver
    anchor_y: np.ndarray
    sink_refs: List[Tuple[str, str]]
    h_layer: np.ndarray       # (num_connections,) int64
    v_layer: np.ndarray
    tx: np.ndarray            # sink pin (the sink vpin's anchor)
    ty: np.ndarray
    src_hint: np.ndarray      # bool: source stub hint present
    src_hint_x: np.ndarray
    src_hint_y: np.ndarray
    tgt_hint: np.ndarray      # bool: target stub hint present
    tgt_hint_x: np.ndarray
    tgt_hint_y: np.ndarray
    protected: np.ndarray     # bool

    @staticmethod
    def from_backing(names: List[str], backing: RoutingArrays) -> "_FEOLColumns":
        """Read a clean routing backing; the router's default hints (source
        hint = target, target hint = source) are resolved from ``sx/sy`` and
        ``tx/ty``."""
        default = backing.hint_default
        has_driver = backing.has_driver
        return _FEOLColumns(
            net_names=names,
            conn_starts=backing.conn_starts,
            anchor_x=np.where(has_driver, backing.driver_x, 0.0),
            anchor_y=np.where(has_driver, backing.driver_y, 0.0),
            sink_refs=backing.sink_refs,
            h_layer=backing.h_layer,
            v_layer=backing.v_layer,
            tx=backing.tx,
            ty=backing.ty,
            src_hint=default | backing.hint_src_present.astype(bool),
            src_hint_x=np.where(default, backing.tx, backing.hint_sx),
            src_hint_y=np.where(default, backing.ty, backing.hint_sy),
            tgt_hint=default | backing.hint_tgt_present.astype(bool),
            tgt_hint_x=np.where(default, backing.sx, backing.hint_tx),
            tgt_hint_y=np.where(default, backing.sy, backing.hint_ty),
            protected=backing.protected.astype(bool),
        )

    @staticmethod
    def gather(routing: Dict[str, RoutedNet]) -> "_FEOLColumns":
        """One walk over the ``RoutedNet`` objects of any other routing
        (hand-built, or a backing whose objects may have been edited)."""
        names: List[str] = []
        counts: List[int] = []
        anchors: List[Tuple[float, float]] = []
        sink_refs: List[Tuple[str, str]] = []
        layers: List[Tuple[int, int]] = []
        targets: List[Tuple[float, float]] = []
        hints: List[Tuple[bool, float, float, bool, float, float]] = []
        protected: List[bool] = []
        for name, routed in routing.items():
            names.append(name)
            point = routed.driver_point
            anchors.append((0.0, 0.0) if point is None else (point.x, point.y))
            connections = routed.connections
            counts.append(len(connections))
            for connection in connections:
                sink_refs.append(connection.sink)
                layers.append((connection.h_layer, connection.v_layer))
                target = connection.target
                targets.append((target.x, target.y))
                src, tgt = connection.source_hint, connection.target_hint
                hints.append((
                    src is not None,
                    0.0 if src is None else src.x,
                    0.0 if src is None else src.y,
                    tgt is not None,
                    0.0 if tgt is None else tgt.x,
                    0.0 if tgt is None else tgt.y,
                ))
                protected.append(connection.protected)
        m = len(sink_refs)
        layer_cols = np.asarray(layers, dtype=np.int64).reshape(m, 2)
        target_cols = np.asarray(targets, dtype=np.float64).reshape(m, 2)
        anchor_cols = np.asarray(anchors, dtype=np.float64).reshape(len(names), 2)
        hint_cols = np.asarray(hints, dtype=np.float64).reshape(m, 6)
        return _FEOLColumns(
            net_names=names,
            conn_starts=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
            anchor_x=anchor_cols[:, 0],
            anchor_y=anchor_cols[:, 1],
            sink_refs=sink_refs,
            h_layer=layer_cols[:, 0],
            v_layer=layer_cols[:, 1],
            tx=target_cols[:, 0],
            ty=target_cols[:, 1],
            src_hint=hint_cols[:, 0] != 0.0,
            src_hint_x=hint_cols[:, 1],
            src_hint_y=hint_cols[:, 2],
            tgt_hint=hint_cols[:, 3] != 0.0,
            tgt_hint_x=hint_cols[:, 4],
            tgt_hint_y=hint_cols[:, 5],
            protected=np.asarray(protected, dtype=bool),
        )


def _stub_tips(anchor_x: np.ndarray, anchor_y: np.ndarray, hint: np.ndarray,
               hint_x: np.ndarray, hint_y: np.ndarray, stub_fraction: float
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Dangling-stub tips: ``a + f*(h - a)`` with ``f`` clamped to [0, 0.5];
    the anchor itself without a hint or for ``stub_fraction <= 0``."""
    if stub_fraction <= 0.0:
        return anchor_x, anchor_y
    fraction = min(max(stub_fraction, 0.0), 0.5)
    return (
        np.where(hint, anchor_x + fraction * (hint_x - anchor_x), anchor_x),
        np.where(hint, anchor_y + fraction * (hint_y - anchor_y), anchor_y),
    )


def _stub_directions(x: np.ndarray, y: np.ndarray, hint: np.ndarray,
                     hint_x: np.ndarray, hint_y: np.ndarray
                     ) -> List[Optional[Tuple[float, float]]]:
    """Quantized heading from each stub tip towards its hint (None without a
    hint or when the tip sits on it)."""
    dx = hint_x - x
    dy = hint_y - y
    heading = hint & ~((np.abs(dx) < 1e-9) & (np.abs(dy) < 1e-9))
    directions: List[Optional[Tuple[float, float]]] = [None] * len(x)
    atan2 = math.atan2
    step = _DIRECTION_STEP
    for i, ddx, ddy in zip(np.flatnonzero(heading).tolist(),
                           dx[heading].tolist(), dy[heading].tolist()):
        directions[i] = _SNAPPED_DIRECTIONS[round(atan2(ddy, ddx) / step)]
    return directions


def _direction_columns(directions: List[Optional[Tuple[float, float]]]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    has_dir = np.asarray([d is not None for d in directions], dtype=bool)
    xy = np.zeros((len(directions), 2), dtype=np.float64)
    if has_dir.any():
        xy[has_dir] = [d for d in directions if d is not None]
    return xy, has_dir


def _new_vpin(identifier: int, kind: str, position: Point, gate: Optional[str],
              pin: Optional[str], cell: Optional[str],
              direction: Optional[Tuple[float, float]], capacitance_ff: float,
              max_load_ff: float, drive_resistance_kohm: float,
              net: str) -> VPin:
    """Build a :class:`VPin` through ``__dict__`` (the frozen dataclass
    ``__init__`` funnels every field through ``object.__setattr__``); keys in
    field order, so pickles match the generated constructor's."""
    vpin = VPin.__new__(VPin)
    d = vpin.__dict__
    d["identifier"] = identifier
    d["kind"] = kind
    d["position"] = position
    d["gate"] = gate
    d["pin"] = pin
    d["cell"] = cell
    d["direction"] = direction
    d["capacitance_ff"] = capacitance_ff
    d["max_load_ff"] = max_load_ff
    d["drive_resistance_kohm"] = drive_resistance_kohm
    d["net"] = net
    return vpin


def _build_view(view: FEOLView, columns: _FEOLColumns,
                stub_fraction: float) -> None:
    """Fill ``view`` from per-connection columns and seed its arrays cache.

    Vpin ids follow routing order, then connection order, driver before
    sink (the ``j``-th cut connection owns ids ``2j`` and ``2j + 1``);
    proximity's first-occurrence tie-break depends on that order.
    """
    layout = view.layout
    netlist = layout.netlist
    split_layer = view.split_layer
    names = columns.net_names
    num_nets = len(names)

    cut = (columns.h_layer > split_layer) | (columns.v_layer > split_layer)
    conn_net = np.repeat(np.arange(num_nets, dtype=np.int64),
                         np.diff(columns.conn_starts))
    cut_conn = np.flatnonzero(cut)
    cut_net = conn_net[cut_conn]
    net_is_cut = np.bincount(cut_net, minlength=num_nets) > 0
    view.visible_nets = {names[i] for i in np.flatnonzero(~net_is_cut).tolist()}
    view.cut_nets = {names[i] for i in np.flatnonzero(net_is_cut).tolist()}

    anchor_x = columns.anchor_x[cut_net]
    anchor_y = columns.anchor_y[cut_net]
    src_hint = columns.src_hint[cut_conn]
    src_x = columns.src_hint_x[cut_conn]
    src_y = columns.src_hint_y[cut_conn]
    driver_x, driver_y = _stub_tips(anchor_x, anchor_y, src_hint, src_x,
                                    src_y, stub_fraction)
    driver_dirs = _stub_directions(driver_x, driver_y, src_hint, src_x, src_y)
    tgt_hint = columns.tgt_hint[cut_conn]
    tgt_x = columns.tgt_hint_x[cut_conn]
    tgt_y = columns.tgt_hint_y[cut_conn]
    sink_x, sink_y = _stub_tips(columns.tx[cut_conn], columns.ty[cut_conn],
                                tgt_hint, tgt_x, tgt_y, stub_fraction)
    sink_dirs = _stub_directions(sink_x, sink_y, tgt_hint, tgt_x, tgt_y)

    protected_nets = layout.protected_nets
    sink_refs = columns.sink_refs
    conn_protected = columns.protected[cut_conn].tolist()
    driver_vpins = view.driver_vpins
    sink_vpins = view.sink_vpins
    open_connections = view.open_connections
    gate_index: Dict[str, int] = {}
    driver_gate_idx: List[int] = []
    driver_max_load: List[float] = []
    sink_gates: List[Optional[str]] = []
    sink_caps: List[float] = []
    current = -1
    for j, (ni, ci, dx, dy, sx, sy) in enumerate(zip(
            cut_net.tolist(), cut_conn.tolist(), driver_x.tolist(),
            driver_y.tolist(), sink_x.tolist(), sink_y.tolist())):
        if ni != current:
            current = ni
            net_name = names[ni]
            net = netlist.nets[net_name]
            net_protected = net_name in protected_nets
            driver_gate: Optional[str] = None
            driver_pin: Optional[str] = None
            driver_cell = None
            if net.driver is not None:
                driver_gate, driver_pin = net.driver
                driver_cell = netlist.gates[driver_gate].cell
            elif net.is_primary_input:
                driver_pin = net_name
            if driver_cell is not None:
                cell_name = driver_cell.name
                max_load = driver_cell.max_load_ff
                drive_resistance = driver_cell.drive_resistance_kohm
            else:
                cell_name, max_load, drive_resistance = None, 1e9, 0.0
            driver_idx = (-1 if driver_gate is None else
                          gate_index.setdefault(driver_gate, len(gate_index)))

        driver_id = 2 * j
        driver_vpins.append(_new_vpin(
            driver_id, "driver", _fast_point(dx, dy), driver_gate, driver_pin,
            cell_name, driver_dirs[j], 0.0, max_load, drive_resistance,
            net_name,
        ))
        driver_gate_idx.append(driver_idx)
        driver_max_load.append(max_load)

        sink = sink_refs[ci]
        if sink[0] == "PO":
            sink_gate, sink_pin = None, sink[1]
            sink_cell_name, cap = None, 0.0
        else:
            sink_gate, sink_pin = sink
            sink_cell = netlist.gates[sink_gate].cell
            sink_cell_name = sink_cell.name
            cap = sink_cell.pin(sink_pin).capacitance_ff
        sink_vpins.append(_new_vpin(
            driver_id + 1, "sink", _fast_point(sx, sy), sink_gate, sink_pin,
            sink_cell_name, sink_dirs[j], cap, 0.0, 0.0, net_name,
        ))
        sink_gates.append(sink_gate)
        sink_caps.append(cap)
        open_connections.append(OpenConnection(
            net=net_name,
            driver_vpin=driver_id,
            sink_vpin=driver_id + 1,
            # Only the connections the defense actually randomized are
            # scored as "protected"; other (honest) sinks of the same net
            # are ordinary cut connections.
            protected=net_protected and conn_protected[j],
        ))

    # Sink gates join the shared gate index after every driver gate, as in
    # FEOLArrays.build.
    sink_gate_idx = [
        -1 if gate is None else gate_index.setdefault(gate, len(gate_index))
        for gate in sink_gates
    ]
    num_open = len(open_connections)
    driver_dir, driver_has_dir = _direction_columns(driver_dirs)
    sink_dir, sink_has_dir = _direction_columns(sink_dirs)
    arrays = FEOLArrays(
        driver_ids=np.arange(0, 2 * num_open, 2, dtype=np.int64),
        driver_xy=np.column_stack((driver_x, driver_y)),
        driver_dir=driver_dir,
        driver_has_dir=driver_has_dir,
        driver_max_load=np.asarray(driver_max_load, dtype=np.float64),
        driver_gate_idx=np.asarray(driver_gate_idx, dtype=np.int64),
        sink_ids=np.arange(1, 2 * num_open, 2, dtype=np.int64),
        sink_xy=np.column_stack((sink_x, sink_y)),
        sink_dir=sink_dir,
        sink_has_dir=sink_has_dir,
        sink_cap=np.asarray(sink_caps, dtype=np.float64),
        sink_gate_idx=np.asarray(sink_gate_idx, dtype=np.int64),
    )
    view.__dict__["_geometry_cache"] = (_feol_cache_key(view), arrays)


def extract_feol(layout: Layout, split_layer: int,
                 stub_fraction: float = DEFAULT_STUB_FRACTION) -> FEOLView:
    """Build the FEOL view of ``layout`` for a split after ``split_layer``.

    A clean column-backed routing (``route()`` / store decode) is read
    straight from its :class:`~repro.layout.arrays.RoutingArrays` columns,
    so no net's object graph is materialized; any other routing is gathered
    into the same columns in one walk over its objects.  The view's
    :func:`feol_arrays` cache is filled at extraction time.

    Args:
        layout: A routed layout (original, naively lifted, or protected).
        split_layer: Topmost FEOL metal layer (e.g. 3 → split after M3).
        stub_fraction: How far (as a fraction of the distance to the route's
            FEOL continuation target) the dangling stubs extend; see
            :data:`DEFAULT_STUB_FRACTION`.  Clamped to [0, 0.5]; 0 places every
            vpin directly at its cell.

    Returns:
        A populated :class:`FEOLView`.
    """
    if split_layer < 1:
        raise ValueError("split_layer must be >= 1")
    view = FEOLView(layout=layout, split_layer=split_layer)
    backing = routing_backing(layout.routing)
    if backing is not None:
        columns = _FEOLColumns.from_backing(list(layout.routing), backing)
    else:
        columns = _FEOLColumns.gather(layout.routing)
    _build_view(view, columns, stub_fraction)
    return view


