"""The top-level design container.

``Design`` owns the netlist (nodes, nets, pins), the floorplan (rows, core
area, fence regions), the design hierarchy and an optional routing
specification.  Algorithmic stages interact with it two ways:

* **Array interface** — ``pull_centers`` / ``push_centers`` /
  ``pin_arrays`` / size-and-mask arrays.  Analytical global placement and
  congestion estimation run entirely on these NumPy views.
* **Object interface** — ``nodes`` / ``nets`` / ``rows``.  Sequential
  stages (legalization, detailed placement) mutate :class:`Node` objects
  directly.

Node geometry lives in one table of NumPy columns owned by the design
(``x``, ``y``, ``width``, ``height``, orientation, kind, region); each
:class:`Node` is a view of its row, so the object and array interfaces
read the same storage and nothing needs to be told about a write.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import wirelength
from repro.geometry import Orientation, Rect
from repro.geometry.orientation import _ROTATIONS
from repro.db.node import (
    BLOCKAGE, COLUMN_DTYPES, HEIGHT, KIND, KINDS, MOVABLE, ORIENT, REGION, SWAPS, WIDTH,
    X, Y, Node, NodeKind,
)
from repro.db.net import Net, Pin
from repro.db.rows import Row
from repro.db.regions import Region
from repro.db.hierarchy import HierarchyTree

# Per orientation code, the (flip, rotation-matrix) pair transform_offset
# uses, for the vectorized pin transform.
_ORIENT_XFORM = [
    (orient.is_flipped, *_ROTATIONS[orient.rotation]) for orient in Orientation
]


@dataclass
class NodeIncidence:
    """CSR incidence views derived from :class:`PinArrays`.

    ``node_net_ids[node_net_ptr[i]:node_net_ptr[i+1]]`` are the distinct
    nets touching node ``i``, sorted ascending; ``node_pin_ids`` slices
    the same way into the flat pin table (pin indices grouped per node,
    in net-major order).  Detailed placement uses these to find the nets
    and pins dirtied by a move without walking Python pin objects.
    """

    node_net_ptr: np.ndarray  # int64 [num_nodes+1]
    node_net_ids: np.ndarray  # int32 [node-net incidences]
    node_pin_ptr: np.ndarray  # int64 [num_nodes+1]
    node_pin_ids: np.ndarray  # int64 [P] pin-table indices grouped by node


@dataclass
class PinArrays:
    """CSR view of the netlist's pins, ordered net-by-net.

    ``net_ptr[i]:net_ptr[i+1]`` slices the pin arrays for net ``i``.
    Offsets are relative to node centres and already account for each
    node's current orientation.
    """

    pin_node: np.ndarray  # int32 [P] node index of each pin
    pin_dx: np.ndarray  # float64 [P] oriented offset from node centre
    pin_dy: np.ndarray  # float64 [P]
    net_ptr: np.ndarray  # int64 [N+1]
    net_weight: np.ndarray  # float64 [N]

    @property
    def num_pins(self) -> int:
        return len(self.pin_node)

    @property
    def num_nets(self) -> int:
        return len(self.net_weight)

    def pin_positions(self, cx: np.ndarray, cy: np.ndarray):
        """Absolute pin coordinates given node-centre arrays."""
        return cx[self.pin_node] + self.pin_dx, cy[self.pin_node] + self.pin_dy


class Design:
    """A mixed-size, hierarchy-aware placement design."""

    def __init__(self, name: str = "design", core: Rect | None = None):
        self.name = name
        self.nodes: list = []
        self.nets: list = []
        self.rows: list = []
        self.regions: list = []
        self.hierarchy = HierarchyTree()
        self.routing = None  # repro.route.RoutingSpec, if congestion-aware
        # One-time congestion-estimator calibration (pin_norm and the
        # wire width it was measured at) shared by every
        # CongestionInflator bound to this design and carried through
        # flow checkpoints (see repro.gp.inflation).
        self.congestion_calibration = None
        self._core = core
        self._node_index: dict = {}
        self._net_index: dict = {}
        # The node table.  Nodes index it through memoryviews, which read
        # and write Python floats and ints directly; the list is shared
        # with every added node and updated in place when it grows.
        self._cols = [memoryview(np.empty(0, dtype)) for dtype in COLUMN_DTYPES]
        # Bumped by this class's netlist mutators (and netlist_changed).
        self._topology_version = 0
        self._pin_base = None  # raw N-frame pin table
        self._pin_base_version = -1
        self._pin_cache = None  # PinArrays under _pin_codes
        self._pin_codes = None
        self._incidence_cache = None
        self._incidence_version = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register ``node``; names must be unique."""
        if node.name in self._node_index:
            raise ValueError(f"duplicate node name {node.name!r}")
        row = len(self.nodes)
        if row == len(self._cols[X]):
            self._grow()
        for col, value in zip(self._cols, node._cols):
            col[row] = value[node._row]
        node._cols, node._row = self._cols, row
        node.index = row
        self.nodes.append(node)
        self._node_index[node.name] = node.index
        if node.module is not None:
            self.hierarchy.assign_cell(node.index, node.module)
        self._topology_version += 1
        return node

    def _grow(self) -> None:
        """Double the node table's capacity (amortized O(1) ``add_node``)."""
        n = len(self.nodes)
        for k, dtype in enumerate(COLUMN_DTYPES):
            col = np.empty(max(64, 2 * n), dtype)
            col[:n] = self._column(k)
            self._cols[k] = memoryview(col)

    def _column(self, k: int) -> np.ndarray:
        """Column ``k`` of the node table over the added nodes (a view)."""
        return np.asarray(self._cols[k])[: len(self.nodes)]

    def add_net(self, net: Net) -> Net:
        """Register ``net``; pins must reference existing nodes."""
        if net.name in self._net_index:
            raise ValueError(f"duplicate net name {net.name!r}")
        net.index = len(self.nets)
        for pin in net.pins:
            if not 0 <= pin.node < len(self.nodes):
                raise ValueError(
                    f"net {net.name!r} pin references unknown node {pin.node}"
                )
            pin.net = net.index
            self.nodes[pin.node].pins.append(pin)
        self.nets.append(net)
        self._net_index[net.name] = net.index
        self._topology_version += 1
        return net

    def connect(self, net: Net, node: Node, dx: float = 0.0, dy: float = 0.0, **kw) -> Pin:
        """Append a pin on ``node`` to an already-registered ``net``."""
        if net.index < 0:
            raise ValueError("net must be added to the design before connecting")
        pin = Pin(node=node.index, dx=dx, dy=dy, net=net.index, **kw)
        net.pins.append(pin)
        node.pins.append(pin)
        self._topology_version += 1
        return pin

    def remove_nets(self, indices) -> int:
        """Drop the nets at ``indices`` and reindex the survivors.

        Pins of removed nets are detached from their nodes; remaining
        pins have their ``net`` backref updated.  Returns the number of
        nets removed.  Used by design sanitization to drop empty nets.
        """
        doomed = set(indices)
        if not doomed:
            return 0
        for idx in doomed:
            if not 0 <= idx < len(self.nets):
                raise ValueError(f"cannot remove unknown net index {idx}")
            net = self.nets[idx]
            for pin in net.pins:
                if 0 <= pin.node < len(self.nodes):
                    node_pins = self.nodes[pin.node].pins
                    if pin in node_pins:
                        node_pins.remove(pin)
        survivors = [net for net in self.nets if net.index not in doomed]
        self.nets = survivors
        self._net_index = {}
        for new_idx, net in enumerate(survivors):
            net.index = new_idx
            for pin in net.pins:
                pin.net = new_idx
            self._net_index[net.name] = new_idx
        self._topology_version += 1
        return len(doomed)

    def netlist_changed(self) -> None:
        """Report an in-place pin edit made without this class's mutators.

        Drops the raw and the oriented pin tables, so the next
        :meth:`pin_arrays` call rebuilds them in full.
        """
        self._topology_version += 1

    def add_row(self, row: Row) -> Row:
        row.index = len(self.rows)
        self.rows.append(row)
        return row

    def add_region(self, region: Region) -> Region:
        region.index = len(self.regions)
        self.regions.append(region)
        return region

    def bind_region(self, module_path: str, region: Region) -> None:
        """Fence the hierarchy module at ``module_path`` into ``region``.

        Every cell currently in the module's subtree is constrained;
        cells added to the module later pick the constraint up via their
        ``module`` attribute when assigned.
        """
        if region.index < 0:
            region = self.add_region(region)
        module = self.hierarchy.ensure(module_path)
        module.region = region.index
        for idx in module.all_cells():
            self.nodes[idx].region = region.index

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        return self.nodes[self._node_index[name]]

    def net(self, name: str) -> Net:
        return self.nets[self._net_index[name]]

    def has_node(self, name: str) -> bool:
        return name in self._node_index

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def num_pins(self) -> int:
        return sum(net.degree for net in self.nets)

    @property
    def core(self) -> Rect:
        """The placeable core area (explicit, or the union of the rows)."""
        if self._core is not None:
            return self._core
        if not self.rows:
            raise ValueError("design has neither an explicit core nor rows")
        box = self.rows[0].rect
        for row in self.rows[1:]:
            box = box.union(row.rect)
        return box

    @core.setter
    def core(self, rect: Rect) -> None:
        self._core = rect

    @property
    def site_width(self) -> float:
        return self.rows[0].site_width if self.rows else 1.0

    @property
    def row_height(self) -> float:
        return self.rows[0].height if self.rows else 1.0

    # ------------------------------------------------------------------
    # array interface
    # ------------------------------------------------------------------
    def pull_centers(self):
        """Centre coordinates of every node as two fresh float64 arrays."""
        w, h = self.placed_sizes()
        return self._column(X) + w / 2.0, self._column(Y) + h / 2.0

    def pull_corners(self):
        """Lower-left corner coordinates of every node as two fresh
        float64 arrays."""
        return self._column(X).copy(), self._column(Y).copy()

    def push_centers(self, cx: np.ndarray, cy: np.ndarray, indices=None) -> None:
        """Write centre coordinates back onto movable nodes.

        Fixed nodes are never moved; ``indices`` restricts the write to a
        subset (positions arrays are still indexed by global node id).
        """
        rows = self.movable_indices()
        if indices is not None:
            rows = np.intersect1d(rows, indices)
        w, h = self.placed_sizes()
        self._column(X)[rows] = np.asarray(cx, dtype=np.float64)[rows] - w[rows] / 2.0
        self._column(Y)[rows] = np.asarray(cy, dtype=np.float64)[rows] - h[rows] / 2.0

    def placed_sizes(self):
        """Oriented (width, height) arrays of every node."""
        swap = np.array(SWAPS)[self._column(ORIENT)]
        w, h = self._column(WIDTH), self._column(HEIGHT)
        return np.where(swap, h, w), np.where(swap, w, h)

    def movable_mask(self) -> np.ndarray:
        return np.array(MOVABLE)[self._column(KIND)]

    def macro_mask(self) -> np.ndarray:
        """Movable macros only."""
        return self._column(KIND) == KINDS.index(NodeKind.MACRO)

    def blockage_mask(self) -> np.ndarray:
        """Fixed nodes whose footprint excludes other nodes."""
        return np.array(BLOCKAGE)[self._column(KIND)]

    def region_ids(self) -> np.ndarray:
        """Fence id per node (-1 when unconstrained)."""
        return self._column(REGION).copy()

    def movable_indices(self) -> np.ndarray:
        return np.flatnonzero(self.movable_mask())

    def pin_arrays(self) -> PinArrays:
        """The CSR pin view, checked on every call against what it reads.

        A netlist edit through this class (or :meth:`netlist_changed`)
        rebuilds the raw N-frame offsets.  An orientation change replays
        only the orientation transform, vectorized orientation group by
        orientation group, with the same scalar arithmetic as
        :func:`transform_offset` — the arrays are bit-identical to the
        original per-pin loop (a golden twin under ``tests/reference/``).
        Net weights are re-read from :attr:`nets` on each call; changed
        weights come back in a new :class:`PinArrays`.
        """
        if self._pin_base_version != self._topology_version:
            num_pins = self.num_pins
            pin_node = np.empty(num_pins, dtype=np.int32)
            dx0 = np.empty(num_pins)
            dy0 = np.empty(num_pins)
            net_ptr = np.empty(len(self.nets) + 1, dtype=np.int64)
            k = 0
            net_ptr[0] = 0
            for i, net in enumerate(self.nets):
                for pin in net.pins:
                    pin_node[k] = pin.node
                    dx0[k] = pin.dx
                    dy0[k] = pin.dy
                    k += 1
                net_ptr[i + 1] = k
            self._pin_base = (pin_node, dx0, dy0, net_ptr)
            self._pin_base_version = self._topology_version
            self._pin_cache = None
        pin_node, dx0, dy0, net_ptr = self._pin_base
        weights = np.fromiter(
            (net.weight for net in self.nets), np.float64, count=len(self.nets)
        )
        codes = self._column(ORIENT)
        cache = self._pin_cache
        if cache is None or not np.array_equal(codes, self._pin_codes):
            pcodes = codes[pin_node]
            pin_dx = np.empty_like(dx0)
            pin_dy = np.empty_like(dy0)
            for code, (flip, a, b, c, d) in enumerate(_ORIENT_XFORM):
                sel = pcodes == code
                if not sel.any():
                    continue
                vx = dx0[sel]
                vy = dy0[sel]
                if flip:
                    vx = -vx
                pin_dx[sel] = a * vx + b * vy
                pin_dy[sel] = c * vx + d * vy
            cache = PinArrays(pin_node, pin_dx, pin_dy, net_ptr, weights)
            self._pin_codes = codes.copy()
        elif not np.array_equal(weights, cache.net_weight):
            cache = replace(cache, net_weight=weights)
        self._pin_cache = cache
        return cache

    def node_incidence(self) -> NodeIncidence:
        """CSR node→net / node→pin incidence derived from :meth:`pin_arrays`.

        Built once per topology version from the flat pin table — never
        from the Python ``node.pins`` objects, so it cannot silently
        diverge from the arrays the incremental-HPWL bookkeeping reads.
        Nets per node come out sorted ascending and deduplicated (the pin
        table is net-major, so a stable sort by node preserves net order
        within each node's group).
        """
        arrays = self.pin_arrays()
        if (
            self._incidence_cache is not None
            and self._incidence_version == self._topology_version
        ):
            return self._incidence_cache
        num_nodes = len(self.nodes)
        num_pins = arrays.num_pins
        pin_net = np.repeat(
            np.arange(arrays.num_nets, dtype=np.int32), np.diff(arrays.net_ptr)
        )
        order = np.argsort(arrays.pin_node, kind="stable").astype(np.int64)
        node_pin_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
        if num_pins:
            np.cumsum(
                np.bincount(arrays.pin_node, minlength=num_nodes),
                out=node_pin_ptr[1:],
            )
        nodes_sorted = arrays.pin_node[order]
        nets_sorted = pin_net[order]
        if num_pins:
            keep = np.ones(num_pins, dtype=bool)
            keep[1:] = (nodes_sorted[1:] != nodes_sorted[:-1]) | (
                nets_sorted[1:] != nets_sorted[:-1]
            )
        else:
            keep = np.zeros(0, dtype=bool)
        node_net_ids = nets_sorted[keep]
        node_net_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
        if node_net_ids.size:
            np.cumsum(
                np.bincount(nodes_sorted[keep], minlength=num_nodes),
                out=node_net_ptr[1:],
            )
        self._incidence_cache = NodeIncidence(
            node_net_ptr=node_net_ptr,
            node_net_ids=node_net_ids,
            node_pin_ptr=node_pin_ptr,
            node_pin_ids=order,
        )
        self._incidence_version = self._topology_version
        return self._incidence_cache

    def set_orientation(self, node: Node, orient: Orientation) -> None:
        """Re-orient ``node`` about its centre."""
        cx, cy = node.cx, node.cy
        node.orientation = orient
        node.move_center_to(cx, cy)

    # ------------------------------------------------------------------
    # metrics & checks
    # ------------------------------------------------------------------
    def hpwl(self) -> float:
        """Exact weighted half-perimeter wirelength of the placement."""
        return wirelength.hpwl(self.pin_arrays(), *self.pull_centers())

    def movable_area(self) -> float:
        return sum(n.area for n in self.nodes if n.is_movable)

    def fixed_area_in_core(self) -> float:
        """Area of fixed, placement-blocking footprints clipped to the core."""
        core = self.core
        total = 0.0
        for node in self.nodes:
            if node.kind.is_fixed and node.kind.blocks_placement:
                total += core.overlap_area(node.rect)
        return total

    def utilization(self) -> float:
        """Movable area over free core area."""
        free = self.core.area - self.fixed_area_in_core()
        if free <= 0:
            return float("inf")
        return self.movable_area() / free

    def validate(self) -> list:
        """Consistency diagnostics; an empty list means the design is sound."""
        problems = []
        for node in self.nodes:
            if node.width < 0 or node.height < 0:
                problems.append(f"node {node.name} has negative size")
            if node.region is not None and not 0 <= node.region < len(self.regions):
                problems.append(f"node {node.name} references unknown region {node.region}")
        for net in self.nets:
            if net.degree == 0:
                problems.append(f"net {net.name} has no pins")
            for pin in net.pins:
                if not 0 <= pin.node < len(self.nodes):
                    problems.append(f"net {net.name} pin references unknown node")
        seen = set()
        for node in self.nodes:
            if node.name in seen:
                problems.append(f"duplicate node name {node.name}")
            seen.add(node.name)
        return problems

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, nodes={len(self.nodes)}, "
            f"nets={len(self.nets)}, rows={len(self.rows)}, "
            f"regions={len(self.regions)})"
        )
