"""The placement design database.

``Design`` is the hub every stage operates on: it owns nodes, nets, rows,
fence regions and the design hierarchy.  Node geometry is stored in NumPy
columns owned by the design, with each ``Node`` a view of its row, and the
design exposes array views (positions, sizes, CSR pin tables) so analytical
placement and congestion estimation run vectorized.
"""

from repro.db.node import Node, NodeKind
from repro.db.net import Net, Pin, PinDirection
from repro.db.rows import Row
from repro.db.regions import Region
from repro.db.hierarchy import HierarchyTree, Module
from repro.db.design import Design, NodeIncidence, PinArrays
from repro.db.stats import DesignStats, compute_stats

__all__ = [
    "Design",
    "DesignStats",
    "NodeIncidence",
    "PinArrays",
    "HierarchyTree",
    "Module",
    "Net",
    "Node",
    "NodeKind",
    "Pin",
    "PinDirection",
    "Region",
    "Row",
    "compute_stats",
]
