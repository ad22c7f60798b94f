"""Design hierarchy: the logical module tree behind fence regions.

NTUplace4h is *hierarchical* placement: the netlist carries a module tree
(``top/cpu/alu`` style paths); selected modules are bound to fence regions,
and clustering must never merge cells across module boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Module:
    """A node of the design hierarchy tree."""

    name: str  # full path, e.g. "top/cpu/alu"
    parent: "Module | None" = None
    children: dict = field(default_factory=dict)  # local name -> Module
    cells: list = field(default_factory=list)  # node indices directly inside
    region: int | None = None  # fence region id bound to this module

    @property
    def local_name(self) -> str:
        return self.name.rsplit("/", 1)[-1]

    @property
    def depth(self) -> int:
        return self.name.count("/")

    def iter_subtree(self):
        """This module and every descendant, preorder."""
        yield self
        for child in self.children.values():
            yield from child.iter_subtree()

    def all_cells(self) -> list:
        """Node indices of every cell in this module's subtree."""
        out = []
        for module in self.iter_subtree():
            out.extend(module.cells)
        return out


class HierarchyTree:
    """The module tree of a design.

    Paths use ``/`` separators; the root is the empty path ``""`` (top).
    """

    def __init__(self):
        self.root = Module(name="")
        self._by_name = {"": self.root}

    def get(self, path: str) -> Module:
        """The module at ``path`` (KeyError when absent)."""
        return self._by_name[path]

    def __contains__(self, path: str) -> bool:
        return path in self._by_name

    def modules(self):
        """Every module, preorder from the root."""
        return list(self.root.iter_subtree())

    def ensure(self, path: str) -> Module:
        """The module at ``path``, creating intermediate modules as needed."""
        if path in self._by_name:
            return self._by_name[path]
        parent_path, _, local = path.rpartition("/")
        parent = self.ensure(parent_path) if path else self.root
        module = Module(name=path, parent=parent)
        parent.children[local] = module
        self._by_name[path] = module
        return module

    def assign_cell(self, node_index: int, path: str) -> Module:
        """Record that ``node_index`` lives directly in module ``path``."""
        module = self.ensure(path)
        module.cells.append(node_index)
        return module

    def lowest_common_module(self, path_a: str, path_b: str) -> Module:
        """Deepest module containing both paths."""
        parts_a = path_a.split("/") if path_a else []
        parts_b = path_b.split("/") if path_b else []
        common = []
        for a, b in zip(parts_a, parts_b):
            if a != b:
                break
            common.append(a)
        return self.ensure("/".join(common))

    def fenced_ancestor(self, path: str) -> "Module | None":
        """The nearest enclosing module bound to a fence region, if any.

        When nested modules are fenced the innermost fence governs the cell,
        matching the contest semantics where region constraints do not nest.
        """
        module = self._by_name.get(path)
        while module is not None:
            if module.region is not None:
                return module
            module = module.parent
        return None
