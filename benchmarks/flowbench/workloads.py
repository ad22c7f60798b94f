"""The two flowbench workloads, their inputs, and the order a seed sets.

A workload places copies of one benchgen suite design end to end.  Its
inputs are fixed: input ``j`` is the design relabelled with key ``j``.
Key 0 is the ``SUITE`` design exactly; any other key relabels it: the
hierarchy modules' cell blocks, the nets, and the pins of each net come
in a key-dependent order, while geometry, netlist and constraints stay
the same.  The program sees a new input (other summation orders, other
tie-breaks, other memory layout) of the same size and difficulty, and
GP lands in another local optimum: relabelled rh02 flows took 7-9.7 s
of CPU and reached sHPWL 36.5k-45.2k.  The seed sets the order in which
a run cycles through the inputs.

Seed-dependent inputs were tried first.  With four fresh relabellings
per seed, the per-run medians of rh02's CPU time spread 6.8-12.8% (IQR
over median, ten seeds) and of its sHPWL 6.7-10.2%: the spread of the
inputs, not of the program.  New netlists (``spec.seed += 1000*N``)
were worse: 14-17% in wall time and 6-9% in sHPWL, and one rh05 netlist
ran 68 s instead of about 33 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    design: str  # benchgen SUITE name, or "tiny"
    inputs: int  # copies a run cycles through: keys 0 .. inputs - 1


#: In report order; why each was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("flow-rh02", "rh02", 4),
        Workload("flow-rh03", "rh03", 4),
    )
}

#: The 60-cell design of the benchmark's own smoke test (about 1 s of
#: flow).  Two movable macros and one fixed one: with the benchgen
#: default of four, about 30% of 60-cell designs end with overlapping
#: macros.  A 16x16 routing grid at 1.5 tracks per site gives RC near
#: 0.94; the default 32x32 grid at 0.45 puts every tile over capacity.
TINY_SPEC = {
    "name": "tiny",
    "num_cells": 60,
    "num_macros": 2,
    "num_fixed_macros": 1,
    "route_tiles": 16,
    "cap_factor": 1.5,
    "seed": 1000,
}


def run_order(seed: int, w: Workload) -> list:
    """The inputs of ``w`` in the order a run with ``seed`` cycles them."""
    order = list(range(w.inputs))
    random.Random(seed).shuffle(order)
    return order


def make_design(name: str, key: int):
    """Design ``name`` relabelled with ``key``; returns (design, make_s).

    ``name`` is a benchgen ``SUITE`` name, or ``"tiny"`` for
    :data:`TINY_SPEC`.  ``make_s`` times benchgen alone, without the
    relabelling.
    """
    import time

    from repro.benchgen import SUITE, BenchmarkSpec, make_benchmark

    spec = BenchmarkSpec(**TINY_SPEC) if name == "tiny" else SUITE[name]
    t0 = time.perf_counter()
    design = make_benchmark(spec)
    make_s = time.perf_counter() - t0
    if key:
        design = relabel(design, key)
    return design, make_s


def relabel(design, key: int):
    """A copy of ``design`` with nodes, nets and pins in a keyed order.

    Cells stay in blocks per hierarchy module (their generated order,
    and its memory locality, survives inside a block); the blocks, the
    nets, grouped by the module of their first pin, and each net's pin
    list are shuffled.
    """
    import numpy as np

    from repro.db import Design, Net, Node, Pin, Region, Row

    rng = np.random.default_rng(key)
    out = Design(design.name, design.core)
    for row in design.rows:
        out.add_row(Row(row.y, row.height, row.site_width, row.x_min, row.num_sites))
    for region in design.regions:
        out.add_region(Region(region.name, list(region.rects)))

    blocks: dict = {}
    for node in design.nodes:
        blocks.setdefault(node.module, []).append(node.index)
    keys = list(blocks)
    order = [i for k in rng.permutation(len(keys)) for i in blocks[keys[k]]]
    new_index = {old: new for new, old in enumerate(order)}
    for old in order:
        n = design.nodes[old]
        out.add_node(
            Node(n.name, n.width, n.height, n.kind, n.x, n.y,
                 n.orientation, n.region, n.module)
        )
    for module in design.hierarchy.modules():
        if module.region is not None:
            out.hierarchy.ensure(module.name).region = module.region

    net_blocks: dict = {}
    for net in design.nets:
        key = design.nodes[net.pins[0].node].module if net.pins else None
        net_blocks.setdefault(key, []).append(net.index)
    net_keys = list(net_blocks)
    for k in rng.permutation(len(net_keys)):
        for old in net_blocks[net_keys[k]]:
            net = design.nets[old]
            pins = [net.pins[j] for j in rng.permutation(len(net.pins))]
            out.add_net(
                Net(
                    net.name,
                    [Pin(new_index[p.node], p.dx, p.dy, p.direction) for p in pins],
                    net.weight,
                )
            )
    out.routing = design.routing
    return out

