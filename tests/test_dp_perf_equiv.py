"""Reference-vs-optimized equivalence of the DP & legalization hot paths.

Every optimized path introduced by the detailed-placement perf overhaul
must reproduce its golden twin in ``tests/reference/`` *bit for bit*:
the CSR node→net/node→pin incidence, incremental HPWL deltas, batched
move scoring, optimal regions, the array-based Tetris/Abacus legalizers,
the legality audit, congestion spreading, and the end-to-end legalize+DP
pipeline.  Kernel tests call the twin directly; the pipeline tests run
under ``use_reference()``, on small generated designs and on suite
designs (rh02 on every push; rh03, which has fences, and rh06 under the
``nightly`` marker), whose quality metrics must also stay within
tolerance of the values committed in :data:`SUITE_QUALITY`.
"""

from itertools import permutations

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark, make_suite_design
from repro.db import Design, Net, Node, Pin, Row
from repro.dp import DetailedPlacer, DPConfig, IncrementalHPWL
from repro.dp.swap import _SlotIndex
from repro.gp import initial_placement
from repro.legal import Legalizer, SubRowMap, check_legal, tetris_legalize
from repro.legal.abacus import abacus_refine
from tests.quality import assert_quality
from tests.reference import LEGAL_DP_TWINS, use_reference
from tests.reference.dp import ReferenceIncrementalHPWL, ReferenceSlotIndex
from tests.reference.legal import _check_legal_reference, _refine_reference


#: Legalize + ``DPConfig()`` quality per suite design, from
#: ``initial_placement(seed=3)``.
SUITE_QUALITY = {
    "rh02": {
        "hpwl": 86071.53245612321,
        "dp_improvement": 0.12460018619751724,
        "dp_accepted": 3095,
        "dp_pass_count": 9,
        "legal_ok": 1,
        "max_displacement": 57.13031206229788,
    },
    "rh03": {
        "hpwl": 117517.90645481276,
        "dp_improvement": 0.11409142794397499,
        "dp_accepted": 3881,
        "dp_pass_count": 9,
        "legal_ok": 1,
        "max_displacement": 76.093717802626,
    },
    "rh06": {
        "hpwl": 1135147.4025710304,
        "dp_improvement": 0.13722558375927887,
        "dp_accepted": 21158,
        "dp_pass_count": 9,
        "legal_ok": 1,
        "max_displacement": 133.30395948009723,
    },
}


def bench(seed=11, cells=200, macros=2, **kw):
    spec = BenchmarkSpec(
        name="t", num_cells=cells, num_macros=macros, num_fixed_macros=1,
        num_terminals=8, seed=seed, **kw,
    )
    return make_benchmark(spec)


def rowed_design(n_cells=30, n_rows=6, sites=60, n_nets=20, seed=0, offsets=False):
    """A small rowed design including degenerate 0- and 1-pin nets.

    With ``offsets``, pins sit off the cell centres, some cells have two
    pins on one net, and nets carry weights.
    """
    rng = np.random.default_rng(seed)
    d = Design("t")
    for r in range(n_rows):
        d.add_row(
            Row(y=float(r), height=1.0, site_width=0.25, x_min=0.0, num_sites=sites)
        )
    for i in range(n_cells):
        d.add_node(
            Node(
                f"c{i}", 1.0, 1.0,
                x=float(rng.uniform(0, 13)), y=float(rng.uniform(0, 5)),
            )
        )
    for j in range(n_nets):
        k = int(rng.integers(2, 6))
        members = rng.choice(n_cells, size=k, replace=False)
        if not offsets:
            d.add_net(Net(f"n{j}", pins=[Pin(node=int(m)) for m in members]))
            continue
        pins = []
        for m in members:
            for _ in range(1 + int(rng.random() < 0.3)):
                dx, dy = rng.uniform(-0.4, 0.4, size=2)
                pins.append(Pin(node=int(m), dx=float(dx), dy=float(dy)))
        d.add_net(Net(f"n{j}", pins=pins, weight=float(rng.uniform(0.5, 2.0))))
    # Degenerate nets: contribute zero HPWL but must not break any of
    # the incidence or pricing bookkeeping.
    d.add_net(Net("single", pins=[Pin(node=0)]))
    d.add_net(Net("empty", pins=[]))
    tetris_legalize(d)
    return d


def pair(design_fn):
    """(reference, optimized) IncrementalHPWL over identical placements."""
    d = design_fn()
    return ReferenceIncrementalHPWL(d), IncrementalHPWL(d)


def random_moves(d, rng, n_moves, max_nodes=2):
    """Random candidate move lists over movable cells."""
    movable = [n.index for n in d.nodes if n.is_movable]
    out = []
    for _ in range(n_moves):
        k = int(rng.integers(1, max_nodes + 1))
        idxs = rng.choice(movable, size=k, replace=False)
        out.append(
            [
                (int(i), float(rng.uniform(0, 14)), float(rng.uniform(0, 5)))
                for i in idxs
            ]
        )
    return out


class TestNodeIncidence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_csr_matches_pin_objects(self, seed):
        d = rowed_design(seed=seed)
        inc_csr = d.node_incidence()
        arrays = d.pin_arrays()
        for node in d.nodes:
            i = node.index
            nets = inc_csr.node_net_ids[
                inc_csr.node_net_ptr[i] : inc_csr.node_net_ptr[i + 1]
            ].tolist()
            assert nets == sorted({p.net for p in node.pins})
            pins = inc_csr.node_pin_ids[
                inc_csr.node_pin_ptr[i] : inc_csr.node_pin_ptr[i + 1]
            ]
            assert np.all(arrays.pin_node[pins] == i)
        assert inc_csr.node_pin_ptr[-1] == arrays.num_pins

    def test_incidence_cached_per_topology(self):
        d = rowed_design()
        assert d.node_incidence() is d.node_incidence()


class TestDeltaEquivalence:
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_delta_for_moves_bitwise(self, seed):
        ref, opt = pair(lambda: rowed_design(seed=seed))
        rng = np.random.default_rng(seed + 100)
        for ms in random_moves(ref.design, rng, 40, max_nodes=3):
            assert bits(ref.delta_for_moves(ms)) == bits(opt.delta_for_moves(ms))

    def test_score_moves_single_node_batch_bitwise(self):
        ref, opt = pair(rowed_design)
        rng = np.random.default_rng(7)
        targets = [
            [(0, float(rng.uniform(0, 14)), float(rng.uniform(0, 5)))]
            for _ in range(12)
        ]
        assert np.array_equal(bits(ref.score_moves(targets)), bits(opt.score_moves(targets)))

    def test_score_moves_general_bitwise(self):
        ref, opt = pair(rowed_design)
        rng = np.random.default_rng(8)
        move_sets = random_moves(ref.design, rng, 25, max_nodes=3)
        assert np.array_equal(bits(ref.score_moves(move_sets)), bits(opt.score_moves(move_sets)))

    def test_apply_moves_keeps_state_bitwise(self):
        ref, opt = pair(rowed_design)
        rng = np.random.default_rng(9)
        for ms in random_moves(ref.design, rng, 15, max_nodes=2):
            ref.apply_moves(ms)
            opt.apply_moves(ms)
        assert np.array_equal(ref.px, opt.px)
        assert np.array_equal(ref.py, opt.py)
        assert np.array_equal(ref._bb, opt._bb)

    def test_optimal_regions_bitwise(self):
        ref, opt = pair(rowed_design)
        cells = [n.index for n in ref.design.nodes if n.is_movable]
        r = ref.optimal_regions(cells)
        o = opt.optimal_regions(cells)
        assert r == o


def bits(values) -> np.ndarray:
    """The float64 values as their int64 bit patterns."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def widest_net_cells(d) -> list:
    """The distinct cells of the net with the most pins."""
    net = max(d.nets, key=lambda n: len(n.pins))
    return sorted({p.node for p in net.pins})


class TestPricingPaths:
    """Every pricing entry point against the twin, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_edge_case_sets_bitwise(self, seed):
        ref, opt = pair(lambda: rowed_design(seed=seed, offsets=True))
        d = opt.design
        rng = np.random.default_rng(seed)
        shared = widest_net_cells(d)
        assert len(shared) >= 3

        def target():
            return float(rng.uniform(0, 14)), float(rng.uniform(0, 5))

        unconnected = [n.index for n in d.nodes if not opt.node_nets[n.index]]
        sets = [
            [(i, *target()) for i in shared[:3]],  # three moved cells on one net
            [(0, *target())],  # cell 0 holds the 1-pin net
            [(0, *target()), (shared[0], *target())],
            [(i, float(opt.cx[i]), float(opt.cy[i])) for i in shared[:2]],
            [(shared[0], float(opt.cx[shared[0]]), float(opt.cy[shared[0]]))],
            [(i, *target()) for i in unconnected[:1]],
        ] + random_moves(d, rng, 30, max_nodes=3)
        for ms in sets:
            assert bits(opt.delta_for_moves(ms)) == bits(ref.delta_for_moves(ms))
        assert np.array_equal(bits(opt.score_moves(sets)), bits(ref.score_moves(sets)))
        # Sets that all move the anchor first, with partners on and off
        # its nets, and with several partners.
        anchor = shared[0]
        partners = shared[1:] + [n.index for n in d.nodes if n.index not in shared]
        anchored = [[(anchor, *target()), (c, *target())] for c in partners[:10]]
        anchored.append([(anchor, *target())])
        anchored.append([(anchor, *target()), (shared[1], *target()), (0, *target())])
        assert np.array_equal(bits(opt.score_swaps(anchored)), bits(ref.score_swaps(anchored)))
        # Sets that all move the same cells.
        same = [[(i, *target()) for i in shared[:3]] for _ in range(6)]
        same.append([(i, float(opt.cx[i]), float(opt.cy[i])) for i in shared[:3]])
        assert np.array_equal(bits(opt.score_reorders(same)), bits(ref.score_reorders(same)))

    @pytest.mark.parametrize("size", [2, 3])
    def test_reorder_window_permutations_bitwise(self, size):
        ref, opt = pair(lambda: rowed_design(seed=5, offsets=True))
        d = opt.design
        w, h = d.placed_sizes()
        rng = np.random.default_rng(size)
        groups = [widest_net_cells(d)[:size]] + [
            [int(i) for i in rng.choice(len(d.nodes), size=size, replace=False)]
            for _ in range(20)
        ]
        for group in groups:
            left = min(d.nodes[i].x for i in group)
            sets = []
            for perm in permutations(group):
                x = left
                moves = []
                for i in perm:
                    moves.append((i, x + w[i] / 2.0, d.nodes[i].y + h[i] / 2.0))
                    x += w[i]
                sets.append(moves)
            assert np.array_equal(bits(opt.score_reorders(sets)), bits(ref.score_reorders(sets)))

    @pytest.mark.parametrize("k", [2, 5, 13, 24])
    def test_relocation_batches_bitwise(self, k):
        d = bench(seed=11)
        ref, opt = ReferenceIncrementalHPWL(d), IncrementalHPWL(d)
        rng = np.random.default_rng(k)
        movable = [n.index for n in d.nodes if n.is_movable]
        cells = [int(i) for i in rng.choice(movable, size=k, replace=False)]
        if k > 2:
            assert len({len(opt.node_nets[c]) for c in cells}) > 1
        slots = [(d.nodes[i].cx, d.nodes[i].cy) for i in cells]
        assert np.array_equal(
            bits(opt.score_relocations(cells, slots)),
            bits(ref.score_relocations(cells, slots)),
        )

    def test_relocation_batch_with_unconnected_cell(self):
        ref, opt = pair(lambda: rowed_design(seed=1, offsets=True))
        d = opt.design
        cells = [n.index for n in d.nodes if not opt.node_nets[n.index]][:1]
        cells += widest_net_cells(d)[:3]
        slots = [(d.nodes[i].cx + 1.0, d.nodes[i].cy) for i in cells]
        got = opt.score_relocations(cells, slots)
        assert np.array_equal(bits(got), bits(ref.score_relocations(cells, slots)))

    @pytest.mark.parametrize("seed", [2, 7])
    def test_mirrors_follow_commits(self, seed):
        d = rowed_design(seed=seed, offsets=True)
        inc = IncrementalHPWL(d)
        rng = np.random.default_rng(seed)
        for ms in random_moves(d, rng, 40, max_nodes=3):
            inc.apply_moves(ms)
        assert np.array_equal(bits(inc._pin_x), bits(inc.px))
        assert np.array_equal(bits(inc._pin_y), bits(inc.py))
        bb = inc._bb
        assert np.array_equal(
            bits(inc._before), bits((bb[:, 1] - bb[:, 0]) + (bb[:, 3] - bb[:, 2]))
        )
        assert np.array_equal(bb, IncrementalHPWL(d)._bb)


class TestTwinCoverage:
    #: Public methods the twin inherits: they read only the arrays.
    ARRAY_READERS = {"net_hpwl", "total", "optimal_region"}

    def test_twin_overrides_every_pricing_method(self):
        public = {
            name for name, value in vars(IncrementalHPWL).items()
            if callable(value) and not name.startswith("_")
        }
        pricing = {n for n in public if n == "delta_for_moves" or n.startswith("score_")}
        assert len(pricing) == 5
        assert sorted(public - self.ARRAY_READERS - set(vars(ReferenceIncrementalHPWL))) == []

    def test_twin_never_reads_the_mirrors(self, monkeypatch):
        # Every list attribute but the shared node→net incidence is a
        # mirror only the optimized class reads.  With each replaced by
        # an object that raises on use, the optimized class fails and
        # the twin still runs the whole legalize+DP pipeline.
        class MirrorRead(Exception):
            pass

        class Untouchable:
            def __getattr__(self, name):
                raise MirrorRead(name)

            def __getitem__(self, key):
                raise MirrorRead(key)

            def __setitem__(self, key, value):
                raise MirrorRead(key)

            def __iter__(self):
                raise MirrorRead("iter")

            def __len__(self):
                raise MirrorRead("len")

        init = IncrementalHPWL.__init__

        def blind_init(self, design):
            init(self, design)
            for name, value in list(vars(self).items()):
                if isinstance(value, list) and name != "node_nets":
                    setattr(self, name, Untouchable())

        def legalize_and_place():
            d = bench(seed=5, cells=160, macros=2, num_fences=2)
            initial_placement(d, seed=3)
            result = Legalizer().legalize(d)
            report = DetailedPlacer(DPConfig()).run(d, result.submap)
            xs = np.array([n.x for n in d.nodes])
            ys = np.array([n.y for n in d.nodes])
            return xs, ys, report.passes, d

        expected = legalize_and_place()
        d = expected[3]
        blind = IncrementalHPWL.__new__(IncrementalHPWL)
        blind_init(blind, d)
        cell = widest_net_cells(d)[0]
        move = (cell, d.nodes[cell].cx + 1.0, d.nodes[cell].cy)
        calls = [
            lambda: blind.delta_for_moves([move]),
            lambda: blind.score_moves([[move]]),
            lambda: blind.score_reorders([[move]]),
            lambda: blind.score_swaps([[move]]),
            lambda: blind.score_relocations([cell], [move[1:]]),
            lambda: blind.apply_moves([move]),
        ]
        for call in calls:
            with pytest.raises(MirrorRead):
                call()
        monkeypatch.setattr(ReferenceIncrementalHPWL, "__init__", blind_init)
        with use_reference() as calls:
            got = legalize_and_place()
        assert calls["incremental_hpwl"]
        assert np.array_equal(bits(got[0]), bits(expected[0]))
        assert np.array_equal(bits(got[1]), bits(expected[1]))
        assert got[2] == expected[2]


class TestPropertyRandomSequences:
    """Deltas and applies agree with a from-scratch HPWL recompute."""

    @pytest.mark.parametrize("seed", [2, 5, 13])
    def test_delta_then_apply_matches_full_recompute(self, seed):
        d = rowed_design(seed=seed)
        inc = IncrementalHPWL(d)
        rng = np.random.default_rng(seed)
        hpwl = d.hpwl()
        assert inc.total() == pytest.approx(hpwl, rel=1e-12)
        for ms in random_moves(d, rng, 30, max_nodes=3):
            delta = inc.delta_for_moves(ms)
            before = d.hpwl()
            inc.apply_moves(ms)
            after = d.hpwl()
            # The predicted delta must equal the actual change of the
            # independently recomputed wirelength.
            assert after - before == pytest.approx(delta, rel=1e-9, abs=1e-7)
            assert inc.total() == pytest.approx(after, rel=1e-12)

    def test_degenerate_nets_never_contribute(self):
        d = rowed_design(seed=3)
        inc = IncrementalHPWL(d)
        single = next(i for i, n in enumerate(d.nets) if n.name == "single")
        empty = next(i for i, n in enumerate(d.nets) if n.name == "empty")
        assert inc.net_hpwl(single) == 0.0
        assert inc.net_hpwl(empty) == 0.0
        # Moving the 1-pin net's only node is priced by its other nets.
        node = d.nodes[0]
        delta = inc.delta_for_moves([(0, node.cx + 2.0, node.cy)])
        before = d.hpwl()
        inc.apply_moves([(0, node.cx + 2.0, node.cy)])
        assert d.hpwl() - before == pytest.approx(delta, rel=1e-9, abs=1e-7)


class TestSlotIndex:
    def test_bucket_keys_are_integer_site_multiples(self):
        d = rowed_design()
        cells = [n.index for n in d.nodes if n.is_movable]
        index = _SlotIndex(d, cells)
        for wkey, rid in index.buckets:
            assert isinstance(wkey, int)
            assert isinstance(rid, int)

    def test_reference_and_fast_candidates_identical(self):
        d = rowed_design(seed=6)
        cells = [n.index for n in d.nodes if n.is_movable]
        ref = ReferenceSlotIndex(d, cells)
        opt = _SlotIndex(d, cells)
        rng = np.random.default_rng(6)
        for idx in cells:
            x = float(rng.uniform(0, 14))
            y = float(rng.uniform(0, 5))
            assert ref.candidates(idx, x, y, 8) == opt.candidates(idx, x, y, 8)


def tetris(design, submap=None, *, reference: bool):
    """:func:`tetris_legalize`, on the golden assignment loop if asked."""
    if not reference:
        return tetris_legalize(design, submap)
    with use_reference() as calls:
        out = tetris_legalize(design, submap)
    assert calls["tetris"]
    return out


class TestLegalEquivalence:
    @pytest.mark.parametrize("seed", [11, 5])
    def test_tetris_bitwise(self, seed):
        states = {}
        for reference in (False, True):
            d = bench(seed=seed)
            initial_placement(d, seed=3)
            tetris(d, reference=reference)
            states[reference] = (
                np.array([n.x for n in d.nodes]),
                np.array([n.y for n in d.nodes]),
            )
        assert np.array_equal(states[False][0], states[True][0])
        assert np.array_equal(states[False][1], states[True][1])

    def test_abacus_bitwise(self):
        states = {}
        for reference in (False, True):
            d = bench(seed=11)
            initial_placement(d, seed=3)
            desired = {n.index: n.x for n in d.nodes if n.is_movable}
            submap = SubRowMap(d)
            tetris(d, submap, reference=reference)
            refine = _refine_reference if reference else abacus_refine
            refine(d, submap, desired)
            states[reference] = np.array([n.x for n in d.nodes])
        assert np.array_equal(states[False], states[True])

    def test_check_legal_verdicts_match(self):
        d = bench(seed=11)
        initial_placement(d, seed=3)
        Legalizer().legalize(d)
        ref = _check_legal_reference(d)
        opt = check_legal(d)
        assert ref.ok == opt.ok
        assert ref.summary() == opt.summary()
        # And on an *illegal* placement both report the same failure.
        d.nodes[0].x = d.nodes[1].x
        d.nodes[0].y = d.nodes[1].y
        ref = _check_legal_reference(d)
        opt = check_legal(d)
        assert ref.ok == opt.ok is False


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "kw",
        [
            {"seed": 11, "cells": 220, "macros": 2},
            {"seed": 5, "cells": 160, "macros": 2, "num_fences": 2},
            pytest.param("rh02", id="rh02"),
            pytest.param("rh03", id="rh03", marks=pytest.mark.nightly),
            pytest.param("rh06", id="rh06", marks=pytest.mark.nightly),
        ],
    )
    def test_legalize_plus_dp_bitwise(self, kw):
        def legalize_and_place():
            d = make_suite_design(kw) if isinstance(kw, str) else bench(**kw)
            initial_placement(d, seed=3)
            result = Legalizer().legalize(d)
            report = DetailedPlacer(DPConfig()).run(d, result.submap)
            state = (
                np.array([n.x for n in d.nodes]),
                np.array([n.y for n in d.nodes]),
                report.passes,
            )
            return state, result, report, d

        opt, result, report, design = legalize_and_place()
        with use_reference() as calls:
            ref, _, _, _ = legalize_and_place()
        assert [t for t in LEGAL_DP_TWINS if not calls[t]] == []
        assert np.array_equal(opt[0], ref[0])
        assert np.array_equal(opt[1], ref[1])
        assert opt[2] == ref[2]
        if isinstance(kw, str):
            assert not (report.budget_exhausted or not result.ok), (
                "a resilience fallback fired"
            )
            fresh = {
                "hpwl": design.hpwl(),
                "dp_improvement": report.improvement,
                "dp_accepted": sum(p[1] for p in report.passes),
                "dp_pass_count": len(report.passes),
                "legal_ok": int(result.ok),
                "max_displacement": result.max_displacement,
            }
            assert_quality(fresh, SUITE_QUALITY[kw])
