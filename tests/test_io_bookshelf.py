"""Tests for Bookshelf I/O (round-trip and format details)."""

import os

import numpy as np
import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import Design, Net, Node, NodeKind, Pin, Row
from repro.geometry import Orientation, Rect
from repro.io import read_aux, read_bookshelf, write_bookshelf


@pytest.fixture
def bench_design():
    return make_benchmark(
        BenchmarkSpec(
            name="io_t", num_cells=120, num_macros=2, num_fixed_macros=1,
            num_terminals=8, num_fences=1, fence_level=1, seed=9,
        )
    )


class TestRoundTrip:
    def test_counts(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert len(d2.nodes) == len(bench_design.nodes)
        assert len(d2.nets) == len(bench_design.nets)
        assert len(d2.rows) == len(bench_design.rows)
        assert len(d2.regions) == len(bench_design.regions)

    def test_hpwl_preserved(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.hpwl() == pytest.approx(bench_design.hpwl(), rel=1e-5)

    def test_kinds_preserved(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        d2 = read_bookshelf(aux)
        for a, b in zip(bench_design.nodes, d2.nodes):
            assert a.name == b.name
            if a.kind is NodeKind.FIXED:
                assert b.kind is NodeKind.FIXED
            elif a.kind is NodeKind.MACRO:
                # recovered via the taller-than-a-row convention
                assert b.kind is NodeKind.MACRO
            elif a.kind is NodeKind.TERMINAL_NI:
                assert b.kind is NodeKind.TERMINAL_NI

    def test_positions_preserved(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        d2 = read_bookshelf(aux)
        for a, b in zip(bench_design.nodes, d2.nodes):
            assert a.x == pytest.approx(b.x, abs=1e-5)
            assert a.y == pytest.approx(b.y, abs=1e-5)

    def test_routing_preserved(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.routing is not None
        assert d2.routing.grid.nx == bench_design.routing.grid.nx
        assert np.allclose(d2.routing.hcap, bench_design.routing.hcap)
        assert np.allclose(d2.routing.vcap, bench_design.routing.vcap)

    def test_regions_and_members(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert [n.region for n in d2.nodes] == [n.region for n in bench_design.nodes]

    def test_hierarchy_preserved(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert [n.module for n in d2.nodes] == [n.module for n in bench_design.nodes]

    def test_net_weights_preserved(self, tmp_path):
        d = Design("w", core=Rect(0, 0, 10, 10))
        d.add_row(Row(y=0, height=1, site_width=0.25, x_min=0, num_sites=40))
        d.add_node(Node("a", 1, 1))
        d.add_node(Node("b", 1, 1))
        d.add_net(Net("n", pins=[Pin(node=0), Pin(node=1)], weight=3.5))
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.net("n").weight == pytest.approx(3.5)


class TestAux:
    def test_read_aux_maps_extensions(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path))
        files = read_aux(aux)
        for ext in ("nodes", "nets", "pl", "scl", "wts", "route", "regions", "hier"):
            assert ext in files
            assert os.path.exists(files[ext])

    def test_basename_override(self, bench_design, tmp_path):
        aux = write_bookshelf(bench_design, str(tmp_path), basename="zzz")
        assert os.path.basename(aux) == "zzz.aux"


class TestOrientations:
    def test_orientation_roundtrip(self, tmp_path):
        d = Design("o", core=Rect(0, 0, 10, 10))
        d.add_row(Row(y=0, height=1, site_width=0.25, x_min=0, num_sites=40))
        n = d.add_node(Node("m", 2, 1, kind=NodeKind.FIXED))
        n.orientation = Orientation.FS
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.node("m").orientation is Orientation.FS
