"""Tests for standalone .pl checkpointing and reader robustness."""

import pytest

from repro.benchgen import BenchmarkSpec, make_benchmark
from repro.db import NodeKind
from repro.geometry import Orientation
from repro.io import apply_pl, write_pl


@pytest.fixture
def design():
    d = make_benchmark(
        BenchmarkSpec(name="pl", num_cells=60, num_macros=1, num_fixed_macros=1,
                      num_terminals=4, seed=19)
    )
    # give it a distinctive placement
    for k, n in enumerate(d.nodes):
        if n.is_movable:
            n.move_center_to(5.0 + (k % 7), 5.0 + (k % 5))
    return d


class TestRoundTrip:
    def test_positions_roundtrip(self, design, tmp_path):
        path = str(tmp_path / "snap.pl")
        write_pl(design, path)
        snapshot = {n.name: (n.x, n.y) for n in design.nodes}
        # scramble, then restore
        for n in design.nodes:
            if n.is_movable:
                n.x += 3.0
        applied = apply_pl(design, path)
        assert applied == sum(1 for n in design.nodes if n.is_movable)
        for n in design.nodes:
            assert (n.x, n.y) == pytest.approx(snapshot[n.name])

    def test_orientation_roundtrip(self, design, tmp_path):
        mac = next(n for n in design.nodes if n.kind is NodeKind.MACRO)
        design.set_orientation(mac, Orientation.W)
        path = str(tmp_path / "o.pl")
        write_pl(design, path)
        design.set_orientation(mac, Orientation.N)
        apply_pl(design, path)
        assert mac.orientation is Orientation.W

    def test_fixed_nodes_never_moved(self, design, tmp_path):
        path = str(tmp_path / "f.pl")
        write_pl(design, path)
        # hand-edit the fixed node's line
        fixed = next(n for n in design.nodes if n.kind is NodeKind.FIXED)
        text = open(path).read().replace(
            f"{fixed.name} {fixed.x:.6f}", f"{fixed.name} 999.0"
        )
        open(path, "w").write(text)
        before = (fixed.x, fixed.y)
        apply_pl(design, path)
        assert (fixed.x, fixed.y) == before

    def test_unknown_node_strict_raises(self, design, tmp_path):
        path = str(tmp_path / "u.pl")
        with open(path, "w") as f:
            f.write("UCLA pl 1.0\n\nghost 1.0 2.0 : N\n")
        with pytest.raises(ValueError, match=r"u\.pl:3: .*ghost"):
            apply_pl(design, path)

    def test_unknown_node_lenient_skips(self, design, tmp_path):
        path = str(tmp_path / "u.pl")
        with open(path, "w") as f:
            f.write("UCLA pl 1.0\n\nghost 1.0 2.0 : N\nc0 3.0 4.0 : N\n")
        assert apply_pl(design, path, strict=False) == 1
        assert design.node("c0").x == pytest.approx(3.0)

    def test_comments_and_blank_lines(self, design, tmp_path):
        path = str(tmp_path / "c.pl")
        with open(path, "w") as f:
            f.write("UCLA pl 1.0\n# comment\n\nc1 7.25 3.0 : N # trailing\n")
        assert apply_pl(design, path, strict=False) == 1
        assert design.node("c1").x == pytest.approx(7.25)

    def test_hpwl_identical_after_roundtrip(self, design, tmp_path):
        path = str(tmp_path / "h.pl")
        write_pl(design, path)
        before = design.hpwl()
        for n in design.nodes:
            if n.is_movable:
                n.x += 1.0
        apply_pl(design, path)
        assert design.hpwl() == pytest.approx(before)
