"""Tests for the per-layer routing model."""

import numpy as np
import pytest

from repro.db import Design, Net, Node, Pin
from repro.geometry import Rect
from repro.route import LayerSpec, RoutingSpec

M_STACK = [
    LayerSpec("metal2", "H", 4.0),
    LayerSpec("metal3", "V", 4.0),
    LayerSpec("metal4", "H", 8.0),
    LayerSpec("metal5", "V", 8.0),
]


def routed_design():
    d = Design("l", core=Rect(0, 0, 16, 16))
    for k, (x, y) in enumerate(((1, 1), (13, 1), (1, 13), (13, 13))):
        n = d.add_node(Node(f"c{k}", 0.5, 0.5))
        n.move_center_to(float(x), float(y))
    d.add_net(Net("n0", pins=[Pin(node=0), Pin(node=1)]))
    d.add_net(Net("n1", pins=[Pin(node=0), Pin(node=2)]))
    d.add_net(Net("n2", pins=[Pin(node=1), Pin(node=3)]))
    d.routing = RoutingSpec.from_layers(d.core, 8, 8, M_STACK)
    return d


class TestLayerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerSpec("m", "D", 1.0)
        with pytest.raises(ValueError):
            LayerSpec("m", "H", -1.0)

    def test_from_layers_aggregates(self):
        spec = RoutingSpec.from_layers(Rect(0, 0, 8, 8), 4, 4, M_STACK)
        assert spec.hcap[0, 0] == pytest.approx(12.0)
        assert spec.vcap[0, 0] == pytest.approx(12.0)
        assert len(spec.layers) == 4

    def test_copy_keeps_layers(self):
        spec = RoutingSpec.from_layers(Rect(0, 0, 8, 8), 4, 4, M_STACK)
        assert spec.copy().layers == spec.layers


class TestLayeredIO:
    def test_route_file_roundtrip_aggregates(self, tmp_path):
        from repro.io import read_bookshelf, write_bookshelf
        from repro.db import Row

        d = routed_design()
        d.add_row(Row(y=0, height=1, site_width=0.25, x_min=0, num_sites=64))
        aux = write_bookshelf(d, str(tmp_path))
        text = open(str(tmp_path / "l.route")).read()
        assert "Grid : 8 8 4" in text
        assert len(text.split("HorizontalCapacity :")[1].splitlines()[0].split()) == 2
        d2 = read_bookshelf(aux)
        assert np.allclose(d2.routing.hcap, d.routing.hcap)
        assert np.allclose(d2.routing.vcap, d.routing.vcap)
