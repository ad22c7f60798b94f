"""Flow checkpoint/resume: serialize pipeline state between stages.

After every completed stage the flow writes one JSON document —
``<dir>/checkpoint.json`` — holding everything needed to continue the
run in a fresh process: the list of completed stages, every node's
position and orientation, the (possibly reweighted) net weights, the
original scoring weights, the scalar result fields accumulated so far,
the flow configuration, per-stage telemetry, and the interpreter RNG
states.  Floats round-trip exactly (``json`` emits ``repr``-shortest
doubles), so a resumed run continues **bit-identically**: the restored
positions are the exact doubles the killed run held, and every
downstream stage is deterministic given them.

Writes are atomic (temp file + ``os.replace``) so a kill mid-write
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.geometry import Orientation
from repro.resilience.faults import maybe_raise

CHECKPOINT_VERSION = 1
CHECKPOINT_FILE = "checkpoint.json"


class CheckpointError(ValueError):
    """A checkpoint is missing, unreadable, or does not match the design."""


@dataclass
class FlowCheckpoint:
    """One serialized flow state."""

    design: str
    completed: list = field(default_factory=list)
    positions: dict = field(default_factory=dict)  # name -> [x, y, orient]
    net_weights: list = field(default_factory=list)
    score_weights: list = field(default_factory=list)
    result: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    rng: dict = field(default_factory=dict)
    # One-time congestion-estimator calibration (pin_norm + wire_width)
    # shared by every CongestionInflator bound to the design; restoring
    # it keeps a resumed run bit-identical to the uninterrupted one
    # instead of recomputing pin_norm at post-resume positions.
    # Optional (absent in older checkpoints), so the version stays 1.
    calibration: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    # -- capture -------------------------------------------------------
    @staticmethod
    def capture(
        design,
        *,
        completed: list,
        score_weights: list,
        result: dict,
        telemetry: dict | None = None,
        config=None,
    ) -> "FlowCheckpoint":
        """Snapshot the design + flow bookkeeping after a stage."""
        positions = {
            node.name: [node.x, node.y, node.orientation.value]
            for node in design.nodes
        }
        py_state = random.getstate()
        np_state = np.random.get_state()
        return FlowCheckpoint(
            design=design.name,
            completed=list(completed),
            positions=positions,
            net_weights=[net.weight for net in design.nets],
            score_weights=list(score_weights),
            result=dict(result),
            telemetry=dict(telemetry or {}),
            config=asdict(config) if config is not None else {},
            calibration=dict(design.congestion_calibration or {}),
            rng={
                "python": [py_state[0], list(py_state[1]), py_state[2]],
                "numpy": [
                    np_state[0],
                    np.asarray(np_state[1]).tolist(),
                    int(np_state[2]),
                    int(np_state[3]),
                    float(np_state[4]),
                ],
            },
        )

    # -- restore -------------------------------------------------------
    def apply(self, design) -> None:
        """Write the checkpointed state back onto ``design`` (+ RNGs)."""
        if design.name != self.design:
            raise CheckpointError(
                f"checkpoint is for design {self.design!r}, "
                f"got {design.name!r}"
            )
        if len(self.positions) != len(design.nodes):
            raise CheckpointError(
                f"checkpoint has {len(self.positions)} nodes, "
                f"design has {len(design.nodes)}"
            )
        if len(self.net_weights) != len(design.nets):
            raise CheckpointError(
                f"checkpoint has {len(self.net_weights)} nets, "
                f"design has {len(design.nets)}"
            )
        for name, (x, y, orient) in self.positions.items():
            if not design.has_node(name):
                raise CheckpointError(f"checkpoint references unknown node {name!r}")
            node = design.node(name)
            if node.orientation.value != orient:
                node.orientation = Orientation.from_string(orient)
            node.x = float(x)
            node.y = float(y)
        for net, weight in zip(design.nets, self.net_weights):
            net.weight = float(weight)
        if self.calibration:
            cal = dict(self.calibration)
            # Older checkpoints also carry the supply map, which the
            # inflator now derives from the routing spec.
            cal.pop("supply", None)
            design.congestion_calibration = cal
        rng = self.rng or {}
        if "python" in rng:
            ver, state, gauss = rng["python"]
            random.setstate((ver, tuple(state), gauss))
        if "numpy" in rng:
            name, keys, pos, has_gauss, cached = rng["numpy"]
            np.random.set_state(
                (name, np.asarray(keys, dtype=np.uint32), pos, has_gauss, cached)
            )

    # -- (de)serialization --------------------------------------------
    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "design": self.design,
            "completed": self.completed,
            "positions": self.positions,
            "net_weights": self.net_weights,
            "score_weights": self.score_weights,
            "result": self.result,
            "telemetry": self.telemetry,
            "config": self.config,
            "calibration": self.calibration,
            "rng": self.rng,
        }

    @staticmethod
    def from_dict(data: dict) -> "FlowCheckpoint":
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return FlowCheckpoint(
            design=data["design"],
            completed=list(data.get("completed", [])),
            positions=dict(data.get("positions", {})),
            net_weights=list(data.get("net_weights", [])),
            score_weights=list(data.get("score_weights", [])),
            result=dict(data.get("result", {})),
            telemetry=dict(data.get("telemetry", {})),
            config=dict(data.get("config", {})),
            calibration=dict(data.get("calibration", {})),
            rng=dict(data.get("rng", {})),
            version=version,
        )


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_FILE)


def save_checkpoint(checkpoint: FlowCheckpoint, directory: str) -> str:
    """Atomically write ``checkpoint`` under ``directory``; returns the path."""
    maybe_raise("checkpoint.io_error")
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(checkpoint.as_dict(), fh)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_checkpoint(directory: str) -> FlowCheckpoint:
    """Read the checkpoint under ``directory`` (a file path also works)."""
    path = directory
    if os.path.isdir(directory):
        path = checkpoint_path(directory)
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint found at {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    return FlowCheckpoint.from_dict(data)


def has_checkpoint(directory: str) -> bool:
    return os.path.exists(checkpoint_path(directory))
