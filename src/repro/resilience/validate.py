"""Design validation & sanitization — the flow's front door.

``validate_design`` classifies every structural problem a Bookshelf
benchmark (or a programmatically built design) can arrive with into
three severities:

* ``FATAL`` — the flow cannot run (or would silently produce garbage):
  non-finite geometry, negative node sizes, movable objects larger than
  the core, a fence whose usable area inside the core is empty while
  cells are bound to it.
* ``WARNING`` — fixable: the flow can proceed, and ``sanitize=True``
  repairs the design in place (zero-area movable nodes get a minimum
  footprint, pin offsets are clamped into their node outline, fence
  rectangles are clipped to the core, off-chip terminals are pulled to
  the core boundary, empty nets are removed).
* ``INFO`` — recorded but harmless (single-pin nets, overlapping fence
  rectangles of the *same* region).

The rules and their repairs are tabulated in ``docs/robustness.md``.
Validation is read-only unless ``sanitize=True``; the happy path of a
clean design does no mutation and allocates only the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import math

from repro.geometry import Rect


class Severity(Enum):
    """How bad a validation issue is for the flow."""

    INFO = "info"
    WARNING = "warning"  # fixable: sanitize=True repairs it
    FATAL = "fatal"      # the flow must not run on this design

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class ValidationIssue:
    """One problem found in a design."""

    code: str            # machine-readable rule id, e.g. "node.zero_area"
    severity: Severity
    message: str
    subject: str = ""    # node / net / region name the issue is about
    fixed: bool = False  # True when sanitize repaired it

    def as_row(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "subject": self.subject,
            "fixed": "yes" if self.fixed else "",
            "message": self.message,
        }


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_design`."""

    issues: list = field(default_factory=list)
    sanitized: bool = False

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        subject: str = "",
        fixed: bool = False,
    ) -> ValidationIssue:
        issue = ValidationIssue(code, severity, message, subject, fixed)
        self.issues.append(issue)
        return issue

    @property
    def fatal(self) -> list:
        return [i for i in self.issues if i.severity is Severity.FATAL and not i.fixed]

    @property
    def warnings(self) -> list:
        return [i for i in self.issues if i.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the flow may run (no unfixed fatal issues)."""
        return not self.fatal

    @property
    def clean(self) -> bool:
        return not self.issues

    def counts(self) -> dict:
        out: dict = {}
        for issue in self.issues:
            out[issue.severity.value] = out.get(issue.severity.value, 0) + 1
        return out

    def summary(self) -> str:
        if not self.issues:
            return "design is clean"
        parts = [f"{n} {sev}" for sev, n in sorted(self.counts().items())]
        fixed = sum(1 for i in self.issues if i.fixed)
        if fixed:
            parts.append(f"{fixed} repaired")
        return f"{len(self.issues)} issues ({', '.join(parts)})"


class DesignValidationError(ValueError):
    """A design failed validation with fatal issues."""

    def __init__(self, report: ValidationReport):
        fatal = report.fatal
        first = fatal[0].message if fatal else report.summary()
        super().__init__(
            f"design validation failed: {len(fatal)} fatal issues; first: {first}"
        )
        self.report = report


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def validate_design(design, *, sanitize: bool = False) -> ValidationReport:
    """Classify (and with ``sanitize=True`` repair) a design's defects."""
    report = ValidationReport(sanitized=sanitize)
    _check_nodes(design, report, sanitize)
    _check_nets(design, report, sanitize)
    _check_pins(design, report, sanitize)
    _check_fences(design, report, sanitize)
    if sanitize and any(i.fixed for i in report.issues):
        design.netlist_changed()
    return report


# ---------------------------------------------------------------------------
def _check_nodes(design, report: ValidationReport, sanitize: bool) -> None:
    try:
        core = design.core
    except ValueError:
        report.add(
            "design.no_core",
            Severity.FATAL,
            "design has neither rows nor an explicit core area",
        )
        return
    if core.xh <= core.xl or core.yh <= core.yl:
        report.add(
            "design.empty_core",
            Severity.FATAL,
            f"core area is degenerate: {core}",
        )
        return
    min_w = design.site_width
    min_h = design.row_height
    for node in design.nodes:
        if not _finite(node.x, node.y, node.width, node.height):
            issue = report.add(
                "node.nonfinite",
                Severity.FATAL,
                f"node {node.name} has non-finite geometry "
                f"(x={node.x}, y={node.y}, w={node.width}, h={node.height})",
                subject=node.name,
            )
            if sanitize and _finite(node.width, node.height):
                # Position-only damage is repairable: recentre in the core.
                node.move_center_to(core.center.x, core.center.y)
                issue.fixed = True
                issue.severity = Severity.WARNING
            continue
        if node.width < 0 or node.height < 0:
            report.add(
                "node.negative_size",
                Severity.FATAL,
                f"node {node.name} has negative size "
                f"({node.width} x {node.height})",
                subject=node.name,
            )
            continue
        if node.is_movable and (node.width == 0 or node.height == 0):
            issue = report.add(
                "node.zero_area",
                Severity.WARNING,
                f"movable node {node.name} has zero area "
                f"({node.width} x {node.height})",
                subject=node.name,
            )
            if sanitize:
                node.width = max(node.width, min_w)
                node.height = max(node.height, min_h)
                issue.fixed = True
        if node.is_movable and (
            node.placed_width > core.width or node.placed_height > core.height
        ):
            report.add(
                "node.larger_than_core",
                Severity.FATAL,
                f"movable node {node.name} "
                f"({node.placed_width} x {node.placed_height}) cannot fit "
                f"the core ({core.width} x {core.height})",
                subject=node.name,
            )
        if node.kind.is_fixed and node.kind.blocks_placement:
            r = node.rect
            if r.xh < core.xl or r.xl > core.xh or r.yh < core.yl or r.yl > core.yh:
                issue = report.add(
                    "terminal.off_chip",
                    Severity.WARNING,
                    f"fixed node {node.name} lies entirely outside the core "
                    f"({r} vs core {core})",
                    subject=node.name,
                )
                if sanitize:
                    ox, oy = core.clamp_rect_origin(r)
                    node.x, node.y = ox, oy
                    issue.fixed = True


def _check_nets(design, report: ValidationReport, sanitize: bool) -> None:
    empty = []
    for net in design.nets:
        if net.degree == 0:
            issue = report.add(
                "net.empty",
                Severity.WARNING,
                f"net {net.name} has no pins",
                subject=net.name,
            )
            empty.append(net.index)
            if sanitize:
                issue.fixed = True
        elif net.degree == 1:
            report.add(
                "net.single_pin",
                Severity.INFO,
                f"net {net.name} has a single pin (zero wirelength)",
                subject=net.name,
            )
    if sanitize and empty:
        design.remove_nets(empty)


def _check_pins(design, report: ValidationReport, sanitize: bool) -> None:
    for net in design.nets:
        for pin in net.pins:
            if not 0 <= pin.node < len(design.nodes):
                report.add(
                    "pin.unknown_node",
                    Severity.FATAL,
                    f"net {net.name} pin references unknown node index {pin.node}",
                    subject=net.name,
                )
                continue
            node = design.nodes[pin.node]
            if not _finite(pin.dx, pin.dy):
                issue = report.add(
                    "pin.nonfinite_offset",
                    Severity.WARNING,
                    f"net {net.name} pin on {node.name} has non-finite offset",
                    subject=net.name,
                )
                if sanitize:
                    pin.dx = pin.dy = 0.0
                    issue.fixed = True
                continue
            # Offsets are measured from the node centre in the N frame.
            half_w = node.width / 2.0
            half_h = node.height / 2.0
            if abs(pin.dx) > half_w + 1e-9 or abs(pin.dy) > half_h + 1e-9:
                issue = report.add(
                    "pin.outside_node",
                    Severity.WARNING,
                    f"net {net.name} pin offset ({pin.dx}, {pin.dy}) falls "
                    f"outside node {node.name} "
                    f"({node.width} x {node.height})",
                    subject=net.name,
                )
                if sanitize:
                    pin.dx = min(max(pin.dx, -half_w), half_w)
                    pin.dy = min(max(pin.dy, -half_h), half_h)
                    issue.fixed = True


def _check_fences(design, report: ValidationReport, sanitize: bool) -> None:
    try:
        core = design.core
    except ValueError:
        return
    members: dict[int, int] = {}
    for node in design.nodes:
        if node.region is not None:
            if not 0 <= node.region < len(design.regions):
                report.add(
                    "fence.unknown_region",
                    Severity.FATAL,
                    f"node {node.name} references unknown fence region "
                    f"{node.region}",
                    subject=node.name,
                )
                continue
            members[node.region] = members.get(node.region, 0) + 1
    for region in design.regions:
        usable = 0.0
        dirty = False
        for rect in region.rects:
            inside = rect.intersection(core)
            if inside is None or inside.area <= 0:
                issue = report.add(
                    "fence.outside_core",
                    Severity.WARNING,
                    f"fence {region.name} rect {rect} lies outside the core",
                    subject=region.name,
                )
                issue.fixed = sanitize
                dirty = True
                continue
            if inside.area < rect.area - 1e-9:
                issue = report.add(
                    "fence.outside_core",
                    Severity.WARNING,
                    f"fence {region.name} rect {rect} extends beyond the core",
                    subject=region.name,
                )
                issue.fixed = sanitize
                dirty = True
            usable += inside.area
        if sanitize and dirty:
            # Clip every rect to the core; drop the ones with nothing left.
            region.rects = [
                inside
                for inside in (r.intersection(core) for r in region.rects)
                if inside is not None and inside.area > 0
            ]
        if usable <= 0 and members.get(region.index, 0) > 0:
            report.add(
                "fence.unsatisfiable",
                Severity.FATAL,
                f"fence {region.name} has no usable area inside the core but "
                f"{members[region.index]} cells are bound to it",
                subject=region.name,
            )
    # Overlap between *different* regions makes sub-row domains ambiguous.
    rects: list[tuple[int, str, Rect]] = [
        (region.index, region.name, rect)
        for region in design.regions
        for rect in region.rects
    ]
    reported: set = set()
    for a in range(len(rects)):
        ia, na, ra = rects[a]
        for b in range(a + 1, len(rects)):
            ib, nb, rb = rects[b]
            if ia == ib or ra.overlap_area(rb) <= 0:
                continue
            key = (min(ia, ib), max(ia, ib))
            if key in reported:
                continue
            reported.add(key)
            report.add(
                "fence.overlap",
                Severity.WARNING,
                f"fence regions {na} and {nb} overlap "
                f"(exclusive-region semantics are ambiguous)",
                subject=f"{na}+{nb}",
            )
