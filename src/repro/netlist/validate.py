"""Design validation — structural checks before a design enters the flow.

Parsing external Bookshelf data (or building netlists programmatically)
can produce silently-broken inputs: zero-area movable nodes, nets with
duplicate pins, macros that cannot fit the placement region, fixed nodes
far outside the die.  :func:`validate_design` collects every such issue
with a severity, so callers can fail fast (`raise_on_error=True`) or log
and continue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.netlist.model import Design, NodeKind
from repro.runtime.errors import PlacementError


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Issue:
    """One validation finding."""

    severity: Severity
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.code}: {self.message}"


class ValidationError(PlacementError, ValueError):
    """Raised by :func:`validate_design` when errors exist and
    ``raise_on_error`` is set.

    A :class:`~repro.runtime.errors.PlacementError` (so the CLI exits with
    its structured code) and, for backward compatibility, a ``ValueError``.
    """

    def __init__(self, issues: list[Issue]) -> None:
        self.issues = issues
        errors = [str(i) for i in issues if i.severity is Severity.ERROR]
        super().__init__("; ".join(errors), stage="validate")


def validate_design(design: Design, raise_on_error: bool = False) -> list[Issue]:
    """Run all structural checks; returns the issue list (possibly empty)."""
    issues: list[Issue] = []
    nl = design.netlist
    region = design.region

    if region.width <= 0 or region.height <= 0:
        issues.append(
            Issue(Severity.ERROR, "region-degenerate",
                  f"placement region {region.width}x{region.height} is empty")
        )

    if not nl.movable_macros:
        issues.append(
            Issue(Severity.ERROR, "no-movable-macros",
                  "the design has no movable macro to place")
        )

    total_movable_area = 0.0
    for node in nl:
        if node.width < 0 or node.height < 0:
            issues.append(
                Issue(Severity.ERROR, "negative-size",
                      f"node {node.name!r} has negative dimensions")
            )
        if (
            node.kind is not NodeKind.PAD
            and not node.fixed
            and node.area == 0.0
        ):
            issues.append(
                Issue(Severity.WARNING, "zero-area",
                      f"movable node {node.name!r} has zero area")
            )
        if node.kind is NodeKind.MACRO and not node.fixed:
            if node.width > region.width or node.height > region.height:
                issues.append(
                    Issue(Severity.ERROR, "macro-oversized",
                          f"macro {node.name!r} ({node.width}x{node.height}) "
                          f"cannot fit the region")
                )
        if node.fixed and node.kind is NodeKind.MACRO:
            if not region.contains(node, tol=1e-6):
                issues.append(
                    Issue(Severity.ERROR, "preplaced-outside",
                          f"preplaced macro {node.name!r} lies outside the region")
                )
        if not node.fixed:
            total_movable_area += node.area

    # Fixed blockage area reduces capacity.
    blocked = sum(
        m.area for m in nl.preplaced_macros if region.contains(m, tol=1e-6)
    )
    capacity = region.area - blocked
    if total_movable_area > capacity > 0:
        issues.append(
            Issue(Severity.ERROR, "over-capacity",
                  f"movable area {total_movable_area:.1f} exceeds free region "
                  f"capacity {capacity:.1f}")
        )
    elif capacity > 0 and total_movable_area > 0.9 * capacity:
        issues.append(
            Issue(Severity.WARNING, "high-utilization",
                  f"utilization {total_movable_area / capacity:.0%} > 90%: "
                  f"legalization may fail")
        )

    seen_names: set[str] = set()
    for net in nl.nets:
        if net.name in seen_names:
            issues.append(
                Issue(Severity.WARNING, "duplicate-net-name",
                      f"net name {net.name!r} appears more than once")
            )
        seen_names.add(net.name)
        if net.degree == 0:
            issues.append(
                Issue(Severity.WARNING, "empty-net", f"net {net.name!r} has no pins")
            )
        pin_nodes = [p.node for p in net.pins]
        if len(set(pin_nodes)) < len(pin_nodes):
            issues.append(
                Issue(Severity.WARNING, "duplicate-pin",
                      f"net {net.name!r} pins the same node more than once")
            )
        if net.weight < 0:
            issues.append(
                Issue(Severity.ERROR, "negative-weight",
                      f"net {net.name!r} has negative weight {net.weight}")
            )

    if raise_on_error and any(i.severity is Severity.ERROR for i in issues):
        raise ValidationError(issues)
    return issues
