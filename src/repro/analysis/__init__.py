"""Placement-quality analytics.

Post-hoc inspection a physical-design engineer reaches for when a
result looks off: the displacement field between two placements.
"""

from repro.analysis.quality import displacement_stats

__all__ = ["displacement_stats"]
