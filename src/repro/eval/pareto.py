"""Pareto-frontier utilities (paper Figure 7).

Figure 7 plots TOP-1 accuracy against throughput and highlights the
Pareto-optimal configurations: those for which no other configuration is
simultaneously faster *and* at least as accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate: higher ``throughput`` and ``accuracy`` are better."""

    label: str
    throughput: float
    accuracy: float


def dominates(p: ParetoPoint, q: ParetoPoint) -> bool:
    """True when ``p`` is at least as good as ``q`` everywhere and
    strictly better somewhere."""
    at_least = p.throughput >= q.throughput and p.accuracy >= q.accuracy
    strictly = p.throughput > q.throughput or p.accuracy > q.accuracy
    return at_least and strictly


def pareto_frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset, sorted by increasing throughput."""
    frontier = [
        p for p in points
        if not any(dominates(q, p) for q in points if q is not p)
    ]
    return sorted(frontier, key=lambda p: (p.throughput, p.accuracy))
