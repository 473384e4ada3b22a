"""Utility-based route comparison from travel-time moments."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RouteSummary", "utility", "select_route", "indifference_c"]


@dataclass(frozen=True)
class RouteSummary:
    route_id: int
    mean: float  # s
    std: float  # s

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be nonnegative")


def utility(r: RouteSummary, c: float) -> float:
    """Mean-plus-risk utility mu + c*sigma (lower is better)."""
    if c < 0:
        raise ValueError("risk weight must be nonnegative")
    return r.mean + c * r.std


def select_route(routes, c: float) -> int:
    """Route id minimizing mu + c*sigma; ties go to the lowest id.

    Routes are compared by the utility difference d_mu + c*d_sigma rather
    than by the two utilities: near a crossing with almost equal spreads c
    is huge and c*sigma swamps the means, so mu + c*sigma rounds both
    routes to the same value while the difference stays exact."""
    if not routes:
        raise ValueError("empty route list")
    if c < 0:
        raise ValueError("risk weight must be nonnegative")
    best = routes[0]
    for r in routes[1:]:
        d = (r.mean - best.mean) + c * (r.std - best.std)
        if d < 0 or (d == 0 and r.route_id < best.route_id):
            best = r
    return best.route_id


def indifference_c(r1: RouteSummary, r2: RouteSummary):
    """Positive risk weight at which the two routes tie, or None if the
    utilities never cross for c > 0 (parallel or dominated)."""
    if r1.std == r2.std:
        return None
    c = (r2.mean - r1.mean) / (r1.std - r2.std)
    return c if c > 0 else None
