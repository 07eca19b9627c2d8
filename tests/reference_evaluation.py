"""Per-point insertion point evaluation: the reference for the batched
:func:`repro.core.evaluation.evaluate_insertion_point`.

Each point is scored on its own with plain Python floats: the critical
position pairs of paper Section 5.2, their median, and a sequential sum
of the equation-(3) curves.  The production evaluator must agree with it
exactly, on the chosen ``target_x`` and on the float cost.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import EvaluationMode
from repro.core.enumeration import InsertionPoint
from repro.core.evaluation import (
    EvaluatedPoint,
    Evaluation,
    _critical_positions_exact,
)
from repro.core.local_region import LocalRegion
from repro.db.cell import Cell

_INF = math.inf


def critical_positions_approx(
    point: InsertionPoint, target_width: int
) -> list[tuple[float, float]]:
    """Neighbor-only critical positions (paper Section 5.2 last para)."""
    pairs: list[tuple[float, float]] = []
    for iv in point.intervals:
        if iv.left is not None:
            pairs.append((iv.left.x + iv.left.width, _INF))
        if iv.right is not None:
            pairs.append((-_INF, iv.right.x - target_width))
    return pairs


def total_cost(pairs: list[tuple[float, float]], x: float) -> float:
    """Sum of equation-(3) curves at target position *x*, in sites."""
    total = 0.0
    for a, b in pairs:
        if x < a:
            total += a - x
        elif x > b:
            total += x - b
    return total


def optimal_x(
    pairs: list[tuple[float, float]], x_lo: int, x_hi: int, desired_x: float
) -> int:
    """Integer x in [x_lo, x_hi] minimizing the summed curves.

    The lower median of the critical positions minimizes the sum; it is
    clamped into the feasible range and snapped to the better of floor
    and ceil (the objective is convex), ties going to the x nearer the
    desired position, then to the smaller x.
    """
    endpoints = sorted(v for pair in pairs for v in pair)
    # No curves: every x costs 0 and only the desired-x tie-break counts.
    med = endpoints[(len(endpoints) - 1) // 2] if endpoints else desired_x
    if med == -_INF:
        med = x_lo
    elif med == _INF:
        med = x_hi
    clamped = min(max(med, x_lo), x_hi)
    raw = (x_lo, x_hi, math.floor(clamped), math.ceil(clamped))
    candidates = sorted({x for x in raw if x_lo <= x <= x_hi})
    return min(candidates, key=lambda x: (total_cost(pairs, x), abs(x - desired_x)))


def evaluate_insertion_point(
    region: LocalRegion,
    point: InsertionPoint,
    target: Cell,
    desired_x: float,
    desired_y: float,
    site_width_um: float,
    site_height_um: float,
    mode: EvaluationMode = EvaluationMode.APPROX,
) -> EvaluatedPoint:
    """Choose the target x for one *point* and estimate its cost."""
    if mode is EvaluationMode.EXACT:
        pairs = _critical_positions_exact(region, point, target.width)
    else:
        pairs = critical_positions_approx(point, target.width)
    # The target's own displacement curve: x_a = x_b = desired_x.
    pairs.append((desired_x, desired_x))
    x = optimal_x(pairs, point.x_lo, point.x_hi, desired_x)
    cost = (
        total_cost(pairs, x) * site_width_um
        + abs(point.bottom_row - desired_y) * site_height_um
    )
    return EvaluatedPoint(point=point, target_x=x, cost=cost)


def evaluate_points(region, points, *args, **kwargs) -> Evaluation:
    """:func:`evaluate_insertion_point` over one call's points: a drop-in
    for the batched evaluator, with the same arguments and result type."""
    evaluated = [evaluate_insertion_point(region, p, *args, **kwargs) for p in points]
    return Evaluation(
        points,
        np.array([ev.target_x for ev in evaluated], dtype=np.float64),
        np.array([ev.cost for ev in evaluated], dtype=np.float64),
    )
