"""Insertion point evaluation (paper Section 5.2, Figure 9).

Fixing an insertion point fixes every cell's relative position; only the
target's exact x remains free.  Each local cell's displacement as a
function of the target x is the V-with-flat-bottom curve of equation (3),
characterized by two *critical positions* ``x_a`` (below which the cell
is pushed left… actually: below which the target pushes the cell) and
``x_b``:

* a cell on the target's **left** is displaced iff the target x drops
  below ``x_a = x_c + chain``, where ``chain`` is the largest total width
  of cells on a push path from the target to the cell (inclusive);
* a cell on the target's **right** is displaced iff the target x exceeds
  ``x_b = x_c - w_t - chain'``, where ``chain'`` sums the widths of the
  cells strictly between the target and the cell on the worst path;
* the target itself contributes the degenerate curve
  ``x_a = x_b = desired x``.

The total displacement is convex piecewise-linear; its minimum is attained
at the median of the multiset of critical positions (left cells contribute
``x_b = +inf``, right cells ``x_a = -inf``).  The push paths form a DAG —
multi-row cells fan a push out into every row they span — and the chain
maxima are longest paths, computable in one sweep over cells ordered by x
(paper: "values of all critical positions can be found in O(|C_W|)").

The *approximate* mode (the paper's default) only uses the ≤ 2·h_t cells
adjacent to the chosen gaps: ``x_a = x_i + w_i`` for a left neighbor,
``x_b = x_j - w_t`` for a right neighbor.

:func:`evaluate_insertion_point` scores every insertion point of one MLL
call in a single numpy batch: one row-wise sort yields every median and
one broadcast every candidate cost.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.core.config import EvaluationMode
from repro.core.enumeration import InsertionPoint
from repro.core.local_region import LocalRegion
from repro.db.cell import Cell

_INF = math.inf
_X_LO = attrgetter("x_lo")
_X_HI = attrgetter("x_hi")
_BOTTOM_ROW = attrgetter("bottom_row")

FloatArray = NDArray[np.float64]


class EvaluatedPoint:
    """An insertion point with its chosen target x and estimated cost.

    ``cost`` is in *micron* units so that horizontal (site width) and
    vertical (row height) displacement combine consistently.  A plain
    slotted record like :class:`~repro.core.enumeration.InsertionPoint`:
    treat it as immutable; equality is by field values, and it is unhashable.
    """

    __slots__ = ("point", "target_x", "cost")

    def __init__(self, point: InsertionPoint, target_x: int, cost: float) -> None:
        self.point = point
        self.target_x = target_x
        self.cost = cost

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluatedPoint):
            return NotImplemented
        return (self.point, self.target_x, self.cost) == (
            other.point, other.target_x, other.cost
        )

    @property
    def bottom_row(self) -> int:
        """Row of the target's lower edge."""
        return self.point.bottom_row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvaluatedPoint(point={self.point!r}, "
            f"target_x={self.target_x}, cost={self.cost!r})"
        )


class Evaluation:
    """Every insertion point of one MLL call, scored, column by column.

    ``target_x[i]`` (integer-valued) and ``cost[i]`` (microns) belong to
    ``points[i]``.  Indexing and iteration yield :class:`EvaluatedPoint`
    records, built on demand, so a caller that wants only the winner
    (:meth:`first_min`) builds one record, not one per point.
    """

    __slots__ = ("points", "target_x", "cost")

    def __init__(
        self, points: Sequence[InsertionPoint], target_x: FloatArray, cost: FloatArray
    ) -> None:
        self.points = points
        self.target_x = target_x
        self.cost = cost

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> EvaluatedPoint:
        return EvaluatedPoint(
            self.points[i], int(self.target_x[i]), float(self.cost[i])
        )

    def __iter__(self) -> Iterator[EvaluatedPoint]:
        return map(
            EvaluatedPoint,
            self.points,
            map(int, self.target_x.tolist()),
            self.cost.tolist(),
        )

    def bottom_rows(self) -> FloatArray:
        """The bottom row of every point."""
        return np.fromiter(
            map(_BOTTOM_ROW, self.points), dtype=np.float64, count=len(self)
        )

    def first_min(self, allowed: NDArray[np.bool_] | None = None) -> int | None:
        """Index of the first minimum-cost point among the *allowed* ones
        (every point when ``None``); ``None`` when there is none."""
        if allowed is None:
            return int(np.argmin(self.cost)) if len(self) else None
        indices = np.flatnonzero(allowed)
        if not indices.size:
            return None
        return int(indices[np.argmin(self.cost[indices])])


def _critical_positions_exact(
    region: LocalRegion,
    point: InsertionPoint,
    target_width: int,
) -> list[tuple[float, float]]:
    """(x_a, x_b) pairs of every local cell displaced by some target x.

    Longest-path propagation over the push DAG, left side and right side
    independently.  Cells unreachable from the target never move and are
    omitted (their curve is identically zero).
    """
    pairs: list[tuple[float, float]] = []

    # --- left side: chain[c] = max total width from target to c inclusive.
    chain: dict[int, float] = {}
    seeds: list[Cell] = [iv.left for iv in point.intervals if iv.left is not None]
    order: list[Cell] = []
    seen: set[int] = set()
    # Work right-to-left: a push goes from a cell to its left neighbors.
    stack = list(seeds)
    for c in stack:
        if c.id not in seen:
            seen.add(c.id)
            order.append(c)
    i = 0
    while i < len(order):
        c = order[i]
        i += 1
        for row in c.rows_spanned():
            seg = region.segments[row]
            idx = region.cell_index(row, c)
            if idx > 0:
                p = seg.cells[idx - 1]
                if p.id not in seen:
                    seen.add(p.id)
                    order.append(p)
    # Longest path: process in decreasing current-x order (topological).
    order.sort(key=lambda c: -(c.x or 0))
    seed_ids = {c.id for c in seeds}
    pushers: dict[int, list[Cell]] = {}
    for c in order:
        for row in c.rows_spanned():
            seg = region.segments[row]
            idx = region.cell_index(row, c)
            if idx > 0:
                p = seg.cells[idx - 1]
                if p.id in seen:
                    pushers.setdefault(p.id, []).append(c)
    for c in order:
        base = c.width if c.id in seed_ids else -_INF
        via = max(
            (chain[q.id] + c.width for q in pushers.get(c.id, ()) if q.id in chain),
            default=-_INF,
        )
        val = max(base, via)
        if val > -_INF:
            chain[c.id] = val
            assert c.x is not None
            pairs.append((c.x + val, _INF))

    # --- right side: chain'[c] = max width strictly between target and c.
    chain_r: dict[int, float] = {}
    seeds_r = [iv.right for iv in point.intervals if iv.right is not None]
    seen_r: set[int] = set()
    order_r: list[Cell] = []
    for c in seeds_r:
        if c.id not in seen_r:
            seen_r.add(c.id)
            order_r.append(c)
    i = 0
    while i < len(order_r):
        c = order_r[i]
        i += 1
        for row in c.rows_spanned():
            seg = region.segments[row]
            idx = region.cell_index(row, c)
            if idx + 1 < len(seg.cells):
                nxt = seg.cells[idx + 1]
                if nxt.id not in seen_r:
                    seen_r.add(nxt.id)
                    order_r.append(nxt)
    order_r.sort(key=lambda c: (c.x or 0))
    seed_ids_r = {c.id for c in seeds_r}
    pushers_r: dict[int, list[Cell]] = {}
    for c in order_r:
        for row in c.rows_spanned():
            seg = region.segments[row]
            idx = region.cell_index(row, c)
            if idx + 1 < len(seg.cells):
                nxt = seg.cells[idx + 1]
                if nxt.id in seen_r:
                    pushers_r.setdefault(nxt.id, []).append(c)
    for c in order_r:
        base = 0.0 if c.id in seed_ids_r else -_INF
        via = max(
            (
                chain_r[p.id] + p.width
                for p in pushers_r.get(c.id, ())
                if p.id in chain_r
            ),
            default=-_INF,
        )
        val = max(base, via)
        if val > -_INF:
            chain_r[c.id] = val
            assert c.x is not None
            pairs.append((-_INF, c.x - target_width - val))

    return pairs


def _neighbour_pairs(
    points: Sequence[InsertionPoint], target_width: int
) -> tuple[FloatArray, FloatArray]:
    """APPROX pair matrices: slot ``s`` of a point holds the pair
    ``(x_a, x_b)`` of its interval's left and right neighbours.

    Folding a slot's left pair ``(x_a, +inf)`` and right pair
    ``(-inf, x_b)`` into one ``(x_a, x_b)`` changes neither the summed
    cost (each endpoint is clipped on its own) nor the lower median (the
    endpoint multiset only loses one ``-inf`` and one ``+inf``).  A
    missing neighbour or an unused slot is the identity ``(-inf, +inf)``.
    """
    nslots = max(len(p.intervals) for p in points)
    lo: list[float] = []
    hi: list[float] = []
    lo_append, hi_append = lo.append, hi.append
    for p in points:
        ivs = p.intervals
        for iv in ivs:
            left, right = iv.left, iv.right
            lo_append(-_INF if left is None else left.x + left.width)  # type: ignore[operator]
            hi_append(_INF if right is None else right.x - target_width)  # type: ignore[operator]
        pad = nslots - len(ivs)
        if pad:
            lo.extend([-_INF] * pad)
            hi.extend([_INF] * pad)
    shape = (len(points), nslots)
    return (
        np.array(lo, dtype=np.float64).reshape(shape),
        np.array(hi, dtype=np.float64).reshape(shape),
    )


def _exact_pairs(
    region: LocalRegion, points: Sequence[InsertionPoint], target_width: int
) -> tuple[FloatArray, FloatArray]:
    """EXACT pair matrices, rows padded with the identity ``(-inf, +inf)``."""
    pair_lists = [
        _critical_positions_exact(region, p, target_width) for p in points
    ]
    width = max(len(pairs) for pairs in pair_lists)
    a = np.full((len(points), width), -_INF, dtype=np.float64)
    b = np.full((len(points), width), _INF, dtype=np.float64)
    for i, pairs in enumerate(pair_lists):
        if pairs:
            a[i, : len(pairs)], b[i, : len(pairs)] = zip(*pairs)
    return a, b


def evaluate_insertion_point(
    region: LocalRegion,
    points: Sequence[InsertionPoint],
    target: Cell,
    desired_x: float,
    desired_y: float,
    site_width_um: float,
    site_height_um: float,
    mode: EvaluationMode = EvaluationMode.APPROX,
) -> Evaluation:
    """Choose the target x of every insertion point of one MLL call and
    estimate its cost; one :class:`EvaluatedPoint` per point, in order.

    The cost combines the local cells' x-displacement (sites × site
    width) with the target's displacement from its desired position
    (Manhattan, in microns).  In :data:`EvaluationMode.EXACT` the cost is
    the true total displacement of the realized placement; in
    :data:`EvaluationMode.APPROX` only gap-adjacent cells contribute.

    All points are scored in one numpy batch.  Each row of the pair
    matrices ``a``/``b`` is one point's critical positions, padded with
    identity pairs; the lower median of its endpoints plus the target's
    ``(desired_x, desired_x)`` is the optimal real x, which is clamped to
    ``[x_lo, x_hi]`` and snapped to the better of floor and ceil.  The
    result is exact and independent of summation order: every
    non-target endpoint is integer-valued, so those terms sum exactly;
    the target's fractional ``|x - desired_x|`` is added last; and ties
    go to the smaller ``|x - desired_x|``, then the smaller x.
    """
    if not points:
        return Evaluation(points, np.empty(0), np.empty(0))
    if mode is EvaluationMode.EXACT:
        a, b = _exact_pairs(region, points, target.width)
    else:
        a, b = _neighbour_pairs(points, target.width)
    npts, width = a.shape
    x_lo = np.fromiter(map(_X_LO, points), dtype=np.float64, count=npts)
    x_hi = np.fromiter(map(_X_HI, points), dtype=np.float64, count=npts)
    desired = np.full((npts, 1), desired_x, dtype=np.float64)

    # The lower median of the 2·width + 2 endpoints sits at index width.
    endpoints = np.concatenate([a, b, desired, desired], axis=1)
    endpoints.sort(axis=1)
    med = endpoints[:, width]
    med = np.where(med == -_INF, x_lo, med)
    med = np.where(med == _INF, x_hi, med)
    clamped = np.minimum(np.maximum(med, x_lo), x_hi)
    cand = np.stack([x_lo, x_hi, np.floor(clamped), np.ceil(clamped)], axis=1)

    pair_cost = (
        np.clip(a[:, :, None] - cand[:, None, :], 0.0, None).sum(axis=1)
        + np.clip(cand[:, None, :] - b[:, :, None], 0.0, None).sum(axis=1)
    )
    own = np.abs(cand - desired_x)
    cost = pair_cost + own
    best_cost = cost.min(axis=1, keepdims=True)
    own_at_best = np.where(cost == best_cost, own, _INF)
    best_own = own_at_best.min(axis=1, keepdims=True)
    best_x = np.where(own_at_best == best_own, cand, _INF).min(axis=1)

    rows = np.fromiter(map(_BOTTOM_ROW, points), dtype=np.float64, count=npts)
    cost_um = (
        best_cost[:, 0] * site_width_um + np.abs(rows - desired_y) * site_height_um
    )
    return Evaluation(points, best_x, cost_um)
