"""The paper's contribution: Multi-row Local Legalization (MLL).

Pipeline (paper Sections 3-5)::

    window --> LocalRegion --> leftmost/rightmost bounds
           --> insertion intervals --> insertion points (scanline)
           --> evaluation (median of critical positions)
           --> realization (two-queue ripple push)

:class:`~repro.core.legalizer.Legalizer` is the top-level Algorithm 1
driver; :class:`~repro.core.mll.MultiRowLocalLegalizer` is the MLL
primitive usable on its own for incremental legalization (local moves,
gate sizing, buffer insertion).
"""

from repro.core.bounds import PlacementBounds, compute_bounds
from repro.core.config import EvaluationMode, LegalizerConfig
from repro.core.enumeration import (
    InsertionPoint,
    enumerate_insertion_points,
    enumerate_insertion_points_bruteforce,
)
from repro.core.evaluation import EvaluatedPoint, evaluate_insertion_point
from repro.core.instrumentation import MllTelemetry
from repro.core.intervals import InsertionInterval, build_insertion_intervals
from repro.core.legalizer import (
    LegalizationError,
    LegalizationResult,
    Legalizer,
    StuckCell,
    StuckCellReport,
    legalize,
)
from repro.core.local_region import LocalRegion, LocalSegment, extract_local_region
from repro.core.mll import AuditError, MllResult, MultiRowLocalLegalizer
from repro.core.realization import RealizationError, realize_insertion

__all__ = [
    "AuditError",
    "EvaluatedPoint",
    "EvaluationMode",
    "InsertionInterval",
    "InsertionPoint",
    "LegalizationError",
    "LegalizationResult",
    "Legalizer",
    "LegalizerConfig",
    "LocalRegion",
    "LocalSegment",
    "MllResult",
    "MllTelemetry",
    "MultiRowLocalLegalizer",
    "PlacementBounds",
    "RealizationError",
    "StuckCell",
    "StuckCellReport",
    "build_insertion_intervals",
    "compute_bounds",
    "enumerate_insertion_points",
    "enumerate_insertion_points_bruteforce",
    "evaluate_insertion_point",
    "extract_local_region",
    "legalize",
    "realize_insertion",
]
