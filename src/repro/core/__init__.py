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

The names below resolve on first use (:mod:`repro._lazy`): ``import
repro.core`` alone loads no submodule, and so no numpy.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.bounds import PlacementBounds as PlacementBounds
    from repro.core.bounds import compute_bounds as compute_bounds
    from repro.core.config import EvaluationMode as EvaluationMode
    from repro.core.config import LegalizerConfig as LegalizerConfig
    from repro.core.enumeration import InsertionPoint as InsertionPoint
    from repro.core.enumeration import enumerate_insertion_points as enumerate_insertion_points
    from repro.core.enumeration import enumerate_insertion_points_bruteforce as enumerate_insertion_points_bruteforce
    from repro.core.evaluation import EvaluatedPoint as EvaluatedPoint
    from repro.core.evaluation import evaluate_insertion_point as evaluate_insertion_point
    from repro.core.instrumentation import MllTelemetry as MllTelemetry
    from repro.core.intervals import InsertionInterval as InsertionInterval
    from repro.core.intervals import build_insertion_intervals as build_insertion_intervals
    from repro.core.legalizer import LegalizationError as LegalizationError
    from repro.core.legalizer import LegalizationResult as LegalizationResult
    from repro.core.legalizer import Legalizer as Legalizer
    from repro.core.legalizer import StuckCell as StuckCell
    from repro.core.legalizer import StuckCellReport as StuckCellReport
    from repro.core.legalizer import legalize as legalize
    from repro.core.local_region import LocalRegion as LocalRegion
    from repro.core.local_region import LocalSegment as LocalSegment
    from repro.core.local_region import extract_local_region as extract_local_region
    from repro.core.mll import AuditError as AuditError
    from repro.core.mll import MllResult as MllResult
    from repro.core.mll import MultiRowLocalLegalizer as MultiRowLocalLegalizer
    from repro.core.realization import RealizationError as RealizationError
    from repro.core.realization import realize_insertion as realize_insertion

lazy_exports(globals(), {
    "PlacementBounds": "repro.core.bounds",
    "compute_bounds": "repro.core.bounds",
    "EvaluationMode": "repro.core.config",
    "LegalizerConfig": "repro.core.config",
    "InsertionPoint": "repro.core.enumeration",
    "enumerate_insertion_points": "repro.core.enumeration",
    "enumerate_insertion_points_bruteforce": "repro.core.enumeration",
    "EvaluatedPoint": "repro.core.evaluation",
    "evaluate_insertion_point": "repro.core.evaluation",
    "MllTelemetry": "repro.core.instrumentation",
    "InsertionInterval": "repro.core.intervals",
    "build_insertion_intervals": "repro.core.intervals",
    "LegalizationError": "repro.core.legalizer",
    "LegalizationResult": "repro.core.legalizer",
    "Legalizer": "repro.core.legalizer",
    "StuckCell": "repro.core.legalizer",
    "StuckCellReport": "repro.core.legalizer",
    "legalize": "repro.core.legalizer",
    "LocalRegion": "repro.core.local_region",
    "LocalSegment": "repro.core.local_region",
    "extract_local_region": "repro.core.local_region",
    "AuditError": "repro.core.mll",
    "MllResult": "repro.core.mll",
    "MultiRowLocalLegalizer": "repro.core.mll",
    "RealizationError": "repro.core.realization",
    "realize_insertion": "repro.core.realization",
})
