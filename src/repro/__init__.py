"""repro — multi-row height standard cell legalization.

A from-scratch reproduction of *"Legalization Algorithm for Multiple-Row
Height Standard Cell Design"* (W.-K. Chow, C.-W. Pui, E. F. Y. Young,
DAC 2016): the Multi-row Local Legalization (MLL) algorithm, the
Algorithm-1 driver around it, the placement database they operate on,
optimal/classic baselines, and an ISPD2015-style synthetic benchmark
suite reproducing the paper's evaluation.

Quickstart::

    from repro import LegalizerConfig, legalize
    from repro.bench import GeneratorConfig, generate_design

    design = generate_design(GeneratorConfig(num_cells=2000, seed=1))
    result = legalize(design, LegalizerConfig(seed=1))

    from repro.checker import assert_legal, make_report
    assert_legal(design)
    print(make_report(design, result.runtime_s).row())

The names below resolve on first use (:mod:`repro._lazy`): a ``repro``
command loads only the subpackages it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.checker.legality import assert_legal as assert_legal
    from repro.checker.legality import verify_placement as verify_placement
    from repro.checker.metrics import make_report as make_report
    from repro.core.config import EvaluationMode as EvaluationMode
    from repro.core.config import LegalizerConfig as LegalizerConfig
    from repro.core.legalizer import LegalizationError as LegalizationError
    from repro.core.legalizer import LegalizationResult as LegalizationResult
    from repro.core.legalizer import Legalizer as Legalizer
    from repro.core.legalizer import legalize as legalize
    from repro.core.mll import AuditError as AuditError
    from repro.core.mll import MultiRowLocalLegalizer as MultiRowLocalLegalizer
    from repro.db.cell import Cell as Cell
    from repro.db.design import Design as Design
    from repro.db.floorplan import Floorplan as Floorplan
    from repro.db.journal import Journal as Journal
    from repro.db.journal import Transaction as Transaction
    from repro.db.library import CellMaster as CellMaster
    from repro.db.library import Library as Library
    from repro.db.library import PinOffset as PinOffset
    from repro.db.library import Rail as Rail
    from repro.db.netlist import Net as Net
    from repro.db.netlist import Netlist as Netlist
    from repro.db.netlist import Pin as Pin
    from repro.db.row import Row as Row
    from repro.db.segment import Segment as Segment
    from repro.engine.config import EngineConfig as EngineConfig
    from repro.engine.executor import EngineResult as EngineResult
    from repro.engine.executor import ShardedLegalizer as ShardedLegalizer
    from repro.engine.executor import legalize_sharded as legalize_sharded

lazy_exports(globals(), {
    "assert_legal": "repro.checker.legality",
    "verify_placement": "repro.checker.legality",
    "make_report": "repro.checker.metrics",
    "EvaluationMode": "repro.core.config",
    "LegalizerConfig": "repro.core.config",
    "LegalizationError": "repro.core.legalizer",
    "LegalizationResult": "repro.core.legalizer",
    "Legalizer": "repro.core.legalizer",
    "legalize": "repro.core.legalizer",
    "AuditError": "repro.core.mll",
    "MultiRowLocalLegalizer": "repro.core.mll",
    "Cell": "repro.db.cell",
    "Design": "repro.db.design",
    "Floorplan": "repro.db.floorplan",
    "Journal": "repro.db.journal",
    "Transaction": "repro.db.journal",
    "CellMaster": "repro.db.library",
    "Library": "repro.db.library",
    "PinOffset": "repro.db.library",
    "Rail": "repro.db.library",
    "Net": "repro.db.netlist",
    "Netlist": "repro.db.netlist",
    "Pin": "repro.db.netlist",
    "Row": "repro.db.row",
    "Segment": "repro.db.segment",
    "EngineConfig": "repro.engine.config",
    "EngineResult": "repro.engine.executor",
    "ShardedLegalizer": "repro.engine.executor",
    "legalize_sharded": "repro.engine.executor",
})

__version__ = "1.0.0"
