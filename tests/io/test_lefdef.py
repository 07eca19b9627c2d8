"""Unit tests for the LEF/DEF-lite reader/writer."""

import os
import re

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.checker import assert_legal, verify_placement
from repro.core import LegalizerConfig, legalize
from repro.db import Rail
from repro.io import read_lefdef, write_lefdef
from tests.conftest import add_placed, add_unplaced, make_design


def roundtrip(design, tmp_path):
    lef, def_ = write_lefdef(design, str(tmp_path))
    return read_lefdef(lef, def_)


class TestRoundTrip:
    def test_positions_and_sizes(self, tmp_path):
        d = generate_design(GeneratorConfig(num_cells=100, seed=1, name="x"))
        legalize(d, LegalizerConfig(seed=1))
        d2 = roundtrip(d, tmp_path)
        assert d2.name == "x"
        by = {c.name: c for c in d2.cells}
        for c in d.cells:
            c2 = by[c.name]
            assert (c2.x, c2.y) == (c.x, c.y)
            assert (c2.width, c2.height) == (c.width, c.height)
            assert c2.master.name == c.master.name
        assert_legal(d2)

    def test_hpwl_preserved(self, tmp_path):
        d = generate_design(GeneratorConfig(num_cells=80, seed=2))
        legalize(d, LegalizerConfig(seed=2))
        d2 = roundtrip(d, tmp_path)
        assert d2.hpwl_um() == pytest.approx(d.hpwl_um(), abs=1e-5)

    def test_gp_positions_survive(self, tmp_path):
        d = make_design()
        add_unplaced(d, 3, 1, 4.27, 2.93, name="float")
        d2 = roundtrip(d, tmp_path)
        c = d2.cells[0]
        assert not c.is_placed
        assert c.gp_x == pytest.approx(4.27)
        assert c.gp_y == pytest.approx(2.93)

    def test_rail_property_survives(self, tmp_path):
        d = make_design()
        add_placed(d, 2, 2, 0, 0, rail=Rail.GND, name="dff")
        d2 = roundtrip(d, tmp_path)
        assert d2.cells[0].master.bottom_rail is Rail.GND
        assert verify_placement(d2) == []

    def test_rows_and_rails(self, tmp_path):
        d = make_design(num_rows=6, first_rail=Rail.VDD)
        d2 = roundtrip(d, tmp_path)
        assert d2.floorplan.num_rows == 6
        for r, r2 in zip(d.floorplan.rows, d2.floorplan.rows):
            assert r2.bottom_rail is r.bottom_rail

    def test_blockages_and_fences(self, tmp_path):
        d = generate_design(
            GeneratorConfig(
                num_cells=150,
                seed=3,
                blockage_fraction=0.08,
                fence_count=2,
                fence_area_fraction=0.2,
            )
        )
        legalize(d, LegalizerConfig(seed=3))
        d2 = roundtrip(d, tmp_path)
        assert d2.floorplan.blockages == d.floorplan.blockages
        assert len(d2.floorplan.fences) == len(d.floorplan.fences)
        assert [c.region for c in d2.cells] == [c.region for c in d.cells]
        assert_legal(d2)

    def test_fixed_cells(self, tmp_path):
        d = make_design()
        add_placed(d, 3, 1, 5, 2, fixed=True, name="pad")
        d2 = roundtrip(d, tmp_path)
        assert d2.cells[0].fixed
        assert (d2.cells[0].x, d2.cells[0].y) == (5, 2)

    def test_orientation_written(self, tmp_path):
        d = make_design(first_rail=Rail.GND)
        m = d.library.get_or_create(2, 1)
        c = d.add_cell(m, name="flip")
        d.place(c, 0, 1)  # VDD row -> FS
        write_lefdef(d, str(tmp_path), "o")
        def_text = (tmp_path / "o.def").read_text()
        assert ") FS" in def_text

    def test_pin_names_in_nets(self, tmp_path):
        d = generate_design(GeneratorConfig(num_cells=60, seed=4))
        d2 = roundtrip(d, tmp_path)
        for net, net2 in zip(d.netlist, d2.netlist):
            assert [p.name for p in net.pins] == [p.name for p in net2.pins]


class TestFiles:
    def test_both_files_written(self, tmp_path):
        d = make_design(name="pair")
        lef, def_ = write_lefdef(d, str(tmp_path))
        assert os.path.exists(lef) and lef.endswith("pair.lef")
        assert os.path.exists(def_) and def_.endswith("pair.def")

    def test_lef_declares_site_and_macros(self, tmp_path):
        d = make_design()
        add_placed(d, 3, 2, 0, 0)
        lef, _ = write_lefdef(d, str(tmp_path))
        text = open(lef).read()
        assert "SITE core" in text
        assert "MACRO" in text
        assert "SIZE 0.2 BY 1.71" in text

    def test_def_units_exact(self, tmp_path):
        # 1000 DBU/um with 0.2x1.71 sites: site = 200 x 1710 DBU exactly.
        d = make_design()
        add_placed(d, 2, 1, 3, 2)
        _, def_ = write_lefdef(d, str(tmp_path))
        text = open(def_).read()
        assert "( 600 3420 )" in text  # x=3 sites, y=2 rows


class TestDamagedInput:
    """A DEF record naming something unknown, or a cut-short DEF, raises
    a ``ValueError`` naming ``<def path>:<line>``; nothing is dropped."""

    @pytest.fixture
    def pair(self, tmp_path):
        design = generate_design(GeneratorConfig(num_cells=50, seed=3, name="cut"))
        legalize(design, LegalizerConfig(seed=3))
        return write_lefdef(design, str(tmp_path))

    @staticmethod
    def _edit(path, edit):
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(edit(text))

    @staticmethod
    def _line_of(path, pattern):
        with open(path) as f:
            text = f.read()
        return text.count("\n", 0, re.search(pattern, text, re.M).start()) + 1

    def test_full_pair_loads_every_record(self, pair):
        design = read_lefdef(*pair)
        assert len(design.cells) == 50
        assert len(design.netlist) == 55

    def test_component_with_unknown_macro(self, pair):
        # Skipping it would load 49 of the 50 cells.
        lef, def_ = pair
        self._edit(def_, lambda text: re.sub(r"- c42 \S+", "- c42 ghost", text))
        lineno = self._line_of(def_, r"- c42 ghost")
        with pytest.raises(
            ValueError,
            match=rf"cut\.def:{lineno}: component 'c42' names macro 'ghost', "
            "which the LEF lacks",
        ):
            read_lefdef(lef, def_)

    def test_empty_lef(self, pair):
        # Every component's macro is unknown: the pair must not load as
        # an empty design.
        lef, def_ = pair
        self._edit(lef, lambda text: "")
        lineno = self._line_of(def_, r"^  - c\d+ ")
        with pytest.raises(ValueError, match=rf"cut\.def:{lineno}: component 'c\d+' names macro"):
            read_lefdef(lef, def_)

    def test_net_terminal_names_unknown_component(self, pair):
        # Skipping it would load the net one pin short.
        lef, def_ = pair
        self._edit(def_, lambda text: text.replace("( c12 o )", "( ghost12 o )", 1))
        lineno = self._line_of(def_, r"\( ghost12 o \)")
        with pytest.raises(
            ValueError,
            match=rf"cut\.def:{lineno}: net 'n16' names unknown component 'ghost12'",
        ):
            read_lefdef(lef, def_)

    def test_io_pin_terminals_are_skipped(self, pair):
        lef, def_ = pair
        pins = [len(net.pins) for net in read_lefdef(lef, def_).netlist]
        self._edit(def_, lambda text: text.replace("( c12 o )", "( c12 o ) ( PIN io0 )", 1))
        assert [len(net.pins) for net in read_lefdef(lef, def_).netlist] == pins

    def test_def_cut_in_half(self, pair):
        # Cut inside a section, the DEF used to load with 0 cells.
        lef, def_ = pair
        self._edit(def_, lambda text: text[: len(text) // 2])
        with open(def_) as f:
            section = re.findall(r"^(COMPONENTS|NETS) \d+ ;", f.read(), re.M)[-1]
        lineno = self._line_of(def_, rf"^{section} \d+ ;")
        with pytest.raises(
            ValueError,
            match=rf"cut\.def:{lineno}: {section} section has no END {section}",
        ):
            read_lefdef(lef, def_)

    def test_def_cut_after_components(self, pair):
        lef, def_ = pair
        self._edit(def_, lambda text: text[: text.index("END COMPONENTS") + 15])
        lineno = self._line_of(def_, r"^DESIGN ")
        with pytest.raises(ValueError, match=rf"cut\.def:{lineno}: DESIGN has no END DESIGN"):
            read_lefdef(lef, def_)

    def test_components_count_disagrees(self, pair):
        lef, def_ = pair
        self._edit(def_, lambda text: re.sub(r"  - c42 .*?;\n", "", text, flags=re.S))
        lineno = self._line_of(def_, r"^COMPONENTS 50 ;")
        with pytest.raises(
            ValueError,
            match=rf"cut\.def:{lineno}: COMPONENTS declares 50 records but 49 were read",
        ):
            read_lefdef(lef, def_)

    def test_row_with_garbled_coordinate(self, pair):
        # Skipping it would load 7 of the 8 rows.
        lef, def_ = pair
        self._edit(def_, lambda text: text.replace("core 0 3420 N", "core 0 34x0 N", 1))
        lineno = self._line_of(def_, r"^ROW row_2 ")
        with pytest.raises(ValueError, match=rf"cut\.def:{lineno}: malformed ROW statement"):
            read_lefdef(lef, def_)

    def test_row_spanning_several_rows(self, pair):
        # This reader holds one row per ROW statement: BY 2 must not load.
        lef, def_ = pair
        self._edit(def_, lambda text: re.sub(r"(ROW row_3 .*?) BY 1", r"\1 BY 2", text))
        lineno = self._line_of(def_, r"^ROW row_3 ")
        with pytest.raises(ValueError, match=rf"cut\.def:{lineno}: ROW \.\.\. BY 2 is not supported"):
            read_lefdef(lef, def_)

    @pytest.mark.parametrize("value", ["inf 2", "nan 1"])
    def test_gp_property_not_finite(self, pair, value):
        # It used to load with the GP left at (0, 0).
        lef, def_ = pair
        self._edit(def_, lambda text: re.sub(r'(- c7 .*?PROPERTY gp )"[^"]*"', rf'\1"{value}"', text, flags=re.S))
        lineno = self._line_of(def_, rf'PROPERTY gp "{value}"')
        with pytest.raises(
            ValueError,
            match=rf"cut\.def:{lineno}: component 'c7' has gp property '{value}'; "
            "expected two finite numbers",
        ):
            read_lefdef(lef, def_)

    def test_gp_property_malformed_number(self, pair):
        # It used to raise a bare float() error naming no file.
        lef, def_ = pair
        self._edit(def_, lambda text: re.sub(r'(- c7 .*?PROPERTY gp )"[^"]*"', r'\1"1.2.3 4"', text, flags=re.S))
        lineno = self._line_of(def_, r'PROPERTY gp "1\.2\.3 4"')
        with pytest.raises(ValueError, match=rf"cut\.def:{lineno}: component 'c7' has gp property"):
            read_lefdef(lef, def_)

    def test_nets_count_disagrees(self, pair):
        lef, def_ = pair
        self._edit(def_, lambda text: re.sub(r"  - n16 .*\n", "", text))
        lineno = self._line_of(def_, r"^NETS 55 ;")
        with pytest.raises(
            ValueError,
            match=rf"cut\.def:{lineno}: NETS declares 55 records but 54 were read",
        ):
            read_lefdef(lef, def_)
