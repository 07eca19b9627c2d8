"""Unit tests for Bookshelf I/O."""

import os

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.checker import assert_legal, verify_placement
from repro.core import LegalizerConfig, legalize
from repro.db import Rail
from repro.io import read_bookshelf, write_bookshelf
from repro.geometry import Rect
from tests.conftest import add_placed, add_unplaced, make_design


class TestRoundTrip:
    def test_placed_design_roundtrips(self, tmp_path):
        d = generate_design(GeneratorConfig(num_cells=80, seed=1, name="rt"))
        legalize(d, LegalizerConfig(seed=1))
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.name == "rt"
        assert len(d2.cells) == len(d.cells)
        by_name = {c.name: c for c in d2.cells}
        for c in d.cells:
            c2 = by_name[c.name]
            assert (c2.x, c2.y) == (c.x, c.y)
            assert (c2.width, c2.height) == (c.width, c.height)
            assert c2.gp_x == pytest.approx(c.gp_x)
            assert c2.gp_y == pytest.approx(c.gp_y)
        assert_legal(d2)

    def test_hpwl_survives_roundtrip(self, tmp_path):
        d = generate_design(GeneratorConfig(num_cells=60, seed=2))
        legalize(d, LegalizerConfig(seed=2))
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.hpwl_um() == pytest.approx(d.hpwl_um())
        assert d2.hpwl_um(use_gp=True) == pytest.approx(d.hpwl_um(use_gp=True))

    def test_rail_parity_survives(self, tmp_path):
        d = make_design()
        add_placed(d, 2, 2, 0, 0, rail=Rail.GND, name="dff0")
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        c = d2.cells[0]
        assert c.master.bottom_rail is Rail.GND
        assert verify_placement(d2) == []

    def test_rows_and_rails_survive(self, tmp_path):
        d = make_design(num_rows=6, first_rail=Rail.VDD)
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        fp, fp2 = d.floorplan, d2.floorplan
        assert fp2.num_rows == fp.num_rows
        assert fp2.row_width == fp.row_width
        for r, r2 in zip(fp.rows, fp2.rows):
            assert r2.bottom_rail is r.bottom_rail

    def test_blockages_survive(self, tmp_path):
        d = make_design(blockages=[Rect(5, 2, 4, 3)])
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.floorplan.blockages == [Rect(5, 2, 4, 3)]
        assert len(d2.floorplan.segments) == len(d.floorplan.segments)

    def test_unplaced_cells_keep_gp(self, tmp_path):
        d = make_design()
        add_unplaced(d, 3, 1, 4.25, 2.75, name="float")
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        c = d2.cells[0]
        assert c.gp_x == pytest.approx(4.25)
        assert c.gp_y == pytest.approx(2.75)
        assert not c.is_placed

    def test_fixed_cells_marked_terminal(self, tmp_path):
        d = make_design()
        add_placed(d, 2, 1, 3, 1, fixed=True, name="pad")
        aux = write_bookshelf(d, str(tmp_path))
        d2 = read_bookshelf(aux)
        assert d2.cells[0].fixed


class TestFiles:
    def test_all_files_written(self, tmp_path):
        d = make_design(name="files")
        write_bookshelf(d, str(tmp_path))
        for ext in ("aux", "nodes", "nets", "pl", "scl"):
            assert os.path.exists(tmp_path / f"files.{ext}")

    def test_aux_references_all(self, tmp_path):
        d = make_design(name="x")
        aux = write_bookshelf(d, str(tmp_path))
        content = open(aux).read()
        for ext in ("nodes", "nets", "pl", "scl"):
            assert f"x.{ext}" in content


class TestDeclaredCounts:
    """A file cut short at a record boundary still parses; the header's
    declared count is what exposes it."""

    @pytest.fixture
    def bundle(self, tmp_path):
        design = generate_design(GeneratorConfig(num_cells=40, seed=3, name="cut"))
        legalize(design, LegalizerConfig(seed=3))
        return write_bookshelf(design, str(tmp_path))

    @staticmethod
    def _truncate(aux, ext, record, keep):
        """Cut ``.ext`` of the bundle before its record number *keep*
        (records are the lines starting with *record*); returns the
        count its header declares."""
        path = aux[: -len("aux")] + ext
        lines = open(path).read().splitlines(keepends=True)
        starts = [i for i, line in enumerate(lines) if line.startswith(record)]
        with open(path, "w") as f:
            f.writelines(lines[: starts[keep]])
        header = next(line for line in lines if line.startswith("Num"))
        return int(header.partition(":")[2])

    def test_full_bundle_matches_its_counts(self, bundle):
        design = read_bookshelf(bundle)
        assert len(design.cells) == 40
        assert len(design.floorplan.rows) > 3
        assert len(design.netlist) > 5

    def test_truncated_nodes(self, bundle):
        declared = self._truncate(bundle, "nodes", "  ", 20)
        with pytest.raises(
            ValueError,
            match=rf"cut\.nodes: NumNodes declares {declared} node lines "
            "but 20 were read",
        ):
            read_bookshelf(bundle)

    def test_truncated_scl(self, bundle):
        declared = self._truncate(bundle, "scl", "CoreRow", 3)
        with pytest.raises(
            ValueError,
            match=rf"cut\.scl: NumRows declares {declared} CoreRow blocks "
            "but 3 were read",
        ):
            read_bookshelf(bundle)

    def test_garbled_count_names_the_file(self, bundle):
        path = bundle[: -len("aux")] + "nodes"
        text = open(path).read().replace("NumNodes : 40", "NumNodes : 4O")
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(ValueError, match=r"cut\.nodes: malformed header 'NumNodes : 4O'"):
            read_bookshelf(bundle)

    def test_truncated_nets(self, bundle):
        declared = self._truncate(bundle, "nets", "NetDegree", 5)
        with pytest.raises(
            ValueError,
            match=rf"cut\.nets: NumNets declares {declared} NetDegree headers "
            "but 5 were read",
        ):
            read_bookshelf(bundle)


class TestDamagedRecords:
    """A damaged record raises a ``ValueError`` naming its file and line."""

    @pytest.fixture
    def bundle(self, tmp_path):
        design = generate_design(GeneratorConfig(num_cells=40, seed=3, name="cut"))
        legalize(design, LegalizerConfig(seed=3))
        return write_bookshelf(design, str(tmp_path))

    @staticmethod
    def _damage(aux, ext, cell, edit):
        """Replace the record of *cell* in ``.ext`` by ``edit(tokens)``;
        returns its 1-based line number."""
        path = aux[: -len("aux")] + ext
        with open(path) as f:
            lines = f.readlines()
        index = next(
            i for i, line in enumerate(lines) if line.split()[:1] == [cell]
        )
        lines[index] = "  " + " ".join(edit(lines[index].split())) + "\n"
        with open(path, "w") as f:
            f.writelines(lines)
        return index + 1

    def test_nodes_record_cut_to_two_tokens(self, bundle):
        lineno = self._damage(bundle, "nodes", "c12", lambda t: t[:2])
        with pytest.raises(
            ValueError, match=rf"cut\.nodes:{lineno}: node record 'c12 5' needs"
        ):
            read_bookshelf(bundle)

    def test_nodes_width_not_a_number(self, bundle):
        lineno = self._damage(bundle, "nodes", "c12", lambda t: [t[0], "5x", *t[2:]])
        with pytest.raises(
            ValueError, match=rf"cut\.nodes:{lineno}: node record 'c12 5x 1' needs"
        ):
            read_bookshelf(bundle)

    def test_pl_coordinate_not_a_number(self, bundle):
        lineno = self._damage(bundle, "pl", "c12", lambda t: [t[0], t[1], "2y", *t[3:]])
        with pytest.raises(
            ValueError, match=rf"cut\.pl:{lineno}: record 'c12 12 2y .*' of cell 'c12'"
        ):
            read_bookshelf(bundle)

    def test_pl_record_of_known_cell_cut_short(self, bundle):
        lineno = self._damage(bundle, "pl", "c12", lambda t: t[:2])
        with pytest.raises(
            ValueError, match=rf"cut\.pl:{lineno}: record 'c12 12' of cell 'c12'"
        ):
            read_bookshelf(bundle)

    @staticmethod
    def _damage_line(aux, ext, prefix, edit):
        """Replace the first line of ``.ext`` starting with *prefix* by
        ``edit(tokens)``; returns its 1-based line number."""
        path = aux[: -len("aux")] + ext
        with open(path) as f:
            lines = f.readlines()
        index = next(i for i, line in enumerate(lines) if line.strip().startswith(prefix))
        lines[index] = "  " + " ".join(edit(lines[index].split())) + "\n"
        with open(path, "w") as f:
            f.writelines(lines)
        return index + 1

    def test_nodes_unknown_rail(self, bundle):
        lineno = self._damage(bundle, "nodes", "c12", lambda t: [*t, "rail=XYZ"])
        with pytest.raises(
            ValueError, match=rf"cut\.nodes:{lineno}: node record 'c12 5 1 rail=XYZ' has a bad rail 'XYZ'"
        ):
            read_bookshelf(bundle)

    def test_nodes_region_not_a_number(self, bundle):
        lineno = self._damage(bundle, "nodes", "c12", lambda t: [*t, "region=abc"])
        with pytest.raises(
            ValueError, match=rf"cut\.nodes:{lineno}: node record 'c12 5 1 region=abc' has a bad region 'abc'"
        ):
            read_bookshelf(bundle)

    def test_nodes_width_infinite(self, bundle):
        lineno = self._damage(bundle, "nodes", "c12", lambda t: [t[0], "inf", *t[2:]])
        with pytest.raises(
            ValueError, match=rf"cut\.nodes:{lineno}: node record 'c12 inf 1' needs"
        ):
            read_bookshelf(bundle)

    def test_nets_pin_offset_not_a_number(self, bundle):
        lineno = self._damage(bundle, "nets", "c12", lambda t: [*t[:3], "2.5q", *t[4:]])
        with pytest.raises(
            ValueError, match=rf"cut\.nets:{lineno}: pin record 'c12 B : 2\.5q 0\.7 b' needs"
        ):
            read_bookshelf(bundle)

    def test_nets_pin_offset_infinite(self, bundle):
        lineno = self._damage(bundle, "nets", "c12", lambda t: [*t[:4], "-inf", *t[5:]])
        with pytest.raises(
            ValueError, match=rf"cut\.nets:{lineno}: pin record 'c12 B : 2\.5 -inf b' needs"
        ):
            read_bookshelf(bundle)

    def test_scl_coordinate_not_a_number(self, bundle):
        lineno = self._damage_line(bundle, "scl", "Coordinate", lambda t: [*t[:2], "abc"])
        with pytest.raises(
            ValueError, match=rf"cut\.scl:{lineno}: malformed record 'Coordinate : abc'"
        ):
            read_bookshelf(bundle)

    def test_scl_subrow_without_numsites(self, bundle):
        lineno = self._damage_line(bundle, "scl", "SubrowOrigin", lambda t: t[:3])
        with pytest.raises(
            ValueError, match=rf"cut\.scl:{lineno}: malformed record 'SubrowOrigin : 0'"
        ):
            read_bookshelf(bundle)

    def test_scl_numsites_nan(self, bundle):
        lineno = self._damage_line(bundle, "scl", "SubrowOrigin", lambda t: [*t[:-1], "nan"])
        with pytest.raises(
            ValueError, match=rf"cut\.scl:{lineno}: malformed record 'SubrowOrigin : 0 NumSites : nan'"
        ):
            read_bookshelf(bundle)

    def test_scl_site_microns_cut_short(self, bundle):
        lineno = self._damage_line(bundle, "scl", "# SiteMicrons", lambda t: t[:3])
        with pytest.raises(
            ValueError, match=rf"cut\.scl:{lineno}: malformed record '# SiteMicrons 0\.2'"
        ):
            read_bookshelf(bundle)

    def test_pl_gp_not_finite(self, bundle):
        # float() accepts "inf"; the record must not load, or legalize
        # later fails far from the cause.
        lineno = self._damage(bundle, "pl", "c12", lambda t: [*t[:7], "inf", *t[8:]])
        with pytest.raises(
            ValueError, match=rf"cut\.pl:{lineno}: record 'c12 12 2 : N # gp inf .*' of cell 'c12' needs finite"
        ):
            read_bookshelf(bundle)

    def test_pl_coordinate_not_finite(self, bundle):
        lineno = self._damage(bundle, "pl", "c12", lambda t: [t[0], "nan", *t[2:]])
        with pytest.raises(
            ValueError, match=rf"cut\.pl:{lineno}: record 'c12 nan 2 .*' of cell 'c12' needs finite"
        ):
            read_bookshelf(bundle)

    def test_pl_record_names_unknown_cell(self, bundle):
        # Skipping it would leave c12 unplaced at GP (0, 0).
        lineno = self._damage(bundle, "pl", "c12", lambda t: ["ghost12", *t[1:]])
        with pytest.raises(
            ValueError, match=rf"cut\.pl:{lineno}: record 'ghost12 12 2 .*' names unknown cell 'ghost12'"
        ):
            read_bookshelf(bundle)

    def test_nets_pin_names_unknown_cell(self, bundle):
        lineno = self._damage(bundle, "nets", "c12", lambda t: ["ghost12", *t[1:]])
        with pytest.raises(
            ValueError, match=rf"cut\.nets:{lineno}: pin record 'ghost12 B : .*' names unknown cell 'ghost12'"
        ):
            read_bookshelf(bundle)

    def test_nets_degree_disagrees_with_pins(self, bundle):
        lineno = self._damage_line(bundle, "nets", "NetDegree", lambda t: [*t[:2], "6", *t[3:]])
        with pytest.raises(
            ValueError, match=rf"cut\.nets:{lineno}: net 'n0' declares NetDegree 6 but 5 pins were read"
        ):
            read_bookshelf(bundle)
