"""LEF/DEF-lite reader and writer.

The ISPD 2015 contest distributes its benchmarks as LEF (library) + DEF
(design) — the industry interchange pair.  This module implements the
subset those benchmarks exercise:

LEF:
* ``SITE`` — the core site with its micron dimensions,
* ``MACRO`` — ``CLASS CORE``, ``SIZE w BY h`` (microns), ``SYMMETRY``,
  optional ``PROPERTY bottomRail`` (our rail-parity extension — stock
  LEF encodes this in power-pin geometry, which we do not model), and
  ``PIN`` blocks whose single ``RECT`` centers on the pin offset.

DEF:
* ``UNITS DISTANCE MICRONS`` (database units per micron),
* ``DIEAREA``,
* ``ROW`` statements (``DO n BY 1 STEP``), with the orientation carrying
  the row's bottom rail (``N`` = GND, ``FS`` = VDD),
* ``REGIONS`` of ``TYPE FENCE`` plus ``GROUPS`` binding components to
  them,
* ``COMPONENTS`` — ``PLACED ( x y ) orient``, ``UNPLACED``, or ``FIXED``,
  with the GP position as a ``+ PROPERTY gp`` record,
* ``NETS`` — ``( comp pin )`` terminal pairs,
* blockages via a ``BLOCKAGES``/``PLACEMENT`` section.

Coordinates in DEF are integers in database units; with the default
1000 DBU/micron and the ISPD site (0.2 x 1.71 um), one site is exactly
200 x 1710 DBU, so positions round-trip without loss.
"""

from __future__ import annotations

import os
import re

from repro.db.design import Design
from repro.db.fence import FenceRegion
from repro.db.floorplan import Floorplan
from repro.db.library import CellMaster, Library, PinOffset, Rail
from repro.db.netlist import Net, Netlist, Pin
from repro.geometry import Rect
from repro.io.bookshelf import _finite

DBU_PER_MICRON = 1000


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
def write_lefdef(
    design: Design, directory: str, name: str | None = None
) -> tuple[str, str]:
    """Write *design* as ``<name>.lef`` + ``<name>.def``; returns paths."""
    name = name if name is not None else design.name
    os.makedirs(directory, exist_ok=True)
    lef_path = os.path.join(directory, f"{name}.lef")
    def_path = os.path.join(directory, f"{name}.def")
    _write_lef(design, lef_path)
    _write_def(design, def_path, name)
    return lef_path, def_path


def _write_lef(design: Design, path: str) -> None:
    fp = design.floorplan
    sw, sh = fp.site_width_um, fp.site_height_um
    with open(path, "w") as f:
        f.write('VERSION 5.8 ;\nBUSBITCHARS "[]" ;\nDIVIDERCHAR "/" ;\n\n')
        f.write("SITE core\n")
        f.write("  CLASS CORE ;\n")
        f.write(f"  SIZE {sw:g} BY {sh:g} ;\n")
        f.write("  SYMMETRY Y ;\n")
        f.write("END core\n\n")
        for master in sorted(design.library, key=lambda m: m.name):
            f.write(f"MACRO {master.name}\n")
            f.write("  CLASS CORE ;\n")
            f.write("  ORIGIN 0 0 ;\n")
            f.write(
                f"  SIZE {master.width * sw:g} BY {master.height * sh:g} ;\n"
            )
            f.write("  SYMMETRY X Y ;\n")
            f.write("  SITE core ;\n")
            if master.bottom_rail is not None:
                f.write(
                    f'  PROPERTY bottomRail "{master.bottom_rail.value}" ;\n'
                )
            for pin in master.pins:
                x_um, y_um = pin.dx * sw, pin.dy * sh
                f.write(f"  PIN {pin.name}\n")
                f.write("    DIRECTION INOUT ;\n")
                f.write("    PORT\n")
                f.write("      LAYER metal1 ;\n")
                f.write(
                    f"        RECT {x_um - 0.01:.9f} {y_um - 0.01:.9f} "
                    f"{x_um + 0.01:.9f} {y_um + 0.01:.9f} ;\n"
                )
                f.write("    END\n")
                f.write(f"  END {pin.name}\n")
            f.write(f"END {master.name}\n\n")
        f.write("END LIBRARY\n")


def _write_def(design: Design, path: str, name: str) -> None:
    fp = design.floorplan
    sw, sh = fp.site_width_um, fp.site_height_um
    units = DBU_PER_MICRON

    def dbu_x(sites: float) -> int:
        return round(sites * sw * units)

    def dbu_y(rows: float) -> int:
        return round(rows * sh * units)

    with open(path, "w") as f:
        f.write(f'VERSION 5.8 ;\nDIVIDERCHAR "/" ;\nBUSBITCHARS "[]" ;\n')
        f.write(f"DESIGN {name} ;\n")
        f.write(f"UNITS DISTANCE MICRONS {units} ;\n\n")
        f.write(
            f"DIEAREA ( 0 0 ) ( {dbu_x(fp.row_width)} {dbu_y(fp.num_rows)} ) ;\n\n"
        )
        for row in fp.rows:
            orient = "N" if row.bottom_rail is Rail.GND else "FS"
            f.write(
                f"ROW row_{row.index} core {dbu_x(row.x0)} {dbu_y(row.index)} "
                f"{orient} DO {row.width} BY 1 STEP {dbu_x(1)} 0 ;\n"
            )
        f.write("\n")

        if fp.blockages:
            f.write(f"BLOCKAGES {len(fp.blockages)} ;\n")
            for b in fp.blockages:
                f.write(
                    "  - PLACEMENT RECT "
                    f"( {dbu_x(b.x)} {dbu_y(b.y)} ) "
                    f"( {dbu_x(b.x1)} {dbu_y(b.y1)} ) ;\n"
                )
            f.write("END BLOCKAGES\n\n")

        if fp.fences:
            f.write(f"REGIONS {len(fp.fences)} ;\n")
            for fence in fp.fences:
                rects = " ".join(
                    f"( {dbu_x(r.x)} {dbu_y(r.y)} ) "
                    f"( {dbu_x(r.x1)} {dbu_y(r.y1)} )"
                    for r in fence.rects
                )
                f.write(f"  - {fence.name} {rects} + TYPE FENCE ;\n")
            f.write("END REGIONS\n\n")
            f.write(f"GROUPS {len(fp.fences)} ;\n")
            for fence in fp.fences:
                members = " ".join(
                    c.name for c in design.cells if c.region == fence.id
                )
                f.write(
                    f"  - group_{fence.name} {members} "
                    f"+ REGION {fence.name} ;\n"
                )
            f.write("END GROUPS\n\n")

        f.write(f"COMPONENTS {len(design.cells)} ;\n")
        for c in design.cells:
            f.write(f"  - {c.name} {c.master.name}\n")
            if c.is_placed:
                kind = "FIXED" if c.fixed else "PLACED"
                orient = design.orientation_of(c)
                f.write(
                    f"    + {kind} ( {dbu_x(c.x)} {dbu_y(c.y)} ) {orient}\n"
                )
            else:
                f.write("    + UNPLACED\n")
            f.write(f'    + PROPERTY gp "{c.gp_x!r} {c.gp_y!r}" ;\n')
        f.write("END COMPONENTS\n\n")

        nets = design.netlist
        f.write(f"NETS {len(nets)} ;\n")
        for net in nets:
            terms = " ".join(
                f"( {p.cell.name} {p.name or 'o'} )" for p in net.pins
            )
            f.write(f"  - {net.name} {terms} ;\n")
        f.write("END NETS\n\n")
        f.write(f"END DESIGN\n")


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def read_lefdef(lef_path: str, def_path: str) -> Design:
    """Read a LEF/DEF pair written by :func:`write_lefdef`.

    Accepts the documented subset; statements outside it are skipped,
    and so are ``( PIN name )`` net terminals (I/O pins).  A component
    naming a macro the LEF lacks, a net terminal naming an unknown
    component, a section without its ``END`` and a ``COMPONENTS n ;`` or
    ``NETS n ;`` count the records disagree with raise ``ValueError``
    naming ``<def path>:<line>``.
    """
    library, site = _read_lef(lef_path)
    return _read_def(def_path, library, site)


def _read_lef(path: str) -> tuple[Library, tuple[float, float]]:
    library = Library()
    site = (0.2, 1.71)
    with open(path) as f:
        text = f.read()
    site_match = re.search(
        r"SITE\s+(\S+).*?SIZE\s+([\d.]+)\s+BY\s+([\d.]+)\s*;.*?END\s+\1",
        text,
        re.S,
    )
    if site_match:
        site = (float(site_match.group(2)), float(site_match.group(3)))
    sw, sh = site
    for m in re.finditer(r"MACRO\s+(\S+)(.*?)END\s+\1\s*\n", text, re.S):
        mname, body = m.group(1), m.group(2)
        size = re.search(r"SIZE\s+([\d.]+)\s+BY\s+([\d.]+)\s*;", body)
        if not size:
            continue
        width = round(float(size.group(1)) / sw)
        height = round(float(size.group(2)) / sh)
        rail = None
        prop = re.search(r'PROPERTY\s+bottomRail\s+"(\w+)"', body)
        if prop:
            rail = Rail[prop.group(1)]
        elif height % 2 == 0:
            rail = Rail.VDD
        pins = []
        for pm in re.finditer(
            r"PIN\s+(\S+)(.*?)END\s+\1", body, re.S
        ):
            pname, pbody = pm.group(1), pm.group(2)
            rect = re.search(
                r"RECT\s+([-\d.]+)\s+([-\d.]+)\s+([-\d.]+)\s+([-\d.]+)",
                pbody,
            )
            if rect:
                cx = (float(rect.group(1)) + float(rect.group(3))) / 2
                cy = (float(rect.group(2)) + float(rect.group(4))) / 2
                pins.append(PinOffset(name=pname, dx=cx / sw, dy=cy / sh))
        library.add(
            CellMaster(
                name=mname,
                width=width,
                height=height,
                bottom_rail=rail,
                pins=tuple(pins),
            )
        )
    return library, site


def _line(text: str, offset: int) -> int:
    """The 1-based line of *text* that holds *offset*."""
    return text.count("\n", 0, offset) + 1


def _section(path: str, text: str, keyword: str) -> tuple[int, int, str] | None:
    """``(declared count, offset, body)`` of *text*'s ``KEYWORD n ;`` ...
    ``END KEYWORD`` section, or ``None`` without one.  A section that
    never ends is a cut-short file: ``ValueError``."""
    head = re.search(rf"^[ \t]*{keyword}\s+(\d+)\s*;", text, re.M)
    if head is None:
        return None
    end = re.compile(rf"^[ \t]*END\s+{keyword}\b", re.M).search(text, head.end())
    if end is None:
        raise ValueError(
            f"{path}:{_line(text, head.start())}: {keyword} section has no "
            f"END {keyword}"
        )
    return int(head.group(1)), head.end(), text[head.end() : end.start()]


def _check_declared(
    path: str, text: str, keyword: str, section: tuple[int, int, str], read: int
) -> None:
    """Reject a section whose records disagree with its declared count."""
    declared, offset, _ = section
    if read != declared:
        raise ValueError(
            f"{path}:{_line(text, offset)}: {keyword} declares {declared} "
            f"records but {read} were read"
        )


def _read_def(
    path: str, library: Library, site: tuple[float, float]
) -> Design:
    sw, sh = site
    with open(path) as f:
        text = f.read()

    units_m = re.search(r"UNITS\s+DISTANCE\s+MICRONS\s+(\d+)", text)
    units = int(units_m.group(1)) if units_m else DBU_PER_MICRON

    def sites_x(dbu: str) -> float:
        return float(dbu) / units / sw

    def rows_y(dbu: str) -> float:
        return float(dbu) / units / sh

    name_m = re.search(r"DESIGN\s+(\S+)\s*;", text)
    design_name = name_m.group(1) if name_m else "design"
    sections = {
        keyword: _section(path, text, keyword)
        for keyword in ("BLOCKAGES", "REGIONS", "GROUPS", "COMPONENTS", "NETS")
    }
    if name_m and not re.search(r"^[ \t]*END\s+DESIGN\b", text, re.M):
        raise ValueError(
            f"{path}:{_line(text, name_m.start())}: DESIGN has no END DESIGN"
        )

    # Rows: every ROW statement loads, or the file is refused.
    rows = []
    for statement in re.finditer(r"^[ \t]*ROW\s[^;]*", text, re.M):
        rm = re.fullmatch(
            r"\s*ROW\s+\S+\s+\S+\s+(\d+)\s+(\d+)\s+(\w+)\s+DO\s+(\d+)"
            r"\s+BY\s+(\d+)(?:\s+STEP\s+\d+\s+\d+)?\s*",
            statement.group(),
        )
        if rm is None or rm.group(5) != "1":
            reason = (
                "malformed ROW statement"
                if rm is None
                else f"ROW ... BY {rm.group(5)} is not supported "
                f"(one row per ROW statement)"
            )
            raise ValueError(
                f"{path}:{_line(text, statement.start())}: {reason}"
            )
        x0 = round(sites_x(rm.group(1)))
        y = round(rows_y(rm.group(2)))
        rail = Rail.GND if rm.group(3) == "N" else Rail.VDD
        n_sites = int(rm.group(4))
        rows.append((y, x0, n_sites, rail))
    if not rows:
        raise ValueError(f"no ROW statements in {path}")
    rows.sort()
    first_rail = rows[0][3]
    num_rows = len(rows)
    row_width = max(x0 + n for _, x0, n, _ in rows)

    # Blockages.
    blockages = []
    blk_section = sections["BLOCKAGES"]
    if blk_section:
        for bm in re.finditer(
            r"RECT\s*\(\s*(\d+)\s+(\d+)\s*\)\s*\(\s*(\d+)\s+(\d+)\s*\)",
            blk_section[2],
        ):
            x = round(sites_x(bm.group(1)))
            y = round(rows_y(bm.group(2)))
            x1 = round(sites_x(bm.group(3)))
            y1 = round(rows_y(bm.group(4)))
            blockages.append(Rect(x, y, x1 - x, y1 - y))

    # Fence regions.
    fences: list[FenceRegion] = []
    fence_names: dict[str, int] = {}
    reg_section = sections["REGIONS"]
    if reg_section:
        for fm in re.finditer(
            r"-\s+(\S+)((?:\s*\(\s*\d+\s+\d+\s*\)\s*\(\s*\d+\s+\d+\s*\))+)"
            r"\s*\+\s*TYPE\s+FENCE",
            reg_section[2],
        ):
            fname = fm.group(1)
            rects = []
            for rm in re.finditer(
                r"\(\s*(\d+)\s+(\d+)\s*\)\s*\(\s*(\d+)\s+(\d+)\s*\)",
                fm.group(2),
            ):
                x = round(sites_x(rm.group(1)))
                y = round(rows_y(rm.group(2)))
                x1 = round(sites_x(rm.group(3)))
                y1 = round(rows_y(rm.group(4)))
                rects.append(Rect(x, y, x1 - x, y1 - y))
            fid = len(fences)
            fence_names[fname] = fid
            fences.append(FenceRegion(id=fid, name=fname, rects=tuple(rects)))

    floorplan = Floorplan(
        num_rows=num_rows,
        row_width=row_width,
        site_width_um=sw,
        site_height_um=sh,
        first_rail=first_rail,
        blockages=blockages,
        fences=fences,
    )
    design = Design(floorplan, library, Netlist(), name=design_name)

    # Group membership: component name -> region id.
    member_region: dict[str, int] = {}
    grp_section = sections["GROUPS"]
    if grp_section:
        for gm in re.finditer(
            r"-\s+\S+\s+(.*?)\+\s*REGION\s+(\S+)\s*;",
            grp_section[2],
            re.S,
        ):
            fid = fence_names.get(gm.group(2))
            if fid is None:
                continue
            for comp in gm.group(1).split():
                member_region[comp] = fid

    # Components.
    comp_section = sections["COMPONENTS"]
    placements: list[tuple] = []
    if comp_section:
        _, start, records = comp_section
        for cm in re.finditer(r"-\s+(\S+)\s+(\S+)\s*(.*?);", records, re.S):
            cname, mname, body = cm.group(1), cm.group(2), cm.group(3)
            if mname not in library:
                raise ValueError(
                    f"{path}:{_line(text, start + cm.start())}: component "
                    f"{cname!r} names macro {mname!r}, which the LEF lacks"
                )
            master = library[mname]
            fixed = "+ FIXED" in body
            gp = re.search(r'PROPERTY\s+gp\b\s*(?:"([^"]*)")?', body)
            cell = design.add_cell(
                master,
                name=cname,
                fixed=fixed,
                region=member_region.get(cname),
            )
            placed = re.search(
                r"\+\s*(?:PLACED|FIXED)\s*\(\s*(\d+)\s+(\d+)\s*\)", body
            )
            if placed:
                x = round(sites_x(placed.group(1)))
                y = round(rows_y(placed.group(2)))
                placements.append((cell, x, y))
                cell.gp_x, cell.gp_y = float(x), float(y)
            if gp:  # exactly two finite numbers
                try:
                    gp_x, gp_y = (gp.group(1) or "").split()
                    cell.gp_x, cell.gp_y = _finite(gp_x), _finite(gp_y)
                except ValueError:
                    line = _line(text, start + cm.start(3) + gp.start())
                    raise ValueError(
                        f"{path}:{line}: component {cname!r} has gp "
                        f"property {gp.group(1)!r}; expected two finite "
                        f"numbers"
                    ) from None
        _check_declared(path, text, "COMPONENTS", comp_section, len(design.cells))
        for cell, x, y in placements:
            design.place(cell, x, y, validate=False)

    # Nets.
    by_name = {c.name: c for c in design.cells}
    nets_section = sections["NETS"]
    if nets_section:
        _, start, records = nets_section
        for nm in re.finditer(
            r"-\s+(\S+)((?:\s*\(\s*\S+\s+\S+\s*\))+)\s*;", records
        ):
            pins = []
            for tm in re.finditer(r"\(\s*(\S+)\s+(\S+)\s*\)", nm.group(2)):
                if tm.group(1) == "PIN":
                    continue  # an I/O pin, not a component terminal
                cell = by_name.get(tm.group(1))
                if cell is None:
                    line = _line(text, start + nm.start(2) + tm.start())
                    raise ValueError(
                        f"{path}:{line}: net {nm.group(1)!r} names unknown "
                        f"component {tm.group(1)!r}"
                    )
                offset = next(
                    (
                        p
                        for p in cell.master.pins
                        if p.name == tm.group(2)
                    ),
                    None,
                )
                if offset is not None:
                    pins.append(
                        Pin(
                            cell=cell,
                            dx=offset.dx,
                            dy=offset.dy,
                            name=offset.name,
                        )
                    )
                else:
                    pins.append(Pin(cell=cell, name=tm.group(2)))
            design.netlist.add(Net(name=nm.group(1), pins=tuple(pins)))
        _check_declared(path, text, "NETS", nets_section, len(design.netlist))
    return design
