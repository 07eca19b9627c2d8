"""Bookshelf placement format reader/writer.

The Bookshelf format is a family of plain-text files tied together by an
``.aux`` index:

* ``.nodes`` — one line per cell: name, width, height (we use site
  units, consistent with the rest of the library);
* ``.pl`` — positions: name, x, y, orientation (``: N``); the current
  legalized position when placed, otherwise the GP position;
* ``.scl`` — row records (CoreRow blocks with Coordinate, Height,
  SubrowOrigin, NumSites and Siteorient);
* ``.nets`` — net records with per-pin cell name and offsets.

Deviations, all documented here:

* Dimensions and coordinates are written in **site units** (Bookshelf
  does not mandate a unit; site units round-trip exactly).
* A fourth token on a ``.nodes`` line records the bottom power rail of
  even-height masters (``rail=VDD``/``rail=GND``) — information the
  stock format cannot express but constraint 4 requires.
* Row power rails are encoded in ``Siteorient`` (``N`` = GND bottom,
  ``FS`` = VDD bottom), mirroring how real row flipping alternates.
* The GP position of each cell is written as a comment suffix on its
  ``.pl`` line (``# gp <x> <y>``) so displacement baselines survive a
  round-trip.
"""

from __future__ import annotations

import math
import os

from repro.db.design import Design, PlacementError
from repro.db.floorplan import Floorplan
from repro.db.journal import Transaction
from repro.db.library import Library, Rail
from repro.db.netlist import Net, Netlist, Pin


def write_bookshelf(design: Design, directory: str, name: str | None = None) -> str:
    """Write *design* as a Bookshelf bundle; returns the .aux path."""
    name = name if name is not None else design.name
    os.makedirs(directory, exist_ok=True)

    def path(ext: str) -> str:
        return os.path.join(directory, f"{name}.{ext}")

    _write_nodes(design, path("nodes"))
    _write_pl(design, path("pl"))
    _write_scl(design, path("scl"))
    _write_nets(design, path("nets"))
    with open(path("aux"), "w") as f:
        f.write(
            f"RowBasedPlacement : {name}.nodes {name}.nets "
            f"{name}.pl {name}.scl\n"
        )
    return path("aux")


def _write_nodes(design: Design, path: str) -> None:
    with open(path, "w") as f:
        f.write("UCLA nodes 1.0\n\n")
        f.write(f"NumNodes : {len(design.cells)}\n")
        terminals = sum(1 for c in design.cells if c.fixed)
        f.write(f"NumTerminals : {terminals}\n")
        for c in design.cells:
            rail = (
                f" rail={c.master.bottom_rail.value}"
                if c.master.bottom_rail is not None
                else ""
            )
            term = " terminal" if c.fixed else ""
            region = f" region={c.region}" if c.region is not None else ""
            f.write(f"  {c.name} {c.width} {c.height}{term}{rail}{region}\n")


def _write_pl(design: Design, path: str) -> None:
    with open(path, "w") as f:
        f.write("UCLA pl 1.0\n\n")
        for c in design.cells:
            if c.is_placed:
                x, y = c.x, c.y
                orient = design.orientation_of(c)
                marker = ""
            else:
                x, y = c.gp_x, c.gp_y
                orient = "N"
                marker = " unplaced"  # integral GP must not read as placed
            f.write(
                f"  {c.name} {x} {y} : {orient} "
                f"# gp {c.gp_x!r} {c.gp_y!r}{marker}\n"
            )


def _write_scl(design: Design, path: str) -> None:
    fp = design.floorplan
    with open(path, "w") as f:
        f.write("UCLA scl 1.0\n\n")
        f.write(f"NumRows : {fp.num_rows}\n\n")
        for row in fp.rows:
            orient = "N" if row.bottom_rail is Rail.GND else "FS"
            f.write("CoreRow Horizontal\n")
            f.write(f"  Coordinate   : {row.index}\n")
            f.write("  Height       : 1\n")
            f.write("  Sitewidth    : 1\n")
            f.write("  Sitespacing  : 1\n")
            f.write(f"  Siteorient   : {orient}\n")
            f.write("  Sitesymmetry : Y\n")
            f.write(f"  SubrowOrigin : {row.x0}  NumSites : {row.width}\n")
            f.write("End\n")
        # Site metrics as a trailing comment for exact round-trips.
        f.write(
            f"# SiteMicrons {fp.site_width_um!r} {fp.site_height_um!r}\n"
        )
        for b in fp.blockages:
            f.write(f"# Blockage {int(b.x)} {int(b.y)} {int(b.w)} {int(b.h)}\n")
        for fence in fp.fences:
            for r in fence.rects:
                f.write(
                    f"# Fence {fence.id} {fence.name} "
                    f"{int(r.x)} {int(r.y)} {int(r.w)} {int(r.h)}\n"
                )


def _write_nets(design: Design, path: str) -> None:
    nets = design.netlist
    num_pins = sum(len(n.pins) for n in nets)
    with open(path, "w") as f:
        f.write("UCLA nets 1.0\n\n")
        f.write(f"NumNets : {len(nets)}\n")
        f.write(f"NumPins : {num_pins}\n")
        for net in nets:
            f.write(f"NetDegree : {len(net.pins)}  {net.name}\n")
            for pin in net.pins:
                pname = f" {pin.name}" if pin.name else ""
                f.write(
                    f"  {pin.cell.name} B : {pin.dx!r} {pin.dy!r}{pname}\n"
                )


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def read_bookshelf(aux_path: str) -> Design:
    """Read a Bookshelf bundle written by :func:`write_bookshelf`.

    Also accepts stock Bookshelf files (the rail/GP extensions are
    optional); cells then get default rail parity and GP = .pl position.
    """
    directory = os.path.dirname(aux_path)
    with open(aux_path) as f:
        line = f.readline()
    _, _, files = line.partition(":")
    file_map: dict[str, str] = {}
    for token in files.split():
        ext = token.rsplit(".", 1)[-1]
        file_map[ext] = os.path.join(directory, token)
    name = os.path.basename(aux_path).rsplit(".", 1)[0]

    floorplan = _read_scl(file_map["scl"])
    design = Design(floorplan, Library(), Netlist(), name=name)
    _read_nodes(design, file_map["nodes"])
    _read_pl(design, file_map["pl"])
    if "nets" in file_map and os.path.exists(file_map["nets"]):
        _read_nets(design, file_map["nets"])
    return design


def _finite(token: str) -> float:
    """A finite float; ``ValueError`` otherwise (``float()`` alone
    accepts ``nan`` and ``inf``)."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


def _site_int(token: str) -> int:
    """A whole site count or coordinate, written ``12`` or ``12.0``;
    ``ValueError`` for anything else, ``nan`` and ``inf`` included."""
    return int(_finite(token))


def _declared_count(path: str, line: str) -> int:
    """The value of a ``NumX : n`` header line of *path*."""
    try:
        return int(line.partition(":")[2])
    except ValueError:
        raise ValueError(f"{path}: malformed header {line!r}") from None


def _check_count(
    path: str, header: str, declared: int | None, read: int, what: str
) -> None:
    """Reject a file whose records disagree with its declared count — a
    truncated file would otherwise load as a smaller design."""
    if declared is not None and declared != read:
        raise ValueError(
            f"{path}: {header} declares {declared} {what} but {read} were read"
        )


def _read_scl(path: str) -> Floorplan:
    from repro.db.fence import FenceRegion
    from repro.geometry import Rect

    rows: list[tuple[int, int, int, Rail]] = []
    site_w, site_h = 0.2, 1.71
    blockages: list[Rect] = []
    fence_rects: dict[int, tuple[str, list[Rect]]] = {}
    coord = height = origin = nsites = None
    orient = "N"
    declared: int | None = None
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if line.startswith("NumRows"):
                declared = _declared_count(path, line)
                continue
            try:
                if line.startswith("# SiteMicrons"):
                    parts = line.split()
                    site_w, site_h = _finite(parts[2]), _finite(parts[3])
                    continue
                if line.startswith("# Blockage"):
                    parts = line.split()
                    blockages.append(
                        Rect(int(parts[2]), int(parts[3]), int(parts[4]), int(parts[5]))
                    )
                    continue
                if line.startswith("# Fence"):
                    parts = line.split()
                    fid, fname = int(parts[2]), parts[3]
                    rect = Rect(
                        int(parts[4]), int(parts[5]), int(parts[6]), int(parts[7])
                    )
                    fence_rects.setdefault(fid, (fname, []))[1].append(rect)
                    continue
                if not line or line.startswith("#"):
                    continue
                if line.startswith("CoreRow"):
                    coord = origin = nsites = None
                    orient = "N"
                elif line.startswith("Coordinate"):
                    coord = _site_int(line.split(":")[1])
                elif line.startswith("Siteorient"):
                    orient = line.split(":")[1].strip()
                elif line.startswith("SubrowOrigin"):
                    parts = line.replace(":", " ").split()
                    origin = _site_int(parts[1])
                    nsites = _site_int(parts[3])
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}:{lineno}: malformed record {line!r}"
                ) from None
            if line.startswith("End"):
                if coord is None or origin is None or nsites is None:
                    raise ValueError(f"malformed CoreRow block in {path}")
                rail = Rail.GND if orient == "N" else Rail.VDD
                rows.append((coord, origin, nsites, rail))
    _check_count(path, "NumRows", declared, len(rows), "CoreRow blocks")
    if not rows:
        raise ValueError(f"no rows in {path}")
    rows.sort()
    num_rows = len(rows)
    row_width = max(origin + nsites for _, origin, nsites, _ in rows)
    first_rail = rows[0][3]
    fences = [
        FenceRegion(id=fid, name=fname, rects=tuple(rects))
        for fid, (fname, rects) in sorted(fence_rects.items())
    ]
    return Floorplan(
        num_rows=num_rows,
        row_width=row_width,
        site_width_um=site_w,
        site_height_um=site_h,
        first_rail=first_rail,
        blockages=blockages,
        fences=fences,
    )


def _read_nodes(design: Design, path: str) -> None:
    declared: int | None = None
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if line.startswith("NumNodes"):
                declared = _declared_count(path, line)
                continue
            if (
                not line
                or line.startswith("#")
                or line.startswith("UCLA")
                or line.startswith("NumTerminals")
            ):
                continue
            parts = line.split()
            try:
                name, w, h = parts[0], _site_int(parts[1]), _site_int(parts[2])
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}:{lineno}: node record {line!r} needs a name, "
                    f"a numeric width and a numeric height"
                ) from None
            fixed = "terminal" in parts[3:]
            rail: Rail | None = None
            region: int | None = None
            for token in parts[3:]:
                key, _, value = token.partition("=")
                try:
                    if key == "rail":
                        rail = Rail[value]
                    elif key == "region":
                        region = int(value)
                except (KeyError, ValueError):
                    raise ValueError(
                        f"{path}:{lineno}: node record {line!r} has a bad "
                        f"{key} {value!r}"
                    ) from None
            if h % 2 == 0 and rail is None:
                rail = Rail.VDD
            master = design.library.get_or_create(w, h, rail)
            design.add_cell(master, name=name, fixed=fixed, region=region)
    _check_count(path, "NumNodes", declared, len(design.cells), "node lines")


def _read_pl(design: Design, path: str) -> None:
    by_name = {c.name: c for c in design.cells}
    # The read owns the commit-or-restore decision: a parse error
    # mid-file rolls the partial placement back instead of leaving a
    # half-placed design.
    with Transaction(design):
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith(("#", "UCLA")):
                    continue
                body, _, comment = line.partition("#")
                parts = body.split()
                if not parts:
                    continue
                cell = by_name.get(parts[0])
                if cell is None:
                    raise ValueError(
                        f"{path}:{lineno}: record {line!r} names unknown "
                        f"cell {parts[0]!r}"
                    )
                ctoks = comment.split()
                try:
                    x, y = _finite(parts[1]), _finite(parts[2])
                    if len(ctoks) >= 3 and ctoks[0] == "gp":
                        cell.gp_x, cell.gp_y = _finite(ctoks[1]), _finite(ctoks[2])
                    else:
                        cell.gp_x, cell.gp_y = x, y
                except (IndexError, ValueError):
                    raise ValueError(
                        f"{path}:{lineno}: record {line!r} of cell "
                        f"{cell.name!r} needs finite numeric coordinates"
                    ) from None
                if "unplaced" in ctoks:
                    continue
                if x == int(x) and y == int(y):
                    try:
                        design.place(cell, int(x), int(y), validate=False)
                    except PlacementError:
                        # place() raises before mutating: stays unplaced
                        pass


def _read_nets(design: Design, path: str) -> None:
    by_name = {c.name: c for c in design.cells}
    # The open net's (header line, name or None, NetDegree) and pins.
    header: tuple[int, str | None, int] | None = None
    pins: list[Pin] = []
    declared: int | None = None
    headers = 0
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if line.startswith("NumNets"):
                declared = _declared_count(path, line)
                continue
            if not line or line.startswith(("#", "UCLA", "NumPins")):
                continue
            parts = line.replace(":", " ").split()
            if line.startswith("NetDegree"):
                _add_net(design, path, header, pins)
                try:
                    degree = int(parts[1])
                except (IndexError, ValueError):
                    raise ValueError(
                        f"{path}:{lineno}: malformed record {line!r}"
                    ) from None
                header = (lineno, parts[-1] if len(parts) >= 3 else None, degree)
                pins = []
                headers += 1
                continue
            cell = by_name.get(parts[0])
            if cell is None:
                raise ValueError(
                    f"{path}:{lineno}: pin record {line!r} names unknown "
                    f"cell {parts[0]!r}"
                )
            if header is None:
                raise ValueError(
                    f"{path}:{lineno}: pin record {line!r} precedes any "
                    f"NetDegree header"
                )
            try:
                dx = _finite(parts[2]) if len(parts) > 2 else 0.0
                dy = _finite(parts[3]) if len(parts) > 3 else 0.0
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: pin record {line!r} needs finite "
                    f"numeric offsets"
                ) from None
            pname = parts[4] if len(parts) > 4 else ""
            pins.append(Pin(cell=cell, dx=dx, dy=dy, name=pname))
    _add_net(design, path, header, pins)
    _check_count(path, "NumNets", declared, headers, "NetDegree headers")


def _add_net(
    design: Design,
    path: str,
    header: tuple[int, str | None, int] | None,
    pins: list[Pin],
) -> None:
    """Add the net *header* opened to the netlist; raise if its pin
    count differs from its ``NetDegree``.  A net of no pins is dropped."""
    if header is None:
        return
    lineno, name, degree = header
    net_name = name if name is not None else f"net{len(design.netlist)}"
    if len(pins) != degree:
        raise ValueError(
            f"{path}:{lineno}: net {net_name!r} declares NetDegree "
            f"{degree} but {len(pins)} pins were read"
        )
    if pins:
        design.netlist.add(Net(name=net_name, pins=tuple(pins)))
