"""Bookshelf placement-format I/O.

The ICCAD04 mixed-size benchmarks (ibm01–ibm18) the paper evaluates on are
distributed in the UCLA Bookshelf format.  This module reads and writes the
five standard files:

- ``.aux``   — manifest naming the other files
- ``.nodes`` — node names, sizes, and the ``terminal`` attribute
- ``.nets``  — nets with pin offsets (from node centers)
- ``.pl``    — placement (positions, orientation, ``/FIXED`` attribute)
- ``.scl``   — core rows (used here to derive the placement region and the
  row height that separates standard cells from macros)

Classification rules (matching common mixed-size practice):

- A node flagged ``terminal`` in ``.nodes`` is an :class:`IOPad` if it has
  (near-)zero area or lies outside the core region; otherwise it is a
  *preplaced macro*.
- A movable node taller than the row height is a :class:`Macro`; the rest
  are standard :class:`Cell` instances.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.netlist.model import (
    Cell,
    Design,
    IOPad,
    Macro,
    Net,
    Netlist,
    Pin,
    PlacementRegion,
)
from repro.runtime.errors import PlacementError


class BookshelfError(PlacementError, ValueError):
    """Raised on malformed Bookshelf input.

    Carries the offending ``file``, 1-based ``line`` number, and the raw
    line text in ``details`` so a malformed benchmark bundle is diagnosable
    from the message alone.  Subclasses ``ValueError`` for backward
    compatibility and :class:`~repro.runtime.errors.PlacementError` so the
    CLI maps it to a structured exit code.
    """


def _content_lines(path: str) -> list[tuple[int, str]]:
    """(line_number, text) for the non-empty, non-comment lines of a file."""
    lines: list[tuple[int, str]] = []
    try:
        f = open(path)
    except OSError as exc:
        raise BookshelfError(
            f"cannot open Bookshelf file: {exc}", file=path
        ) from exc
    with f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("UCLA"):
                continue
            lines.append((lineno, line))
    return lines


def _parse_float(
    text: str, path: str, lineno: int, line: str, what: str
) -> float:
    """Parse one finite number; ``nan``/``inf`` are rejected like garbage."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise BookshelfError(
            f"malformed {what} {text!r}",
            file=path,
            line=lineno,
            text=line,
        )
    return value


@dataclass
class _RawNode:
    name: str
    width: float
    height: float
    terminal: bool


def _parse_nodes(path: str) -> list[_RawNode]:
    nodes: list[_RawNode] = []
    for lineno, line in _content_lines(path):
        if line.startswith("NumNodes") or line.startswith("NumTerminals"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise BookshelfError(
                "bad .nodes line: expected 'name width height [terminal]'",
                file=path, line=lineno, text=line,
            )
        terminal = len(parts) > 3 and parts[3].lower().startswith("terminal")
        w = _parse_float(parts[1], path, lineno, line, "node width")
        h = _parse_float(parts[2], path, lineno, line, "node height")
        if w < 0 or h < 0:
            raise BookshelfError(
                f"negative node size {parts[1]} x {parts[2]}",
                file=path, line=lineno, text=line,
            )
        nodes.append(_RawNode(parts[0], w, h, terminal))
    return nodes


def _parse_nets(path: str) -> list[Net]:
    nets: list[Net] = []
    current: Net | None = None
    remaining = 0
    net_counter = 0
    for lineno, line in _content_lines(path):
        if line.startswith("NumNets") or line.startswith("NumPins"):
            continue
        if line.startswith("NetDegree"):
            head, _, tail = line.partition(":")
            del head
            fields = tail.split()
            if not fields:
                raise BookshelfError(
                    "bad NetDegree line: expected 'NetDegree : n [name]'",
                    file=path, line=lineno, text=line,
                )
            try:
                degree = int(fields[0])
            except ValueError:
                raise BookshelfError(
                    f"malformed net degree {fields[0]!r}",
                    file=path, line=lineno, text=line,
                ) from None
            name = fields[1] if len(fields) > 1 else f"n{net_counter}"
            net_counter += 1
            current = Net(name=name)
            nets.append(current)
            remaining = degree
            continue
        if current is None or remaining <= 0:
            raise BookshelfError(
                "pin line outside a net (check the preceding NetDegree count)",
                file=path, line=lineno, text=line,
            )
        parts = line.split()
        node_name = parts[0]
        dx = dy = 0.0
        if ":" in parts:
            colon = parts.index(":")
            if len(parts) > colon + 2:
                dx = _parse_float(parts[colon + 1], path, lineno, line, "pin offset")
                dy = _parse_float(parts[colon + 2], path, lineno, line, "pin offset")
        current.pins.append(Pin(node=node_name, dx=dx, dy=dy))
        remaining -= 1
    return nets


def _parse_pl(path: str) -> dict[str, tuple[float, float, bool]]:
    """name -> (x, y, fixed)."""
    placements: dict[str, tuple[float, float, bool]] = {}
    for lineno, line in _content_lines(path):
        parts = line.split()
        if len(parts) < 3:
            continue
        name = parts[0]
        x = _parse_float(parts[1], path, lineno, line, "placement x")
        y = _parse_float(parts[2], path, lineno, line, "placement y")
        fixed = "/FIXED" in line.upper()
        placements[name] = (x, y, fixed)
    return placements


@dataclass
class _Rows:
    region: PlacementRegion
    row_height: float


def _parse_scl(path: str) -> _Rows:
    y_min = x_min = float("inf")
    y_max = x_max = float("-inf")
    row_height = 0.0
    coordinate = height = None
    subrow_origin = num_sites = site_width = None
    in_row = False
    for lineno, line in _content_lines(path):
        token = line.split()[0].lower()
        if token == "numrows":
            continue
        if token == "corerow":
            in_row = True
            coordinate = height = subrow_origin = num_sites = None
            site_width = 1.0
            continue
        if not in_row:
            continue
        lowered = line.lower().replace(":", " : ")
        fields = lowered.split()
        if fields[0] == "coordinate":
            coordinate = _parse_float(fields[-1], path, lineno, line, "row coordinate")
        elif fields[0] == "height":
            height = _parse_float(fields[-1], path, lineno, line, "row height")
        elif fields[0] == "sitewidth":
            site_width = _parse_float(fields[-1], path, lineno, line, "site width")
        elif fields[0] == "subroworigin":
            # "SubrowOrigin : x NumSites : n" on one line
            for i, f in enumerate(fields):
                if f == "subroworigin":
                    subrow_origin = _parse_float(
                        fields[i + 2], path, lineno, line, "subrow origin"
                    )
                if f == "numsites":
                    num_sites = _parse_float(
                        fields[i + 2], path, lineno, line, "site count"
                    )
        elif fields[0] == "end":
            if None in (coordinate, height, subrow_origin, num_sites):
                missing = [
                    key
                    for key, val in (
                        ("Coordinate", coordinate),
                        ("Height", height),
                        ("SubrowOrigin", subrow_origin),
                        ("NumSites", num_sites),
                    )
                    if val is None
                ]
                raise BookshelfError(
                    "incomplete CoreRow block in .scl",
                    file=path, line=lineno, missing=missing,
                )
            y_min = min(y_min, coordinate)
            y_max = max(y_max, coordinate + height)
            x_min = min(x_min, subrow_origin)
            x_max = max(x_max, subrow_origin + num_sites * (site_width or 1.0))
            row_height = max(row_height, height)
            in_row = False
    if y_min == float("inf"):
        raise BookshelfError("no CoreRow blocks found in .scl", file=path)
    region = PlacementRegion(x=x_min, y=y_min, width=x_max - x_min, height=y_max - y_min)
    return _Rows(region=region, row_height=row_height)


def read_aux(aux_path: str) -> Design:
    """Read a full Bookshelf design via its ``.aux`` manifest."""
    base_dir = os.path.dirname(os.path.abspath(aux_path))
    try:
        with open(aux_path) as f:
            content = f.read()
    except OSError as exc:
        raise BookshelfError(
            f"cannot open .aux manifest: {exc}", file=aux_path
        ) from exc
    _, _, tail = content.partition(":")
    file_names = tail.split()
    if not file_names:
        raise BookshelfError(f"empty .aux manifest: {aux_path!r}", file=aux_path)
    by_ext = {os.path.splitext(n)[1]: os.path.join(base_dir, n) for n in file_names}
    for ext in (".nodes", ".nets", ".pl", ".scl"):
        if ext not in by_ext:
            raise BookshelfError(
                f".aux manifest missing a {ext} file",
                file=aux_path, listed=file_names,
            )
    return read_design(
        nodes=by_ext[".nodes"],
        nets=by_ext[".nets"],
        pl=by_ext[".pl"],
        scl=by_ext[".scl"],
        name=os.path.splitext(os.path.basename(aux_path))[0],
    )


def read_design(nodes: str, nets: str, pl: str, scl: str, name: str = "design") -> Design:
    """Assemble a :class:`Design` from explicit Bookshelf file paths."""
    raw_nodes = _parse_nodes(nodes)
    rows = _parse_scl(scl)
    placements = _parse_pl(pl)

    netlist = Netlist(name=name)
    for rn in raw_nodes:
        x, y, fixed_in_pl = placements.get(rn.name, (0.0, 0.0, False))
        if rn.terminal:
            tiny = rn.width * rn.height <= max(rows.row_height, 1.0) ** 2
            outside = not (
                rows.region.x <= x <= rows.region.x_max
                and rows.region.y <= y <= rows.region.y_max
            )
            if tiny or outside:
                node = IOPad(rn.name, rn.width, rn.height, x=x, y=y)
            else:
                node = Macro(rn.name, rn.width, rn.height, x=x, y=y, fixed=True)
        elif rn.height > rows.row_height:
            node = Macro(rn.name, rn.width, rn.height, x=x, y=y, fixed=fixed_in_pl)
        else:
            node = Cell(rn.name, rn.width, rn.height, x=x, y=y, fixed=fixed_in_pl)
        netlist.add_node(node)

    for net in _parse_nets(nets):
        netlist.add_net(net)

    return Design(netlist=netlist, region=rows.region)


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

def write_design(design: Design, directory: str, row_height: float | None = None) -> str:
    """Write *design* as a Bookshelf bundle into *directory*.

    Returns the path of the generated ``.aux`` file.  ``row_height`` defaults
    to the smallest cell height (or 1.0 for cell-less designs).
    """
    os.makedirs(directory, exist_ok=True)
    nl = design.netlist
    base = nl.name
    if row_height is None:
        cell_heights = [c.height for c in nl.cells]
        row_height = min(cell_heights) if cell_heights else 1.0

    nodes_path = os.path.join(directory, f"{base}.nodes")
    terminals = [n for n in nl if n.fixed]
    with open(nodes_path, "w") as f:
        f.write("UCLA nodes 1.0\n\n")
        f.write(f"NumNodes : {len(nl)}\n")
        f.write(f"NumTerminals : {len(terminals)}\n")
        for node in nl:
            attr = " terminal" if node.fixed else ""
            f.write(f"  {node.name} {node.width:g} {node.height:g}{attr}\n")

    nets_path = os.path.join(directory, f"{base}.nets")
    n_pins = sum(net.degree for net in nl.nets)
    with open(nets_path, "w") as f:
        f.write("UCLA nets 1.0\n\n")
        f.write(f"NumNets : {len(nl.nets)}\n")
        f.write(f"NumPins : {n_pins}\n")
        for net in nl.nets:
            f.write(f"NetDegree : {net.degree}  {net.name}\n")
            for pin in net.pins:
                f.write(f"  {pin.node} B : {pin.dx:g} {pin.dy:g}\n")

    pl_path = os.path.join(directory, f"{base}.pl")
    with open(pl_path, "w") as f:
        f.write("UCLA pl 1.0\n\n")
        for node in nl:
            attr = " /FIXED" if node.fixed else ""
            f.write(f"{node.name} {node.x:g} {node.y:g} : N{attr}\n")

    scl_path = os.path.join(directory, f"{base}.scl")
    region = design.region
    n_rows = max(1, int(region.height // row_height))
    with open(scl_path, "w") as f:
        f.write("UCLA scl 1.0\n\n")
        f.write(f"NumRows : {n_rows}\n")
        for r in range(n_rows):
            f.write("CoreRow Horizontal\n")
            f.write(f"  Coordinate : {region.y + r * row_height:g}\n")
            f.write(f"  Height : {row_height:g}\n")
            f.write("  Sitewidth : 1\n")
            f.write("  Sitespacing : 1\n")
            f.write("  Siteorient : 1\n")
            f.write("  Sitesymmetry : 1\n")
            f.write(
                f"  SubrowOrigin : {region.x:g} NumSites : {int(region.width)}\n"
            )
            f.write("End\n")

    aux_path = os.path.join(directory, f"{base}.aux")
    with open(aux_path, "w") as f:
        f.write(
            f"RowBasedPlacement : {base}.nodes {base}.nets {base}.pl {base}.scl\n"
        )
    return aux_path
