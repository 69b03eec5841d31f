"""Bookshelf reader/writer tests, including a full round-trip."""

import os

import pytest

from repro.netlist.bookshelf import BookshelfError, read_aux, write_design
from repro.netlist.hpwl import hpwl
from repro.netlist.model import NodeKind


class TestRoundTrip:
    def test_write_then_read_preserves_structure(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        assert len(loaded.netlist) == len(placed_design.netlist)
        assert len(loaded.netlist.nets) == len(placed_design.netlist.nets)

    def test_roundtrip_preserves_positions(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        for node in placed_design.netlist:
            other = loaded.netlist[node.name]
            assert other.x == pytest.approx(node.x, abs=1e-4)
            assert other.y == pytest.approx(node.y, abs=1e-4)

    def test_roundtrip_preserves_hpwl(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        assert hpwl(loaded.netlist) == pytest.approx(
            hpwl(placed_design.netlist), rel=1e-6
        )

    def test_roundtrip_preserves_fixedness(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        for node in placed_design.netlist:
            assert loaded.netlist[node.name].fixed == node.fixed

    def test_macro_cell_classification_survives(self, placed_design, tmp_path):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        orig = placed_design.netlist.stats()
        got = loaded.netlist.stats()
        assert got["cells"] == orig["cells"]
        assert got["movable_macros"] == orig["movable_macros"]

    def test_files_created(self, placed_design, tmp_path):
        write_design(placed_design, str(tmp_path))
        base = placed_design.name
        for ext in (".aux", ".nodes", ".nets", ".pl", ".scl"):
            assert os.path.exists(tmp_path / f"{base}{ext}")


def _overwrite_field(path, field: int, value: str) -> int:
    """Set whitespace field *field* of the first node/pin line of a
    Bookshelf file to *value*; return that line's 1-based number."""
    lines = path.read_text().splitlines(keepends=True)
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith(("UCLA", "Num", "NetDegree")):
            continue
        parts[field] = value
        lines[lineno - 1] = "  " + " ".join(parts) + "\n"
        path.write_text("".join(lines))
        return lineno
    raise AssertionError(f"no data line in {path}")


class TestMalformedInput:
    def test_missing_files_in_aux(self, tmp_path):
        aux = tmp_path / "x.aux"
        aux.write_text("RowBasedPlacement : x.nodes\n")
        with pytest.raises(BookshelfError, match="missing"):
            read_aux(str(aux))

    def test_empty_aux(self, tmp_path):
        aux = tmp_path / "x.aux"
        aux.write_text("RowBasedPlacement :\n")
        with pytest.raises(BookshelfError, match="empty"):
            read_aux(str(aux))

    def test_pin_outside_net_rejected(self, tmp_path, placed_design):
        write_design(placed_design, str(tmp_path))
        nets = tmp_path / f"{placed_design.name}.nets"
        nets.write_text("UCLA nets 1.0\n  o_c0 B : 0 0\n")
        with pytest.raises(BookshelfError, match="outside"):
            read_aux(str(tmp_path / f"{placed_design.name}.aux"))

    @pytest.mark.parametrize("ext, field", [
        (".nodes", 1),  # width
        (".nodes", 2),  # height
        (".nets", 3),   # pin dx (fields: node, dir, ':', dx, dy)
        (".nets", 4),   # pin dy
        (".pl", 1),     # x
        (".pl", 2),     # y
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(
        self, tmp_path, placed_design, ext, field, value
    ):
        write_design(placed_design, str(tmp_path))
        path = tmp_path / f"{placed_design.name}{ext}"
        lineno = _overwrite_field(path, field, value)
        with pytest.raises(BookshelfError, match="malformed") as info:
            read_aux(str(tmp_path / f"{placed_design.name}.aux"))
        assert info.value.details["file"] == str(path)
        assert info.value.details["line"] == lineno
        assert value in info.value.details["text"]

    @pytest.mark.parametrize("field", [1, 2])
    def test_negative_node_size_rejected(self, tmp_path, placed_design, field):
        write_design(placed_design, str(tmp_path))
        path = tmp_path / f"{placed_design.name}.nodes"
        lineno = _overwrite_field(path, field, "-2")
        with pytest.raises(BookshelfError, match="negative node size") as info:
            read_aux(str(tmp_path / f"{placed_design.name}.aux"))
        assert info.value.details["file"] == str(path)
        assert info.value.details["line"] == lineno

    @pytest.mark.parametrize("value", ["nan", "-2"])
    def test_cli_exits_structured_on_bad_node_size(
        self, tmp_path, capsys, placed_design, value
    ):
        from repro.cli import main

        aux = write_design(placed_design, str(tmp_path))
        _overwrite_field(tmp_path / f"{placed_design.name}.nodes", 1, value)
        assert main(["place", "--aux", aux, "--preset", "fast"]) == 10
        err = capsys.readouterr().err
        assert err.startswith("error:") and ".nodes" in err

    def test_zero_node_size_still_accepted(self, tmp_path, placed_design):
        write_design(placed_design, str(tmp_path))
        _overwrite_field(tmp_path / f"{placed_design.name}.nodes", 1, "0")
        read_aux(str(tmp_path / f"{placed_design.name}.aux"))

    def test_scl_without_rows_rejected(self, tmp_path, placed_design):
        write_design(placed_design, str(tmp_path))
        scl = tmp_path / f"{placed_design.name}.scl"
        scl.write_text("UCLA scl 1.0\nNumRows : 0\n")
        with pytest.raises(BookshelfError, match="CoreRow"):
            read_aux(str(tmp_path / f"{placed_design.name}.aux"))


class TestClassificationRules:
    def test_small_terminal_becomes_pad(self, tmp_path):
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n"
        )
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\n"
            "  pad1 1 1 terminal\n  cell1 2 1\n"
        )
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2 n0\n  pad1 B : 0 0\n  cell1 B : 0 0\n"
        )
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\npad1 -2 5 : N /FIXED\ncell1 3 3 : N\n")
        (tmp_path / "d.scl").write_text(
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            "  Coordinate : 0\n  Height : 1\n  Sitewidth : 1\n"
            "  SubrowOrigin : 0 NumSites : 20\nEnd\n"
        )
        design = read_aux(str(tmp_path / "d.aux"))
        assert design.netlist["pad1"].kind is NodeKind.PAD
        assert design.netlist["cell1"].kind is NodeKind.CELL

    def test_tall_movable_node_becomes_macro(self, tmp_path):
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n"
        )
        (tmp_path / "d.nodes").write_text(
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
            "  big 8 6\n  small 2 1\n"
        )
        (tmp_path / "d.nets").write_text(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2 n0\n  big B : 0 0\n  small B : 0 0\n"
        )
        (tmp_path / "d.pl").write_text("UCLA pl 1.0\nbig 0 0 : N\nsmall 9 9 : N\n")
        (tmp_path / "d.scl").write_text(
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            "  Coordinate : 0\n  Height : 1\n  Sitewidth : 1\n"
            "  SubrowOrigin : 0 NumSites : 20\nEnd\n"
        )
        design = read_aux(str(tmp_path / "d.aux"))
        assert design.netlist["big"].kind is NodeKind.MACRO
        assert not design.netlist["big"].fixed
        assert design.netlist["small"].kind is NodeKind.CELL

    def test_region_derived_from_scl(self, tmp_path, placed_design):
        aux = write_design(placed_design, str(tmp_path))
        loaded = read_aux(aux)
        assert loaded.region.width == pytest.approx(
            placed_design.region.width, rel=0.05
        )
