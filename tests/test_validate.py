"""Design-validation tests, plus a generator/Bookshelf fuzz round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.generator import GeneratorSpec, generate_design
from repro.netlist.model import (
    Cell,
    Design,
    Macro,
    Net,
    Netlist,
    Pin,
    PlacementRegion,
)
from repro.netlist.validate import (
    Severity,
    ValidationError,
    validate_design,
)


def design_of(nodes=(), nets=(), region=None) -> Design:
    nl = Netlist()
    for n in nodes:
        nl.add_node(n)
    for net in nets:
        nl.add_net(net)
    return Design(netlist=nl, region=region or PlacementRegion(0, 0, 100, 100))


def codes(issues):
    return {i.code for i in issues}


class TestValidation:
    def test_clean_design_no_issues(self, placed_design):
        assert validate_design(placed_design) == []

    def test_degenerate_region(self):
        d = design_of(region=PlacementRegion(0, 0, 0, 10))
        assert "region-degenerate" in codes(validate_design(d))

    def test_oversized_macro(self):
        d = design_of([Macro("m", 200, 10)])
        assert "macro-oversized" in codes(validate_design(d))

    def test_preplaced_outside(self):
        d = design_of([Macro("m", 10, 10, x=500, y=500, fixed=True)])
        assert "preplaced-outside" in codes(validate_design(d))

    def test_over_capacity(self):
        d = design_of(
            [Cell(f"c{i}", 40, 40) for i in range(8)],
            region=PlacementRegion(0, 0, 100, 100),
        )
        assert "over-capacity" in codes(validate_design(d))

    def test_high_utilization_warning(self):
        d = design_of(
            # 9610 + 1 / 10000
            [Macro("m", 1, 1)] + [Cell(f"c{i}", 31, 31) for i in range(10)],
            region=PlacementRegion(0, 0, 100, 100),
        )
        issues = validate_design(d)
        assert "high-utilization" in codes(issues)
        assert all(i.severity is Severity.WARNING for i in issues)

    def test_duplicate_pin_warning(self):
        d = design_of(
            [Cell("c", 1, 1)],
            [Net("n", pins=[Pin("c"), Pin("c")])],
        )
        assert "duplicate-pin" in codes(validate_design(d))

    def test_negative_net_weight(self):
        d = design_of(
            [Cell("a", 1, 1), Cell("b", 1, 1)],
            [Net("n", pins=[Pin("a"), Pin("b")], weight=-1.0)],
        )
        assert "negative-weight" in codes(validate_design(d))

    def test_raise_on_error(self):
        d = design_of([Macro("m", 200, 10)])
        with pytest.raises(ValidationError, match="macro-oversized"):
            validate_design(d, raise_on_error=True)

    def test_warnings_do_not_raise(self):
        d = design_of(
            [Macro("m", 1, 1), Cell("c", 1, 1)],
            [Net("n", pins=[Pin("c"), Pin("c")])],
        )
        validate_design(d, raise_on_error=True)  # warnings only: no raise

    @pytest.mark.parametrize("nodes", [
        [],
        [Cell("c", 1, 1)],
        [Macro("m", 10, 10, x=0, y=0, fixed=True), Cell("c", 1, 1)],
    ], ids=["empty", "no-macros", "all-fixed"])
    def test_no_movable_macros(self, nodes):
        assert "no-movable-macros" in codes(validate_design(design_of(nodes)))

    def test_issue_str(self):
        d = design_of([Macro("m", 200, 10)])
        issue = validate_design(d)[0]
        assert "macro-oversized" in str(issue)


def _three_pin_design(macros, region) -> Design:
    return design_of(
        macros + [Cell("c", 2, 1)],
        [Net("n", pins=[Pin(n.name) for n in macros] + [Pin("c")])],
        region=region,
    )


class TestFlowRejectsDegenerateDesigns:
    """The flow validates its input first, so a design it cannot place
    fails with a structured error (exit code 10), not a traceback."""

    @pytest.mark.parametrize("design, code", [
        (design_of(), "no-movable-macros"),
        (design_of([Cell("a", 2, 1), Cell("b", 2, 1)],
                   [Net("n", pins=[Pin("a"), Pin("b")])]),
         "no-movable-macros"),
        (_three_pin_design([Macro("m", 10, 10, x=0, y=0, fixed=True)],
                           PlacementRegion(0, 0, 100, 100)),
         "no-movable-macros"),
        (_three_pin_design([Macro("m0", 10, 10), Macro("m1", 10, 10)],
                           PlacementRegion(0, 0, 0, 0)),
         "region-degenerate"),
        (_three_pin_design([Macro("m0", 30, 30), Macro("m1", 5, 5)],
                           PlacementRegion(0, 0, 20, 20)),
         "macro-oversized"),
    ], ids=["empty", "no-macros", "all-fixed", "zero-region", "oversized"])
    def test_place_raises_validation_error(self, design, code):
        from repro.core import MCTSGuidedPlacer
        from repro.core.config import PlacerConfig
        from repro.runtime.errors import PlacementError

        with pytest.raises(ValidationError, match=code) as info:
            MCTSGuidedPlacer(PlacerConfig.fast()).place(design)
        assert isinstance(info.value, PlacementError)
        assert info.value.exit_code == 10

    def test_cli_exits_10_on_a_macro_free_bookshelf(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.bookshelf import write_design

        design = design_of(
            [Cell("a", 2, 1), Cell("b", 2, 1)],
            [Net("n", pins=[Pin("a"), Pin("b")])],
        )
        aux = write_design(design, str(tmp_path))
        assert main(["place", "--aux", aux, "--preset", "fast"]) == 10
        assert "no-movable-macros" in capsys.readouterr().err


class TestGeneratorFuzzRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 3),
        st.integers(10, 40),
        st.integers(15, 50),
        st.integers(0, 10_000),
    )
    def test_generated_designs_validate_and_roundtrip(
        self, n_macros, n_pre, n_cells, n_nets, seed
    ):
        """Any generated design is structurally valid and survives the
        Bookshelf writer/parser with its statistics intact."""
        import tempfile

        from repro.netlist.bookshelf import read_aux, write_design

        spec = GeneratorSpec(
            name=f"fuzz{seed}",
            n_movable_macros=n_macros,
            n_preplaced_macros=n_pre,
            n_pads=4,
            n_cells=n_cells,
            n_nets=n_nets,
            seed=seed,
        )
        design = generate_design(spec)
        errors = [
            i for i in validate_design(design) if i.severity is Severity.ERROR
        ]
        assert errors == []

        with tempfile.TemporaryDirectory() as tmp:
            aux = write_design(design, tmp)
            loaded = read_aux(aux)
        assert loaded.netlist.stats() == design.netlist.stats()
