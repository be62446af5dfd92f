"""Tests for the SGL lexer, parser, semantic analysis, schema generation and
multi-tick segmentation."""

from __future__ import annotations

import pytest

from repro.engine.types import DataType
from repro.sgl import SchemaLayout, SchemaGenerator, analyze_program, parse_program
from repro.sgl.ast_nodes import (
    AccumLoop,
    AtomicBlock,
    Binary,
    EffectAssign,
    FieldAccess,
    IfStatement,
    NumberLiteral,
    WaitNextTick,
)
from repro.sgl.errors import SGLSemanticError, SGLSyntaxError
from repro.sgl.lexer import tokenize
from repro.sgl.multitick import pc_variable_name, segment_script
from repro.sgl.parser import parse_expression
from repro.engine.catalog import Catalog

FIGURE1 = """
class Unit {
  state:
    number player = 0;
    number x = 0;
    number y = 0;
    number health = 0;
  effects:
    number vx : avg;
    number vy : avg;
    number damage : sum;
}
"""

FIGURE2_SCRIPT = FIGURE1 + """
class Marker { state: number x = 0; effects: number hits : sum; }

script count_in_range(Unit self) {
  accum number cnt with sum over Unit w from UNIT {
    if (w.x >= x - 5 && w.x <= x + 5 &&
        w.y >= y - 5 && w.y <= y + 5) {
      cnt <- 1;
    }
  } in {
    damage <- cnt;
  }
}
"""


class TestLexer:
    def test_tokenizes_figure1(self):
        tokens = tokenize(FIGURE1)
        kinds = {t.kind for t in tokens}
        assert kinds == {"keyword", "ident", "number", "op", "eof"}
        assert tokens[-1].kind == "eof"

    def test_comments_and_strings(self):
        tokens = tokenize('// line\n/* block\n comment */ "hi there" 3.5')
        assert [t.kind for t in tokens[:-1]] == ["string", "number"]
        assert tokens[0].text == "hi there"
        assert tokens[1].text == "3.5"

    def test_operators_longest_match(self):
        texts = [t.text for t in tokenize("a <- b <= c >= d == e != f && g || h")]
        assert "<-" in texts and "<=" in texts and "&&" in texts

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1 and tokens[1].line == 2 and tokens[1].column == 3

    def test_unterminated_string_raises(self):
        with pytest.raises(SGLSyntaxError):
            tokenize('"oops')

    def test_unexpected_character_raises(self):
        with pytest.raises(SGLSyntaxError):
            tokenize("a @ b")


class TestParser:
    def test_figure1_class_declaration(self):
        program = parse_program(FIGURE1)
        unit = program.class_named("Unit")
        assert unit is not None
        assert [f.name for f in unit.state_fields] == ["player", "x", "y", "health"]
        assert [f.combinator for f in unit.effect_fields] == ["avg", "avg", "sum"]
        assert isinstance(unit.state_field("player").default, NumberLiteral)

    def test_figure2_accum_loop(self):
        program = parse_program(FIGURE2_SCRIPT)
        script = program.script_named("count_in_range")
        loop = script.body.statements[0]
        assert isinstance(loop, AccumLoop)
        assert loop.accum_var == "cnt" and loop.combinator == "sum"
        assert loop.loop_var == "w"
        assert isinstance(loop.body.statements[0], IfStatement)
        follow = loop.follow.statements[0]
        assert isinstance(follow, EffectAssign)

    def test_expression_precedence(self):
        expr = parse_expression("1 + 2 * 3 > 6 && x < 4")
        assert isinstance(expr, Binary) and expr.op == "&&"
        left = expr.left
        assert isinstance(left, Binary) and left.op == ">"

    def test_field_access_and_calls(self):
        expr = parse_expression("distance(self.x, self.y, u.x, u.y)")
        assert expr.name == "distance"
        assert isinstance(expr.args[0], FieldAccess)

    def test_set_insert_and_wait(self):
        source = FIGURE1 + """
        script go(Unit self) {
          vx <- 1;
          waitNextTick;
          damage <- 2;
        }
        """
        program = parse_program(source)
        body = program.script_named("go").body.statements
        assert isinstance(body[1], WaitNextTick)

    def test_atomic_block_with_constraints(self):
        source = FIGURE1 + """
        script buy(Unit self) {
          atomic require(health >= 0, player >= 0) {
            damage <- 1;
          }
        }
        """
        program = parse_program(source)
        block = program.script_named("buy").body.statements[0]
        assert isinstance(block, AtomicBlock)
        assert len(block.constraints) == 2

    def test_else_if_chains(self):
        source = FIGURE1 + """
        script go(Unit self) {
          if (x > 1) { vx <- 1; } else if (x > 0) { vx <- 2; } else { vx <- 3; }
        }
        """
        statement = parse_program(source).script_named("go").body.statements[0]
        assert isinstance(statement.else_block.statements[0], IfStatement)

    def test_ref_typed_field(self):
        source = """
        class Item { state: number weight = 1; effects: number used : sum; }
        class Unit { state: ref<Item> weapon; effects: number damage : sum; }
        """
        unit = parse_program(source).class_named("Unit")
        assert unit.state_field("weapon").ref_class == "Item"

    def test_syntax_errors(self):
        with pytest.raises(SGLSyntaxError):
            parse_program("class { }")
        with pytest.raises(SGLSyntaxError):
            parse_program(FIGURE1 + "script broken(Unit self) { x + 1; }")
        with pytest.raises(SGLSyntaxError):
            parse_program(FIGURE1 + "script broken(Unit self) { damage <- 1 }")


class TestSemantics:
    def analyze(self, script_body: str):
        return analyze_program(parse_program(FIGURE1 + script_body))

    def test_valid_program_analyzes(self):
        analyzed = analyze_program(parse_program(FIGURE2_SCRIPT))
        info = analyzed.info_for("count_in_range")
        assert info.accum_vars == {"cnt": "sum"}
        assert not info.multi_tick

    def test_state_is_read_only(self):
        with pytest.raises(SGLSemanticError):
            self.analyze("script s(Unit self) { x <- 1; }")
        with pytest.raises(SGLSemanticError):
            self.analyze("script s(Unit self) { x = 1; }")

    def test_effects_are_write_only(self):
        with pytest.raises(SGLSemanticError):
            self.analyze("script s(Unit self) { vx <- damage + 1; }")

    def test_accum_var_not_readable_in_body(self):
        with pytest.raises(SGLSemanticError):
            self.analyze(
                """
                script s(Unit self) {
                  accum number c with sum over Unit u from Unit {
                    if (c > 0) { c <- 1; }
                  } in { damage <- 1; }
                }
                """
            )

    def test_accum_var_not_writable_in_follow(self):
        with pytest.raises(SGLSemanticError):
            self.analyze(
                """
                script s(Unit self) {
                  accum number c with sum over Unit u from Unit {
                    c <- 1;
                  } in { c <- 2; }
                }
                """
            )

    def test_wait_not_allowed_in_accum_or_atomic(self):
        with pytest.raises(SGLSemanticError):
            self.analyze(
                """
                script s(Unit self) {
                  accum number c with sum over Unit u from Unit {
                    waitNextTick;
                  } in { }
                }
                """
            )
        with pytest.raises(SGLSemanticError):
            self.analyze("script s(Unit self) { atomic { waitNextTick; } }")

    def test_unknown_names_rejected(self):
        with pytest.raises(SGLSemanticError):
            self.analyze("script s(Unit self) { vx <- bogus; }")
        with pytest.raises(SGLSemanticError):
            self.analyze("script s(Unit self) { bogus <- 1; }")
        with pytest.raises(SGLSemanticError):
            analyze_program(parse_program(FIGURE1 + "script s(Ghost self) { }"))

    def test_unknown_combinator_rejected(self):
        with pytest.raises(SGLSemanticError):
            analyze_program(
                parse_program("class A { state: number x = 0; effects: number e : frob; }")
            )

    def test_duplicate_definitions_rejected(self):
        with pytest.raises(SGLSemanticError):
            analyze_program(parse_program(FIGURE1 + FIGURE1))
        with pytest.raises(SGLSemanticError):
            analyze_program(
                parse_program("class A { state: number x = 0; number x = 1; effects: }")
            )

    def test_undeclared_local_assignment_rejected(self):
        with pytest.raises(SGLSemanticError):
            self.analyze("script s(Unit self) { y2 = 3; }")

    def test_multi_tick_flag(self):
        analyzed = self.analyze("script s(Unit self) { vx <- 1; waitNextTick; vy <- 1; }")
        assert analyzed.info_for("s").multi_tick


class TestSchemaGeneration:
    def test_single_layout(self):
        program = parse_program(FIGURE1)
        generated = SchemaGenerator(SchemaLayout.SINGLE).generate(program.class_named("Unit"))
        assert list(generated.state_tables) == ["Unit"]
        schema = generated.state_tables["Unit"]
        assert schema.names == ("id", "player", "x", "y", "health")
        assert schema.column("player").dtype is DataType.NUMBER

    def test_vertical_layout_splits_spatial_fields(self):
        program = parse_program(FIGURE1)
        generated = SchemaGenerator(SchemaLayout.VERTICAL).generate(program.class_named("Unit"))
        assert len(generated.state_tables) == 2
        first = list(generated.state_tables.values())[0]
        assert set(first.names) == {"id", "x", "y"}

    def test_register_and_extent_plan(self):
        program = parse_program(FIGURE1)
        catalog = Catalog()
        generator = SchemaGenerator(SchemaLayout.VERTICAL)
        generated = generator.register(catalog, program.class_named("Unit"))
        assert catalog.has_table("Unit") and catalog.has_table("Unit__part1")
        plan = generator.extent_plan(generated, alias="self")
        schema = plan.output_schema(catalog)
        assert "self.x" in schema.names and "self.health" in schema.names

    def test_explicit_vertical_groups(self):
        program = parse_program(FIGURE1)
        generator = SchemaGenerator(SchemaLayout.VERTICAL, vertical_groups=[["player", "health"]])
        generated = generator.generate(program.class_named("Unit"))
        first = list(generated.state_tables.values())[0]
        assert set(first.names) == {"id", "player", "health"}


class TestMultiTick:
    def test_segmentation(self):
        source = FIGURE1 + """
        script seq(Unit self) {
          vx <- 1;
          waitNextTick;
          vy <- 1;
          waitNextTick;
          damage <- 1;
        }
        """
        segmented = segment_script(parse_program(source).script_named("seq"))
        assert segmented.is_multi_tick
        assert len(segmented.segments) == 3
        assert segmented.pc_variable == pc_variable_name("seq")
        assert segmented.next_pc(0) == 1
        assert segmented.next_pc(2) == 0  # wraps around

    def test_single_tick_script_has_one_segment(self):
        segmented = segment_script(parse_program(FIGURE2_SCRIPT).script_named("count_in_range"))
        assert not segmented.is_multi_tick
        assert len(segmented.segments) == 1
