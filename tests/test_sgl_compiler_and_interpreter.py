"""Structural tests for the SGL compiler IR and the interpreter's reference
handling."""

from __future__ import annotations

import pytest

from repro.engine.algebra import Aggregate, Join
from repro.sgl import SGLCompiler, SchemaGenerator, SchemaLayout, analyze_program, parse_program
from repro.sgl.errors import SGLCompileError
from repro.sgl.interpreter import ScriptInterpreter
from repro.sgl.ir import ACTOR_COLUMN, TARGET_COLUMN, VALUE_COLUMN

SOURCE = """
class Item { state: number weight = 1; effects: number wear : sum; }

class Unit {
  state:
    number x = 0;
    number gold = 10;
    ref<Item> weapon;
  effects:
    number damage : sum;
    number spend : sum;
}

script swing(Unit self) {
  if (weapon.weight > 2) {
    weapon.wear <- 1;
    damage <- weapon.weight;
  }
}

script buy(Unit self) {
  atomic require(gold >= 0) {
    spend <- 5;
  }
}

script nested(Unit self) {
  accum number a with sum over Unit u from Unit {
    accum number b with sum over Unit v from Unit {
      b <- 1;
    } in { }
  } in { }
}
"""


def compile_program(source=SOURCE):
    program = parse_program(source)
    analyzed = analyze_program(program)
    generator = SchemaGenerator(SchemaLayout.SINGLE)
    schemas = {decl.name: generator.generate(decl) for decl in program.classes}
    return SGLCompiler(analyzed, schemas, generator), analyzed


class TestCompilerStructure:
    def test_ref_read_adds_dereference_join(self):
        compiler, _ = compile_program()
        compiled = compiler.compile_script("swing")
        queries = compiled.all_queries()
        assert {q.effect for q in queries} == {"wear", "damage"}
        damage = next(q for q in queries if q.effect == "damage")
        joins = [n for n in damage.plan.walk() if isinstance(n, Join)]
        assert any(j.how == "left" for j in joins)  # the weapon deref join
        wear = next(q for q in queries if q.effect == "wear")
        assert wear.target_class == "Item"

    def test_transactional_queries_carry_actor_and_constraints(self):
        compiler, _ = compile_program()
        compiled = compiler.compile_script("buy")
        (query,) = compiled.all_queries()
        assert query.transactional
        assert len(query.constraints) == 1
        projections = dict(next(iter(
            n for n in query.plan.walk() if hasattr(n, "projections")
        )).projections)
        assert TARGET_COLUMN in projections
        assert VALUE_COLUMN in projections
        assert ACTOR_COLUMN in projections

    def test_nested_accum_rejected(self):
        compiler, _ = compile_program()
        with pytest.raises(SGLCompileError):
            compiler.compile_script("nested")

    def test_accum_loop_compiles_to_aggregate(self, simple_game_source):
        compiler, _ = compile_program(simple_game_source)
        compiled = compiler.compile_script("brawl")
        (query,) = compiled.all_queries()
        assert any(isinstance(node, Aggregate) for node in query.plan.walk())
        assert query.plan.referenced_tables() == {"Unit"}


class TestInterpreterReferences:
    def test_reference_dereference_and_effect_on_referenced_object(self):
        program = parse_program(SOURCE)
        analyzed = analyze_program(program)
        interpreter = ScriptInterpreter(analyzed)
        items = {0: {"id": 0, "weight": 5}}
        units = {0: {"id": 0, "x": 0, "gold": 10, "weapon": 0}}

        class View:
            def extent(self, class_name):
                return list(items.values()) if class_name == "Item" else list(units.values())

            def get_object(self, class_name, object_id):
                store = items if class_name == "Item" else units
                return store.get(object_id)

        result, next_pc = interpreter.run_script("swing", units[0], View())
        assert next_pc == 0
        effects = {(a.class_name, a.effect): a.value for a in result.effects}
        assert effects[("Item", "wear")] == 1
        assert effects[("Unit", "damage")] == 5

    def test_evaluate_expression_for_constraints(self):
        program = parse_program(SOURCE)
        interpreter = ScriptInterpreter(analyze_program(program))
        from repro.sgl.parser import parse_expression

        class EmptyView:
            def extent(self, class_name):
                return []

            def get_object(self, class_name, object_id):
                return None

        value = interpreter.evaluate_expression(
            parse_expression("gold - 4 >= 0"), "Unit", {"id": 1, "gold": 3, "x": 0, "weapon": None}, EmptyView()
        )
        assert value is False
