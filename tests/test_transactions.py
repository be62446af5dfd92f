"""Transaction admission against the snapshot/restore oracle.

``TransactionEngine.compute_updates`` admits requests with an undo log,
combines each request without an ``EffectStore`` and evaluates constraints
through code compiled once per class.  The oracle below is the loop it
replaced: it deep-copies the tentative overlay before every request,
restores it on abort, combines through ``EffectStore`` and evaluates every
constraint with the interpreter.  Outcomes (committed, reason) and the
``StateUpdate`` list, in order, must be identical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionMode, GameWorld
from repro.runtime import EffectStore, StateUpdate, TransactionEngine
from repro.workloads import build_marketplace_world

SOURCE = """
class Trader {
  state:
    number is_seller = 0;
    number gold = 20;
    number stock = 0;
    number price = 10;
    number fee = 0;
    number bonus = 0;
    ref vendor;
  effects:
    number gold_delta : sum;
    number stock_delta : sum;
    number purchases : sum;
}

script income(Trader self) {
  if (bonus != 0) {
    gold_delta <- bonus;
  }
}

script purchase(Trader self) {
  if (is_seller == 0) {
    atomic require(CONSTRAINTS) {
      gold_delta <- 0 - price;
      gold_delta <- 0 - fee;
      stock_delta <- 1;
      vendor.gold_delta <- price;
      vendor.stock_delta <- 0 - 1;
      purchases <- 1;
    }
  }
}
"""
OWNED = {"Trader": {"gold_delta": "gold", "stock_delta": "stock"}}


def oracle_compute_updates(engine, classes, state, effects, requests):
    """The snapshot/restore admission loop, as it was before the undo log."""
    overlay: dict = {}

    def value(class_name, object_id, attribute):
        values = overlay.get((class_name, object_id))
        if values is not None and attribute in values:
            return values[attribute]
        row = state.get_object(class_name, object_id)
        return None if row is None else row.get(attribute)

    def row(class_name, object_id):
        base = state.get_object(class_name, object_id)
        if base is None:
            return None
        return {**base, **overlay.get((class_name, object_id), {})}

    def owns(class_name, effect):
        return effect in engine._effect_map.get(class_name, ())

    def apply(combined_values):
        for (class_name, object_id), values in combined_values.items():
            for effect, delta in values.items():
                if owns(class_name, effect):
                    attribute = engine._effect_map[class_name][effect]
                    new = engine._apply(value(class_name, object_id, attribute), delta)
                    overlay.setdefault((class_name, object_id), {})[attribute] = new

    def check(request):
        actor_row = row(request.actor_class, request.actor_id)
        if actor_row is None:
            return False, f"actor {request.actor_id!r} no longer exists"
        rows_to_check = [(request.actor_class, actor_row)]
        seen = {(request.actor_class, request.actor_id)}
        for assignment in request.assignments:
            key = (assignment.class_name, assignment.target_id)
            if key in seen or not owns(assignment.class_name, assignment.effect):
                continue
            seen.add(key)
            target_row = row(*key)
            if target_row is not None and assignment.class_name == request.actor_class:
                rows_to_check.append((assignment.class_name, target_row))
        for constraint in request.constraints:
            for class_name, checked_row in rows_to_check:
                try:
                    ok = engine._constraint_evaluator(constraint, class_name, checked_row)
                except Exception as exc:
                    return False, f"constraint raised {exc!r}"
                if not ok:
                    return False, f"constraint {constraint!r} violated"
        return True, ""

    apply(effects.values)
    outcomes = []
    for request in engine._ordered(requests):
        snapshot = {key: dict(values) for key, values in overlay.items()}
        store = EffectStore(classes)
        store.add_all(a for a in request.assignments if owns(a.class_name, a.effect))
        apply(store.combine().values)
        ok, reason = check(request) if request.constraints else (True, "")
        if not ok:
            overlay.clear()
            overlay.update({key: dict(values) for key, values in snapshot.items()})
        outcomes.append((request, ok, reason))
    updates = [
        StateUpdate(class_name, object_id, attribute, new)
        for (class_name, object_id), values in overlay.items()
        for attribute, new in values.items()
    ]
    return outcomes, updates


def build_world(constraints, mode, sellers, buyers):
    """``sellers``: (stock, bonus) each; ``buyers``: (gold, price, fee, bonus) each."""
    world = GameWorld(SOURCE.replace("CONSTRAINTS", constraints), mode=mode)
    classes = {decl.name: decl for decl in world.program.classes}
    world.add_component(TransactionEngine(owned=OWNED, classes=classes))
    seller_ids = [
        world.spawn("Trader", is_seller=1, gold=0, stock=stock, bonus=bonus)
        for stock, bonus in sellers
    ]
    for index, (gold, price, fee, bonus) in enumerate(buyers):
        vendor = seller_ids[index % len(seller_ids)]
        world.spawn("Trader", gold=gold, price=price, fee=fee, bonus=bonus, vendor=vendor)
    return world


def tick_against_oracle(world, ticks):
    """Tick *world*, checking every admission against the oracle; returns the reports."""
    engine = world._transaction_engine
    classes = {decl.name: decl for decl in world.program.classes}
    compute_updates = engine.compute_updates
    reports = []

    def checked(state, effects):
        expected, expected_updates = oracle_compute_updates(
            engine, classes, state, effects, list(engine._pending)
        )
        updates = compute_updates(state, effects)
        got = [(o.request, o.committed, o.reason) for o in engine.last_report.outcomes]
        assert got == expected
        assert updates == expected_updates
        return updates

    engine.compute_updates = checked
    for _ in range(ticks):
        world.tick()
        reports.append(world.last_transaction_report)
    return reports


buyer = st.tuples(
    st.one_of(st.none(), st.integers(-5, 60)),  # gold
    st.integers(0, 20),  # price
    st.integers(0, 5),  # fee
    st.integers(-3, 3),  # bonus: a non-transactional write to gold unless 0
)
seller = st.tuples(st.integers(0, 4), st.integers(0, 1))  # stock, bonus


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    sellers=st.lists(seller, min_size=1, max_size=3),
    buyers_per_item=st.integers(1, 6),
    buyer_deck=st.lists(buyer, min_size=1, max_size=6),
    mode=st.sampled_from(list(ExecutionMode)),
    reads_ref=st.booleans(),
)
def test_admission_matches_snapshot_oracle(sellers, buyers_per_item, buyer_deck, mode, reads_ref):
    constraints = "gold >= 0, stock >= 0"
    if reads_ref:
        constraints += ", vendor == null || vendor.stock >= 0"
    n_buyers = len(sellers) * buyers_per_item
    buyers = [buyer_deck[i % len(buyer_deck)] for i in range(n_buyers)]
    world = build_world(constraints, mode, sellers, buyers)
    reports = tick_against_oracle(world, ticks=2)
    assert all(len(report.outcomes) == n_buyers for report in reports)
    assert all(report.commit_count + report.abort_count == n_buyers for report in reports)
    if not reads_ref:  # only the ref-reading constraint needs the interpreter
        assert all(report.interpreted_checks == 0 for report in reports)


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_marketplace_constraints_never_reach_the_interpreter(mode):
    world = build_marketplace_world(16, buyers_per_item=4, seller_stock=2, mode=mode)
    reports = tick_against_oracle(world, ticks=3)
    assert sum(report.commit_count for report in reports) > 0
    assert sum(report.abort_count for report in reports) > 0
    assert all(report.interpreted_checks == 0 for report in reports)


@pytest.mark.parametrize("mode", list(ExecutionMode))
@pytest.mark.parametrize(
    "constraint",
    [
        "vendor.stock >= 0",  # derefs committed state
        "self",  # an object to the interpreter, truthy even for seller 0
    ],
)
def test_constraints_that_do_not_lower_fall_back_to_the_interpreter(mode, constraint):
    world = build_world(constraint, mode, [(2, 0), (1, 0)], [(50, 10, 0, 0)] * 6)
    reports = tick_against_oracle(world, ticks=2)
    assert all(report.interpreted_checks > 0 for report in reports)


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_type_error_constraint_aborts_with_the_interpreters_reason(mode):
    world = build_world('gold >= "x"', mode, [(2, 0)], [(50, 10, 0, 0)] * 2)
    (report,) = tick_against_oracle(world, ticks=1)
    request = report.outcomes[0].request
    actor = {**world.get_object("Trader", request.actor_id), "gold": 50 - 10}  # tentative row
    with pytest.raises(Exception) as raised:
        world.interpreter.evaluate_expression(request.constraints[0], "Trader", actor, world)
    assert [o.reason for o in report.outcomes] == [f"constraint raised {raised.value!r}"] * 2
    assert report.commit_count == 0 and report.abort_count == 2
    assert report.interpreted_checks == 2
