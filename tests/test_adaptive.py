"""Tests for the per-tick plan chooser (Section 4.1): an incremental view's
churn guard suspends the view under sustained churn — the kernel plan
serves its query — and resumes it when the churn falls."""

from __future__ import annotations

import random

from repro import GameWorld
from repro.engine.algebra import Project, TableScan
from repro.engine.config import EngineConfig
from repro.engine.errors import ExecutionError
from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.table import Table
from repro.workloads import build_rts_world

from test_incremental import _units_catalog, assert_same_rows

# Figure 2 with no update rule: the only writes are the test's own moves.
CALM_FIGHT_SOURCE = """
class Unit {
  state:
    number x = 0;
    number y = 0;
    number range = 8;
  effects:
    number seen : sum;
}

script count_neighbours(Unit self) {
  accum number cnt with sum over Unit u from UNIT {
    if (u.x >= x - range && u.x <= x + range &&
        u.y >= y - range && u.y <= y + range) {
      cnt <- 1;
    }
  } in {
    seen <- cnt;
  }
}
"""

N_UNITS = 200
CALM_MOVES = 2  # 4 signed rows per tick, under the guard's floor of 64
FIGHT_MOVES = N_UNITS  # every unit moves


def _world(use_incremental: bool) -> GameWorld:
    world = GameWorld(CALM_FIGHT_SOURCE, config=EngineConfig(use_incremental=use_incremental))
    rng = random.Random(7)
    world.spawn_many(
        "Unit", ({"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)} for _ in range(N_UNITS))
    )
    return world


class _CalmFightRun:
    """Ticks a view-serving world beside a ``use_incremental=False`` twin,
    applying the same moves to both and checking every tick's effects."""

    def __init__(self) -> None:
        self.inc, self.ref = _world(True), _world(False)
        self.ids = [row["id"] for row in self.inc.objects("Unit")]
        self.rng = random.Random(11)
        self.states: list[str] = []
        self.delta_refreshes: list[int] = []

    def view(self) -> dict:
        (entry,) = self.inc.executor.incremental_report()
        return entry

    def tick(self, moves: int) -> None:
        for object_id in self.rng.sample(self.ids, moves):
            x, y = self.rng.uniform(0, 100), self.rng.uniform(0, 100)
            self.inc.set_state("Unit", object_id, x=x, y=y)
            self.ref.set_state("Unit", object_id, x=x, y=y)
        self.inc.tick()
        self.ref.tick()
        assert self.inc.last_effects.values == self.ref.last_effects.values, len(self.states)
        entry = self.view()
        self.states.append(entry["state"])
        self.delta_refreshes.append(entry["delta_refreshes"])


class TestChurnChooser:
    def test_calm_fight_calm_suspends_then_resumes(self):
        run = _CalmFightRun()
        for _ in range(5):
            run.tick(CALM_MOVES)
        assert run.states == ["live"] * 5
        assert run.delta_refreshes[-1] == 4  # the first tick builds the view
        for _ in range(6):
            run.tick(FIGHT_MOVES)
        # Two guard trips rebuild; the third suspends the view for the rest
        # of the fight, with no refresh of any kind.
        assert run.states[5:] == ["live", "live"] + ["suspended"] * 4
        assert run.view()["guard_trips"] == 3
        full_while_suspended = run.view()["full_refreshes"]
        for _ in range(6):
            run.tick(CALM_MOVES)
        assert run.states[11:] == ["live"] * 6
        entry = run.view()
        assert (entry["suspensions"], entry["resumes"]) == (1, 1)
        # One rebuild on resuming, then delta refreshes again.
        assert entry["full_refreshes"] == full_while_suspended + 1
        assert run.delta_refreshes[-1] - run.delta_refreshes[11] == 5

    def test_one_tick_spike_does_not_suspend(self):
        run = _CalmFightRun()
        for moves in [CALM_MOVES] * 3 + [FIGHT_MOVES] + [CALM_MOVES] * 3:
            run.tick(moves)
        assert run.states == ["live"] * 7
        entry = run.view()
        assert (entry["guard_trips"], entry["suspensions"]) == (1, 0)
        assert run.delta_refreshes[-1] == 5  # every tick but the first and the spike

    def test_rts_view_resumes_when_units_stop_moving(self):
        """The rts health rule rewrites every unit each tick
        (``health − damage``).  With no damage those writes change nothing,
        so they are not churn: once the units stop moving, the suspended
        view's tables stop advancing and it resumes."""
        worlds = [
            build_rts_world(
                300,
                with_physics=False,
                scripts=["count_neighbours"],
                config=EngineConfig(use_incremental=flag),
            )
            for flag in (True, False)
        ]
        ids = [row["id"] for row in worlds[0].objects("Unit")]
        rng = random.Random(5)
        states = []
        for tick in range(1, 12):
            if 2 <= tick <= 5:  # every unit moves
                for object_id in ids:
                    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                    for world in worlds:
                        world.set_state("Unit", object_id, x=x, y=y)
            for world in worlds:
                world.tick()
            assert worlds[0].last_effects.values == worlds[1].last_effects.values, tick
            (entry,) = worlds[0].executor.incremental_report()
            states.append(entry["state"])
        assert states[3:5] == ["suspended", "suspended"]
        assert states[-1] == "live"
        assert (entry["suspensions"], entry["resumes"]) == (1, 1)

    def test_suspended_view_reads_no_change_log(self, monkeypatch):
        catalog, units = _units_catalog(n_rows=200)
        plan = Project(TableScan("units"), {"id": col("id"), "x": col("x")})
        inc = Executor(catalog)
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        inc.execute(plan)
        rng = random.Random(3)

        def rewrite_all() -> None:
            for rowid in list(units.row_ids()):
                units.update(rowid, {"x": rng.uniform(0, 100)})

        for _ in range(3):
            rewrite_all()
            inc.execute(plan)
        view = inc.incremental_view(plan)
        assert view.state == "suspended"
        calls = []
        changes_since = Table.changes_since

        def counting(self, *args, **kwargs):
            calls.append(self.name)
            return changes_since(self, *args, **kwargs)

        monkeypatch.setattr(Table, "changes_since", counting)
        full_refreshes = view.full_refreshes
        for _ in range(4):
            rewrite_all()
            assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "suspended")
        assert calls == [] and view.full_refreshes == full_refreshes
        assert view.state == "suspended"
        # Quiet tables resume the view on the next call.
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "resumed")
        assert view.state == "live" and view.resumes == 1

    def test_refresh_error_drops_view_for_good(self):
        catalog, units = _units_catalog(n_rows=50)
        plan = Project(TableScan("units"), {"id": col("id")})
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        inc.execute(plan)
        view = inc.incremental_view(plan)

        def broken() -> None:
            raise ExecutionError("rebuild failed")

        view.root.rebuild = broken
        units.restore(units.snapshot())  # resets the change log: forces a rebuild
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "dropped")
        (entry,) = inc.incremental_report()
        assert entry["state"] == "dropped" and entry["reason"] == "ExecutionError"
        assert entry["message"] == "rebuild failed"
        assert not inc.register_incremental(plan)
        inc.execute(plan)
        assert view.state == "dropped"
