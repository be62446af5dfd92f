"""Tests for tables, index maintenance, statistics and the catalog."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Catalog, Column, DataType, Schema, Table
from repro.engine.errors import CatalogError, ExecutionError
from repro.engine.indexes import GridIndex, HashIndex, KdTreeIndex, RangeTreeIndex, SortedIndex
from repro.engine.statistics import estimate_selectivity
from repro.engine.expressions import col, lit


def make_table() -> Table:
    schema = Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
            Column("team", DataType.NUMBER),
        ]
    )
    return Table("unit", schema, key="id")


class TestTable:
    def test_insert_get_update_delete(self):
        table = make_table()
        rowid = table.insert({"id": 1, "x": 2, "y": 3, "team": 0})
        assert table.get(rowid)["x"] == 2
        table.update(rowid, {"x": 9})
        assert table.get_by_key(1)["x"] == 9
        table.delete(rowid)
        assert len(table) == 0
        assert table.get_by_key(1) is None

    def test_duplicate_key_rejected(self):
        table = make_table()
        table.insert({"id": 1})
        with pytest.raises(ExecutionError):
            table.insert({"id": 1})

    def test_update_key_maintains_key_map(self):
        table = make_table()
        rowid = table.insert({"id": 1, "x": 5})
        table.update(rowid, {"id": 2})
        assert table.get_by_key(2)["x"] == 5
        assert table.get_by_key(1) is None

    def test_freeze_blocks_writes(self):
        table = make_table()
        table.insert({"id": 1})
        table.freeze()
        with pytest.raises(ExecutionError):
            table.insert({"id": 2})
        with pytest.raises(ExecutionError):
            table.update(0, {"x": 1})
        table.thaw()
        table.insert({"id": 2})

    def test_snapshot_restore(self):
        table = make_table()
        table.insert({"id": 1, "x": 1})
        snapshot = table.snapshot()
        table.update_by_key(1, {"x": 99})
        table.insert({"id": 2})
        table.restore(snapshot)
        assert len(table) == 1
        assert table.get_by_key(1)["x"] == 1

    def test_delete_where_and_clear(self):
        table = make_table()
        for i in range(10):
            table.insert({"id": i, "team": i % 2})
        removed = table.delete_where(lambda row: row["team"] == 1)
        assert removed == 5
        table.clear()
        assert len(table) == 0

    def test_version_increments(self):
        table = make_table()
        v0 = table.version
        table.insert({"id": 1})
        assert table.version > v0

    def test_scan_returns_copies(self):
        table = make_table()
        table.insert({"id": 1, "x": 1})
        row = next(table.scan())
        row["x"] = 42
        assert table.get_by_key(1)["x"] == 1

    def test_to_batch_invalidated_on_schema_change(self):
        """Regression: replacing the schema must drop the columnar snapshot
        (previously the cache was keyed on version only and the version did
        not move, so a stale column list could be served)."""
        table = make_table()
        table.insert({"id": 1, "x": 2, "y": 3, "team": 0})
        before = table.to_batch()
        assert "hp" not in before.names
        version_before = table.version
        table.schema = table.schema.add(Column("hp", DataType.NUMBER))
        assert table.version > version_before
        after = table.to_batch()
        assert "hp" in after.names
        assert after.column("hp") == [None]
        # Same-object assignment stays a no-op.
        version = table.version
        table.schema = table.schema
        assert table.version == version
        # Schema replacement is a mutation: frozen tables refuse it.
        table.freeze()
        with pytest.raises(ExecutionError):
            table.schema = table.schema.add(Column("mp", DataType.NUMBER))
        table.thaw()


class TestChangeLog:
    def test_disabled_by_default(self):
        table = make_table()
        v0 = table.version
        table.insert({"id": 1})
        assert table.changes_since(v0) is None
        assert table.changes_since(table.version) == ([], [])

    def test_insert_update_delete_consolidation(self):
        table = make_table()
        table.enable_change_log()
        v0 = table.version
        rid = table.insert({"id": 1, "x": 5})
        table.update(rid, {"x": 7})
        # Insert + update consolidates to one added row with final values.
        added, removed = table.changes_since(v0)
        assert [r["x"] for r in added] == [7] and removed == []
        # From a later base version, an update shows old and new values.
        v1 = table.version
        table.update(rid, {"x": 9})
        added, removed = table.changes_since(v1)
        assert [r["x"] for r in added] == [9]
        assert [r["x"] for r in removed] == [7]
        # Insert followed by delete nets to nothing.
        v2 = table.version
        rid2 = table.insert({"id": 2})
        table.delete(rid2)
        assert table.changes_since(v2) == ([], [])

    def test_noop_update_nets_out(self):
        table = make_table()
        table.enable_change_log()
        rid = table.insert({"id": 1, "x": 5})
        v = table.version
        table.update(rid, {"x": 5})
        assert table.version > v  # version still moves...
        assert table.changes_since(v) == ([], [])  # ...but the delta is empty

    def test_truncation_and_bulk_resets(self):
        table = make_table()
        table.enable_change_log(capacity=4)
        v0 = table.version
        rids = [table.insert({"id": i}) for i in range(6)]
        assert table.changes_since(v0) is None  # log overflowed
        v1 = table.version
        table.delete(rids[0])
        assert table.changes_since(v1) is not None
        table.clear()
        assert table.changes_since(v1) is None  # bulk rewrite resets the log
        v2 = table.version
        table.insert({"id": 9})
        snapshot = table.snapshot()
        table.restore(snapshot)
        assert table.changes_since(v2) is None  # restore resets the log too

    def test_changes_pending(self):
        table = make_table()
        table.enable_change_log()
        v0 = table.version
        assert table.changes_pending(v0) == 0
        table.insert({"id": 1})
        table.insert({"id": 2})
        assert table.changes_pending(v0) == 2


class TestIndexMaintenance:
    def test_hash_index_lookup_and_maintenance(self):
        table = make_table()
        table.attach_index("team", HashIndex(["team"]))
        ids = [table.insert({"id": i, "team": i % 3}) for i in range(9)]
        index = table.index("team")
        assert len(list(index.lookup(0))) == 3
        table.update(ids[0], {"team": 1})
        assert len(list(index.lookup(0))) == 2
        assert len(list(index.lookup(1))) == 4
        table.delete(ids[1])
        assert len(list(index.lookup(1))) == 3

    def test_sorted_index_range(self):
        table = make_table()
        table.attach_index("x", SortedIndex("x"))
        for i in range(20):
            table.insert({"id": i, "x": i * 2})
        got = sorted(table.get(r)["id"] for r in table.index("x").range_search([(10, 20)]))
        assert got == [5, 6, 7, 8, 9, 10]
        assert table.index("x").min_value() == 0
        assert table.index("x").max_value() == 38

    def test_grid_index_moves_between_cells(self):
        table = make_table()
        table.attach_index("pos", GridIndex(["x", "y"], cell_size=10))
        rowid = table.insert({"id": 1, "x": 5, "y": 5})
        index = table.index("pos")
        assert list(index.range_search([(0, 9), (0, 9)])) == [rowid]
        table.update(rowid, {"x": 55, "y": 55})
        assert list(index.range_search([(0, 9), (0, 9)])) == []
        assert list(index.range_search([(50, 60), (50, 60)])) == [rowid]

    def test_catalog_index_api(self):
        catalog = Catalog()
        schema = make_table().schema
        catalog.create_table("unit", schema, key="id")
        catalog.create_index("unit", "by_team", HashIndex(["team"]))
        with pytest.raises(CatalogError):
            catalog.create_index("unit", "by_team", HashIndex(["team"]))
        catalog.drop_index("unit", "by_team")
        with pytest.raises(CatalogError):
            catalog.table("unit").index("by_team")


def brute_range(rows, bounds):
    out = []
    for rowid, (x, y) in rows.items():
        (lo_x, hi_x), (lo_y, hi_y) = bounds
        if lo_x <= x <= hi_x and lo_y <= y <= hi_y:
            out.append(rowid)
    return sorted(out)


class TestSpatialIndexCorrectness:
    @pytest.mark.parametrize("index_cls", [GridIndex, KdTreeIndex, RangeTreeIndex])
    def test_matches_brute_force(self, index_cls):
        table = make_table()
        rng = random.Random(3)
        points = {}
        for i in range(200):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            rowid = table.insert({"id": i, "x": x, "y": y})
            points[rowid] = (x, y)
        if index_cls is GridIndex:
            index = index_cls(["x", "y"], cell_size=7.0)
        else:
            index = index_cls(["x", "y"])
        table.attach_index("spatial", index)
        for _ in range(20):
            lo_x = rng.uniform(0, 90)
            lo_y = rng.uniform(0, 90)
            bounds = [(lo_x, lo_x + 15), (lo_y, lo_y + 15)]
            got = sorted(index.range_search(bounds))
            expected = brute_range(points, bounds)
            if index_cls is GridIndex:
                # The grid is a candidate generator; it may over-report.
                assert set(expected) <= set(got)
            else:
                assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.floats(min_value=0, max_value=50, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        box=st.tuples(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            st.floats(min_value=0, max_value=50, allow_nan=False),
            st.floats(min_value=0, max_value=25, allow_nan=False),
        ),
    )
    def test_range_tree_property(self, points, box):
        index = RangeTreeIndex(["x", "y"])
        index.build_from_points([((x, y), i) for i, (x, y) in enumerate(points)])
        x0, y0, width = box
        bounds = [(x0, x0 + width), (y0, y0 + width)]
        got = sorted(index.range_search(bounds))
        expected = sorted(
            i
            for i, (x, y) in enumerate(points)
            if x0 <= x <= x0 + width and y0 <= y <= y0 + width
        )
        assert got == expected

    def test_range_tree_space_blowup(self):
        """The layered tree uses asymptotically more entries than the kd-tree."""
        rng = random.Random(1)
        points = [((rng.random() * 100, rng.random() * 100), i) for i in range(512)]
        tree = RangeTreeIndex(["x", "y"])
        tree.build_from_points(points)
        kd = KdTreeIndex(["x", "y"])
        kd.build_from_points(points)
        assert tree.node_count() > 4 * kd.node_count()
        assert tree.estimated_bytes(16) == tree.node_count() * 16
        # Super-linear total space: the bytes per point grow with n.
        small = RangeTreeIndex(["x", "y"])
        small.build_from_points(points[:128])
        assert tree.estimated_bytes(16) / 512 > small.estimated_bytes(16) / 128

    def test_kdtree_nearest(self):
        kd = KdTreeIndex(["x", "y"])
        kd.build_from_points([((0, 0), "a"), ((10, 10), "b"), ((2, 1), "c")])
        assert kd.nearest((1, 1)) == "c"
        assert kd.nearest((9, 9)) == "b"


class TestStatistics:
    def test_collect_and_selectivity(self, unit_catalog):
        stats = unit_catalog.statistics("unit")
        assert stats.row_count == 100
        assert stats.column("player").distinct_count == 4
        sel = estimate_selectivity(col("player").eq(lit(1)), stats)
        assert 0.1 < sel < 0.5
        range_sel = estimate_selectivity(col("x").lt(lit(50)), stats)
        assert 0.2 < range_sel < 0.8

    def test_statistics_cache_invalidation(self, unit_catalog):
        stats1 = unit_catalog.statistics("unit")
        stats2 = unit_catalog.statistics("unit")
        assert stats1 is stats2
        unit_catalog.table("unit").insert({"id": 1000, "player": 0, "x": 1, "y": 1, "health": 5, "range": 5})
        stats3 = unit_catalog.statistics("unit")
        assert stats3 is not stats1
        assert stats3.row_count == 101

    def test_empty_table_statistics(self):
        catalog = Catalog()
        catalog.create_table("empty", make_table().schema)
        stats = catalog.statistics("empty")
        assert stats.row_count == 0
        assert estimate_selectivity(col("x").gt(lit(0)), stats) == 0.0

    def test_histogram_range_fraction(self, unit_catalog):
        stats = unit_catalog.statistics("unit")
        cs = stats.column("x")
        assert cs.range_selectivity(None, None) >= 0.99
        assert cs.range_selectivity(200, 300) == 0.0
