"""Nothing ships that only its own tests reach: the module census.

Every module under ``src/repro`` (package ``__init__`` files aside: they
only re-export) is on :data:`REACHERS` with one production reacher:

* ``e2e:<workload>`` — a workload of the end-to-end benchmark, named in
  ``BENCHMARK.json`` and driven by ``benchmarks/e2e``;
* ``example:<file>`` — a script in ``examples/``;
* ``reference`` — the row-operator target (``EngineConfig.reference()``),
  which the planner lowers to when kernels are off;
* ``shard worker`` — the worker process of a sharded world;
* ``ROADMAP item 2`` — only for the two indexes that item settles.

Reach is read from the import graph with re-exports resolved: a package
``__init__`` that re-exports a name does not reach the module defining it,
only an import of that name does, and imports under ``TYPE_CHECKING`` do
not count.  A module missing from the table fails, as does a reacher
whose import graph does not contain its module, or an entry whose module
is gone.  The import graph cannot tell the e2e workloads apart, so every
``e2e:`` reacher is checked against the whole harness.
"""

from __future__ import annotations

import ast
import json
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

REACHERS = {
    "engine/aggregates.py": "e2e:rts_served",
    "engine/algebra.py": "e2e:rts_served",
    "engine/batch.py": "e2e:rts_served",
    "engine/catalog.py": "e2e:rts_served",
    "engine/compile/exprgen.py": "e2e:rts_served",
    "engine/compile/kernels.py": "e2e:rts_served",
    "engine/config.py": "e2e:rts_served",
    "engine/errors.py": "e2e:rts_served",
    "engine/executor.py": "e2e:rts_served",
    "engine/expressions.py": "e2e:rts_served",
    "engine/indexes/grid_index.py": "e2e:rts_served",
    "engine/indexes/range_tree.py": "ROADMAP item 2",
    "engine/indexes/sorted_index.py": "ROADMAP item 2",
    "engine/operators/aggregate.py": "reference",
    "engine/operators/base.py": "e2e:rts_served",
    "engine/operators/batch_ops.py": "e2e:rts_served",
    "engine/operators/exchange.py": "shard worker",
    "engine/operators/filter.py": "reference",
    "engine/operators/fixpoint.py": "example:contagion_fixpoint.py",
    "engine/operators/incremental.py": "e2e:rts_lowchurn",
    "engine/operators/joins.py": "reference",
    "engine/operators/misc.py": "reference",
    "engine/operators/scan.py": "reference",
    "engine/operators/shared.py": "e2e:rts_served",
    "engine/optimizer/adaptive.py": "e2e:rts_served",
    "engine/optimizer/incremental.py": "e2e:rts_lowchurn",
    "engine/optimizer/mqo.py": "e2e:rts_served",
    "engine/optimizer/physical.py": "e2e:rts_served",
    "engine/optimizer/planner.py": "e2e:rts_served",
    "engine/optimizer/rules.py": "e2e:rts_served",
    "engine/schema.py": "e2e:rts_served",
    "engine/table.py": "e2e:rts_served",
    "engine/types.py": "e2e:rts_served",
    "obs/collector.py": "example:metrics_endpoint.py",
    "obs/http.py": "example:metrics_endpoint.py",
    "obs/metrics.py": "example:metrics_endpoint.py",
    "obs/prometheus.py": "example:metrics_endpoint.py",
    "obs/tracing.py": "example:metrics_endpoint.py",
    "persistence/log.py": "e2e:rts_served",
    "persistence/replay.py": "e2e:rts_served",
    "persistence/segment.py": "e2e:rts_served",
    "runtime/debug/inspector.py": "example:quickstart.py",
    "runtime/effects.py": "e2e:rts_served",
    "runtime/pathfinding.py": "example:reactive_patrol.py",
    "runtime/physics.py": "e2e:rts_served",
    "runtime/reactive.py": "example:reactive_patrol.py",
    "runtime/scheduler.py": "example:reactive_patrol.py",
    "runtime/transactions.py": "e2e:market_txn",
    "runtime/updates.py": "e2e:rts_served",
    "runtime/world.py": "e2e:rts_served",
    "service/interest.py": "e2e:mover_fanout",
    "service/outbox.py": "e2e:rts_served",
    "service/protocol.py": "e2e:rts_served",
    "service/server.py": "e2e:rts_served",
    "service/subscriptions.py": "e2e:rts_served",
    "sgl/ast_nodes.py": "e2e:rts_served",
    "sgl/compiler/expr_lower.py": "e2e:rts_served",
    "sgl/compiler/script_compiler.py": "e2e:rts_served",
    "sgl/errors.py": "e2e:rts_served",
    "sgl/interpreter.py": "example:rts_combat.py",
    "sgl/ir.py": "e2e:rts_served",
    "sgl/lexer.py": "e2e:rts_served",
    "sgl/multitick.py": "example:reactive_patrol.py",
    "sgl/parser.py": "e2e:rts_served",
    "sgl/schema_gen.py": "e2e:rts_served",
    "sgl/semantics.py": "e2e:rts_served",
    "shard/coordinator.py": "e2e:rts_sharded2",
    "shard/plans.py": "shard worker",
    "shard/spec.py": "e2e:rts_sharded2",
    "shard/wire.py": "e2e:rts_sharded2",
    "shard/worker.py": "e2e:rts_sharded2",
    "workloads/contagion.py": "example:contagion_fixpoint.py",
    "workloads/marketplace.py": "e2e:market_txn",
    "workloads/rts.py": "e2e:rts_served",
    "workloads/traffic.py": "example:traffic_simulation.py",
}

#: The only modules a ROADMAP item may vouch for.
ROADMAP_ITEM_2 = {"engine/indexes/range_tree.py", "engine/indexes/sorted_index.py"}


def _module_file(name: str) -> Path | None:
    path = SRC.joinpath(*name.split("."))
    if (path / "__init__.py").exists():
        return path / "__init__.py"
    if path.with_suffix(".py").exists():
        return path.with_suffix(".py")
    return None


def _package_of(path: Path) -> list[str]:
    if not path.is_relative_to(SRC):
        return []
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return parts if parts[-1] != "__init__" else parts[:-1]


@cache
def _imports(path: Path) -> tuple[tuple[str, str | None], ...]:
    """``(module, imported name or None)`` of every ``repro`` import in
    *path*, function-local ones included, ``TYPE_CHECKING`` ones left out."""
    tree = ast.parse(path.read_text(), str(path))
    annotation_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If)
        and isinstance(block.test, ast.Name)
        and block.test.id == "TYPE_CHECKING"
        for statement in block.body
        for node in ast.walk(statement)
    }
    package = _package_of(path)
    if path.name != "__init__.py":
        package = package[:-1]
    found = []
    for node in ast.walk(tree):
        if id(node) in annotation_only:
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            found += [(module, alias.name) for alias in node.names]
    return tuple((module, name) for module, name in found if module.split(".")[0] == "repro")


def _resolve(module: str, name: str | None) -> Path | None:
    """The file an import reaches: a submodule, the module itself, or —
    through a package ``__init__`` — the module that defines *name*."""
    if name is not None and (submodule := _module_file(f"{module}.{name}")) is not None:
        return submodule
    path = _module_file(module)
    if path is None or path.name != "__init__.py" or name is None:
        return path
    for source, imported in _imports(path):
        if imported == name:
            return _resolve(source, name)
    return path  # defined in the package itself


def reached_from(roots: list[Path]) -> set[str]:
    """Modules (paths under ``src/repro``) the import graph of *roots* reaches."""
    seen: set[Path] = set()
    todo = list(roots)
    while todo:
        for module, name in _imports(todo.pop()):
            target = _resolve(module, name)
            if target is not None and target not in seen:
                seen.add(target)
                if target.name != "__init__.py":
                    todo.append(target)
    return {path.relative_to(PACKAGE).as_posix() for path in seen if path.is_relative_to(PACKAGE)}


def e2e_workloads() -> set[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {workload["name"] for workload in declared["workloads"]}


@cache
def reach_of(reacher: str) -> set[str]:
    return reached_from(reacher_roots(reacher))


def reacher_roots(reacher: str) -> list[Path]:
    """The files a reacher starts from; an unknown reacher fails."""
    kind, _, target = reacher.partition(":")
    if kind == "e2e":
        assert target in e2e_workloads(), f"no e2e workload {target!r}"
        return sorted((ROOT / "benchmarks" / "e2e").rglob("*.py"))
    if kind == "example":
        example = ROOT / "examples" / target
        assert example.is_file(), f"no example {target!r}"
        return [example]
    if reacher == "reference":
        return [PACKAGE / "engine" / "optimizer" / "physical.py"]
    if reacher == "shard worker":
        return [PACKAGE / "shard" / "worker.py"]
    raise AssertionError(f"unknown reacher {reacher!r}")


def census_problems(modules: list[str], reachers: dict[str, str]) -> list[str]:
    problems = [f"{module}: no production reacher" for module in modules if module not in reachers]
    problems += [f"{module}: listed but gone" for module in reachers if module not in modules]
    for module, reacher in sorted(reachers.items()):
        if module not in modules:
            continue
        if reacher == "ROADMAP item 2":
            if module not in ROADMAP_ITEM_2:
                problems.append(f"{module}: ROADMAP item 2 vouches only for {sorted(ROADMAP_ITEM_2)}")
        elif module not in reach_of(reacher):
            problems.append(f"{module}: {reacher} does not reach it")
    return problems


def shipped_modules() -> list[str]:
    return sorted(
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    )


def test_every_module_has_a_production_reacher():
    assert census_problems(shipped_modules(), REACHERS) == []


def test_the_census_fails_a_module_without_a_reacher():
    modules = shipped_modules()
    assert census_problems([*modules, "runtime/orphan.py"], REACHERS) == [
        "runtime/orphan.py: no production reacher"
    ]
    wrong = {**REACHERS, "runtime/pathfinding.py": "example:quickstart.py"}
    assert census_problems(modules, wrong) == [
        "runtime/pathfinding.py: example:quickstart.py does not reach it"
    ]
    vouched = {**REACHERS, "runtime/pathfinding.py": "ROADMAP item 2"}
    assert census_problems(modules, vouched)[0].startswith("runtime/pathfinding.py: ROADMAP item 2")


def test_a_re_export_is_not_a_reach():
    # ``repro.runtime`` re-exports the pathfinding names, yet importing
    # the world through it reaches the world's module, not pathfinding.
    assert _resolve("repro.runtime", "GameWorld") == PACKAGE / "runtime" / "world.py"
    assert "runtime/pathfinding.py" not in reached_from([ROOT / "examples" / "quickstart.py"])
