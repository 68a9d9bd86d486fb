"""Checks on the package source itself and on the repository's benchmark records."""

import ast
import json
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hardylab"


def module_level_names(tree: ast.Module):
    """The functions, classes and assigned names at the top of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_module_name_is_used():
    # a helper that a deleted code path leaves behind is dead code: every
    # module-level _name must be read somewhere in the package, by name or
    # as a module attribute
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    dead = [f"{module}: {name}" for module, tree in trees.items()
            for name in module_level_names(tree)
            if name.startswith("_") and not name.startswith("__") and name not in loaded]
    assert dead == []


def test_each_structural_grid_field_has_one_setter():
    # the fields a Grid's constructor cannot set say how its cells are
    # laid out; the code that builds that layout sets each of them, once,
    # so no second place decides a grid's structure
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    grid = next(node for node in ast.walk(trees["quadrature.py"])
                if isinstance(node, ast.ClassDef) and node.name == "Grid")
    structural = [node.target.id for node in grid.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
                  and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                          and kw.value.value is False for kw in node.value.keywords)]
    setters = {name: [] for name in structural}
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__"
                        and isinstance(call.args[1], ast.Constant)
                        and call.args[1].value in setters):
                    setters[call.args[1].value].append(f"{module}:{fn.name}")
    assert setters == {"planes": ["quadrature.py:run_grid"],
                       "lattice": ["quadrature.py:union_grid"],
                       "within": ["quadrature.py:masked_grid"]}


def test_range_rule_is_stated_once():
    # the seminorm's range rule, |log2 h| max(d + sp, 2d) <= 1022 for a cell
    # side h, is quadrature.check_cell_side, and every check of a cell side
    # calls it: the bound's numbers appear nowhere else, so no command keeps
    # a limit of its own that can disagree with it
    rule = next(node for node in ast.walk(ast.parse((SRC / "quadrature.py").read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "check_cell_side")
    inside = {f"quadrature.py:{i}" for i in range(rule.lineno, rule.end_lineno + 1)}
    found = [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"(?<![\d.])(1022|511)(?!\d)", line)]
    assert found and set(found) <= inside, found


def test_each_domain_states_its_boundary_once():
    # Domain.distance decides the closed domain, so no domain keeps a
    # second membership test beside it, and each graph states its own
    # distance: the epigraph names no graph class
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    closures = [f"{module}:{node.lineno}" for module, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "contains_closure"]
    assert closures == []
    classes = {node.name: node for node in ast.walk(trees["geometry.py"])
               if isinstance(node, ast.ClassDef)}
    graphs = {name for name, node in classes.items()
              if any(ast.unparse(base) == "LipschitzGraph" for base in node.bases)}
    named = {node.id for node in ast.walk(classes["Epigraph"]) if isinstance(node, ast.Name)}
    assert graphs and not graphs & named, graphs & named


def test_bench_records_name_only_benchmark_metrics():
    # a BENCH_*.json records a claimed gain: its summary may name only the
    # benchmark's workloads and end-to-end metrics, each with both medians,
    # the parent's spread and the win count, and every run must be correct
    root = SRC.parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        summary = json.loads(path.read_text())["summary"]
        assert summary and set(summary) <= workloads, path.name
        for workload, entry in summary.items():
            assert entry.pop("correct_all") is True, f"{path.name}: {workload}"
            assert entry and set(entry) <= metrics, f"{path.name}: {workload}"
            for name, stats in entry.items():
                assert {"parent_median", "change_median", "parent_iqr",
                        "change_wins"} <= set(stats), f"{path.name}: {workload}.{name}"
