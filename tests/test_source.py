"""Checks on the package source itself and on the repository's benchmark records."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
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


def test_growth_threshold_is_stated_once():
    # the probe's verdict constant is ProbeResult.growth_threshold: no
    # config field, parameter or second copy of it can move a verdict
    found = [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"(?<![\d.])1\.15(?!\d)", line)]
    assert len(found) == 1 and found[0].startswith("experiments.py:"), found


def test_dyadic_lattice_is_stated_once():
    # geometry.dyadic_corners turns a cube index into its corner and
    # geometry.dyadic_parent halves a corner into the one above: no other
    # function of the package splits an index by divmod or halves a corner
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = sorted({f"{module}:{fn.name}" for module, tree in trees.items()
                    for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("divmod"))
                    or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv))})
    assert found == ["geometry.py:dyadic_corners", "geometry.py:dyadic_parent"]


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


def test_cli_imports_no_numpy():
    # each command reads its fields, calls the library and lays out the
    # record: the arithmetic of its rules and batteries is the library's
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "numpy"], imported


def test_demos_import_only_hardylab_numpy_and_the_standard_library():
    # the suite runs the demos in-process with tests/ on sys.path, so a
    # demo that imported a test helper would pass there and fail when a
    # user runs it with only the package on the path
    allowed = {"hardylab", "numpy"} | set(sys.stdlib_module_names)
    demos = sorted((SRC.parents[1] / "demos").glob("0*.py"))
    found = {}
    for path in demos:
        tree = ast.parse(path.read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        foreign = sorted({name for name in imported if name.split(".")[0] not in allowed})
        if foreign:
            found[path.name] = foreign
    assert demos and found == {}, found


def test_support_rule_names_no_domain_class():
    # each domain states its own box test (Domain.holds) beside its
    # geometry; the members' support rule calls it for any domain
    tree = ast.parse((SRC / "geometry.py").read_text())
    domains = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and node.name != "Box"}
    rule = next(node for node in ast.walk(ast.parse((SRC / "quadrature.py").read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "check_support")
    named = {node.attr for stmt in rule.body for node in ast.walk(stmt)
             if isinstance(node, ast.Attribute)}
    assert "holds" in named and not named & domains, named & domains


def load_bench_tool():
    spec = importlib.util.spec_from_file_location("bench", SRC.parents[1] / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tool_summary():
    # five pairs of fixed numbers: medians of each side, the parent's
    # quartile distance by linear interpolation, wins in the better
    # direction (ties count for neither), and correct_all over every run
    bench = load_bench_tool()
    parent = [0.20, 0.18, 0.19, 0.21, 0.17]
    change = [0.15, 0.18, 0.16, 0.14, 0.19]
    rss = ([50.0, 50.0, 51.0, 50.0, 50.0], [49.0, 50.0, 52.0, 48.0, 49.5])
    runs = {"parent": [{"pair": i, "correct": True, "failed": 0, "pass_p50_s": t, "peak_rss_mb": m}
                       for i, (t, m) in enumerate(zip(parent, rss[0]), 1)],
            "change": [{"pair": i, "correct": True, "failed": 0, "pass_p50_s": t, "peak_rss_mb": m}
                       for i, (t, m) in enumerate(zip(change, rss[1]), 1)]}
    metrics = {"pass_p50_s": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}
    summary = bench.summarize(runs, metrics)
    assert summary == {
        "pass_p50_s": {"parent_median": 0.19, "change_median": 0.16, "parent_iqr": 0.02,
                       "change_wins": "3/5", "change_pct": -15.8},
        "peak_rss_mb": {"parent_median": 50.0, "change_median": 49.5, "parent_iqr": 0.0,
                        "change_wins": "3/5", "change_pct": -1.0},
        "correct_all": True,
    }
    assert bench.summarize(runs, {"pass_p50_s": "higher"})["pass_p50_s"]["change_wins"] == "1/5"
    runs["change"][2] = {"pair": 3, "correct": False, "failed": None, "returncode": 1}
    summary = bench.summarize(runs, metrics)
    assert summary["correct_all"] is False
    assert summary["pass_p50_s"]["change_wins"] == "2/4"


def test_surface_tool_lists_the_public_names():
    # tools/surface.py, which the CI diffs against the base branch: each
    # traced module's __all__ in module order, then the error classes
    root = SRC.parents[1]
    out = subprocess.run([sys.executable, str(root / "tools" / "surface.py"), str(root)],
                         capture_output=True, text=True, check=True).stdout.split()
    assert len(out) == len(set(out)) and "quadrature.as_grid" in out
    assert [name for name in out if name.startswith("errors.")] == [
        "errors.HardyLabError", "errors.ParameterError", "errors.EvaluationError"]
