"""Static checks on the package source: exported names resolve, every
import names the standard library or a runtime dependency, no module
imports a name it never uses, every private module-level name
is used somewhere in the package, each matrix decomposition has one
call site, the eigendecomposition exponential serves only the
non-resonant paths, the raising index maps have four readers, the
Laguerre recurrence is written once, the manifold kernel has two readers,
one walk serves every state graph, the search's closed component comes
from that walk,
couplings are taken a manifold at a time, YAML is read and written only
by the scenario parser and emitter, and the command line writes files in
one place."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ionctrl"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"ionctrl.{name}")
    missing = [entry for entry in dunder_all(parse(name)) if not hasattr(module, entry)]
    assert not missing


def test_package_imports_resolve():
    package = importlib.import_module("ionctrl")
    imported = [
        alias.asname or alias.name
        for node in ast.walk(parse("__init__"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if not hasattr(package, name)] == []


# pyproject's runtime dependencies, by import name, and the package itself
RUNTIME_IMPORTS = {"numpy", "yaml", "ionctrl"}


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_imports_are_stdlib_or_runtime_dependencies(name):
    """Every import, at any depth, names the standard library, numpy, yaml
    or the package itself: scipy and the other test dependencies are not
    installed with the package."""
    roots = {}
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.Import):
            roots.update((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots[node.module.split(".")[0]] = node.lineno
    allowed = set(sys.stdlib_module_names) | RUNTIME_IMPORTS
    assert {root: line for root, line in roots.items() if root not in allowed} == {}


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = parse(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(dunder_all(tree))
    assert {n: line for n, line in imported.items() if n not in used} == {}


def private_definitions(tree):
    """Module-level `_name` functions, classes and constants, with their statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def loaded_names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    }


def test_private_names_are_used():
    trees = {name: parse(name) for name in MODULES + ["__init__"]}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    unused = [
        f"{name}.{private}"
        for name in MODULES
        for private, definition in private_definitions(trees[name])
        if not any(private in loaded_names(s) for s in statements if s is not definition)
    ]
    assert unused == []


def test_one_call_site_per_decomposition():
    """`np.linalg.eigh` is called in the Hermitian exponential and the
    resonant parity-block propagator, `eigvalsh` and `qr` each in exactly
    one place, the Laguerre zeros and the Lie sweep's complement, and
    nothing calls `svd`."""
    sites = {"eigh": [], "eigvalsh": [], "svd": [], "qr": []}
    for name in MODULES:
        for top in parse(name).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in sites
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "linalg"
                ):
                    sites[func.attr].append(f"{name}.{getattr(top, 'name', '<module>')}")
    assert sites == {
        "eigh": ["dynamics._parity_propagate", "fock._evolve"],
        "eigvalsh": ["laguerre.laguerre_zeros"],
        "svd": [],
        "qr": ["liealg.dynamical_lie_algebra"],
    }


def function_users(name):
    """Module-level functions of the package that reference `name`."""
    return {
        f"{module}.{top.name}"
        for module in MODULES
        for top in parse(module).body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == name
    }


def test_dense_exponential_serves_only_non_resonant_paths():
    """`fock._evolve` is referenced only by the time-dependent oracle, the
    split-product defect and the displacement oracle; resonant propagation
    goes through the parity-block propagator."""
    assert function_users("_evolve") == {
        "dynamics._oracle_final_state",
        "dynamics.bch_defect",
        "fock._displacement_block",
    }


def test_raising_index_maps_have_four_readers():
    """`model._raising` (the index maps of one manifold) is read only by
    the dense generator builder, the parity blocks of the propagator, the
    coupling graph and the oracle's manifold terms."""
    assert function_users("_raising") == {
        "model._generators",
        "dynamics._parity_blocks",
        "graph.build_graph",
        "dynamics._manifold_terms",
    }


def test_laguerre_ladder_has_two_readers():
    """`laguerre._ladder` (the one upward recurrence) is read only by
    `laguerre` and the displacement kernel of a whole manifold."""
    assert function_users("_ladder") == {"laguerre.laguerre", "fock._manifold"}


def test_manifold_kernel_has_two_readers():
    """`fock._manifold` (the displacement elements of one manifold) is read
    only by `model._rungs`, which applies the mode weight's sign, and the
    one-element `displacement_element`: every coupling of a model, the
    `matelem` table's among them, carries that sign from one place."""
    assert function_users("_manifold") == {"model._rungs", "fock.displacement_element"}


def test_state_graph_walk_has_two_readers():
    """`graph._traverse` (the one walk over a state graph) is referenced
    only by the coupling graph's components and the Lie sweep's grading."""
    assert function_users("_traverse") == {"graph.connected_components", "liealg._grading"}


def test_search_component_comes_from_the_graph_walk():
    """The search scores on the components `graph.connected_components`
    finds: `optimize._component_blocks` reads them, and `optimize` has no
    `while` loop, the shape a second walk over the states would take."""
    users = {f for f in function_users("connected_components") if f.startswith("optimize.")}
    assert users == {"optimize._component_blocks"}
    assert [n.lineno for n in ast.walk(parse("optimize")) if isinstance(n, ast.While)] == []


def test_no_per_element_coupling_calls():
    """`model`, `liealg` and `cli` take couplings a manifold at a time:
    none of them calls the one-element `displacement_element` or
    `laguerre`."""
    calls = [
        f"{module}.{getattr(top, 'name', '<module>')}"
        for module in ("model", "liealg", "cli")
        for top in parse(module).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in ("displacement_element", "laguerre")
    ]
    assert calls == []


def test_yaml_is_read_and_written_by_the_scenario_pair_alone():
    """`yaml.load`, `yaml.dump` and their `safe_` forms are called only by
    `parse_scenario` and `emit_scenario`, which pick libyaml where PyYAML
    has it."""
    calls = {
        f"{module}.{getattr(top, 'name', '<module>')}"
        for module in MODULES + ["__init__"]
        for top in parse(module).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("safe_load", "safe_dump", "load", "dump")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "yaml"
    }
    assert calls == {"scenario.parse_scenario", "scenario.emit_scenario"}


def test_cli_writes_files_in_one_place():
    """Inside `cli`, only `_write` calls `write_csv` or a file-writing
    method: every task returns its outputs, and `main` writes them after
    the task has succeeded, so a refused or failed run writes no file.
    `main` alone hashes the scenario, once per run."""
    writers = ("write_csv", "write_text", "write_bytes", "mkdir", "open", "touch")
    calls = {
        getattr(top, "name", "<module>")
        for top in parse("cli").body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id in writers
            or isinstance(node.func, ast.Attribute) and node.func.attr in writers
        )
    }
    assert calls == {"_write"}
    assert function_users("_provenance") == {"cli.main"}
