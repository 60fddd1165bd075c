"""Static checks over the package source."""

import ast
import importlib
import sys
from pathlib import Path

import quadparts

SRC = Path(quadparts.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {str(path.relative_to(SRC)): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def _named(tree: ast.Module) -> set[str]:
    """Every name a module reads: variables, attributes, imported names
    (re-exports included) and the strings listed in `__all__`."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_every_definition_is_named_in_src():
    """No function, method or class of the package exists only for the
    tests: each is named by some module of the package.  Dunder methods are
    called by the language and exempt.  The check goes by name, so a
    definition whose name another definition shares is not caught."""
    trees = _trees()
    named = set().union(*map(_named, trees.values()))
    unnamed = sorted(
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")) and node.name not in named
    )
    assert unnamed == []


def test_every_imported_name_is_read():
    """No module of the package imports a name it never reads.  A package
    `__init__` re-exports what it imports and is exempt, and so are
    `__future__` imports.  A name read only inside a string does not count."""
    unread = []
    for module, tree in _trees().items():
        if Path(module).name == "__init__.py":
            continue
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unread == []


def test_every_absolute_import_is_in_the_standard_library():
    """The package declares no runtime dependency (`dependencies = []` in
    pyproject.toml): each absolute import names a standard-library module,
    so networkx and hypothesis stay test-only."""
    outside = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_exported_name_is_bound():
    """Each name a package lists in `__all__` is bound in that package, so a
    deleted class or function leaves no stale export behind."""
    packages = [importlib.import_module(".".join(("quadparts", *Path(module).parent.parts)))
                for module in _trees() if Path(module).name == "__init__.py"]
    stale = [f"{package.__name__}.{name}" for package in packages
             for name in getattr(package, "__all__", ()) if not hasattr(package, name)]
    assert len(packages) == 2 and stale == []


def test_gadgets_hold_no_closures():
    """Each lift is a module-level function that reads its gadget's record,
    so the builder modules and `leaf_gadget` define no nested function and
    no lambda: a closure stored in a gadget would keep cells and functions
    alive for the cyclic collector to walk."""
    trees = _trees()
    scopes = [trees[f"engine/{name}.py"] for name in ("series", "parallel", "reducible")]
    scopes += [node for node in trees["engine/model.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "leaf_gadget"]
    nested = []
    for scope in scopes:
        outer = set(map(id, scope.body)) if isinstance(scope, ast.Module) else {id(scope)}
        nested += [f"{getattr(node, 'name', 'lambda')}:{node.lineno}" for node in ast.walk(scope)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   and id(node) not in outer]
    assert len(scopes) == 4 and nested == []


def test_only_the_model_reads_a_realizations_trees():
    """A split realization holds its two trees as an unordered pair, and
    only `engine/model.py` reads the pair itself: every other module reads
    a tree by its root through `Realization.at`, so no code depends on
    which end a tree sits at.  The rule goes by attribute name and also
    counts `p_tree` and `q_tree`, names of trees held by position."""
    readers = [f"{module}:{node.lineno} {node.attr}" for module, tree in _trees().items()
               if module != "engine/model.py" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in ("trees", "p_tree", "q_tree")]
    assert readers == []


def test_only_cli_commands_import_at_call_time():
    """Every import of the package runs at module level, except in the
    commands of `cli.py` that need what `partition` never runs: those import
    the acceptance suite, the graph families or the tree partitioner when
    they run, and nothing else, so each module's other dependencies can be
    read off its head."""
    deferred = {"acceptance", "families", "treepart"}
    named, inside = set(), []
    for module, tree in _trees().items():
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                targets = ({node.module} if getattr(node, "module", None) else
                           {alias.name for alias in node.names})
                if (module == "cli.py" and scope.name.startswith("cmd_") and getattr(node, "level", 0) == 1
                        and targets <= deferred):
                    named |= targets
                else:
                    inside.append(f"{module}:{node.lineno} {scope.name}")
    assert inside == [] and named == deferred
