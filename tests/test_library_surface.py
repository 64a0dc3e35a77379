"""Every public function, class, method and property of the library has a
caller outside tests, and so does every field of the settings
dataclasses.  Every private module-level function and class is
referenced in its module outside its own definition.

A name counts as used when code other than its own definition refers to
it: a name, an attribute or a string equal to it (``getattr``-style
wrapping) in ``src/`` or in a non-test file under ``perfbench/``, or an
entry point in ``[project.scripts]``; a method or property counts as
used when an attribute of its name appears there outside its own body.
Oracles that only tests compare against are listed in ``ORACLES``.  A
settings field counts as used when one of those files passes it by
keyword to its dataclass.  Within the
library, every module-level import is read, and so is every local name a
function assigns (other than ``_...``) and every module-level name a
module assigns (other than ``__...__``): a module constant that no code
reads is dead.  A method of a library dataclass assigns only the
dataclass's declared fields on ``self``, so every attribute of an
instance is one its constructor takes.  The library builds every solve
record through one ``SolveResult(...)`` call.
"""

import ast
import dataclasses
import re
from collections import defaultdict
from pathlib import Path

from exitmoment.conic import SolverSettings
from exitmoment.mc import McConfig

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "exitmoment").glob("*.py"))
CALLERS = LIBRARY + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# the Monte Carlo measure moments and the SDPA re-import of a program:
# independent references that tests compare the assembly and export against
ORACLES = {"measure_moments", "program_sdpa_image"}


def references(tree: ast.Module):
    """(name, enclosing top-level definition or None) of every reference."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value, owner


def entry_points() -> set:
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', section))


def test_every_public_name_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    sites = defaultdict(set)             # name -> {(file, owner)}
    for path, tree in trees.items():
        for name, owner in references(tree):
            sites[name].add((path, owner))
    scripts = entry_points()

    unused = set()
    for path in LIBRARY:
        for stmt in trees[path].body:
            if not isinstance(stmt, DEFINITIONS) or stmt.name.startswith("_"):
                continue
            if stmt.name in scripts:
                continue
            if not sites[stmt.name] - {(path, stmt.name)}:
                unused.add(stmt.name)
    assert unused == ORACLES, f"called only from tests: {sorted(unused - ORACLES)}"


def test_every_private_name_is_referenced():
    unreferenced = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        sites = defaultdict(set)
        for name, owner in references(tree):
            sites[name].add(owner)
        for stmt in tree.body:
            if (isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_")
                    and not sites[stmt.name] - {stmt.name}):
                unreferenced.append(f"{path.name}: {stmt.name}")
    assert not unreferenced, f"never referenced: {unreferenced}"


def test_every_settings_field_is_passed_by_a_caller():
    passed = defaultdict(set)            # constructor name -> keywords
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                passed[name].update(k.arg for k in node.keywords)
    for cls in (SolverSettings, McConfig):
        unset = {f.name for f in dataclasses.fields(cls)} - passed[cls.__name__]
        assert not unset, f"{cls.__name__} fields set only by tests: {sorted(unset)}"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_every_public_member_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    attributes = defaultdict(list)       # name -> Attribute nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes[node.attr].append(node)
    unused = []
    for path in LIBRARY:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, FUNCTIONS) or member.name.startswith("_"):
                    continue
                own = set(map(id, ast.walk(member)))
                if all(id(node) in own for node in attributes[member.name]):
                    unused.append(f"{path.name}: {cls.name}.{member.name}")
    assert not unused, f"members called only from tests: {unused}"


def _own_nodes(func):
    """Nodes of ``func`` outside the functions, lambdas and classes nested
    in it."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _names(nodes, ctx):
    return {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def test_every_import_and_local_name_is_read():
    unread = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        loaded = _names(ast.walk(tree), ast.Load)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unread.append(f"{path.name}: import {name}")
        for func in ast.walk(tree):
            if not isinstance(func, FUNCTIONS):
                continue
            stored = _names(_own_nodes(func), ast.Store)
            for node in _own_nodes(func):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    stored -= set(node.names)
            for name in stored - _names(ast.walk(func), ast.Load):
                if not name.startswith("_"):
                    unread.append(f"{path.name}: {func.name} assigns {name}")
    assert not unread, f"never read: {sorted(unread)}"


def module_assignments(tree: ast.Module):
    """Names the module body binds by assignment, dunder names aside."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and not (
                        node.id.startswith("__") and node.id.endswith("__")):
                    yield node.id


def test_every_module_assignment_is_read():
    trees = {path: ast.parse(path.read_text()) for path in LIBRARY}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    assigned = [(path.name, name) for path, tree in trees.items()
                for name in module_assignments(tree)]
    assert assigned
    unread = [f"{file}: {name}" for file, name in assigned if name not in read]
    assert not unread, f"assigned at module level, never read: {unread}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def test_dataclass_methods_assign_only_declared_fields():
    checked, hidden = [], []
    for path in LIBRARY:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            checked.append(cls.name)
            fields = {stmt.target.id for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)}
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in fields):
                    hidden.append(f"{path.name}: {cls.name}.{node.attr}")
    assert "AugmentedModel" in checked
    assert not hidden, f"assigned on self but not a dataclass field: {hidden}"


def test_one_call_builds_every_solve_record():
    calls = [f"{path.name}:{node.lineno}" for path in LIBRARY
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SolveResult"]
    assert len(calls) == 1, f"SolveResult built at {calls}"


# the svec layout's owner (``svec_layout``) and ``_betas``, which ranks the
# betas of the upper triangle; ``sdpa`` writes the (i, j) of each entry
TRIU_CALLERS = {"momentproblem.py", "sdpa.py"}


def test_only_the_svec_layout_owner_and_the_sdpa_writer_call_triu_indices():
    calls = {f"{path.name}:{node.lineno}" for path in LIBRARY
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "triu_indices"}
    stray = sorted(c for c in calls if c.split(":")[0] not in TRIU_CALLERS)
    assert not stray, f"np.triu_indices called outside the svec layout's owner: {stray}"
