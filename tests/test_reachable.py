"""Every public name in ``src/telulab`` has a caller, so no wrapper or
setting stays in the package without one.

The walk parses each module with :mod:`ast`.  Its roots are every function
in ``cli.py``, every part of a module-level statement that runs at import,
and the library API: the names README's "Library use" section imports
from telulab or writes as ``module.name``, and the names ``perfbench/*.py``
imports from telulab.  A name that a reached node mentions, as an
``ast.Name`` id or an ``ast.Attribute`` attr, reaches every top-level def
or assignment of that name in any module, up to a fixpoint.  Matching bare names over-approximates the call graph: an
unused name that shares a used one's spelling goes unflagged, but a used
name is never flagged.  Test oracles live in ``tests/`` (``oracles.py``).
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

from oracles import finite_difference_check

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "telulab"


def parse_package() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _library_section() -> str:
    return (ROOT / "README.md").read_text().split("## Library use\n", 1)[1].split("\n## ", 1)[0]


def readme_api() -> set[tuple[str, str]]:
    """``(module, name)`` for each name README's "Library use" section
    documents as telulab API: what its code block imports from telulab,
    and each ``module.name`` span whose module is one of telulab's."""
    section = _library_section()
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    api = {
        (node.module, alias.name)
        for node in ast.parse(block).body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("telulab")
        for alias in node.names
    }
    for stem, attr in re.findall(r"`(\w+)\.(\w+)", section):
        if (PACKAGE / f"{stem}.py").exists():
            api.add((f"telulab.{stem}", attr))
    return api


def library_names() -> set[str]:
    """The names README documents as telulab API, and every name that a
    ``perfbench/*.py`` file imports from telulab."""
    names = {name for _, name in readme_api()}
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("telulab"):
                names.update(alias.name for alias in node.names)
    return names


def _runs_at_import(stmt: ast.stmt) -> list[ast.AST]:
    """The parts of a module-level statement that run when it is imported."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [*stmt.decorator_list, *stmt.args.defaults, *filter(None, stmt.args.kw_defaults)]
    if isinstance(stmt, ast.ClassDef):
        body = [part for s in stmt.body for part in _runs_at_import(s)]
        return [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *body]
    return [stmt]


def _definitions(modules: dict[str, ast.Module]) -> dict[str, list[ast.stmt]]:
    """Each top-level def or assignment, under every name it binds."""
    defs: dict[str, list[ast.stmt]] = {}
    for tree in modules.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in bound:
                defs.setdefault(name, []).append(stmt)
    return defs


def _mentioned(nodes: list[ast.AST]) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _exports(tree: ast.Module) -> ast.Assign | None:
    """A module's ``__all__ = [...]`` statement, if it has one."""
    return next(
        (s for s in tree.body if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "__all__"),
        None,
    )


def unreached(modules: dict[str, ast.Module], allowed: set[str]) -> list[str]:
    """``module.name`` for each name in a module's ``__all__`` that is
    neither allowed nor reached from the roots."""
    defs = _definitions(modules)
    frontier = [s for s in modules["cli"].body if isinstance(s, ast.FunctionDef)]
    frontier += [part for tree in modules.values() for s in tree.body for part in _runs_at_import(s)]
    frontier += [d for name in allowed for d in defs.get(name, [])]
    reached: set[str] = set()
    while frontier:
        new = _mentioned(frontier) - reached
        reached |= new
        frontier = [d for name in new for d in defs.get(name, [])]
    orphans = []
    for stem, tree in modules.items():
        exports = _exports(tree)
        names = ast.literal_eval(exports.value) if exports else []
        orphans += [f"{stem}.{name}" for name in names if name not in reached | allowed]
    return orphans


def test_every_public_name_is_called_or_library_api():
    orphans = unreached(parse_package(), library_names())
    assert not orphans, f"public names with no caller, not in README's Library use nor perfbench: {orphans}"


def test_an_uncalled_public_function_is_flagged():
    # the finite-difference oracle put back into the engine, in its __all__
    modules = parse_package()
    engine = modules["autograd"]
    engine.body += ast.parse(inspect.getsource(finite_difference_check)).body
    _exports(engine).value.elts.append(ast.Constant("finite_difference_check"))
    assert unreached(modules, library_names()) == ["autograd.finite_difference_check"]


def test_readme_library_names_exist():
    # the section is the allowed list, so it may only name what telulab has
    for module, name in sorted(readme_api()):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
