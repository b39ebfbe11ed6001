"""A vendored stand-in for the two ``ruff`` rules that catch real
defects -- F401 (unused import) and F822 (undefined name in
``__all__``) -- so a lint regression fails tier-1 locally.

``ruff`` itself runs in CI (``pyproject.toml`` selects E4/E7/E9/F) but
is not installed in the build container.  This is an ``ast`` walk, not
a scope analysis: a name counts as used when it is read anywhere in the
module (including inside string annotations), listed in ``__all__``, or
imported under a ``# noqa`` comment.  That is looser than pyflakes --
it never cries wolf -- and still catches the import left behind by a
refactor.
"""

from __future__ import annotations

import ast
import pathlib
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = ("src", "tests", "benchmarks", "examples")


def _python_files() -> list[pathlib.Path]:
    return sorted(
        path for top in CHECKED for path in (ROOT / top).rglob("*.py"))


def _read_names(tree: ast.AST) -> set[str]:
    """Every identifier the module reads, string annotations included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            continue  # its base is a Name (or deeper), walked on its own
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SyntaxWarning)
                    quoted = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            names.update(
                sub.id for sub in ast.walk(quoted) if isinstance(sub, ast.Name))
    return names


def _declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return list(ast.literal_eval(value))
    return None


def _bound_at_top_level(tree: ast.Module) -> set[str]:
    """Names a module binds where ``from module import *`` can see them."""
    bound: set[str] = set()

    def bind(nodes) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    bound.update(sub.id for sub in ast.walk(target)
                                 if isinstance(sub, ast.Name))
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    bind(getattr(node, field, []))
            elif isinstance(node, ast.ExceptHandler):
                bind(node.body)

    bind(tree.body)
    return bound


def lint(source: str) -> list[str]:
    """The findings for one module's source, as ``line: message``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _declared_all(tree)
    used = _read_names(tree) | set(exported or ())
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa" in line for line in span):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                findings.append(
                    f"{node.lineno}: `{name}` imported but unused")
    if exported is not None:
        bound = _bound_at_top_level(tree)
        for name in exported:
            if name not in bound:
                findings.append(f"1: undefined name `{name}` in __all__")
    return findings


def test_no_unused_imports_or_undefined_exports():
    # One test for the whole tree: a test id per file would make every
    # later file rename a removed test.
    findings = [
        f"{path.relative_to(ROOT)}:{finding}"
        for path in _python_files() for finding in lint(path.read_text())
    ]
    assert findings == []


def test_the_checker_sees_what_it_should():
    assert lint("import os\nimport sys\nprint(sys.argv)\n") == [
        "1: `os` imported but unused"]
    assert lint("from a import b as c, d\nd()\n") == [
        "1: `c` imported but unused"]
    assert lint("import os  # noqa: F401\n") == []
    assert lint("from __future__ import annotations\n") == []
    assert lint("from a import B\ndef f(x: 'B | None'): ...\n") == []
    assert lint("from a import b\n__all__ = ['b']\n") == []
    assert lint("def f():\n    import json\n") == [
        "2: `json` imported but unused"]
    assert lint("__all__ = ['gone']\n") == [
        "1: undefined name `gone` in __all__"]
    assert lint("try:\n    import x\nexcept ImportError:\n    x = None\n"
                "__all__ = ['x', 'y']\ny: int = 1\n") == []
