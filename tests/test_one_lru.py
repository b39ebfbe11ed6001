"""Keep it at one LRU: ``repro.cache.BoundedCache`` owns eviction order.

An ``ast`` guard beside ``tests/test_lint.py``: outside ``repro/cache.py``
no module under ``src/repro`` may name ``OrderedDict``, call
``move_to_end`` or evict with ``popitem(last=False)`` -- a subsystem that
needs a bounded map uses :class:`~repro.cache.BoundedCache` instead of
growing its own copy of the policy.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CACHE_MODULE = PACKAGE / "cache.py"


def _lru_idioms(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, idiom)`` of every hand-written LRU idiom in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "OrderedDict":
            found.append((node.lineno, "OrderedDict"))
        elif isinstance(node, ast.alias) and node.name == "OrderedDict":
            found.append((node.lineno, "import OrderedDict"))
        elif isinstance(node, ast.Attribute) and node.attr in (
                "OrderedDict", "move_to_end"):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "popitem"
              and any(keyword.arg == "last"
                      and isinstance(keyword.value, ast.Constant)
                      and keyword.value.value is False
                      for keyword in node.keywords)):
            found.append((node.lineno, "popitem(last=False)"))
    return found


def test_lru_idioms_live_only_in_the_cache_module():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {idiom}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != CACHE_MODULE
        for line, idiom in _lru_idioms(ast.parse(path.read_text()))
    ]
    assert not offenders, (
        "hand-written LRU outside repro/cache.py (use BoundedCache):\n"
        + "\n".join(offenders))


def test_the_guard_sees_every_idiom():
    source = (
        "import collections\n"
        "from collections import OrderedDict\n"
        "table = collections.OrderedDict()\n"
        "table.move_to_end(1)\n"
        "table.popitem(last=False)\n"
    )
    assert sorted(_lru_idioms(ast.parse(source))) == [
        (2, "import OrderedDict"), (3, "OrderedDict"), (4, "move_to_end"),
        (5, "popitem(last=False)"),
    ]
    assert _lru_idioms(ast.parse(CACHE_MODULE.read_text()))
