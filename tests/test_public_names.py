"""Every exported name is used or kept on purpose.

A name a package exports (its ``__all__``, and the lazy tables of
``repro.ml`` and ``repro.runtime``) must be named outside its defining
module somewhere in ``src/``, ``examples/``, ``bench/``, ``benchmarks/``
or ``scripts/``, unless ``KEEP`` (``tests/support/reach.py``) keeps it;
and every ``KEEP`` pattern must match a definition and have its line in
DESIGN.md §20.  Static: nothing is imported.
"""

from __future__ import annotations

import ast
import fnmatch
import functools
import pathlib
import re

from tests.support.reach import KEEP, ROOT, SRC, definitions, kept

SEARCH = ("src", "examples", "bench", "benchmarks", "scripts")


@functools.cache
def _top_level(path: pathlib.Path) -> frozenset[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return frozenset(names)


def exported() -> list[tuple[pathlib.Path, str]]:
    """``(defining module, name)`` of every exported name."""
    out = []
    for init in sorted(SRC.rglob("__init__.py")):
        names: set[str] = set()
        for node in ast.parse(init.read_text()).body:
            target = node.targets[0] if isinstance(node, ast.Assign) else None
            if isinstance(target, ast.Name) and target.id == "__all__":
                names.update(ast.literal_eval(node.value))
            elif isinstance(target, ast.Name) and target.id == "_LAZY_MODULES":
                for group in ast.literal_eval(node.value).values():
                    names.update(group)
        modules = sorted(p for p in init.parent.rglob("*.py") if p.name != "__init__.py")
        for name in sorted(names):
            home = next((p for p in modules if name in _top_level(p)), init)
            out.append((home, name))
    return out


def _key(home: pathlib.Path, name: str) -> str:
    return f"{home.relative_to(SRC).as_posix()}:{name}"


def test_every_exported_name_is_used_or_kept():
    # A package __init__ only re-exports; its mention is not a use.
    words = {
        path: set(re.findall(r"\w+", path.read_text()))
        for top in SEARCH
        for path in (ROOT / top).rglob("*.py")
        if not (path.name == "__init__.py" and path.is_relative_to(SRC))
    }
    unused = sorted(
        {
            _key(home, name)
            for home, name in exported()
            if not any(name in w for path, w in words.items() if path != home)
            and not kept(_key(home, name))
        }
    )
    assert unused == [], "exported but named nowhere else: delete, or keep in KEEP + DESIGN.md §20"


def test_every_kept_pattern_matches_a_definition():
    names = {f"{rel}:{q}" for rel, q in definitions()}
    names |= {_key(home, name) for home, name in exported()}
    stale = [p for p in KEEP if not any(fnmatch.fnmatchcase(n, p) for n in names)]
    assert stale == []


def test_keep_mirrors_design_section_20():
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 20. ") :]
    missing = [p for p in KEEP if f"`{p}`" not in section]
    assert missing == []
