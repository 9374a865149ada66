"""Every top-level definition of the package is reached from its surface.

The surface is `cli.main`, `verify.run_scope` and each name in `__all__`.
A definition is reached when the body of a reached definition names it,
directly or through a `from .module import name`. Only the four below are
not, each kept for the ROADMAP item that gives it a caller or removes it;
the list may only shrink.
"""

import ast
from pathlib import Path

import charge_lab

SRC = Path(__file__).resolve().parents[1] / "src" / "charge_lab"

UNREACHED = {
    ("chains", "chain_from_roots"),  # item 8
    ("chains", "chain_length"),  # item 11: mu_chain calls its core _chain_length
    ("fillings", "reconstruct_sigma"),  # item 6
    ("poly", "poly_mul"),  # item 2
}


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def unreached(sources: dict) -> set:
    """The (module, name) of each top-level definition, dunders aside,
    that no chain of references leads to from the surface."""
    defs, imports = {}, {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (node.module, alias.name)
                continue
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defs[module, name] = node

    def resolve(module, name):
        while (module, name) in imports:
            module, name = imports[module, name]
        return (module, name) if (module, name) in defs else None

    stack = [("cli", "main"), ("verify", "run_scope")]
    stack += [resolve("__init__", name) for name in charge_lab.__all__]
    seen = set()
    while stack:
        key = stack.pop()
        if key is None or key in seen:
            continue
        seen.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                stack.append(resolve(key[0], node.id))
    return set(defs) - seen


def test_only_the_known_definitions_are_unreached():
    assert unreached(package_sources()) == UNREACHED


def test_an_unreferenced_helper_is_found():
    sources = package_sources()
    sources["weyl"] += "\n\ndef _orphan(lt):\n    return lt.n\n"
    assert unreached(sources) == UNREACHED | {("weyl", "_orphan")}

