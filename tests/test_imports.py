"""No module of the package imports a name it never uses.

A name an import binds is used when the module's code reads it, as an
`ast.Name` anywhere in the module (an attribute chain `os.path.join`
reads `os`), or, for a re-export, when `__all__` lists it.
"""

import ast

from test_surface import package_sources


def unused_imports(sources: dict) -> set:
    """The (module, name) of each name an import statement binds that the
    module never reads."""
    out = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        bound, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                bound |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
        out |= {(module, name) for name in bound - read}
    return out


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(package_sources()) == set()


def test_an_unused_import_is_found():
    sources = package_sources()
    sources["weyl"] += "\n\nfrom itertools import chain\n\n\ndef _orphan():\n    import heapq as hq\n"
    assert unused_imports(sources) == {("weyl", "chain"), ("weyl", "hq")}
