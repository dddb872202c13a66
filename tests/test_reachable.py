"""Every top-level function and class of the package is reached from the
package itself, the benchmark or the scripts.

A function that only tests call belongs in tests/_oracles.py, not in src/.
References are resolved by name: a module's own top-level names, names
imported with `from <module> import name`, and `alias.name` where the alias
is an imported package module. A word search would be fooled by `np.exp`
or by `log = logging.getLogger(__name__)`.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "actknow")


def _tree(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _module_of(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, or None for any other."""
    if node.level == 1:
        return node.module or ""
    if node.module == "actknow":
        return ""
    if node.module and node.module.startswith("actknow."):
        return node.module.split(".", 1)[1]
    return None


def _references(path: str, module: str | None) -> set[tuple[str, str]]:
    """(module, name) of every package definition that the file at `path`
    reads; `module` is the package module the file is, None outside it.
    A definition's reads of its own name are left out."""
    tree = _tree(path)
    modules: dict[str, str] = {}  # local alias -> package module
    names: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _module_of(node)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "":
                    modules[local] = alias.name
                else:
                    names[local] = (source, alias.name)
    if module is not None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = (module, node.name)

    found: set[tuple[str, str]] = set()

    def visit(node: ast.AST, own: str | None) -> None:
        if isinstance(node, ast.Name) and node.id in names and node.id != own:
            found.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for node in tree.body:
        own = node.name if module is not None and isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        visit(node, own)
    return found


def _package_definitions() -> set[tuple[str, str]]:
    out = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        module = os.path.basename(path)[:-3]
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add((module, node.name))
    return out


def test_every_package_definition_is_referenced_outside_itself():
    reached = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        reached |= _references(path, os.path.basename(path)[:-3])
    for folder in ("bench", "scripts"):
        for path in glob.glob(os.path.join(ROOT, folder, "*.py")):
            reached |= _references(path, None)
    unreached = sorted(f"{m}.{n}" for m, n in _package_definitions() - reached)
    assert not unreached, f"defined in src/actknow but reached only from tests: {unreached}"
