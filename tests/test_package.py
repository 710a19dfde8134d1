import ast
from pathlib import Path

PACKAGE = "eafe_control"
SRC = Path(__file__).parents[1] / "src" / PACKAGE


def test_every_module_function_is_referenced_in_src():
    # a module-level function that no code in src/ names, by a bare name
    # or as an attribute, is there only for its callers outside src/;
    # re-exports in __init__ and __all__ strings do not count
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = {"%s.%s" % (module, node.name)
                    for module, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name not in used}
    # perfbench's workloads call these three; they leave src/ with the
    # next change to the benchmark
    assert unreferenced == {"experiments.coefficient_sets",
                            "mesh.delaunay_check", "mesh.read_node_ele"}


def _bound_names(node):
    """The names a module-level import statement binds."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def test_every_module_import_is_used():
    # outside __init__, which re-exports, a module-level import that its
    # module never names is dead; no linter runs in CI to catch one
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {"%s: %s" % (path.stem, name) for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in _bound_names(node) if name not in used}
    assert unused == set()


def _imports_package(node):
    """Whether an import statement names the package, or is relative."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == PACKAGE for alias in node.names)
    return False


def test_mesh_imports_nothing_from_the_package():
    # mesh is the bottom layer (mesh -> fem_core -> eafe): an import of the
    # package from it, at module level or inside a function, is a back edge
    tree = ast.parse((SRC / "mesh.py").read_text())
    assert [ast.unparse(node) for node in ast.walk(tree)
            if _imports_package(node)] == []
