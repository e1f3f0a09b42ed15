"""Static checks on the package source, using only the standard library."""

import ast
import importlib
from pathlib import Path

import cloaksim

PACKAGE = Path(cloaksim.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public functions the program itself never calls, kept on purpose
NOT_CALLED_BY_THE_PROGRAM = (
    # the only reader of the mesh file that `cloaksim mesh` writes
    "TriMesh.load_text",
    # the composition law of push-forwards, which the tests check
    "compose",
)


def unused_imports(path):
    """Names a module imports and never uses, skipping `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_every_import_is_used():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_exported_name_exists():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cloaksim.{path.stem}")
        missing += [f"{path.name}: {name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, "undefined names in __all__:\n" + "\n".join(missing)


def public_functions(path):
    """(qualified name, name) of each public module function and method."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def referenced_names(paths):
    """Every name, attribute and imported name the given sources mention;
    an import into the package namespace makes a function public API."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_is_called_by_the_program():
    # matched by name: a function counts as called when its name appears
    # anywhere in the package, the demos or the benchmark, or when the
    # package imports it
    used = referenced_names(path for part in ("src", "demos", "perfbench")
                            for path in sorted((ROOT / part).rglob("*.py")))
    unused = [f"{path.name}: {qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in public_functions(path)
              if name not in used
              and qualified not in NOT_CALLED_BY_THE_PROGRAM]
    assert not unused, ("public functions only the tests call:\n"
                        + "\n".join(unused))
