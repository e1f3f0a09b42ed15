"""Static checks on the package source, using only the standard library."""

import ast
import importlib
from pathlib import Path

import cloaksim

PACKAGE = Path(cloaksim.__file__).parent


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
