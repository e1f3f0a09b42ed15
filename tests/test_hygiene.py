"""Static checks on the package source, using only the standard library."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import cloaksim

PACKAGE = Path(cloaksim.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public functions the program itself never calls, kept on purpose
NOT_CALLED_BY_THE_PROGRAM = (
    # the composition law of push-forwards, which the tests check
    "compose",
)

# defaulted parameters no call in the program passes, kept on purpose
DEFAULTS_THE_PROGRAM_LEAVES = (
    # criterion 8 solves with a source term and from a warm start
    "solve_quasilinear(source)",
    "solve_quasilinear(warm_start)",
    # criterion 1 checks the closed forms in three dimensions too
    "regular_blowup(dim)",
    "singular_map(dim)",
    "truncated_singular_cloak(dim)",
    # reached only by forwards from the three-dimensional maps and cloak
    "singular_cloak_tensor(dim)",
    "annulus(dim)",
    # the tests sample the structure at states of their own
    "validate_structure(t_values)",
    # the composition law itself is called by the tests only
    "compose(name)",
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


def test_every_superlu_factor_uses_the_shared_settings():
    # a call of splu that leaves out **SUPERLU_SETTINGS factors with
    # SuperLU's default supernode sizes
    calls = [(path, node) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and "splu" in (getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))]
    bare = [f"{path.name}:{node.lineno}" for path, node in calls
            if not any(kw.arg is None and isinstance(kw.value, ast.Name)
                       and kw.value.id == "SUPERLU_SETTINGS"
                       for kw in node.keywords)]
    assert calls
    assert not bare, ("splu calls without **SUPERLU_SETTINGS:\n"
                      + "\n".join(bare))


def test_one_superlu_call_in_fem_and_in_homog():
    # every disk factor goes through _InteriorLU, and the periodic cell
    # has its own; a second call would be a second LU path
    for name in ("fem.py", "homog.py"):
        lines = [node.lineno
                 for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
                 if isinstance(node, ast.Call) and name_of(node.func) == "splu"]
        assert len(lines) == 1, f"{name}: splu called on lines {lines}"


def test_ring_factor_sweeps_stay_in_lapack():
    # RingFactor gathers the bands, factors all angular modes with one
    # zgttrf and solves them with one zgttrs, or one mode's block with one,
    # selected from one FFT of the outer ring; a loop in it would be a
    # sweep back in Python
    body = ast.parse((PACKAGE / "fem.py").read_text()).body
    (ring,) = [node for node in body
               if isinstance(node, ast.ClassDef) and node.name == "RingFactor"]
    loops = [node.lineno for node in ast.walk(ring)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert not loops, f"fem.py: loops in RingFactor on lines {loops}"


def test_wedge_is_read_from_the_ring_layout_alone():
    # _wedge reads the rotation from the order in which _ring_connectivity
    # lays out its triangles, and holds for no other triangulation
    callers = [(path.name, [name for name, _ in scopes])
               for path in program_sources()
               for node, scopes in scoped_calls(ast.parse(path.read_text()))
               if name_of(node.func) == "_wedge"]
    assert callers == [("fem.py", ["_ring_connectivity"])], callers


def callees(func):
    """The names a call's callee may be: its own name, or those of both
    branches of a conditional expression."""
    if isinstance(func, ast.IfExp):
        return callees(func.body) + callees(func.orelse)
    return [name_of(func)]


def test_every_factor_is_built_by_its_system_alone():
    # each factor is built from the system it factors, and _factor, which
    # SparseSystem and RingSystem share, picks its class in one statement;
    # a builder elsewhere would be a second place that decides the kind
    builders = [(path.name, [name for name, _ in scopes], cls)
                for path in program_sources()
                for node, scopes in scoped_calls(ast.parse(path.read_text()))
                for cls in callees(node.func)
                if cls in ("RingFactor", "_InteriorLU")]
    assert builders == [("fem.py", ["_factor"], "RingFactor"),
                        ("fem.py", ["_factor"], "_InteriorLU")], builders


def name_of(node):
    """The name a Name or Attribute node ends in, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def written_objects(target):
    """The objects an assignment target writes into: for each attribute or
    item it assigns, the chain of objects it is reached through."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from written_objects(element)
    elif isinstance(target, ast.Starred):
        yield from written_objects(target.value)
    else:
        while isinstance(target, (ast.Attribute, ast.Subscript)):
            target = target.value
            yield target


def test_nothing_is_assigned_into_a_pattern():
    # a P1Pattern is shared by every mesh of a layout and every cell solve
    # of a resolution, so what one mesh keeps (its first LU's ordering) is
    # kept on the mesh
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for target in targets
                      for obj in written_objects(target)
                      if isinstance(obj, ast.Attribute)
                      and obj.attr == "pattern"]
    assert not found, ("assignments into a .pattern:\n"
                       + "\n".join(found))


def test_one_scatter_idiom_and_no_einsum_in_the_p1_kernels():
    # the package sums into vectors and CSR data with np.bincount;
    # np.add.at is an unbuffered loop. fem and homog contract per-triangle
    # arrays elementwise, where an einsum runs one tiny product at a time
    add_at = [f"{path.name}:{node.lineno}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call)
              and name_of(node.func) == "at"
              and name_of(getattr(node.func, "value", None)) == "add"]
    einsum = [f"{name}:{node.lineno}" for name in ("fem.py", "homog.py")
              for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
              if isinstance(node, (ast.Name, ast.Attribute))
              and name_of(node) == "einsum"]
    assert not add_at, "add.at calls:\n" + "\n".join(add_at)
    assert not einsum, "einsum in the P1 kernels:\n" + "\n".join(einsum)


def public_functions(path):
    """(qualified name, definition) of each public module function and
    method."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def public_constructors(path):
    """(class name, __init__ definition) of each public class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((node.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "__init__")


def program_sources():
    """The sources of the package, the demos and the benchmark."""
    return [path for part in ("src", "demos", "perfbench")
            for path in sorted((ROOT / part).rglob("*.py"))]


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
    used = referenced_names(program_sources())
    unused = [f"{path.name}: {qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, node in public_functions(path)
              if node.name not in used
              and qualified not in NOT_CALLED_BY_THE_PROGRAM]
    assert not unused, ("public functions only the tests call:\n"
                        + "\n".join(unused))


def defaulted_parameters(node):
    """(name, position) of each parameter of a definition that has a
    default; position counts the arguments a call writes, so it skips the
    self or cls of a method, and is None for a keyword-only parameter."""
    params = node.args.posonlyargs + node.args.args
    n_defaults = len(node.args.defaults)
    skip = 1 if params and params[0].arg in ("self", "cls") else 0
    for i, arg in enumerate(params[len(params) - n_defaults:],
                            len(params) - n_defaults):
        yield arg.arg, i - skip
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def scoped_calls(tree):
    """(call, enclosing scopes) of each call in a module. A scope is the
    name a call of it is written with (the class, for a constructor) and
    its definition; the innermost comes last."""
    def visit(node, scopes, cls):
        if isinstance(node, ast.Call):
            yield node, scopes
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            scopes = scopes + [(cls if name == "__init__" else name, node)]
        cls = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scopes, cls)

    yield from visit(tree, [], None)


def forwarded_default(arg, scopes):
    """(caller, parameter, position) when the argument is a bare forward
    of a defaulted parameter of the scope it names, else None."""
    if not isinstance(arg, ast.Name):
        return None
    for caller, node in reversed(scopes):
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            v for v in (a.vararg, a.kwarg) if v is not None]
        if any(p.arg == arg.id for p in params):
            pos = dict(defaulted_parameters(node))
            return (caller, arg.id, pos[arg.id]) if arg.id in pos else None
    return None


def reaches(passed, called, param, pos):
    """Whether the passed slots reach the parameter of that name and
    position (None for keyword-only) of the called name."""
    return bool({(called, param), (called, "**"), (called, "*"),
                 (called, pos)} & passed)


def passed_arguments(paths):
    """The (called name, slot) pairs that some call in the sources
    reaches. A slot is a keyword or a position; a call that unpacks
    **kwargs or *args reaches "**" or "*", which stand for all of them.

    A bare forward of the caller's own defaulted parameter hands on only
    what the caller receives, so it counts only once some call passes
    that parameter of the caller: a fixpoint over the calls.
    """
    calls = []
    for path in paths:
        for node, scopes in scoped_calls(ast.parse(path.read_text())):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            calls += [((name, "*" if isinstance(arg, ast.Starred) else i),
                       forwarded_default(arg, scopes))
                      for i, arg in enumerate(node.args)]
            calls += [((name, kw.arg or "**"),
                       forwarded_default(kw.value, scopes))
                      for kw in node.keywords]
    passed = set()
    while True:
        grown = {slot for slot, needs in calls
                 if needs is None or reaches(passed, *needs)}
        if grown <= passed:
            return passed
        passed |= grown


def test_every_default_is_passed_by_the_program():
    # matched by name, like the check above: a parameter counts as passed
    # when some call of a function of that name (of the class, for a
    # constructor) in the package, the demos or the benchmark reaches it
    # by position or by keyword, other than by a forward of a default
    # that no call passes on its own
    passed = passed_arguments(program_sources())
    unpassed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        defs = [(qualified, node.name, node)
                for qualified, node in public_functions(path)]
        defs += [(cls, cls, node) for cls, node in public_constructors(path)]
        for qualified, called, node in defs:
            unpassed |= {f"{qualified}({param})"
                         for param, pos in defaulted_parameters(node)
                         if not reaches(passed, called, param, pos)}
    listed = set(DEFAULTS_THE_PROGRAM_LEAVES)
    assert unpassed <= listed, ("defaulted parameters no caller in the "
                                "program passes:\n"
                                + "\n".join(sorted(unpassed - listed)))
    assert listed <= unpassed, ("listed, but not a default the program "
                                "leaves:\n"
                                + "\n".join(sorted(listed - unpassed)))


def test_import_leaves_the_quadrature_modules_out():
    # scipy.integrate (and the scipy.optimize it loads) is imported where
    # radial_homogenized needs it, not when the package is imported; and
    # no module imports scipy.fft, whose import after cloaksim's took
    # 56-85 ms on a 2-core Xeon, added to every process's start
    code = ("import sys, cloaksim; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.fft') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]", out.stdout
