"""Rules the package source keeps, checked on its syntax trees."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys
import typing

import pytest

import splitspecies

PACKAGE_DIR = pathlib.Path(splitspecies.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants raise package errors, so they hold under ``python -O`` too."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_bare_value_error_in_package():
    """Bad caller data raises a SplitSpeciesError subclass, never a bare ValueError."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("module", ["numpy", "mpmath", "dataclasses"])
def test_package_never_imports(module):
    """The package runs on the standard library alone, and keeps its start-up
    light: no module of it imports numpy, mpmath or dataclasses."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_level_json_import_in_package():
    """json loads only inside the functions that read or write JSON, so start-up
    and the text and CSV commands never pay for it."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_command_line_imports_time():
    """Stage times are taken in ``cli``, around the library calls, so no other
    module of the package imports ``time``, at module level or inside a function."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "time" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_command_line_keeps_no_size_cap():
    """Each size flag is checked against its cap by the library call that
    serves its command, so ``cli`` names no cap and gives ``check_size`` no
    ``high=``; it may check a floor."""
    caps = {"CENSUS_MAX_N", "SPLIT_MAX_N", "MAX_CHAIN_ORDER", "MAX_FORMULA_N", "size_cap"}
    path = PACKAGE_DIR / "cli.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and caps & {alias.name for alias in node.names}:
            found.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "check_size"
              and any(k.arg == "high" for k in node.keywords)):
            found.add(node.lineno)
        elif (isinstance(node, ast.Name) and node.id in caps
              or isinstance(node, ast.Attribute) and node.attr in caps):
            found.add(node.lineno)
    assert [f"cli.py:{line}" for line in sorted(found)] == []


def _package_imports(path: pathlib.Path) -> set[str]:
    """The package modules one module imports, at module level or inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = f"splitspecies.{module}" if module else "splitspecies"
            targets = ([f"{module}.{alias.name}" for alias in node.names]
                       if module == "splitspecies" else [module])
        else:
            continue
        found.update(t.split(".")[1] for t in targets if t.startswith("splitspecies."))
    return found


# module -> package modules it must never import
ROUTE_BLINDNESS = {
    "counting": {"enumeration"},
    "series": {"enumeration"},
    "enumeration": {"counting", "series", "asymptotics", "checks"},
}


def test_routes_stay_blind_to_each_other():
    """The cross-route checks live in ``checks``, which only the command line
    (and the package namespace, which loads every module) imports; the closed
    forms and the series chain never reach into the oracle, nor the oracle
    into them."""
    imports = {path.stem: _package_imports(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{module} imports checks" for module, names in imports.items()
             if "checks" in names and module not in ("cli", "__init__")]
    for module, banned in ROUTE_BLINDNESS.items():
        found += [f"{module} imports {name}" for name in sorted(imports[module] & banned)]
    assert found == []


def test_the_package_namespace_binds_only_its_modules():
    """Each public name has one import path, through the module that owns it.
    The one other binding is ``split_labeled_bp``, which perfbench's
    ``test_install_patches_every_binding`` reads from the package.  Importing
    the package loads every module but ``cli``, so that perfbench's tracer
    finds each one in ``sys.modules``."""
    names = [name for name, value in vars(splitspecies).items()
             if not name.startswith("_") and not inspect.ismodule(value)]
    assert names == ["split_labeled_bp"]
    probe = "import sys, splitspecies; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = {m.removeprefix("splitspecies.") for m in out.split() if m.startswith("splitspecies.")}
    modules = {info.name for info in pkgutil.iter_modules(splitspecies.__path__)}
    assert loaded == modules - {"cli"}


def _annotation_names(module) -> dict:
    """The names a type checker sees in a module: its globals, and what it
    imports under ``if TYPE_CHECKING:``, imported here."""
    names = dict(vars(module))
    for node in ast.parse(pathlib.Path(module.__file__).read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                   "typing.TYPE_CHECKING"):
            exec(compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec"), names)
    return names


def test_every_annotation_resolves():
    """Every annotation of the package's functions and methods names something
    its module binds, so ``typing.get_type_hints`` resolves it."""
    found = []
    for info in pkgutil.iter_modules(splitspecies.__path__):
        module = importlib.import_module(f"splitspecies.{info.name}")
        names = _annotation_names(module)
        functions = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions.append(obj)
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    attr = attr.fget if isinstance(attr, property) else attr
                    attr = getattr(attr, "__func__", attr)  # staticmethod, classmethod
                    if inspect.isfunction(attr):
                        functions.append(attr)
        for fn in functions:
            try:
                typing.get_type_hints(fn, globalns=names)
            except NameError as exc:
                found.append(f"{module.__name__}.{fn.__qualname__}: {exc}")
    assert found == []


# the carriers whose constructors check labels that come from outside, and
# the public entries that may call those constructors inside the package
CARRIERS = {"TwoColoredGraph", "BicoloredGraph", "ColoredSplitGraph",
            "_Embedded", "EmbeddedGraph", "EmbeddedColored"}
CONSTRUCTOR_CALLERS = {"graphs.TwoColoredGraph.from_json", "bijections._Embedded.whole"}


def _constructor_callers(node, scope: list[str], in_carrier: bool = False) -> set[str]:
    """The functions under ``node`` that call a carrier's constructor, by its
    class name or as ``cls(...)`` inside a carrier class."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found |= _constructor_callers(child, scope + [child.name], child.name in CARRIERS)
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found |= _constructor_callers(child, scope + [getattr(child, "name", "<lambda>")],
                                          in_carrier)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and (
                child.func.id in CARRIERS or in_carrier and child.func.id == "cls"):
            found.add(".".join(scope))
        found |= _constructor_callers(child, scope, in_carrier)
    return found


def test_carriers_are_built_inside_the_package_on_the_internal_entries():
    """The tuple constructors of the two-colored and embedded carriers check
    labels from outside; inside the package only the public entries that take
    such labels call them.  Every other carrier is built on labels or a green
    mask the package read off a mask, through ``on_green`` or ``_Embedded.on``,
    which skip the label checks and keep the edge tests."""
    callers = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        callers |= _constructor_callers(ast.parse(path.read_text(), filename=str(path)),
                                        [path.stem])
    assert callers == CONSTRUCTOR_CALLERS


# the counters the double sum is checked against, which its body must not reach
CLOSED_FORM_ROUTES = {"split_labeled", "bicolored_labeled", "chain_count", "derive_labeled_chain"}


def test_the_double_sum_names_no_other_route():
    """``split_labeled_bp`` is one side of the formula check, so its body
    reaches neither the subtraction formula nor the series chain, by name or
    as an attribute: a kernel that summed its terms, passed the integrality
    check and then returned the closed form would agree at every n."""
    tree = ast.parse((PACKAGE_DIR / "counting.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "split_labeled_bp")
    found = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    assert found & CLOSED_FORM_ROUTES == set()
