"""Rules the package source keeps, checked on its syntax trees."""

import ast
import pathlib

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
    (and the package namespace, for ``cross_check``) imports; the closed forms
    and the series chain never reach into the oracle, nor the oracle into them."""
    imports = {path.stem: _package_imports(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{module} imports checks" for module, names in imports.items()
             if "checks" in names and module not in ("cli", "__init__")]
    for module, banned in ROUTE_BLINDNESS.items():
        found += [f"{module} imports {name}" for name in sorted(imports[module] & banned)]
    assert found == []
