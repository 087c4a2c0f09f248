"""Every name the package exports has a caller outside the tests.

A name that `biforms/__init__.py` imports stays exported only if the README
names it, or some code uses it: the demos or another module of the package
(as a name or an attribute, outside the name's own definition), or the
benchmark in perfbench/ (imported from biforms, read off a biforms module,
or given as a string, as the tracer names what it wraps).  The code is read
through its syntax tree, so a docstring or comment that mentions a name does
not count as a use.

The same syntax trees keep MPoly at the text boundary: only the modules that
export it or parse into it import or name it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biforms"


def _is_biforms(module):
    return module == "biforms" or module.startswith("biforms.")


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _used_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _package_uses():
    """Names used in each module of the package but __init__.py, each
    top-level definition's own name not counted inside its body."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = _used_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    return used


def _docstrings(tree):
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}


def _benchmark_uses():
    """Names perfbench/*.py imports from biforms, reads off a biforms module,
    or gives as a string constant (each dotted part of it)."""
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and _is_biforms(node.module):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and "biforms" in ast.unparse(node.value):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                used |= {part for part in node.value.split(".") if part.isidentifier()}
    return used


def test_every_exported_name_has_a_caller():
    readme = (ROOT / "README.md").read_text()
    used = _package_uses() | _benchmark_uses()
    for path in (ROOT / "demos").glob("*.py"):
        used |= _used_names(ast.parse(path.read_text()))
    unused = sorted(name for name in _exported() - used
                    if not re.search(rf"\b{name}\b", readme))
    assert not unused, f"exported but used only by the tests: {unused}"


def _reaches_mpoly(node):
    """An import of MPoly (by name, or of the whole poly module) or a use of the name."""
    if isinstance(node, ast.ImportFrom):
        module = ("." * node.level) + (node.module or "")
        names = {alias.name for alias in node.names}
        if module in (".poly", "biforms.poly"):
            return bool(names & {"MPoly", "*"})
        return module in (".", "biforms") and bool(names & {"poly", "MPoly"})
    if isinstance(node, ast.Import):
        return any(alias.name == "biforms.poly" for alias in node.names)
    return (isinstance(node, ast.Name) and node.id == "MPoly"
            or isinstance(node, ast.Attribute) and node.attr == "MPoly")


def test_only_the_text_boundary_imports_poly():
    """MPoly stays where text becomes polynomials: only __init__.py (the
    export) and parsing.py import or name it, so no computation (a
    substitution, a product) can go back through MPoly.  Other modules may
    import the ring tuples from poly."""
    importers = {path.name for path in PACKAGE.glob("*.py") if path.name != "poly.py"
                 if any(map(_reaches_mpoly, ast.walk(ast.parse(path.read_text()))))}
    assert importers == {"__init__.py", "parsing.py"}
