"""Every name a package exports has a caller, and so does every public
top-level function and class.

A name in a package's `__all__` must be imported through that package
(`from returncast.models import fit`, or `from .models import fit` inside
`src/`) by a module in `src/`, the acceptance criteria or the benchmark
under `perfbench/`; and it must be referenced somewhere in `src/` outside
the module that defines it (and the `__init__` that re-exports it), or be
imported by the acceptance criteria. An export that nothing uses is dead
weight, and one that every caller imports from its defining module is a
second way to spell it: drop it from `__all__`, or the code with it.

A public top-level function or class must be referenced somewhere in `src/`
besides its own definition (a re-export in an `__init__` does not count),
or be imported by the acceptance criteria.

A public method or property of a class in `src/` must be read as `.name`
in the code (not a docstring or a comment) somewhere in `src/` outside its
own definition, in the acceptance criteria, or in the benchmark under
`perfbench/`, which drives the package as a caller would (it reads
`GroundTruth.truth_for`, say).
"""
import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "returncast"
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
# every package under src/ that declares an `__all__`
PACKAGES = tuple(
    name
    for name in (
        ".".join(("returncast", *path.relative_to(SRC).parent.parts))
        for path in sorted(SRC.rglob("__init__.py"))
    )
    if hasattr(importlib.import_module(name), "__all__")
)


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


SOURCES = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
DEFINED_IN = {path: _top_level_names(ast.parse(text)) for path, text in SOURCES.items()}
ACCEPTANCE_IMPORTS = {
    alias.asname or alias.name
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}
EXPORTS = [
    (package, name)
    for package in PACKAGES
    for name in importlib.import_module(package).__all__
]


@pytest.mark.parametrize("package,name", EXPORTS, ids=[f"{p}.{n}" for p, n in EXPORTS])
def test_exported_name_has_a_caller(package, name):
    exporter = SRC.joinpath(*package.split(".")[1:], "__init__.py")
    owners = [path for path, names in DEFINED_IN.items() if name in names]
    assert owners, f"{package}.{name} is not defined at the top level of any module"
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    callers = [
        path
        for path, text in SOURCES.items()
        if path not in owners and path != exporter and pattern.search(text)
    ]
    assert callers or name in ACCEPTANCE_IMPORTS, (
        f"{package}.{name} is exported but nothing in src/ outside its module uses it, "
        "and the acceptance criteria do not import it"
    )


def _from_imports(path: Path, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each `from module import name` in a file, with a
    relative module resolved against the package of a file under `src/`."""
    package = ("returncast", *path.relative_to(SRC).parent.parts) if SRC in path.parents else ()
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join((*base, *([node.module] if node.module else [])))
            pairs.update((module, alias.name) for alias in node.names)
    return pairs


CALLERS = [*SOURCES, ACCEPTANCE, *sorted(PERFBENCH.glob("*.py"))]
IMPORTED = set().union(*(_from_imports(path, ast.parse(path.read_text())) for path in CALLERS))


def test_every_export_is_imported_through_its_package():
    bypassed = [
        f"{package}.{name}"
        for package in PACKAGES
        for name in importlib.import_module(package).__all__
        if (package, name) not in IMPORTED
    ]
    assert not bypassed, (
        "exported, but nothing in src/, the acceptance criteria or perfbench/ imports "
        f"these through their package: {', '.join(bypassed)}"
    )


PUBLIC = [
    (path, node.name)
    for path, text in SOURCES.items()
    for node in ast.parse(text).body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
]


@pytest.mark.parametrize(
    "path,name", PUBLIC, ids=[f"{p.relative_to(SRC).with_suffix('')}.{n}" for p, n in PUBLIC]
)
def test_public_definition_has_a_caller(path, name):
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    uses = sum(
        len(pattern.findall(text)) for p, text in SOURCES.items() if p.name != "__init__.py"
    )
    # one occurrence is the definition itself
    assert uses > 1 or name in ACCEPTANCE_IMPORTS, (
        f"{name} in {path.relative_to(SRC)} is defined but nothing in src/ uses it, "
        "and the acceptance criteria do not import it"
    )


def _without(text: str, node: ast.AST) -> str:
    """`text` with the lines of `node`'s definition blanked out."""
    lines = text.splitlines()
    lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _code(text: str) -> str:
    """`text` with its docstrings and comments blanked out, line for line."""
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines[doc.lineno - 1 : doc.end_lineno] = [""] * (doc.end_lineno - doc.lineno + 1)
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    return "\n".join(lines)


METHODS = [
    (path, cls.name, item)
    for path, text in SOURCES.items()
    for cls in ast.walk(ast.parse(text))
    if isinstance(cls, ast.ClassDef)
    for item in cls.body
    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
]
CODE = {path: _code(text) for path, text in SOURCES.items()}
OUTSIDE_SRC = [_code(p.read_text()) for p in [ACCEPTANCE, *sorted(PERFBENCH.glob("*.py"))]]


@pytest.mark.parametrize(
    "path,cls,method",
    METHODS,
    ids=[f"{p.relative_to(SRC).with_suffix('')}.{c}.{m.name}" for p, c, m in METHODS],
)
def test_public_method_has_a_caller(path, cls, method):
    pattern = re.compile(rf"\.{re.escape(method.name)}\b")
    texts = [
        _without(text, method) if p == path else text for p, text in CODE.items()
    ] + OUTSIDE_SRC
    assert any(pattern.search(text) for text in texts), (
        f"{cls}.{method.name} in {path.relative_to(SRC)} is never read as "
        f".{method.name} in src/, the acceptance criteria or perfbench/"
    )
