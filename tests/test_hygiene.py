"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liestar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in the module that no
    expression in it refers to; __future__ imports are directives."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names that appear only in quoted annotations such as -> "Polynomial"
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from .x import a, b\n"
        "def f(n: 'int') -> 'b':\n"
        "    return 'a'\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


# loaded only for Monte Carlo weights, inside the functions that sample:
# every command pays at start-up for what its modules import at load time
MC_ONLY = {"numpy", "concurrent.futures"}


def load_time_imports(source: str) -> list:
    """(line, module) for each import that runs when the module loads: one
    outside every function body, class bodies and conditionals included."""
    out = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append((node.lineno, node.module))
        pending.extend(ast.iter_child_nodes(node))
    return sorted(out)


def mc_only_at_load(source: str) -> list:
    return [
        (line, name) for line, name in load_time_imports(source)
        if any(name == m or name.startswith(m + ".") for m in MC_ONLY)
    ]


def test_load_time_mc_import_is_flagged():
    source = (
        "import numpy as np\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures.thread\n"
        "import numbers\n"
        "class A:\n"
        "    import numpy.linalg\n"
        "def f():\n"
        "    import numpy\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
    )
    assert mc_only_at_load(source) == [
        (1, "numpy"), (2, "concurrent.futures"), (3, "concurrent.futures.thread"), (6, "numpy.linalg"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_mc_only_import_at_load(path):
    assert mc_only_at_load(path.read_text()) == [], path.name


# module-level names that only the tests call, kept as independent references
TEST_REFERENCES = {
    "pbw_normalize",  # test_enveloping: sigma(x^a) by its definition, confluence
    "uea_mul",  # test_enveloping: products in the enveloping algebra
    "hochschild_coboundary",  # test_acceptance: a paper criterion
    "ch_series",  # test_enveloping; the base of the planned BCH-symbol cochains
}


def _referenced_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_definitions(sources: dict) -> list:
    """(module, name) for each module-level function or class that no code
    outside its own body refers to, in any of the modules (an import by name
    counts, so the exports of __init__ do)."""
    statements = [
        (module, node, _referenced_names(node))
        for module, source in sources.items()
        for node in ast.parse(source).body
    ]
    return sorted(
        (module, node.name)
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for _, other, names in statements if other is not node)
    )


def test_unreferenced_definition_is_flagged():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "def exported(): pass\n"
            "def dead(): return dead()\n"
            "class Used: pass\n"
            "def helper(): pass\n"
            "def caller(): return helper()\n"
        ),
        "b": "from .a import caller\nx = a.Used\n",
    }
    assert unreferenced_definitions(sources) == [("a", "dead")]


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    found = [(module, name) for module, name in unreferenced_definitions(sources) if name not in TEST_REFERENCES]
    assert found == []
