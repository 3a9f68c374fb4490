"""The package imports only the standard library: the engine has no runtime dependencies."""

import ast
import sys
from pathlib import Path

import cubedecomp

PACKAGE = Path(cubedecomp.__file__).parent


def outside_imports(source: str, filename: str = "<source>"):
    """(line, name) of each absolute import whose top-level name is not a standard
    library module, function-local imports included; relative imports stay inside."""
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_the_guard_sees_local_and_dotted_imports():
    source = ("import os.path\nfrom . import geometry\n"
              "def f():\n    import numpy.linalg\n    from sympy import isprime\n")
    assert list(outside_imports(source)) == [(4, "numpy.linalg"), (5, "sympy")]


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    outside = [f"{path.relative_to(PACKAGE)}:{line} imports {name}"
               for path in modules for line, name in outside_imports(path.read_text(), str(path))]
    assert not outside
