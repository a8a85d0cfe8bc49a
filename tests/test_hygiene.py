"""Every Python file of the project parses at the lowest supported Python and
compiles without a warning, and the package imports only the standard
library.

The floor is ``requires-python`` in ``pyproject.toml``: newer syntax would
load here and fail there.  Warnings raised at compile time (an invalid
escape sequence, ``is`` against a literal) become errors.  ``benchmarks/``
is only read.
"""

from __future__ import annotations

import ast
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_python_floor_and_compile_cleanly():
    floor = re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (ROOT / "pyproject.toml").read_text(),
        re.MULTILINE,
    )
    assert floor, "pyproject.toml states no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    paths = sorted(
        path
        for top in ("src", "tests", "benchmarks")
        for path in (ROOT / top).rglob("*.py")
    )
    assert paths
    failures = []
    for path in paths:
        source = path.read_text(encoding="utf-8")
        name = str(path.relative_to(ROOT))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ast.parse(source, name, feature_version=version)
                compile(source, name, "exec", dont_inherit=True)
        except (SyntaxError, Warning) as exc:
            failures.append(f"{name}: {exc}")
    assert not failures, failures


def test_the_package_needs_only_the_standard_library():
    # the README's "standard library only": no import beyond it, and no
    # runtime dependency to install
    outside = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, outside
    dependencies = re.search(
        r"^dependencies = \[(.*?)\]$",
        (ROOT / "pyproject.toml").read_text(),
        re.MULTILINE | re.DOTALL,
    )
    assert dependencies, "pyproject.toml states no dependencies list"
    assert not dependencies[1].strip(), dependencies[0]
