"""Every public name of the package has a reader besides its own definition."""

import ast
from pathlib import Path

import poisson_ou

ROOT = Path(__file__).resolve().parents[1]

#: the paper's gradient estimates: only the tests call them until the
#: runner's check catalog lists them, and then they leave this set
TEST_ONLY = {"pointwise_gradient_check", "integrated_gradient_check"}


def read_names(paths) -> set:
    """The names the code in ``paths`` reads: loaded names and attributes,
    not definitions, imports, comments or docstrings."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_reader():
    # the library itself less the export list, the demos and the benchmark
    # harness; bench/frozen_poisson_ou is a copy of the library, so not a reader
    library = [p for p in (ROOT / "src" / "poisson_ou").glob("*.py") if p.name != "__init__.py"]
    readers = [*library, *(ROOT / "demos").rglob("*.py"), *(ROOT / "bench").glob("*.py")]
    unread = set(poisson_ou.__all__) - read_names(readers)
    assert unread == TEST_ONLY, (
        f"exported but read by no library, demo or bench code: {sorted(unread - TEST_ONLY)}; "
        f"allowed unread but read or gone: {sorted(TEST_ONLY - unread)}")
