import ast
import importlib
import pkgutil
from pathlib import Path

import pytest
from hypothesis.configuration import storage_directory

import chemhill

# __main__ runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(chemhill.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # tools that wrap a module's public functions look each __all__ entry up
    module = importlib.import_module(f"chemhill.{name}")
    public = module.__all__
    assert len(public) == len(set(public))
    assert [attr for attr in public if not hasattr(module, attr)] == []


def test_every_reexported_name_is_public_in_its_module():
    # the package re-exports names from its modules; a name dropped from a
    # module's __all__ (which tracing tools wrap) must leave the package too
    tree = ast.parse(Path(chemhill.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stray = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"chemhill.{node.module}").__all__
    ]
    assert stray == []


def test_hypothesis_stores_nothing_in_the_checkout():
    # tests/conftest.py points Hypothesis's storage at a per-session directory
    root = Path(__file__).resolve().parents[1]
    assert not storage_directory("constants").path.resolve().is_relative_to(root)


def test_grid_functions_are_plain_arrays():
    # the grid-function class retired: the grid module's one class is the grid
    import chemhill.grid

    with pytest.raises(AttributeError):
        chemhill.Field
    assert [name for name in chemhill.grid.__all__ if isinstance(getattr(chemhill.grid, name), type)] == ["Grid"]
