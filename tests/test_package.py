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


def test_hypothesis_stores_nothing_in_the_checkout():
    # tests/conftest.py points Hypothesis's storage at a per-session directory
    root = Path(__file__).resolve().parents[1]
    assert not storage_directory("constants").path.resolve().is_relative_to(root)
