import importlib
import pkgutil

import pytest

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
