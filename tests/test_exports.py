import importlib
import pkgutil

import pytest

import dampedstring

MODULES = sorted(f"dampedstring.{m.name}"
                 for m in pkgutil.iter_modules(dampedstring.__path__))


@pytest.mark.parametrize("module", ["dampedstring", *MODULES])
def test_every_export_resolves(module):
    """Each name a module lists in __all__ is defined there, so deleting a
    function without its export fails here rather than at a star import."""
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"

