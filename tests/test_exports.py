import importlib
import pkgutil

import plaplab


def test_every_name_in_every_modules_all_resolves():
    names = [info.name for info in pkgutil.walk_packages(plaplab.__path__, "plaplab.")]
    modules = [plaplab] + [importlib.import_module(name) for name in names]
    assert len(modules) >= 16
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
