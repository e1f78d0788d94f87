"""Every exported name resolves."""

import importlib
import pkgutil

import fueter


def test_every_name_in_all_exists():
    modules = [fueter] + [importlib.import_module("fueter." + info.name)
                          for info in pkgutil.iter_modules(fueter.__path__)]
    missing = [(m.__name__, name) for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 1
    assert missing == []
