"""Every exported name resolves, and each use loads only the layers it needs."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import fueter


def test_every_name_in_all_exists():
    modules = [fueter] + [importlib.import_module("fueter." + info.name)
                          for info in pkgutil.iter_modules(fueter.__path__)]
    missing = [(m.__name__, name) for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 1
    assert missing == []


def test_every_export_is_its_modules_object():
    modules = [importlib.import_module("fueter." + info.name)
               for info in pkgutil.iter_modules(fueter.__path__)]
    for name in fueter.__all__:
        if name == "__version__":
            continue
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, (name, homes)
        assert getattr(fueter, name) is getattr(homes[0], name), name


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from fueter import *", namespace)
    assert set(fueter.__all__) <= set(namespace)
    for name in fueter.__all__:
        assert namespace[name] is getattr(fueter, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fueter.no_such_name
    assert not hasattr(fueter, "no_such_name")
    assert "hull_contains" in dir(fueter) and "hull" in dir(fueter)


def _loaded_after(script):
    """The fueter submodules a fresh interpreter has loaded after script."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script += """
import sys
print("loaded:", *sorted(m[7:] for m in sys.modules if m.startswith("fueter.")))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import fueter") == set()


def test_hull_queries_load_only_their_layers():
    loaded = _loaded_after("""
import fueter
ball = fueter.Ball(1, 1.0)
sigma = ([0.3, 0, 0, 0], [0, 0.2, 0, 0])
assert fueter.hull_contains(sigma, ball).verdict
assert fueter.hull_contains_via_lines(sigma, ball)
for name in ("Ball", "hull_contains", "hull_contains_via_lines"):
    assert name in vars(fueter), name
""")
    assert loaded == {"quat", "domains", "hull", "twistor"}


def test_a_cli_hull_query_leaves_the_transform_unloaded():
    loaded = _loaded_after("""
from fueter import cli
assert cli.main(["hull", "contains", "--domain", "ball:r=1", "--sigma",
                 '{"x": [0.3, 0, 0, 0], "y": [0, 0.2, 0, 0]}']) == 0
""")
    assert "hull" in loaded
    assert not loaded & {"acceptance", "cp1", "penrose", "cf"}


def test_a_cli_cohomology_query_leaves_the_hull_unloaded():
    loaded = _loaded_after("""
from fueter import cli
assert cli.main(["cp1", "harmonic", "--a0", "1", "--a1", "0.5"]) == 0
""")
    assert "cp1" in loaded
    assert not loaded & {"hull", "penrose", "acceptance"}
