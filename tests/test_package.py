import importlib
import types

import groversim
from helpers import load_bench


def test_the_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from groversim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(groversim.__all__)
    # No public name is imported into the package but left out of __all__.
    public = {name for name, value in vars(groversim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(groversim.__all__)


def test_every_name_the_benchmark_patches_resolves():
    # bench/spans.py records a layer by patching a library function under
    # the name its caller looks it up by. Some of those names are imported
    # only for it, so nothing else fails when one goes missing.
    spans = load_bench("spans")
    lib = types.SimpleNamespace(**{name: importlib.import_module(f"groversim.{name}") for name in (
        "grover", "cli", "documents", "reversible", "pathsum", "transforms", "state")})
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in spans.library_targets(lib) if not hasattr(owner, attr)]
    assert missing == []
