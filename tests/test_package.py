import types

import groversim


def test_the_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from groversim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(groversim.__all__)
    # No public name is imported into the package but left out of __all__.
    public = {name for name, value in vars(groversim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(groversim.__all__)
