"""The package's public names are its imports, listed once."""
import types

import ppsim


def test_star_import_binds_the_public_imports():
    names = {}
    exec("from ppsim import *", names)
    del names["__builtins__"]
    assert set(names) == set(ppsim.__all__) and len(ppsim.__all__) == len(names) == 92
    assert "__version__" in names
    for name, value in names.items():
        assert not name.startswith("_") or name == "__version__"
        assert not isinstance(value, types.ModuleType)
        assert value is getattr(ppsim, name)
