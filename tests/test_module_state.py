"""No module of the package holds state that a caller could change.

A module-level dict, list, set or writeable array is shared by every call
in the process: one caller's edit would change the next caller's results.
Tables are read-only mappings, frozensets or tuples instead, and arrays
are flagged read-only.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import cavityforge

MODULES = sorted(f"cavityforge.{m.name}" for m in pkgutil.iter_modules(cavityforge.__path__))


def test_every_module_is_listed():
    assert {"cavityforge.cli", "cavityforge.config", "cavityforge.fits",
            "cavityforge.synthetic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_no_mutable_module_global(name):
    mod = importlib.import_module(name)
    mutable = {k: type(v).__name__ for k, v in vars(mod).items()
               if not (k.startswith("__") and k.endswith("__"))
               and (isinstance(v, (dict, list, set))
                    or isinstance(v, np.ndarray) and v.flags.writeable)}
    assert mutable == {}
