import ctypes
import re
import types
from pathlib import Path

import lmgfisher
from lmgfisher import solver


def test_star_import_matches_public_names():
    namespace = {}
    exec("from lmgfisher import *", namespace)
    public = {name for name, value in vars(lmgfisher).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(lmgfisher.__all__) == public
    assert public <= namespace.keys()


def test_readme_lists_the_lapack_symbols_solver_binds():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("Platform requirement:")
    listed = set(re.findall(r"scipy_LAPACKE_\w+64_", text[start:text.index("\n\n", start)]))
    bound = {value.__name__ for value in vars(solver).values() if isinstance(value, ctypes._CFuncPtr)}
    assert listed == bound
