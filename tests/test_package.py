import types

import lmgfisher


def test_star_import_matches_public_names():
    namespace = {}
    exec("from lmgfisher import *", namespace)
    public = {name for name, value in vars(lmgfisher).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(lmgfisher.__all__) == public
    assert public <= namespace.keys()
