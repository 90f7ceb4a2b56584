import contextlib
import ctypes
import io
import re
import types
from pathlib import Path

import numpy as np
import pytest

import lmgfisher
from lmgfisher import analytic, cli, metrology, scaling, solver


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
    listed = set(re.findall(r"scipy_\w+_64_", text[start:text.index("\n\n", start)]))
    bound = {value.__name__ for value in vars(solver).values() if isinstance(value, ctypes._CFuncPtr)}
    assert listed == bound


def test_readme_cli_usage_is_the_help_usage():
    # The README's "## CLI" block is the usage block of cli.__doc__, which
    # --help prints: from "usage:" to the line before the first blank one.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```\n", text.index("## CLI")) + len("```\n")
    readme = text[start:text.index("```", start)]
    doc = cli.__doc__[cli.__doc__.index("usage:"):]
    assert readme.startswith("usage: lmgfisher ")
    assert readme == doc[:doc.index("\n\n") + 1]


def test_readme_quick_start_prints_its_documented_values():
    # The "Library quick start" block runs as written, and each value that a
    # print line's comment documents (0.8173... and so on) starts its output.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```python\n", text.index("## Library quick start")) + len("```python\n")
    block = text[start:text.index("```", start)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    documented = [re.findall(r"(\d+\.\d+)\.\.\.", line.partition("#")[2])
                  for line in block.splitlines() if line.startswith("print(")]
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(documented) == 2
    assert [len(d) for d in documented] == [2, 1]
    for values, prefixes in zip(printed, documented):
        assert all(value.startswith(prefix) for value, prefix in zip(values, prefixes)), (values, prefixes)


def _records():
    """One instance of each of the package's records."""
    params = lmgfisher.ModelParams(40, 0.5, 0.8)
    gs = solver.lmg_ground_state(params)
    fit = scaling.fit_power_law([(10, 1.0), (20, 0.5), (40, 0.25)])
    return [params, lmgfisher.TridiagonalMatrix(np.ones(2), np.ones(1)), gs,
            metrology.transverse_moments(gs), metrology.report(gs), analytic.tl_prediction(0.5, 0.5, 40),
            analytic.critical_scaling_prediction(), fit]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0  # no instance dict to hold it


def test_every_record_is_listed():
    # The 8 records: a new one joins _records() above, so its immutability is tested.
    records = {name for name in lmgfisher.__all__ if hasattr(getattr(lmgfisher, name), "_fields")}
    assert records == {type(record).__name__ for record in _records()}
