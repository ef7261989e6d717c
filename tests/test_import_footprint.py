"""Importing hydrochain loads numpy only: no SciPy module and no
concurrent.futures (the chain draws its noise on the stepping thread), and
the numpy submodules that numpy 2 loads lazily are loaded at import, not
inside the first timed call that needs them. The PDE and the block statistics
read the run state from schedules, so they load without the chain."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, pkgutil, sys
import hydrochain
for info in pkgutil.iter_modules(hydrochain.__path__, "hydrochain."):
    __import__(info.name)
print(json.dumps([
    sorted(m for m in sys.modules if m.startswith("hydrochain.")),
    sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    sorted(m for m in ("numpy.random", "numpy.polynomial.legendre") if m in sys.modules),
    sorted(m for m in sys.modules if m.split(".")[0] == "concurrent"),
]))
"""


ANALYSIS_PROBE = """
import json, sys
import hydrochain.blockstats, hydrochain.macropde
print(json.dumps(sorted(m for m in sys.modules if m.startswith("hydrochain."))))
"""


def _probe(code: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return json.loads(out)


def test_importing_every_module_loads_no_scipy():
    loaded, scipy_modules, numpy_submodules, concurrent_modules = _probe(PROBE)
    assert len(loaded) >= 8
    assert scipy_modules == []
    assert concurrent_modules == []
    assert numpy_submodules == ["numpy.polynomial.legendre", "numpy.random"]


def test_pde_and_block_statistics_load_without_the_chain():
    loaded = _probe(ANALYSIS_PROBE)
    assert "hydrochain.macropde" in loaded and "hydrochain.blockstats" in loaded
    assert "hydrochain.microchain" not in loaded
