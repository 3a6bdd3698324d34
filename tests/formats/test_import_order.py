"""Every entry module imports cleanly and quantizes in a fresh interpreter.

``PositConfig``, ``FloatFormat`` and ``FixedPointFormat`` reach their codec
through the :mod:`repro.formats.kernels` module bound at import time, while
that module imports all three format classes.  Which of them starts the
import decides whether the cycle resolves, and an interpreter that has
already imported the package cannot show it: each case here starts a new
one, imports its entry module first, then quantizes one value in each of
the three families.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.formats import parse_format

SRC = str(Path(__file__).resolve().parents[2] / "src")
SPECS = ("posit(8,1)", "bfloat16", "fixed(16,13)")
VALUE = 0.3

SCRIPT = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
from repro.formats import parse_format
print(json.dumps([float(parse_format(spec).quantize([{value}])[0])
                  for spec in {specs!r}]))
"""


@pytest.mark.parametrize("module", ["repro.posit", "repro.posit.config",
                                    "repro.formats",
                                    "repro.formats.fixedpoint",
                                    "repro.serve"])
def test_entry_module_then_quantize_in_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))}
    script = SCRIPT.format(value=VALUE, specs=SPECS)
    completed = subprocess.run([sys.executable, "-c", script, module],
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
    values = json.loads(completed.stdout.strip().splitlines()[-1])
    assert values == [float(parse_format(spec).quantize(np.array([VALUE]))[0])
                      for spec in SPECS]
