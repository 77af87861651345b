"""Print the non-slow catalog ids and the package versions as one JSON line.

    PYTHONPATH=src python3 perfbench/catalog.py
"""

import json
import platform
import sys

import numpy

import qdissect
from qdissect.congruences import build_families
from qdissect.registry import registry

reg = registry()
json.dump({
    "cases": [c.id for c in reg.cases],
    "chains": [c.id for c in reg.chains],
    "families": [f.id for f in build_families() if not f.slow],
    "qdissect": qdissect.__version__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
}, sys.stdout)
print()
