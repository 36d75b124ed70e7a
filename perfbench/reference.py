"""Fixed work that calibrates the machine's speed for the timing metrics.

It does not import the package: it starts an interpreter, imports
numpy, round-trips a list of floats through JSON, runs a pure-Python
loop over it and one small symmetric eigendecomposition, the same mix
of work as a CLI operation.  ``loop.py`` runs it as a subprocess in
every cycle, next to the operations it calibrates.
"""

import json

import numpy as np

rng = np.random.default_rng(0)
rows = rng.standard_normal((30000, 2)).tolist()
for _ in range(2):
    rows = json.loads(json.dumps(rows))
total = 0.0
for x, y in rows:
    total += x * y
a = rng.standard_normal((150, 150))
np.linalg.eigh(a + a.T)
