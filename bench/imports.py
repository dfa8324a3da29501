"""Time the imports behind the CLI's start-up, heaviest dependency first.

Each figure is the time one ``import`` statement takes given the modules
imported before it, so ``aloha_noma.cli`` is timed last and counts only the
package's own modules.  ``python -X importtime`` cannot be used: scipy loads
``scipy.special`` and ``scipy.stats`` through ``importlib.import_module``,
which that option does not report.  Prints one JSON object.
"""

import importlib
import json
import time

MODULES = {
    "setup.import.numpy_s": "numpy",
    "setup.import.scipy_special_s": "scipy.special",
    "setup.import.scipy_stats_s": "scipy.stats",
    "setup.import.aloha_noma_self_s": "aloha_noma.cli",
}

times = {}
for key, module in MODULES.items():
    start = time.perf_counter()
    importlib.import_module(module)
    times[key] = time.perf_counter() - start
print(json.dumps(times))
