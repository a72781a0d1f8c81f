"""Child process for the set-up measurement: import shakebal, parse a
config file and make the objective ready, then print the split as JSON.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG

The parent times the whole process, interpreter start included; the split
printed here gives the config.import_s and config.parse_s layers.
"""

import json
import sys
import time

t0 = time.perf_counter()
import shakebal  # noqa: E402
from shakebal.config import parse_config  # noqa: E402

t1 = time.perf_counter()
config = parse_config(sys.argv[1])
t2 = time.perf_counter()
objective = shakebal.make_objective(config.mechanism, config.objective)
objective(config.objective.bounds.lower)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "objective_s": t3 - t2}))
