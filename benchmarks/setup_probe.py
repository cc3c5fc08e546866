"""Time a CLI command's set-up in a fresh interpreter and print it in seconds.

Usage: python3 setup_probe.py [<config> <first axis value as JSON>]

Set-up is `import netupdate`, `Experiment.load` and the first
`Experiment.materialize`, which is what every config-driven command does
before its first simulated run. Without arguments only the import is timed.
"""

import sys
import time

start = time.perf_counter()
import netupdate  # noqa: E402,F401
from netupdate.config import Experiment  # noqa: E402

if len(sys.argv) > 1:
    exp = Experiment.load(sys.argv[1])
    if len(sys.argv) > 2:
        import json
        exp.materialize(json.loads(sys.argv[2]))
    else:
        exp.materialize()
print(time.perf_counter() - start)
