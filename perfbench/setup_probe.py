"""Set-up probe: imports gaussctm and reads the given configs, then
prints CLOCK_MONOTONIC, which the parent compares with the time it
started this interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG...
"""

import configparser
import sys
import time

sys.path.insert(0, sys.argv[1])
import gaussctm.cli  # noqa: E402,F401

for path in sys.argv[2:]:
    if not configparser.ConfigParser().read(path):
        sys.exit(f"cannot read config {path}")
print(time.monotonic())
