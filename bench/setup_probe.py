"""Time one controller set-up in a fresh interpreter.

Prints the seconds from before ``numpy`` and ``quadvpc`` are imported to
the moment the first flight's config, controller and references exist.

Usage: python3 bench/setup_probe.py <workload>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and quadvpc)

workloads.WORKLOADS[sys.argv[1]](0).set_up()
print(time.perf_counter() - START)
