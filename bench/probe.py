"""Set-up probe: a fresh interpreter imports korthos and builds the given rings.

Usage: python probe.py RING [RING ...]

Prints one JSON line of CLOCK_MONOTONIC stamps (comparable with the parent's
time.monotonic()): when the script began, when numpy and korthos had been
imported, and when every ring was built.
"""

import time

t_main = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401

t_numpy = time.monotonic()

import korthos  # noqa: E402

t_korthos = time.monotonic()
rings = [korthos.parse_ring(text) for text in sys.argv[1:]]
t_ready = time.monotonic()

print(json.dumps({"t_main": t_main, "t_numpy": t_numpy, "t_korthos": t_korthos,
                  "t_ready": t_ready, "korthos_file": korthos.__file__,
                  "orders": [r.order for r in rings]}), flush=True)
