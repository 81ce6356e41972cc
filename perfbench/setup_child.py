"""One set-up of a workload in a fresh interpreter: import the engine, fill the cache.

Usage: python3 perfbench/setup_child.py <workload> <cache-dir>

run.py starts this several times and reports the median as ``setup_s``.  For
query_warm it fills the cache with the cells n <= 4.  The host-speed probe
runs here, in the set-up's own process; the last stdout line is a JSON object
with the probe's busy seconds and kernel times, for run.py to scale by.
"""

import json
import os
import sys

import hostspeed

probe = hostspeed.Probe()
probe.start()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import jetbound.cli  # noqa: E402,F401

if sys.argv[1] == "query_warm":
    import workloads  # noqa: E402

    workloads.fill_cache(sys.argv[2])

probe.stop()
probe.sample()
print(json.dumps({"busy_s": probe.busy_s, "kernel_s": probe.durations}))
