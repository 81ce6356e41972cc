"""P(d) of logarithmic cells from the independent sympy port in tests/.

Usage: python3 perfbench/oracle_child.py N,K [N,K ...]

Prints one JSON list of [n, k, ascending coefficients] on stdout.
``workloads.oracle_polynomials`` starts two of these side by side.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracle_gp_port  # noqa: E402

cells = [tuple(int(x) for x in arg.split(",")) for arg in sys.argv[1:]]
print(json.dumps([
    [n, k, list(oracle_gp_port.ascending_coefficients(oracle_gp_port.morse_poly(n, k, "log")))]
    for n, k in cells
]))
