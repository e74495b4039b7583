"""Self-test of the tracer: one tiny solve traced twice.

    python3 perfbench/selftest.py

Checks that the sweep counts of the two passes repeat exactly and that every
child span lies inside its parent.  Traced benchmark runs call ``check``
first and report the verdict.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer  # noqa: E402


def check(L) -> bool:
    p = L.GridFunction.from_callable(lambda t: 0.4 * np.cos(2 * math.pi * t), 256)
    tr = tracer.Tracer()
    tr.install(tracer.LIBRARY_POINTS)
    try:
        for op in (0, 1):
            prob = L.SchrodingerProblem(L.Potential(p))
            tr.run_op(op, L.solve_spectrum, prob, L.INF, L.INF, 2)
    finally:
        tr.uninstall()
    sweeps = [Counter((s[5] or {}).get("mode") for s in tr.spans
                      if s[0] == "ode._sweep" and s[4] == op) for op in (0, 1)]
    nested = all(s[3] is None or (tr.spans[s[3]][1] <= s[1] and s[2] <= tr.spans[s[3]][2])
                 for s in tr.spans)
    return bool(sweeps[0]) and sweeps[0] == sweeps[1] and nested


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    import liouville

    ok = check(liouville)
    print("tracer self-test:", "pass" if ok else "FAIL")
    sys.exit(0 if ok else 1)
