"""Fixed stdlib-only job that gauges how fast this machine runs right now.

run.py times it in a fresh interpreter between the CLI calls of a run and
scales the run's timings by CALIBRATION_NOMINAL_S / (its median time).  On a
shared host the speed a process gets drifts by 20-50 % from one minute to the
next, and it drifts alike for this job and for hk4verify, so the scaled
timings stay comparable across runs.  The job mimics the program's work
(exact fractions, dict records, an indented JSON dump) and imports nothing
from it, so a change to the program does not change this job.
"""

import json
from fractions import Fraction

rows = []
for i in range(40000):
    c4 = 48 + 12 * (i % 97) - 3 * i
    delta = Fraction((c4 - 1728) ** 2 - 1296**2, 864**2)
    rows.append(
        {"b2": i % 97, "b3": i, "c4": c4,
         "delta": f"{delta.numerator}/{delta.denominator}", "ok": delta >= 0}
    )
json.dumps({"records": rows}, indent=2)
