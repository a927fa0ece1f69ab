"""Machine-speed probe for a host shared with other tenants.

On such a host the same op can run 30% slower for minutes at a time,
and whole runs drift by that much. The slowdown follows the speed of
memory-heavy interpreted code, not the scheduler. The benchmark
therefore times this fixed loop between ops and scales each op's time
to a machine on which the loop takes NOMINAL_S. The loop does the kind
of work hyper4 does: exact Fraction elimination and tuple-keyed dict
traffic. It never changes, so the scaling cancels machine drift and
never the program's own changes.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.025  # the loop's time on the machine the metrics are scaled to


def _work() -> int:
    n = 6
    total = 0
    for k in range(12):
        rows = [
            [Fraction((i * 7 + j * 3 + k) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] + [Fraction(i + k)]
            for i in range(n)
        ]
        for c in range(n):
            p = next(r for r in range(c, n) if rows[r][c] != 0)
            rows[c], rows[p] = rows[p], rows[c]
            pivot = rows[c][c]
            rows[c] = [x / pivot for x in rows[c]]
            for r in range(n):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        seen: dict[tuple[int, int, int], int] = {}
        for i in range(3000):
            key = (i % 97, (i * 31) % 89, i % 7)
            seen[key] = seen.get(key, 0) + 1
        total += len(seen)
    return total


def probe() -> float:
    """Seconds this machine takes for the fixed loop right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
