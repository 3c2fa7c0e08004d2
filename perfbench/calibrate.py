"""A fixed pure-Python workload that measures how fast the host runs now.

The benchmark times this before every pass and divides pass times by it, so
the end-to-end metrics describe the program's cost, not the load that other
tenants put on a shared host at that minute. Its code must never change:
every recorded result is in units of its run time.

It mixes the kinds of work the simulator and its assembler do: small
objects with attribute access, dict and set building, deques, a keyed `min`,
regular-expression parsing, sorting and string formatting.
"""

import random
import re
import time
from collections import deque

_LINE = re.compile(r"\s*(\w+)\s+(\w+),\s*(-?\d+)\((\w+)\)")


class _Unit:
    def __init__(self, i):
        self.i = i
        self.q = deque()
        self.count = 0
        self.busy = False

    def plan(self, requests):
        if self.q or not self.busy:
            requests.setdefault(self.i & 7, set()).add(self.i)

    def commit(self, grants):
        if grants.get(self.i & 7) == self.i:
            self.count += 1
            self.q.append(self.count)
            if len(self.q) > 4:
                self.q.popleft()
        self.busy = not self.busy


def _arbitration(steps):
    units = [_Unit(i) for i in range(24)]
    rr = [0] * 8
    for _ in range(steps):
        requests = {}
        for u in units:
            u.plan(requests)
        grants = {}
        for bank, ids in requests.items():
            ptr = rr[bank]
            win = min(ids, key=lambda i: (i - ptr) % 24)
            grants[bank] = win
            rr[bank] = (win + 1) % 24
        for u in units:
            u.commit(grants)
    return sum(u.count for u in units)


def _records(n):
    rng = random.Random(1)
    rows = sorted((rng.random(), i, f"k{i}") for i in range(n))
    index = {k: (x, i) for x, i, k in rows}
    return len("".join(f"{k}:{index[k][1]}," for _, _, k in rows))


def _parse(n):
    text = "\n".join(f"  fld ft{i % 8}, {8 * i}(zero)" for i in range(n))
    out = []
    for line in text.splitlines():
        m = _LINE.match(line)
        out.append((m.group(1), m.group(2), int(m.group(3)), m.group(4)))
    return len(out)


def calibrate():
    """Host seconds one fixed unit of work takes (about 60 ms when quiet)."""
    t0 = time.perf_counter()
    _arbitration(1200)
    _records(4000)
    _parse(6000)
    return time.perf_counter() - t0
