"""A fixed reference kernel that tracks how fast the host runs Python now.

The scan and queries workloads report their wall_s in reference-speed
seconds: each measured unit's wall time times NOMINAL_S / r, where r is the
mean of the reference kernel's median time measured just before and just
after the unit.  On a shared host a process's speed drifts by 10-30% within
seconds to minutes.  Between two sets of ten seeds, twenty minutes apart,
the raw median scan-iso time moved by 27% and the raw query block time by
18-22%; the scaled ones moved by under 5%.  Within a set the factor leaves
the spread about as it was (0.06-0.19 of the median).  A change to kgunits
moves the measured time but not r: the kernel is the benchmark's own code,
and it runs in run.py's process, between the measured processes, so the
program's heap and caches never share its interpreter.  The raw times are
reported beside the scaled ones.  `verify --jobs 2` is left raw: scaling it
made its spread wider, not narrower.

The kernel does what kgunits' hot loops do: products of small group-algebra
elements over a prime field, with interned field elements, method calls and
tuple building.
"""

import gc
import statistics
import time

NOMINAL_S = 0.035  # about the kernel's median on the host the bounds were set on

# setup_s is scaled the same way, but by a reference that does the same kind
# of work: each `import kgunits.cli` probe's time times BARE_START_S over the
# time of a bare `python3 -c pass` started just before it.  No change to
# kgunits moves the bare start.  Over 24 groups of 15 probe pairs this cut
# the spread of the median from 0.18 to 0.035, where the kernel above made it
# wider.
BARE_START_S = 0.055  # about a bare start's median on the same host
REPEATS = 9


class _Elt:
    __slots__ = ("code", "field")

    def __init__(self, code, field):
        self.code, self.field = code, field

    def __mul__(self, other):
        return self.field[(self.code * other.code) % len(self.field)]

    def __add__(self, other):
        return self.field[(self.code + other.code) % len(self.field)]

    def __bool__(self):
        return self.code != 0


def kernel(steps: int = 2200) -> int:
    """Fixed work: repeated products in F_7[C_6]; returns a checksum."""
    field: list = []
    field.extend(_Elt(c, field) for c in range(7))
    n = 6
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    seen: dict = {}
    a = tuple(field[1 + k] for k in range(n))
    for step in range(steps):
        b = tuple(field[(3 * step + k) % 7] for k in range(n))
        out = [field[0]] * n
        for i, x in enumerate(a):
            if x:
                row = table[i]
                for j, y in enumerate(b):
                    if y:
                        out[row[j]] = out[row[j]] + x * y
        a = tuple(out) if any(out) else b
        key = tuple(e.code for e in a)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def reference_s() -> float:
    """Median wall time of REPEATS runs of the kernel, now.

    The collector is off meanwhile, so that no collection of the caller's
    heap lands in a timed run.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
