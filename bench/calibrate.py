"""Machine-speed calibration: fixed loops that never call eaqeckit.

On a shared virtual machine the CPU's speed drifts by up to half over tens of
seconds: a fixed loop took from 14 to 22 ms in runs minutes apart, and raw
medians of 20-second runs of one workload spread by 20-45%.  The benchmark
therefore times calibration loops after every job and reports times at a
reference speed,

    t_ref = t * REFERENCE_S / calibration_s,

where REFERENCE_S is what the loop takes at that speed.  A change to eaqeckit
moves t but not calibration_s.  The loops resemble the work they calibrate:
exact field arithmetic on small Python objects for every workload, plus numpy
table gathers on arrays the size of one batched_full_rank chunk for mds-scan,
whose speed the Python loop alone does not follow (the spreads are in
bench/README.md).

The numpy loop runs in a child process, this file run as a script, one loop
per line read from stdin.  Its arrays, about 40 MB, never count in the
workload process's peak memory.  The Python loop allocates almost nothing and
runs in the workload process.
"""
from __future__ import annotations

import subprocess
import sys
import time

# Seconds each loop takes at the reference speed (the loops' typical time on
# the 2-vCPU virtual machine the benchmark was written on).
PYTHON_REFERENCE_S = 0.0125
NUMPY_REFERENCE_S = 0.095


class _Element:
    """An element of GF(p^e) as a coefficient tuple; instances are cached."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field, self.coeffs = field, coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __sub__(self, other):
        p = self.field.p
        return self.field.get(tuple((x - y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        f = self.field
        p, e = f.p, f.e
        t = [0] * (2 * e - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    t[i + j] = (t[i + j] + x * y) % p
        for i in range(2 * e - 2, e - 1, -1):
            c = t[i]
            if c:
                for j in range(e):
                    t[i - e + j] = (t[i - e + j] - c * f.tail[j]) % p
        return f.get(tuple(t[:e]))

    def inverse(self):
        out, base, n = self.field.one, self, self.field.q - 2
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class _Field:
    def __init__(self, p, e, tail):
        self.p, self.e, self.q, self.tail = p, e, p**e, tail
        self.cache = {}
        self.one = self.get((1,) + (0,) * (e - 1))

    def get(self, coeffs):
        el = self.cache.get(coeffs)
        if el is None:
            el = self.cache[coeffs] = _Element(self, coeffs)
        return el


def _python_loop() -> int:
    """Row reduction of a fixed 9x9 matrix over GF(5^6)."""
    field = _Field(5, 6, (2, 0, 1, 0, 0, 0))  # the loop needs fixed work, not a field
    x, rows = 12345, []
    for _ in range(9):
        row = []
        for _ in range(9):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(field.get(tuple((x >> (3 * k)) % 5 for k in range(6))))
        rows.append(row)
    r = 0
    for c in range(9):
        piv = next((i for i in range(r, 9) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(9):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [a - fac * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


_ARRAYS = None


def _numpy_loop():
    """Table gathers on (65536, 5, 5) int64 arrays, like one subset chunk."""
    global _ARRAYS
    import numpy as np
    if _ARRAYS is None:
        rng = np.random.default_rng(0)
        _ARRAYS = (rng.integers(0, 32, (32, 32)), rng.integers(0, 32, (65536, 5, 5)),
                   rng.integers(0, 32, (65536, 5, 5)))
    table, a, b = _ARRAYS
    m = a.copy()
    for _ in range(3):
        m = table[m, b]
        m[:, 1:, :] = table[m[:, 1:, :], m[:, None, 0, :]]
    return m


def _timed(loop) -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


class Calibration:
    """The calibration loops of one workload process; use it in a with block,
    which stops the numpy child.  reference_s is the loops' reference time."""

    def __init__(self, with_numpy: bool):
        self.reference_s = PYTHON_REFERENCE_S
        self.child = None
        if with_numpy:
            self.reference_s += NUMPY_REFERENCE_S
            self.child = subprocess.Popen([sys.executable, __file__], text=True,
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            self.measure()  # the child's first loop builds its arrays

    def measure(self) -> float:
        total = _timed(_python_loop)
        if self.child is not None:
            self.child.stdin.write("\n")
            self.child.stdin.flush()
            total += float(self.child.stdout.readline())
        return total

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.child is not None:
            self.child.stdin.close()
            self.child.wait()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(_timed(_numpy_loop), flush=True)
